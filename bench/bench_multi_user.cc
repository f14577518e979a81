// Multi-user throughput — K closed-loop client sessions transacting
// against one shared working memory while the parallel engine drains
// their inserts, swept over worker count and lock protocol.
//
// This is the workload the paper's title promises: a *database*
// production system serving concurrent users (§2). Each client commit is
// an external transaction through the engine's Rc/Ra/Wa commit path, so
// client writes and rule firings interleave in one committed log, which
// is replay-validated (Definition 3.2) for every configuration.
//
// Every fifth client transaction also takes a repeatable read over the
// output relation, so under kRcRaWa the serve rule's commits victimize
// client readers (the §4.3 Rc–Wa conflict) and under kTwoPhase they
// block behind them.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "dbps.h"
#include "report.h"

namespace {

using namespace dbps;

constexpr size_t kSessions = 6;
constexpr uint64_t kOpsPerSession = 25;
constexpr int kMaxAttempts = 64;

constexpr const char* kProgram = R"(
(relation inbox (id int))
(relation done (id int))

(rule serve :cost 400
  (inbox ^id <i>)
  -->
  (remove 1)
  (make done ^id <i>))
)";

struct Outcome {
  double ms = 0;
  uint64_t writes_committed = 0;  // client write txns that committed
  uint64_t client_commits = 0;    // engine view (includes read-only txns)
  uint64_t rc_victims = 0;
  uint64_t firings = 0;
  uint64_t rule_aborts = 0;
  uint64_t fast_path_grants = 0;  // lock grants on the CAS fast path
  uint64_t slow_path_grants = 0;  // grants under the table mutex
  uint64_t batched_commits = 0;   // commits folded into multi-commit batches
  int peak_parallel = 0;
  bool valid = false;
  bench::LatencyRecorder latency;  // per committed write txn, ms

  double FastHitPct() const {
    const uint64_t total = fast_path_grants + slow_path_grants;
    return total == 0 ? 0.0 : 100.0 * fast_path_grants / total;
  }
};

Outcome Run(size_t workers, LockProtocol protocol) {
  WorkingMemory wm;
  auto rules = LoadProgram(kProgram, &wm).ValueOrDie();
  auto pristine = wm.Clone();

  SessionManager manager(&wm);
  ParallelEngineOptions options;
  options.num_workers = workers;
  options.protocol = protocol;
  options.external_source = &manager;
  ParallelEngine engine(&wm, rules, options);
  manager.BindEngine(&engine);

  StatusOr<RunResult> result{Status::Internal("not run")};
  Stopwatch stopwatch;
  std::thread serve([&] { result = engine.Run(); });

  std::atomic<uint64_t> writes_committed{0};
  std::mutex latency_mu;
  bench::LatencyRecorder latency;
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kSessions; ++c) {
    clients.emplace_back([&, c] {
      auto session = manager.Connect("bench-" + std::to_string(c))
                         .ValueOrDie();
      bench::LatencyRecorder local;
      for (uint64_t i = 0; i < kOpsPerSession; ++i) {
        Stopwatch txn_clock;
        for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
          if (!session->Begin().ok()) break;
          if (i % 5 == 0) {
            // Repeatable read held across think time: relation Rc on
            // `done` stays until commit, so the serve rule's inserts
            // conflict with it — blocking under 2PL, victimizing the
            // reader under rcrawa (§4.3).
            if (!session->Read("done").ok()) continue;
            std::this_thread::sleep_for(std::chrono::microseconds(500));
          }
          Delta delta;
          delta.Create(Sym("inbox"),
                       {Value::Int(static_cast<int64_t>(
                           c * 1000000 + i))});
          if (!session->Write(delta).ok()) continue;
          if (session->Commit().ok()) {
            writes_committed.fetch_add(1);
            // Latency of the whole transaction including retries — what
            // a user of the closed-loop session experiences.
            local.Add(txn_clock.ElapsedSeconds() * 1e3);
            break;
          }
        }
      }
      session->Close();
      std::lock_guard<std::mutex> lock(latency_mu);
      latency.Merge(local);
    });
  }
  for (auto& t : clients) t.join();
  manager.Close();
  serve.join();

  Outcome out;
  out.ms = stopwatch.ElapsedSeconds() * 1e3;
  const RunResult& run = result.ValueOrDie();
  auto stats = manager.GetStats();
  out.writes_committed = writes_committed.load();
  out.client_commits = run.stats.client_commits;
  out.rc_victims = stats.closed_sessions.rc_victim_aborts;
  out.firings = run.stats.firings;
  out.rule_aborts = run.stats.aborts;
  const LockManager::Stats& lock_stats = engine.lock_stats();
  out.fast_path_grants = lock_stats.fast_path_grants;
  out.slow_path_grants = lock_stats.acquired - lock_stats.fast_path_grants;
  out.batched_commits = run.stats.batched_commits;
  out.peak_parallel = run.stats.peak_parallel_executions;
  out.latency = std::move(latency);
  out.valid = ValidateReplay(pristine.get(), rules, run.log).ok() &&
              wm.Count(Sym("inbox")) == 0 &&
              wm.Count(Sym("done")) == out.writes_committed;
  return out;
}

// ---------------------------------------------------------------------
// Match-phase sweeps: the serial Rete in isolation, fed a deterministic
// stream of committed batches. Each sweep runs once untimed (so the first
// timed run does not pay process warm-up), then kMatchReps timed runs;
// the row reports the median wall time with min/max, and per-batch
// propagation latency across all timed runs.

constexpr int kMatchReps = 5;

struct MatchOutcome {
  double ms = 0;                   // whole sweep, wall
  uint64_t batches = 0;
  uint64_t wmes_added = 0;         // WME versions the sweep added
  uint64_t join_candidates = 0;    // join-test pairs the sweep examined
  bench::LatencyRecorder latency;  // per-batch propagation, ms
  bool valid = false;  // final set matches a freshly built matcher's
};

/// Loads `program`, applies `preload` (untimed), then feeds `batches`
/// batches from `next_batch` through a serial Rete, one ApplyChanges per
/// batch. Every run consumes the identical change stream (fixed seed).
MatchOutcome RunMatchSweep(const char* program,
                           const std::function<void(Delta*)>& preload,
                           int batches,
                           const std::function<void(Random*, Delta*)>&
                               next_batch) {
  WorkingMemory wm;
  auto rules = LoadProgram(program, &wm).ValueOrDie();
  Delta initial;
  preload(&initial);
  if (!initial.empty()) DBPS_CHECK(wm.Apply(initial).ok());

  ReteMatcher matcher;
  DBPS_CHECK(matcher.Initialize(rules, wm).ok());
  const size_t candidates_before = matcher.GetStats().join_candidates;

  MatchOutcome out;
  Random rng(20260808);
  Stopwatch sweep;
  for (int b = 0; b < batches; ++b) {
    Delta delta;
    next_batch(&rng, &delta);
    auto change_or = wm.Apply(delta);
    DBPS_CHECK(change_or.ok()) << change_or.status();
    out.wmes_added += change_or.ValueOrDie().added.size();
    const std::vector<WmChange> changes{std::move(change_or).ValueOrDie()};
    Stopwatch batch_clock;
    matcher.ApplyChanges(changes);
    out.latency.Add(batch_clock.ElapsedSeconds() * 1e3);
  }
  out.ms = sweep.ElapsedSeconds() * 1e3;
  out.batches = batches;
  out.join_candidates =
      matcher.GetStats().join_candidates - candidates_before;
  // Ground truth: a fresh matcher over the final WM state must agree
  // with the incrementally maintained set.
  ReteMatcher reference;
  DBPS_CHECK(reference.Initialize(rules, wm).ok());
  out.valid = reference.conflict_set().CanonicalDump() ==
              matcher.conflict_set().CanonicalDump();
  return out;
}

/// One warm-up run, then kMatchReps timed runs reported as one row: the
/// median wall time, its min/max, and every run's batch latencies.
/// Returns the last run; its work counts are the same in every run.
MatchOutcome SweepMatch(bench::JsonReport* report, const char* workload,
                        const std::function<MatchOutcome()>& run) {
  DBPS_CHECK(run().valid) << workload << " diverged (warm-up)";
  std::vector<double> walls;
  bench::LatencyRecorder latency;
  MatchOutcome out;
  for (int rep = 0; rep < kMatchReps; ++rep) {
    out = run();
    DBPS_CHECK(out.valid) << workload << " diverged in run " << rep;
    walls.push_back(out.ms);
    latency.Merge(out.latency);
  }
  bench::JsonRow row;
  row.workload = workload;
  row.threads = 1;
  row.protocol = "serial";
  row.SetWallSamples(walls);
  row.committed = out.batches;
  row.join_candidates = out.join_candidates;
  row.SetLatencies(latency);
  report->Add(row);
  std::printf("  %-12s %9.2f %9.2f %9.2f %10.2f %8.1f %8.1f\n", workload,
              row.wall_ms, row.wall_ms_min, row.wall_ms_max,
              static_cast<double>(out.join_candidates) / out.wmes_added,
              latency.Percentile(50) * 1e3, latency.Percentile(99) * 1e3);
  return out;
}

// match_phase: four relations, joins on ^id across relations.
constexpr const char* kMatchProgram = R"(
(relation order (id int) (qty int))
(relation stock (id int) (qty int))
(relation ship (id int))
(relation alert (id int))

(rule fill
  (order ^id <i> ^qty <q>)
  (stock ^id <i> ^qty { > 0 })
  -->
  (remove 1))

(rule low
  (stock ^id <i> ^qty { < 2 })
  -->
  (remove 1))

(rule shipped
  (ship ^id <i>)
  (order ^id <i> ^qty <q>)
  -->
  (remove 1))

(rule watch
  (alert ^id <i>)
  -->
  (remove 1))
)";

constexpr int kMatchBatches = 400;

void MatchPhaseBatch(Random* rng, Delta* delta) {
  const size_t ops = 2 + rng->Uniform(5);
  for (size_t op = 0; op < ops; ++op) {
    const auto id = static_cast<int64_t>(rng->Uniform(32));
    switch (rng->Uniform(4)) {
      case 0:
        delta->Create(Sym("order"),
                      {Value::Int(id), Value::Int(static_cast<int64_t>(
                                           rng->Uniform(5)))});
        break;
      case 1:
        delta->Create(Sym("stock"),
                      {Value::Int(id), Value::Int(static_cast<int64_t>(
                                           rng->Uniform(4)))});
        break;
      case 2:
        delta->Create(Sym("ship"), {Value::Int(id)});
        break;
      default:
        delta->Create(Sym("alert"), {Value::Int(id)});
        break;
    }
  }
}

// match_skew: one hot relation holding thousands of distinct join keys,
// self-joined on the first field. A scanning join visits the whole alpha
// memory (~2,000+ items) per added WME; the hashed memories visit one
// bucket. The gate below is on that work count, which is deterministic,
// not on wall time.

constexpr const char* kSkewProgram = R"(
(relation hot (k int) (v int))

(rule pair
  (hot ^k <x> ^v <a>)
  (hot ^k <x> ^v <b>)
  -->
  (remove 1))
)";

constexpr int kSkewPreload = 2000;
constexpr int kSkewBatches = 800;
/// Join-test pairs per added WME the skew sweep may examine: one for the
/// first CE's join plus both activations of the keyed join, each visiting
/// one key's bucket (~2-3 WMEs on average; 5.4 per add in total today).
constexpr double kSkewMaxCandidatesPerAdd = 8;

void SkewPreload(Delta* delta) {
  // Distinct keys: the alpha memory is deep, the conflict set stays
  // small until the random stream adds duplicates.
  for (int i = 0; i < kSkewPreload; ++i) {
    delta->Create(Sym("hot"), {Value::Int(i), Value::Int(i % 7)});
  }
}

void SkewBatch(Random* rng, Delta* delta) {
  const size_t ops = 2 + rng->Uniform(4);
  for (size_t op = 0; op < ops; ++op) {
    delta->Create(Sym("hot"),
                  {Value::Int(static_cast<int64_t>(rng->Uniform(kSkewPreload))),
                   Value::Int(static_cast<int64_t>(rng->Uniform(1000)))});
  }
}

void SweepMatchPhases(bench::JsonReport* report) {
  bench::Section("match phase — serial Rete with hashed memories, median of " +
                 std::to_string(kMatchReps) + " runs after one warm-up");
  std::printf("\n  %-12s %9s %9s %9s %10s %8s %8s\n", "workload", "ms",
              "min", "max", "cand/add", "p50us", "p99us");
  SweepMatch(report, "match_phase", [] {
    return RunMatchSweep(kMatchProgram, [](Delta*) {}, kMatchBatches,
                         MatchPhaseBatch);
  });
  const MatchOutcome skew = SweepMatch(report, "match_skew", [] {
    return RunMatchSweep(kSkewProgram, SkewPreload, kSkewBatches,
                         SkewBatch);
  });
  // Gate: hashed joins keep the per-add work near the bucket size, far
  // below the ~2,000-item scan an unindexed self-join pays.
  const double per_add = static_cast<double>(skew.join_candidates) /
                         static_cast<double>(skew.wmes_added);
  DBPS_CHECK(per_add <= kSkewMaxCandidatesPerAdd)
      << "match_skew examined " << per_add
      << " join candidates per added WME (gate "
      << kSkewMaxCandidatesPerAdd << ")";
}

}  // namespace

int main() {
  bench::Header(
      "Multi-user sessions — " + std::to_string(kSessions) +
      " closed-loop clients x " + std::to_string(kOpsPerSession) +
      " txns, serve rule @400us\n"
      "(client transactions interleave with rule firings; every log is\n"
      "replay-validated per Definition 3.2)");

  std::printf(
      "\n  %-8s %-7s %9s %10s %8s %8s %8s %8s %8s %8s %8s %6s %6s\n",
      "protocol", "workers", "ms", "txn/s", "commits", "victims", "firings",
      "fast%", "batched", "p50ms", "p99ms", "peak", "valid");

  const size_t max_workers = bench::MaxBenchThreads(8);
  bench::JsonReport report("multi_user");
  bool peak_parallel_seen = false;
  for (LockProtocol protocol :
       {LockProtocol::kTwoPhase, LockProtocol::kRcRaWa}) {
    const char* name =
        protocol == LockProtocol::kTwoPhase ? "2pl" : "rcrawa";
    for (size_t workers : {1u, 2u, 4u, 8u}) {
      if (workers > max_workers) continue;
      Outcome out = Run(workers, protocol);
      std::printf(
          "  %-8s %-7zu %9.1f %10.0f %8llu %8llu %8llu %7.1f%% %8llu "
          "%8.2f %8.2f %6d %6s\n",
          name, workers, out.ms, out.client_commits / (out.ms / 1e3),
          (unsigned long long)out.client_commits,
          (unsigned long long)out.rc_victims,
          (unsigned long long)out.firings, out.FastHitPct(),
          (unsigned long long)out.batched_commits,
          out.latency.Percentile(50), out.latency.Percentile(99),
          out.peak_parallel, out.valid ? "OK" : "FAIL");
      DBPS_CHECK(out.valid) << "replay validation failed for " << name
                            << " workers=" << workers;
      DBPS_CHECK_EQ(out.writes_committed, kSessions * kOpsPerSession);
      if (out.peak_parallel > 1 && out.client_commits > 0) {
        peak_parallel_seen = true;
      }
      bench::JsonRow row;
      row.workload = "closed_loop_sessions";
      row.threads = workers;
      row.protocol = name;
      row.wall_ms = out.ms;
      row.aborts = out.rule_aborts + out.rc_victims;
      row.committed = out.client_commits + out.firings;
      row.fast_path_grants = out.fast_path_grants;
      row.fast_hit_pct = out.FastHitPct();
      row.batched_commits = out.batched_commits;
      row.SetLatencies(out.latency);
      report.Add(row);
    }
  }
  SweepMatchPhases(&report);

  report.WriteIfRequested();
  DBPS_CHECK(peak_parallel_seen || max_workers <= 1)
      << "no configuration achieved parallel rule firings alongside "
         "client commits";

  std::printf(
      "\nrule firings overlap client transactions (peak > 1 with\n"
      "nonzero client commits); under rcrawa the serve rule's commits\n"
      "victimize repeatable readers instead of blocking behind them.\n");
  return 0;
}
