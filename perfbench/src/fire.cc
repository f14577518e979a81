// fire_contended: the seeded §5 jobs program run to quiescence by the
// parallel engine, repeated in rounds until the run's time is up.
// Every round starts from a freshly loaded program, and its output is
// checked after the timed region: firing count, final working memory
// and Definition 3.2 replay of the commit log.

#include <algorithm>
#include <chrono>
#include <fstream>
#include <thread>

#include "bench.h"
#include "gen.h"

namespace pb {
namespace {

using namespace dbps;

// Input size: one round takes roughly 0.4 s on a 4-core host.
constexpr int kJobs = 64;
constexpr int kJobSteps = 150;
constexpr int kActionCostUs = 50;

FireInput MakeInput(uint64_t seed, int cost_us = kActionCostUs) {
  return MakeContended(seed, kJobs, kJobSteps, cost_us);
}

/// Checks the final working memory against the generator's expectation:
/// every job at 0 steps, the hub at the shared jobs' total.
void CheckFinalState(const FireInput& in, const WorkingMemory& wm,
                     Outcome* out) {
  for (const WmePtr& job : wm.Scan(Sym("job"))) {
    if (job->value(2) != Value::Int(0)) {
      return out->Fail("job left with steps: " + job->ToString());
    }
  }
  auto hubs = wm.Scan(Sym("hub"));
  if (hubs.size() != 1 || hubs[0]->value(0) != Value::Int(in.expected_hub)) {
    out->Fail("hub total wrong");
  }
}

struct Round {
  double setup_s = 0;
  double run_s = 0;
  uint64_t firings = 0;
  RunResult result;
  LockManager::Stats lock;
  std::unique_ptr<CommitClock> clock;
  std::unique_ptr<WorkingMemory> wm;
  std::unique_ptr<WorkingMemory> pristine;
  RuleSetPtr rules;
};

/// One load + engine run.
Round RunRound(const FireInput& in, uint64_t seed, Tracer* tracer,
               Outcome* out) {
  Round r;
  const double t0 = Now();
  r.wm = std::make_unique<WorkingMemory>();
  auto rules_or = LoadProgram(in.source, r.wm.get());
  const double t1 = Now();
  if (!rules_or.ok()) {
    out->Fail("load: " + rules_or.status().ToString());
    return r;
  }
  r.rules = rules_or.ValueOrDie();
  r.pristine = r.wm->Clone();

  const uint64_t run_span = tracer->NewId();
  r.clock = std::make_unique<CommitClock>(tracer, run_span, r.wm->next_tag());
  ParallelEngineOptions options = EngineOptionsFor(seed, in.expected_firings);
  options.base.observer = r.clock->Observer();
  const double t2 = Now();
  ParallelEngine engine(r.wm.get(), r.rules, options);
  r.setup_s = (t1 - t0) + (Now() - t2);

  const double run_start = Now();
  StatusOr<RunResult> result = engine.Run();
  const double run_end = Now();
  tracer->AddWithId(run_span, "engine.run", run_start, run_end);
  r.run_s = run_end - run_start;
  if (!result.ok()) {
    out->Fail("engine: " + result.status().ToString());
    return r;
  }
  r.result = std::move(result).ValueOrDie();
  r.firings = r.result.stats.firings;
  r.lock = engine.lock_stats();
  if (engine.live_lock_transactions() != 0) out->Fail("leaked transactions");
  return r;
}

/// The round's output checks: count, final state, Definition 3.2 replay.
void CheckRound(const FireInput& in, Round& r, Outcome* out) {
  if (r.firings != in.expected_firings || r.result.stats.hit_max_firings) {
    out->Fail("expected " + std::to_string(in.expected_firings) +
              " firings, committed " + std::to_string(r.firings));
  }
  CheckFinalState(in, *r.wm, out);
  auto replay = r.pristine->Clone();
  Status valid = ValidateReplay(replay.get(), r.rules, r.result.log);
  if (!valid.ok()) out->Fail("replay validation: " + valid.ToString());
}

/// Writes the round's commit log as a framed WAL, recovers it into a fresh
/// working memory, and checks the recovered state and the audit. Returns
/// the recovery time, seconds.
double RecoverLog(const Args& args, Round& r, Outcome* out) {
  std::string text;
  for (const FiringRecord& rec : r.result.log) {
    auto line = AuditedJournalLine(rec.delta, rec.seq, &rec.audit);
    if (!line.ok()) {
      out->Fail("journal line: " + line.status().ToString());
      return 0;
    }
    text += line.ValueOrDie() + "\n";
  }
  const std::string path = args.workdir + "/fire-" + args.workload + ".wal";
  {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f << EncodeTextAsWal(text, 0);
    if (!f.flush()) {
      out->Fail("cannot write " + path);
      return 0;
    }
  }
  auto wm = r.pristine->Clone();
  const double a = Now();
  auto stats = RecoveryManager(path).Recover(wm.get());
  const double recovery_s = Now() - a;
  if (!stats.ok()) out->Fail("recovery: " + stats.status().ToString());
  CheckSameState(CanonicalWmDump(*r.wm), CanonicalWmDump(*wm), out);
  auto audit = ConsistencyAuditor::AuditWalFile(path);
  if (!audit.ok() || !audit.ValueOrDie().clean()) {
    out->Fail("audit of the fire journal failed");
  }
  std::remove(path.c_str());
  return recovery_s;
}

/// The untraced run: end-to-end metrics only. Rounds repeat until the
/// run's time is up; each round's log is also written as a WAL and
/// recovered. Interference from other tenants of a shared host only ever
/// slows a round, so each per-round figure is summarized as the median of
/// its best quarter of rounds; the all-rounds median goes to the run facts.
void MeasureEndToEnd(const Args& args, const FireInput& in, Outcome* out) {
  Tracer off(false);
  std::vector<double> fps, setup, w50, recovery_s;
  double peak_rss_mb = 0;
  double measured = 0;
  while (measured < args.seconds || fps.size() < 4) {
    Round r = RunRound(in, args.seed, &off, out);
    if (!out->correct) return;
    measured += r.setup_s + r.run_s;
    out->attempted += in.expected_firings;
    out->failed += in.expected_firings - std::min(in.expected_firings,
                                                  r.firings);
    CheckRound(in, r, out);
    fps.push_back(r.firings / r.run_s);
    setup.push_back(r.setup_s);
    w50.push_back(r.clock->reaction_ms.Pct(50));
    recovery_s.push_back(RecoverLog(args, r, out));
    // Idle as long as the round ran: a hypervisor throttles a guest that
    // keeps its vCPUs busy, so back-to-back rounds would each see a
    // different share of the host. The gap is not measured time.
    std::this_thread::sleep_for(std::chrono::duration<double>(r.run_s));
    out->NoteSamples("write_per_round", r.clock->reaction_ms.count());
    // Every further round in one process raised the high-water mark, by a
    // different amount on every run (README.md), so the gated figure is
    // the process's high water through its first round.
    if (fps.size() == 1) peak_rss_mb = PeakRssMb();
  }
  out->facts["rounds"] = std::to_string(fps.size());
  out->facts["all_rounds_median.firings_per_s"] = std::to_string(Median(fps));
  out->Set("firings_per_s", BestQuarter(fps, true), "1/s");
  out->Set("setup_s", Median(setup), "s");
  out->Set("peak_rss_mb", peak_rss_mb, "MB");
  out->facts["all_rounds.peak_rss_mb"] = std::to_string(PeakRssMb());
  out->Set("ok_share",
           1.0 - static_cast<double>(out->failed) / out->attempted, "share");
  // Not steady enough on a shared host to gate (README.md): kept as facts.
  out->facts["ungated.recovery_s"] =
      std::to_string(BestQuarter(recovery_s, false));
  out->facts["ungated.write_p50_ms"] = std::to_string(BestQuarter(w50, false));
}

/// Median firings/s of `reps` parallel runs of `in`.
double ParallelFiringsPerSecond(const FireInput& in, uint64_t seed, int reps,
                                Outcome* out) {
  Tracer off(false);
  std::vector<double> fps;
  for (int i = 0; i < reps && out->correct; ++i) {
    Round r = RunRound(in, seed, &off, out);
    if (r.firings != in.expected_firings) out->Fail("firing count");
    fps.push_back(r.firings / std::max(r.run_s, 1e-9));
  }
  return Median(fps);
}

/// The traced run: per-layer metrics.
void MeasureLayers(const Args& args, const FireInput& in, Outcome* out) {
  Tracer tracer(true);
  Tracer off(false);
  const double t_start = Now();

  if (RunLedger(in.source, args.seed, &tracer, out) != in.expected_firings) {
    out->Fail("ledger fired the wrong number of firings");
  }

  // Alternate untraced and traced rounds: the difference in firings/s is
  // the tracing overhead; the traced rounds' counters feed the layers.
  std::vector<double> plain_fps, traced_fps;
  EngineStats stats;
  LockManager::Stats lock;
  CommitClock merged(&off, 0, 0);
  Round last;
  const double budget = std::max(1.0, args.seconds * 0.6);
  while (Now() - t_start < budget || traced_fps.size() < 2) {
    Round plain = RunRound(in, args.seed, &off, out);
    Round traced = RunRound(in, args.seed, &tracer, out);
    if (!out->correct) return;
    CheckRound(in, traced, out);
    out->attempted += in.expected_firings;
    plain_fps.push_back(plain.firings / plain.run_s);
    traced_fps.push_back(traced.firings / traced.run_s);
    const EngineStats& s = traced.result.stats;
    stats.firings += s.firings;
    stats.aborts += s.aborts;
    stats.stale_skips += s.stale_skips;
    stats.backoff_micros += s.backoff_micros;
    stats.commit_tickets += s.commit_tickets;
    stats.sequencer_stall_micros += s.sequencer_stall_micros;
    stats.peak_parallel_executions =
        std::max(stats.peak_parallel_executions, s.peak_parallel_executions);
    lock.acquired += traced.lock.acquired;
    lock.blocked += traced.lock.blocked;
    lock.aborts_marked += traced.lock.aborts_marked;
    lock.fast_path_grants += traced.lock.fast_path_grants;
    lock.shards.resize(traced.lock.shards.size());
    for (size_t i = 0; i < traced.lock.shards.size(); ++i) {
      lock.shards[i].acquires += traced.lock.shards[i].acquires;
      lock.shards[i].hold_ns += traced.lock.shards[i].hold_ns;
    }
    merged.commit_gap_us.Merge(traced.clock->commit_gap_us);
    merged.reaction_ms.Merge(traced.clock->reaction_ms);
    merged.batch_us.Merge(traced.clock->batch_us);
    merged.batches += traced.clock->batches;
    merged.commits += traced.clock->commits;
    std::this_thread::sleep_for(
        std::chrono::duration<double>(plain.run_s + traced.run_s));
    last = std::move(traced);
  }
  SetEngineLayerMetrics(stats, lock, merged, out);
  out->Set("tail.write_p50_ms", merged.reaction_ms.Pct(50), "ms");
  out->Set("tail.write_p99_ms", merged.reaction_ms.Pct(99), "ms");
  out->Set("trace.overhead_share",
           1.0 - Median(traced_fps) / Median(plain_fps), "share");
  ReplayLocks(last.result.log, *last.wm, &tracer, out);
  out->Set("recovery.replay_ms", RecoverLog(args, last, out) * 1e3, "ms");

  out->Set("engine.single_firings_per_s",
           SerialFiringsPerSecond(in.source, in.expected_firings, 2, out),
           "1/s");
  // Zero-cost firing is bimodal at Np > 1; reported, never gated.
  const FireInput zero = MakeInput(args.seed, 0);
  out->Set("engine.zero_cost_firings_per_s",
           ParallelFiringsPerSecond(zero, args.seed, 3, out), "1/s");
  out->facts["traced_rounds"] = std::to_string(traced_fps.size());
  FinishTrace(args, tracer, out);
}

}  // namespace

std::string FireInputBytes(uint64_t seed) { return MakeInput(seed).source; }

Outcome RunFire(const Args& args) {
  Outcome out;
  const FireInput in = MakeInput(args.seed);
  out.facts["input.expected_firings_per_round"] =
      std::to_string(in.expected_firings);
  if (args.trace) {
    MeasureLayers(args, in, &out);
  } else {
    MeasureEndToEnd(args, in, &out);
  }
  return out;
}

}  // namespace pb
