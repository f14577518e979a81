// Lock-manager microbenchmarks (google-benchmark): the cost of the
// centralized lock manager's primitive operations under both protocols —
// the "minor modifications to conventional lock managers" the paper
// claims (§6). Before the microbenchmarks run, main() prints an
// uncontended fast-path sweep and an abort-storm report: the §4.3
// livelock (a hot relation-level Rc under continuous writers) with
// blocking escalation off vs on, showing the engine's robustness
// counters. Each report row is timed kReportReps times and records the
// median wall time with its min and max.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <thread>
#include <vector>

#include "dbps.h"
#include "engine/busy_work.h"
#include "lock/lock_manager.h"
#include "report.h"
#include "util/logging.h"

namespace dbps {
namespace {

LockManager::Options Opts(LockProtocol protocol) {
  LockManager::Options options;
  options.protocol = protocol;
  return options;
}

void BM_UncontendedAcquireRelease(benchmark::State& state) {
  LockManager lm(Opts(static_cast<LockProtocol>(state.range(0))));
  SymbolId relation = Sym("r");
  for (auto _ : state) {
    TxnId txn = lm.Begin();
    DBPS_CHECK_OK(lm.Acquire(txn, {relation, 1}, LockMode::kRc));
    DBPS_CHECK_OK(lm.Acquire(txn, {relation, 2}, LockMode::kRa));
    DBPS_CHECK_OK(lm.Acquire(txn, {relation, 1}, LockMode::kWa));
    lm.Release(txn);
  }
}
BENCHMARK(BM_UncontendedAcquireRelease)
    ->Arg(static_cast<int>(LockProtocol::kTwoPhase))
    ->Arg(static_cast<int>(LockProtocol::kRcRaWa));

void BM_SharedRcHolders(benchmark::State& state) {
  // N transactions all hold Rc on the same tuple; measure the next
  // reader's acquire.
  LockManager lm(Opts(LockProtocol::kRcRaWa));
  SymbolId relation = Sym("r");
  const int64_t holders = state.range(0);
  std::vector<TxnId> txns;
  for (int64_t i = 0; i < holders; ++i) {
    TxnId txn = lm.Begin();
    DBPS_CHECK_OK(lm.Acquire(txn, {relation, 1}, LockMode::kRc));
    txns.push_back(txn);
  }
  for (auto _ : state) {
    TxnId txn = lm.Begin();
    DBPS_CHECK_OK(lm.Acquire(txn, {relation, 1}, LockMode::kRc));
    lm.Release(txn);
  }
  for (TxnId txn : txns) lm.Release(txn);
}
BENCHMARK(BM_SharedRcHolders)->Arg(1)->Arg(16)->Arg(128);

void BM_WaOverRcGrant(benchmark::State& state) {
  // The paper's key cell: Wa granted over an outstanding Rc — measured
  // as grant latency (never blocks under kRcRaWa).
  LockManager lm(Opts(LockProtocol::kRcRaWa));
  SymbolId relation = Sym("r");
  TxnId reader = lm.Begin();
  DBPS_CHECK_OK(lm.Acquire(reader, {relation, 1}, LockMode::kRc));
  for (auto _ : state) {
    TxnId writer = lm.Begin();
    DBPS_CHECK_OK(lm.Acquire(writer, {relation, 1}, LockMode::kWa));
    lm.Release(writer);
  }
  lm.Release(reader);
}
BENCHMARK(BM_WaOverRcGrant);

void BM_CollectRcVictims(benchmark::State& state) {
  // Commit-time settlement cost with N outstanding Rc holders.
  LockManager lm(Opts(LockProtocol::kRcRaWa));
  SymbolId relation = Sym("r");
  const int64_t readers = state.range(0);
  std::vector<TxnId> txns;
  for (int64_t i = 0; i < readers; ++i) {
    TxnId txn = lm.Begin();
    DBPS_CHECK_OK(lm.Acquire(txn, {relation, 1}, LockMode::kRc));
    txns.push_back(txn);
  }
  TxnId writer = lm.Begin();
  DBPS_CHECK_OK(lm.Acquire(writer, {relation, 1}, LockMode::kWa));
  for (auto _ : state) {
    auto victims = lm.CollectRcVictims(writer);
    benchmark::DoNotOptimize(victims);
    DBPS_CHECK_EQ(victims.size(), static_cast<size_t>(readers));
  }
  lm.Release(writer);
  for (TxnId txn : txns) lm.Release(txn);
}
BENCHMARK(BM_CollectRcVictims)->Arg(1)->Arg(16)->Arg(128);

void BM_RelationEscalationCheck(benchmark::State& state) {
  // Tuple-level acquire in a relation with many tuple holds elsewhere
  // plus a relation-level Rc (the hierarchy check's worst case).
  LockManager lm(Opts(LockProtocol::kRcRaWa));
  SymbolId relation = Sym("r");
  TxnId neg = lm.Begin();
  DBPS_CHECK_OK(lm.Acquire(neg, {relation, kRelationLevel}, LockMode::kRc));
  std::vector<TxnId> txns;
  for (int64_t i = 0; i < state.range(0); ++i) {
    TxnId txn = lm.Begin();
    DBPS_CHECK_OK(
        lm.Acquire(txn, {relation, static_cast<WmeId>(i + 10)},
                   LockMode::kRc));
    txns.push_back(txn);
  }
  for (auto _ : state) {
    TxnId txn = lm.Begin();
    DBPS_CHECK_OK(lm.Acquire(txn, {relation, 5}, LockMode::kWa));
    lm.Release(txn);
  }
  lm.Release(neg);
  for (TxnId txn : txns) lm.Release(txn);
}
BENCHMARK(BM_RelationEscalationCheck)->Arg(4)->Arg(64);

// Timed runs behind each report row (bench_multi_user's kMatchReps does
// the same for its rows).
constexpr size_t kReportReps = 5;

// --- Uncontended fast-path sweep -------------------------------------------
//
// Single-threaded begin/acquire/release loops over DISTINCT tuples per
// mode (Rc, Ra, Wa each on their own object — re-locking the same tuple
// in a stronger mode is a self-upgrade, which deliberately falls back to
// the slow path). With nobody else holding anything, every grant should
// complete on the CAS fast path; the check.sh bench tier fails the run
// if fast_path_grants stays zero here.

/// Share of all grants that completed on the CAS fast path, percent.
double FastHitPct(const LockManager::Stats& stats) {
  return stats.acquired == 0
             ? 0.0
             : 100.0 * stats.fast_path_grants / stats.acquired;
}

void PrintUncontendedSweepReport(bench::JsonReport* report) {
  constexpr uint64_t kTxns = 20000;
  std::printf("uncontended sweep: %llu txns x {Rc,Ra,Wa} on distinct "
              "tuples, 1 thread, median (min-max) of %zu runs\n",
              (unsigned long long)kTxns, kReportReps);
  std::printf("  %-10s %24s %12s %12s %9s %9s\n", "protocol", "wall_ms",
              "grants", "fast_grants", "fast%", "cas_retry");
  for (LockProtocol protocol :
       {LockProtocol::kTwoPhase, LockProtocol::kRcRaWa}) {
    const char* name =
        protocol == LockProtocol::kTwoPhase ? "2pl" : "rcrawa";
    std::vector<double> walls;
    LockManager::Stats stats;
    for (size_t rep = 0; rep < kReportReps; ++rep) {
      LockManager lm(Opts(protocol));
      SymbolId relation = Sym("r");
      Stopwatch stopwatch;
      for (uint64_t i = 0; i < kTxns; ++i) {
        TxnId txn = lm.Begin();
        DBPS_CHECK_OK(lm.Acquire(txn, {relation, 1}, LockMode::kRc));
        DBPS_CHECK_OK(lm.Acquire(txn, {relation, 2}, LockMode::kRa));
        DBPS_CHECK_OK(lm.Acquire(txn, {relation, 3}, LockMode::kWa));
        lm.Release(txn);
      }
      walls.push_back(stopwatch.ElapsedSeconds() * 1e3);
      // Single-threaded and uncontended: every rep's counters are equal.
      stats = lm.GetStats();
    }
    bench::JsonRow row;
    row.workload = "uncontended_sweep";
    row.threads = 1;
    row.protocol = name;
    row.SetWallSamples(walls);
    row.aborts = 0;
    row.committed = kTxns;
    row.fast_path_grants = stats.fast_path_grants;
    row.fast_hit_pct = FastHitPct(stats);
    std::printf("  %-10s %8.1f (%6.1f-%6.1f) %12llu %12llu %8.1f%% %9llu\n",
                name, row.wall_ms, row.wall_ms_min, row.wall_ms_max,
                (unsigned long long)stats.acquired,
                (unsigned long long)stats.fast_path_grants, row.fast_hit_pct,
                (unsigned long long)stats.fast_path_cas_retries);
    report->Add(row);
  }
  std::printf("\n");
}

// --- Abort-storm report ----------------------------------------------------
//
// The `work` rule holds a relation-level Rc on `hot` (negated CE) while
// client sessions continuously insert into `hot`; under kRcRaWa+kAbort
// every client commit victimizes the in-flight firing (§4.3). Run once
// with escalation disabled and once enabled to show how blocking
// escalation bounds the abort streak.

constexpr const char* kAbortStormProgram = R"(
(relation job (id int) (state symbol))
(relation hot (n int))

(rule work :cost 400
  (job ^id <i> ^state todo)
  -(hot ^n 999999)
  -->
  (modify 1 ^state done))
)";

EngineStats RunAbortStorm(int escalate_after, size_t workers,
                          double* wall_ms, LockManager::Stats* lock_stats) {
  constexpr size_t kClients = 3;
  constexpr uint64_t kWritesPerClient = 24;
  constexpr uint64_t kJobEvery = 8;

  WorkingMemory wm;
  auto rules = LoadProgram(kAbortStormProgram, &wm).ValueOrDie();

  SessionManager manager(&wm);
  ParallelEngineOptions options;
  options.num_workers = workers;
  options.protocol = LockProtocol::kRcRaWa;
  options.abort_policy = AbortPolicy::kAbort;
  options.escalate_after_aborts = escalate_after;
  options.retry_backoff_base = std::chrono::microseconds(20);
  options.retry_backoff_max = std::chrono::microseconds(500);
  options.external_source = &manager;
  ParallelEngine engine(&wm, rules, options);
  manager.BindEngine(&engine);

  StatusOr<RunResult> result{Status::Internal("not run")};
  Stopwatch stopwatch;
  std::thread serve([&] { result = engine.Run(); });

  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      auto session = manager.Connect("storm-" + std::to_string(c))
                         .ValueOrDie();
      for (uint64_t i = 0; i < kWritesPerClient; ++i) {
        Status st = session->Perform([&, i](Session& s) -> Status {
          DBPS_RETURN_NOT_OK(s.Begin());
          Delta delta;
          delta.Create(Sym("hot"),
                       {Value::Int(static_cast<int64_t>(c * 1000 + i))});
          if (i % kJobEvery == 0) {
            delta.Create(Sym("job"),
                         {Value::Int(static_cast<int64_t>(c * 1000 + i)),
                          Value::Symbol("todo")});
          }
          DBPS_RETURN_NOT_OK(s.Write(delta));
          return s.Commit().status();
        });
        DBPS_CHECK_OK(st);
        // Throttle so the writers stay active across the firing window
        // instead of finishing before the first firing even claims.
        SleepMicros(100);
      }
      session->Close();
    });
  }
  for (auto& t : clients) t.join();
  manager.Close();
  serve.join();
  if (wall_ms != nullptr) *wall_ms = stopwatch.ElapsedSeconds() * 1e3;
  *lock_stats = engine.lock_stats();
  return result.ValueOrDie().stats;
}

void PrintAbortStormReport(bench::JsonReport* report) {
  const size_t workers = bench::MaxBenchThreads(4);
  std::printf(
      "abort-storm: hot relation-level Rc vs continuous writers "
      "(kRcRaWa+kAbort, %zu workers), the median-wall run of %zu\n",
      workers, kReportReps);
  std::printf("  %-22s %8s %8s %8s %10s %10s %12s %24s\n", "escalation",
              "firings", "aborts", "retries", "maxstreak", "escalated",
              "backoff_us", "wall_ms");
  for (int escalate_after : {0, 2}) {
    // Counters vary from run to run; the row reports the median-wall
    // run's next to the wall time's median, min and max.
    struct Run {
      double wall_ms = 0;
      EngineStats stats;
      LockManager::Stats lock_stats;
    };
    std::vector<Run> runs(kReportReps);
    std::vector<double> walls;
    for (Run& run : runs) {
      run.stats = RunAbortStorm(escalate_after, workers, &run.wall_ms,
                                &run.lock_stats);
      walls.push_back(run.wall_ms);
    }
    std::sort(runs.begin(), runs.end(), [](const Run& a, const Run& b) {
      return a.wall_ms < b.wall_ms;
    });
    const EngineStats& stats = runs[runs.size() / 2].stats;
    const LockManager::Stats& lock_stats = runs[runs.size() / 2].lock_stats;
    bench::JsonRow row;
    row.SetWallSamples(walls);
    char label[32];
    if (escalate_after == 0) {
      std::snprintf(label, sizeof(label), "off");
    } else {
      std::snprintf(label, sizeof(label), "after %d aborts",
                    escalate_after);
    }
    std::printf(
        "  %-22s %8llu %8llu %8llu %10llu %10llu %12llu %8.1f (%6.1f-%6.1f)\n",
        label, (unsigned long long)stats.firings,
        (unsigned long long)stats.aborts,
        (unsigned long long)stats.firing_retries,
        (unsigned long long)stats.max_abort_streak,
        (unsigned long long)stats.escalations,
        (unsigned long long)stats.backoff_micros, row.wall_ms,
        row.wall_ms_min, row.wall_ms_max);
    row.workload = escalate_after == 0 ? "abort_storm_no_escalation"
                                       : "abort_storm_escalation";
    row.threads = workers;
    row.protocol = "rcrawa";
    row.aborts = stats.aborts;
    row.committed = stats.firings;
    row.fast_path_grants = lock_stats.fast_path_grants;
    row.fast_hit_pct = FastHitPct(lock_stats);
    row.batched_commits = stats.batched_commits;
    report->Add(row);
  }
  std::printf("\n");
}

}  // namespace
}  // namespace dbps

int main(int argc, char** argv) {
  dbps::bench::JsonReport report("lock_protocols");
  dbps::PrintUncontendedSweepReport(&report);
  dbps::PrintAbortStormReport(&report);
  report.WriteIfRequested();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
