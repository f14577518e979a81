// §5 on real hardware: speedup of the multiple-thread mechanism over
// single-thread execution, on the actual threaded engine with the actual
// lock manager, sweeping the paper's three factors:
//   (i)  degree of interference   (shared-hub fraction)
//   (ii) number of processors     (worker threads)
//   (iii) production execution times (:cost busy-work)
// Each cell reports both lock protocols; the single-thread run is the
// baseline (speedup = T_single / T_multi).

#include <cstdio>

#include "engine/parallel_engine.h"
#include "engine/single_thread_engine.h"
#include "report.h"
#include "util/stopwatch.h"
#include "workload.h"

namespace {

using namespace dbps;

struct CellResult {
  double seconds = 0;
  uint64_t firings = 0;
  uint64_t aborts = 0;
};

CellResult RunSingle(int jobs, int steps, double shared, int64_t cost) {
  auto workload = bench::MakeJobsWorkload(jobs, steps, shared, cost);
  SingleThreadEngine engine(workload.wm.get(), workload.rules);
  Stopwatch stopwatch;
  auto result = engine.Run().ValueOrDie();
  CellResult cell;
  cell.seconds = stopwatch.ElapsedSeconds();
  cell.firings = result.stats.firings;
  DBPS_CHECK_EQ(cell.firings, workload.expected_firings);
  return cell;
}

CellResult RunParallel(int jobs, int steps, double shared, int64_t cost,
                       size_t workers, LockProtocol protocol) {
  auto workload = bench::MakeJobsWorkload(jobs, steps, shared, cost);
  ParallelEngineOptions options;
  options.num_workers = workers;
  options.protocol = protocol;
  ParallelEngine engine(workload.wm.get(), workload.rules, options);
  Stopwatch stopwatch;
  auto result = engine.Run().ValueOrDie();
  CellResult cell;
  cell.seconds = stopwatch.ElapsedSeconds();
  cell.firings = result.stats.firings;
  cell.aborts = result.stats.aborts + result.stats.stale_skips;
  DBPS_CHECK_EQ(cell.firings, workload.expected_firings);
  return cell;
}

void Row(const char* label, int jobs, int steps, double shared,
         int64_t cost, size_t workers) {
  CellResult single = RunSingle(jobs, steps, shared, cost);
  CellResult rc = RunParallel(jobs, steps, shared, cost, workers,
                              LockProtocol::kRcRaWa);
  CellResult two = RunParallel(jobs, steps, shared, cost, workers,
                               LockProtocol::kTwoPhase);
  std::printf(
      "  %-28s T1=%6.1fms  Rc/Ra/Wa: %6.1fms (x%4.2f, %3llu"
      " aborts)  2PL: %6.1fms (x%4.2f)\n",
      label, single.seconds * 1e3, rc.seconds * 1e3,
      single.seconds / rc.seconds, (unsigned long long)rc.aborts,
      two.seconds * 1e3, single.seconds / two.seconds);
}

}  // namespace

int main() {
  bench::Header(
      "Section 5 on the real engine — speedup vs the paper's 3 factors\n"
      "(workload: 16 jobs x 8 steps = 128 firings; :cost realized via the\n"
      " sleep cost-model, i.e. every worker owns a simulated processor —\n"
      " see DESIGN.md substitutions; host core count does not cap Np)");

  const int kJobs = 16;
  const int kSteps = 8;

  bench::Section("(ii) number of processors (shared=0.25, cost=200us)");
  for (size_t workers : {1, 2, 4, 8}) {
    char label[64];
    std::snprintf(label, sizeof(label), "Np=%zu", workers);
    Row(label, kJobs, kSteps, 0.25, 200, workers);
  }

  bench::Section("(i) degree of interference (Np=4, cost=200us)");
  for (double shared : {0.0, 0.25, 0.5, 1.0}) {
    char label[64];
    std::snprintf(label, sizeof(label), "shared fraction=%.2f", shared);
    Row(label, kJobs, kSteps, shared, 200, 4);
  }

  bench::Section("(iii) production execution time (Np=4, shared=0.25)");
  for (int64_t cost : {0, 100, 400, 1600}) {
    char label[64];
    std::snprintf(label, sizeof(label), "cost=%lldus",
                  (long long)cost);
    Row(label, kJobs, kSteps, 0.25, cost, 4);
  }

  std::printf(
      "\nexpected shapes (paper §5): speedup grows with Np until\n"
      "saturation; falls as interference rises (hub-sharing firings\n"
      "take turns: a claim skips candidates an in-flight firing would\n"
      "doom, so the conflicts cost waiting, not aborts); grows with\n"
      "per-production cost since overheads amortize. The conflicts here\n"
      "are tuple-level, which claims avoid under either protocol, so\n"
      "Rc/Ra/Wa and 2PL run alike; bench_rc_advantage shows the §4.3\n"
      "gap on relation-level (negation) conflicts.\n");
  return 0;
}
