// Workload entry points and the pieces fire.cc and serve.cc share.

#ifndef DBPS_PERFBENCH_BENCH_H_
#define DBPS_PERFBENCH_BENCH_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "dbps.h"
#include "report.h"

namespace pb {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir = ".";  ///< scratch space for WAL files and traces
};

/// Worker threads the engine runs with: the host's core count.
size_t NumWorkers();

/// The default engine options every workload uses: Np = NumWorkers(),
/// busy-spin action cost, a firing cap above what the input can fire.
dbps::ParallelEngineOptions EngineOptionsFor(uint64_t seed,
                                             uint64_t expected_firings);

/// Engine observer recording, in commit order, what the benchmark reads
/// from outside the engine: per-firing reaction latency (from the commit
/// that activated the firing to its own commit), the gaps between
/// successive commits, commit batch durations, and when tracing one span
/// per commit batch. Read the samples only after the engine stopped;
/// `rule_commits` may be read while it runs.
class CommitClock {
 public:
  CommitClock(Tracer* tracer, uint64_t run_span, uint64_t first_dynamic_tag)
      : tracer_(tracer), run_span_(run_span), base_tag_(first_dynamic_tag) {}
  void OnEvent(const dbps::EngineEvent& event);
  dbps::EngineObserver Observer() {
    return [this](const dbps::EngineEvent& e) { OnEvent(e); };
  }

  Samples reaction_ms;   ///< rule firings only
  Samples commit_gap_us;
  Samples batch_us;
  uint64_t batches = 0;
  uint64_t commits = 0;
  std::atomic<uint64_t> rule_commits{0};

 private:
  std::mutex mu_;
  Tracer* tracer_;
  uint64_t run_span_;
  uint64_t base_tag_;
  std::vector<double> tag_time_;
  double batch_start_ = -1;
  double last_commit_ = -1;
};

/// The serial outside-in ledger: drives `source` through the public
/// calls SingleThreadEngine::Step makes (Claim, EvaluateRhs, Apply,
/// ApplyChange), timing each, and sets the lang/match/rules/wm metrics.
/// Returns the number of firings.
uint64_t RunLedger(const std::string& source, uint64_t seed, Tracer* tracer,
                   Outcome* out);

/// Median firings/s of `reps` SingleThreadEngine runs of `source`, which
/// must fire exactly `expected` times.
double SerialFiringsPerSecond(const std::string& source, uint64_t expected,
                              int reps, Outcome* out);

/// Replays `log` on a fresh LockManager — Begin, Rc per audited read, Wa
/// per audited write, Release — and sets lock.txn_us. `wm` resolves WME
/// ids to relations.
void ReplayLocks(const std::vector<dbps::FiringRecord>& log,
                 const dbps::WorkingMemory& wm, Tracer* tracer, Outcome* out);

/// Sets the lock.* and engine.* metrics from a parallel run's counters.
void SetEngineLayerMetrics(const dbps::EngineStats& stats,
                           const dbps::LockManager::Stats& lock,
                           const CommitClock& clock, Outcome* out);

/// Sets self_ms.<layer> for every layer in the trace and writes the trace
/// as Chrome trace-event JSON under args.workdir.
void FinishTrace(const Args& args, const Tracer& tracer, Outcome* out);

/// Fails `out` with the first differing line unless the two canonical
/// working-memory dumps agree.
void CheckSameState(const std::string& live, const std::string& recovered,
                    Outcome* out);

Outcome RunFire(const Args& args);
Outcome RunServe(const Args& args);

/// The bytes of every input a workload generates from `seed`: program
/// text and facts, plus the send schedule of the first window for serve.
std::string FireInputBytes(uint64_t seed);
std::string ServeInputBytes(uint64_t seed);

/// Generates every workload's inputs twice from one seed and checks the
/// bytes agree (and differ for another seed). Empty string on success.
std::string SelfTest(uint64_t seed);

}  // namespace pb

#endif  // DBPS_PERFBENCH_BENCH_H_
