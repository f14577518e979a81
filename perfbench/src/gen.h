// Seeded input generators. Every input the program receives — rule
// program text, initial facts, client send schedules — is built here from
// the workload seed alone, with a private PRNG (not the library's), so
// the same seed yields byte-identical inputs on every build.

#ifndef DBPS_PERFBENCH_GEN_H_
#define DBPS_PERFBENCH_GEN_H_

#include <cstdint>
#include <string>
#include <vector>

namespace pb {

/// splitmix64: tiny, seedable, platform-independent.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, n); n > 0.
  uint64_t Below(uint64_t n) { return Next() % n; }

 private:
  uint64_t state_;
};

/// A rule program with its initial facts, plus what a correct run ends
/// with.
struct FireInput {
  std::string source;  ///< relations, rules and (make ...) facts
  uint64_t expected_firings = 0;
  /// Final hub value (every job ends at steps 0).
  int64_t expected_hub = 0;
};

/// The §5 jobs program: `jobs` chains of about `steps` firings each; a
/// quarter of the jobs (chosen by seed) also bump one shared hub tuple.
/// Every firing burns `cost_us` of busy-spin CPU.
FireInput MakeContended(uint64_t seed, int jobs, int steps, int cost_us);

/// The serving program: clients insert (inbox ^id ^k ^st new); the `serve`
/// rule marks each served and bumps the (done ^k) counter of its bucket.
std::string ServeProgram(int buckets);

/// One scheduled client transaction of the open loop.
struct TxnPlan {
  double at_s = 0;      ///< send time, seconds after the phase starts
  uint32_t conn = 0;    ///< connection index
  bool write = false;   ///< write (inbox insert) or read-only (read done)
  int64_t id = 0;       ///< inbox id of a write
  int64_t bucket = 0;   ///< done bucket of a write
};

/// A fixed-rate schedule of `count` transactions over `conns`
/// connections: three in four write, one in four only reads. Write ids
/// start at `first_id`.
std::vector<TxnPlan> MakeSchedule(uint64_t seed, double rate, size_t count,
                                  uint32_t conns, int buckets,
                                  int64_t first_id);

/// The journal line a write transaction sends.
std::string WriteLine(const TxnPlan& txn);

/// Byte rendering of a schedule (the self-test compares these).
std::string ScheduleBytes(const std::vector<TxnPlan>& schedule);

}  // namespace pb

#endif  // DBPS_PERFBENCH_GEN_H_
