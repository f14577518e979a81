// Small helpers shared by the figure/table reproduction binaries.

#ifndef DBPS_BENCH_REPORT_H_
#define DBPS_BENCH_REPORT_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

namespace dbps {
namespace bench {

inline void Header(const std::string& title) {
  std::printf("\n==============================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("==============================================================\n");
}

inline void Section(const std::string& title) {
  std::printf("\n--- %s ---\n", title.c_str());
}

// Maximum thread/worker count a bench should sweep to, from the
// DBPS_BENCH_THREADS environment variable. Lets the check.sh bench tier
// smoke the binaries at 2 threads while a full run keeps the default.
inline size_t MaxBenchThreads(size_t default_max) {
  const char* env = std::getenv("DBPS_BENCH_THREADS");
  if (env == nullptr || *env == '\0') return default_max;
  const long parsed = std::strtol(env, nullptr, 10);
  if (parsed < 1) return 1;
  return static_cast<size_t>(parsed);
}

// Per-operation latency samples with percentile reporting, shared by the
// closed-loop session bench (bench_multi_user) and the network bench
// (bench_net). Accumulate per worker thread, Merge into one recorder,
// then read Percentile(50/95/99). Nearest-rank on the sorted sample set:
// the reported value is an actual observed latency, never an interpolated
// one.
class LatencyRecorder {
 public:
  void Add(double ms) { samples_.push_back(ms); }

  void Merge(const LatencyRecorder& other) {
    samples_.insert(samples_.end(), other.samples_.begin(),
                    other.samples_.end());
  }

  size_t count() const { return samples_.size(); }

  // p in [0, 100]. Returns 0 with no samples.
  double Percentile(double p) const {
    if (samples_.empty()) return 0;
    std::vector<double> sorted(samples_);
    std::sort(sorted.begin(), sorted.end());
    const double rank = std::ceil(p / 100.0 * sorted.size());
    size_t index = rank <= 1 ? 0 : static_cast<size_t>(rank) - 1;
    if (index >= sorted.size()) index = sorted.size() - 1;
    return sorted[index];
  }

  double Max() const {
    if (samples_.empty()) return 0;
    return *std::max_element(samples_.begin(), samples_.end());
  }

 private:
  std::vector<double> samples_;
};

// Machine-readable benchmark results. Each bench accumulates one row per
// configuration and writes BENCH_<name>.json into $DBPS_BENCH_JSON_DIR
// (a no-op when the variable is unset, so ad-hoc runs stay side-effect
// free). The schema is intentionally flat so CI can diff runs:
//   {"bench": "...", "host": {"nproc": N, "compiler": ..., "build": ...},
//    "rows": [{"workload": ..., "threads": N,
//     "protocol": ..., "wall_ms": X, "reps": N, "wall_ms_min": X,
//     "wall_ms_max": X, "aborts": N, "committed": N,
//     "fast_path_grants": N, "fast_hit_pct": X, "batched_commits": N,
//     "join_candidates": N, "p50_ms": X, "p95_ms": X, "p99_ms": X}]}
// A row measured once has reps 1 and min == max == wall_ms.
// The lock-manager fast-path / commit-batching fields are always
// emitted (zero when a workload never exercises them) so CI can key on
// their presence.
struct JsonRow {
  std::string workload;
  size_t threads = 0;
  std::string protocol;
  double wall_ms = 0;
  /// Timed repetitions behind wall_ms (its median when > 1) and their
  /// spread. Fill from the samples via SetWallSamples().
  size_t reps = 1;
  double wall_ms_min = 0;
  double wall_ms_max = 0;
  uint64_t aborts = 0;
  uint64_t committed = 0;
  /// Lock grants that completed on the CAS fast path, and the share of
  /// all grants they represent (percent, 0 when nothing was acquired).
  uint64_t fast_path_grants = 0;
  double fast_hit_pct = 0;
  /// Commits that rode a multi-commit sequencer batch.
  uint64_t batched_commits = 0;
  /// Match-phase work: (token, WME) pairs handed to the Rete join tests.
  uint64_t join_candidates = 0;
  /// Per-transaction latency percentiles in milliseconds (0 when the
  /// bench does not record per-operation latencies). Fill from a
  /// LatencyRecorder via SetLatencies().
  double p50_ms = 0;
  double p95_ms = 0;
  double p99_ms = 0;

  /// `walls` must be non-empty; sets the median, min, max and reps.
  void SetWallSamples(std::vector<double> walls) {
    std::sort(walls.begin(), walls.end());
    reps = walls.size();
    wall_ms = walls[walls.size() / 2];
    wall_ms_min = walls.front();
    wall_ms_max = walls.back();
  }

  void SetLatencies(const LatencyRecorder& recorder) {
    p50_ms = recorder.Percentile(50);
    p95_ms = recorder.Percentile(95);
    p99_ms = recorder.Percentile(99);
  }
};

class JsonReport {
 public:
  explicit JsonReport(std::string bench_name)
      : bench_name_(std::move(bench_name)) {}

  void Add(JsonRow row) { rows_.push_back(std::move(row)); }

  // Writes BENCH_<bench_name>.json under $DBPS_BENCH_JSON_DIR and returns
  // the path, or returns "" without touching the filesystem when the
  // variable is unset.
  std::string WriteIfRequested() const {
    const char* dir = std::getenv("DBPS_BENCH_JSON_DIR");
    if (dir == nullptr || *dir == '\0') return "";
    const std::string path =
        std::string(dir) + "/BENCH_" + bench_name_ + ".json";
    std::ofstream out(path);
    if (!out) {
      std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
      return "";
    }
    out << "{\n  \"bench\": \"" << bench_name_ << "\",\n"
        << "  \"host\": {\"nproc\": " << std::thread::hardware_concurrency()
        << ", \"compiler\": \"" << __VERSION__ << "\", \"build\": \""
#ifdef DBPS_BUILD_TYPE
        << DBPS_BUILD_TYPE
#endif
        << "\"},\n  \"rows\": [\n";
    for (size_t i = 0; i < rows_.size(); ++i) {
      const JsonRow& row = rows_[i];
      const bool repeated = row.reps > 1;
      char wall[32], wall_min[32], wall_max[32];
      std::snprintf(wall, sizeof(wall), "%.3f", row.wall_ms);
      std::snprintf(wall_min, sizeof(wall_min), "%.3f",
                    repeated ? row.wall_ms_min : row.wall_ms);
      std::snprintf(wall_max, sizeof(wall_max), "%.3f",
                    repeated ? row.wall_ms_max : row.wall_ms);
      char hit[32];
      std::snprintf(hit, sizeof(hit), "%.1f", row.fast_hit_pct);
      char p50[32], p95[32], p99[32];
      // Four decimals: in-process medians sit at single-digit
      // microseconds and must not round to zero.
      std::snprintf(p50, sizeof(p50), "%.4f", row.p50_ms);
      std::snprintf(p95, sizeof(p95), "%.4f", row.p95_ms);
      std::snprintf(p99, sizeof(p99), "%.4f", row.p99_ms);
      out << "    {\"workload\": \"" << row.workload << "\", "
          << "\"threads\": " << row.threads << ", "
          << "\"protocol\": \"" << row.protocol << "\", "
          << "\"wall_ms\": " << wall << ", "
          << "\"reps\": " << row.reps << ", "
          << "\"wall_ms_min\": " << wall_min << ", "
          << "\"wall_ms_max\": " << wall_max << ", "
          << "\"aborts\": " << row.aborts << ", "
          << "\"committed\": " << row.committed << ", "
          << "\"fast_path_grants\": " << row.fast_path_grants << ", "
          << "\"fast_hit_pct\": " << hit << ", "
          << "\"batched_commits\": " << row.batched_commits << ", "
          << "\"join_candidates\": " << row.join_candidates << ", "
          << "\"p50_ms\": " << p50 << ", "
          << "\"p95_ms\": " << p95 << ", "
          << "\"p99_ms\": " << p99 << "}"
          << (i + 1 < rows_.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    std::printf("\nwrote %s\n", path.c_str());
    return path;
  }

 private:
  std::string bench_name_;
  std::vector<JsonRow> rows_;
};

}  // namespace bench
}  // namespace dbps

#endif  // DBPS_BENCH_REPORT_H_
