// Measurement plumbing shared by the workloads: clocks, sample sets,
// the in-memory span recorder, run facts and the result line.

#ifndef DBPS_PERFBENCH_REPORT_H_
#define DBPS_PERFBENCH_REPORT_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace pb {

/// Seconds on the steady clock since an arbitrary process-wide origin.
double Now();

/// Median of `values` (0 when empty).
double Median(std::vector<double> values);

/// The median of the best quarter of `values` (at least one value): the
/// highest when `higher_is_better`, else the lowest. Interference from
/// other tenants of a shared host only ever slows a measurement, so the
/// best quarter estimates the program's own speed.
double BestQuarter(std::vector<double> values, bool higher_is_better);

/// A set of timing samples.
class Samples {
 public:
  void Add(double v) { v_.push_back(v); }
  void Merge(const Samples& other) {
    v_.insert(v_.end(), other.v_.begin(), other.v_.end());
  }
  size_t count() const { return v_.size(); }
  /// Nearest-rank percentile, p in [0, 100]; 0 when empty.
  double Pct(double p) const;
  double Mean() const;

 private:
  std::vector<double> v_;
};

/// Process high-water resident set size, MiB.
double PeakRssMb();

/// One traced interval. Spans with `parent == 0` are roots; `group`
/// ties together the spans of one batch or transaction.
struct Span {
  std::string name;  ///< "<layer>.<what>", e.g. "match.select"
  double start = 0;  ///< Now() seconds
  double end = 0;
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t group = 0;
};

/// In-memory span recorder. Thread-safe; disabled recorders cost one
/// branch per call. Spans are kept until WriteChromeTrace.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }
  /// Records a finished span and returns its id (0 when disabled).
  uint64_t Add(const char* name, double start, double end,
               uint64_t parent = 0, uint64_t group = 0);
  /// Reserves an id for a span whose children are recorded before it.
  uint64_t NewId();
  /// Records a span under an id from NewId().
  void AddWithId(uint64_t id, const char* name, double start, double end,
                 uint64_t parent = 0, uint64_t group = 0);
  /// Self time per layer (the name's text before the first '.'), ms: a
  /// span's duration minus the part of it its children cover.
  std::map<std::string, double> SelfMsByLayer() const;
  /// Writes Chrome trace-event JSON ("X" events; args carry the span id,
  /// parent and group). Returns false on I/O failure.
  bool WriteChromeTrace(const std::string& path) const;
  size_t size() const;

 private:
  bool enabled_;
  mutable std::mutex mu_;
  uint64_t next_id_ = 1;
  std::vector<Span> spans_;
};

/// Scoped span: records [construction, destruction) on the tracer.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint64_t parent = 0,
             uint64_t group = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  uint64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  const char* name_;
  uint64_t parent_;
  uint64_t group_;
  uint64_t id_;
  double start_;
};

/// What one benchmark run reports: the correctness verdict, the
/// operation counts and the named metrics (insertion-ordered).
struct Outcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>>
      metrics;
  /// Free-form run facts printed as one JSON object before the result.
  std::map<std::string, std::string> facts;

  void Set(const std::string& name, double value, const std::string& unit);
  /// The value of metric `name`, or 0 when it was not set.
  double Get(const std::string& name) const;
  /// Marks the run incorrect and prints why on stderr.
  void Fail(const std::string& why);
  /// Percentile sample counts are part of the run facts.
  void NoteSamples(const std::string& what, size_t n);
  std::string ResultJson() const;
  std::string FactsJson() const;
};

/// Escapes `s` as a JSON string literal (with quotes).
std::string JsonString(const std::string& s);

}  // namespace pb

#endif  // DBPS_PERFBENCH_REPORT_H_
