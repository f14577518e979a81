#include "report.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>

namespace pb {

double Now() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin)
      .count();
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double BestQuarter(std::vector<double> values, bool higher_is_better) {
  std::sort(values.begin(), values.end());
  if (higher_is_better) std::reverse(values.begin(), values.end());
  values.resize(std::max<size_t>(1, values.size() / 4));
  return Median(values);
}

double Samples::Pct(double p) const {
  if (v_.empty()) return 0;
  std::vector<double> sorted(v_);
  std::sort(sorted.begin(), sorted.end());
  const double rank = std::ceil(p / 100.0 * sorted.size());
  size_t index = rank <= 1 ? 0 : static_cast<size_t>(rank) - 1;
  return sorted[std::min(index, sorted.size() - 1)];
}

double Samples::Mean() const {
  if (v_.empty()) return 0;
  double sum = 0;
  for (double v : v_) sum += v;
  return sum / v_.size();
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss / 1024.0;  // ru_maxrss is KiB on Linux
}

uint64_t Tracer::NewId() {
  if (!enabled_) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

uint64_t Tracer::Add(const char* name, double start, double end,
                     uint64_t parent, uint64_t group) {
  if (!enabled_) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t id = next_id_++;
  spans_.push_back(Span{name, start, end, id, parent, group});
  return id;
}

void Tracer::AddWithId(uint64_t id, const char* name, double start,
                       double end, uint64_t parent, uint64_t group) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, start, end, id, parent, group});
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::map<std::string, double> Tracer::SelfMsByLayer() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<uint64_t, std::vector<std::pair<double, double>>> children;
  for (const Span& s : spans_) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start, s.end);
  }
  std::map<std::string, double> self;
  for (const Span& s : spans_) {
    double covered = 0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      // Union of the children's intervals, clipped to the parent.
      auto& kids = it->second;
      std::sort(kids.begin(), kids.end());
      double cur_start = 0, cur_end = -1;
      for (auto [a, b] : kids) {
        a = std::max(a, s.start);
        b = std::min(b, s.end);
        if (b <= a) continue;
        if (a > cur_end) {
          if (cur_end > cur_start) covered += cur_end - cur_start;
          cur_start = a;
          cur_end = b;
        } else {
          cur_end = std::max(cur_end, b);
        }
      }
      if (cur_end > cur_start) covered += cur_end - cur_start;
    }
    const std::string layer = s.name.substr(0, s.name.find('.'));
    self[layer] += std::max(0.0, (s.end - s.start) - covered) * 1e3;
  }
  return self;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << "{\"traceEvents\":[\n";
  char buf[512];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":%s,\"ph\":\"X\",\"pid\":1,\"tid\":%llu,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%llu,"
                  "\"parent\":%llu,\"group\":%llu}}%s\n",
                  JsonString(s.name).c_str(),
                  (unsigned long long)s.group, s.start * 1e6,
                  (s.end - s.start) * 1e6, (unsigned long long)s.id,
                  (unsigned long long)s.parent, (unsigned long long)s.group,
                  i + 1 < spans_.size() ? "," : "");
    out << buf;
  }
  out << "],\"displayTimeUnit\":\"ms\"}\n";
  return static_cast<bool>(out.flush());
}

ScopedSpan::ScopedSpan(Tracer* tracer, const char* name, uint64_t parent,
                       uint64_t group)
    : tracer_(tracer),
      name_(name),
      parent_(parent),
      group_(group),
      id_(tracer->NewId()),
      start_(tracer->enabled() ? Now() : 0) {}

ScopedSpan::~ScopedSpan() {
  if (tracer_->enabled()) {
    tracer_->AddWithId(id_, name_, start_, Now(), parent_, group_);
  }
}

void Outcome::Set(const std::string& name, double value,
                  const std::string& unit) {
  if (!std::isfinite(value)) {
    Fail("metric " + name + " is not finite");
    value = 0;
  }
  for (auto& [n, v] : metrics) {
    if (n == name) {
      v = {value, unit};
      return;
    }
  }
  metrics.push_back({name, {value, unit}});
}

double Outcome::Get(const std::string& name) const {
  for (const auto& [n, v] : metrics) {
    if (n == name) return v.first;
  }
  return 0;
}

void Outcome::Fail(const std::string& why) {
  correct = false;
  std::cerr << "perfbench: check failed: " << why << "\n";
}

void Outcome::NoteSamples(const std::string& what, size_t n) {
  facts["samples." + what] = std::to_string(n);
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Outcome::ResultJson() const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[64];
  for (size_t i = 0; i < metrics.size(); ++i) {
    const auto& [name, vu] = metrics[i];
    std::snprintf(buf, sizeof(buf), "%.17g", vu.first);
    out += (i == 0 ? "" : ", ") + JsonString(name) + ": {\"value\": " + buf +
           ", \"unit\": " + JsonString(vu.second) + "}";
  }
  return out + "}}";
}

std::string Outcome::FactsJson() const {
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : facts) {
    out += (first ? "" : ", ") + JsonString(k) + ": " + JsonString(v);
    first = false;
  }
  return out + "}";
}

}  // namespace pb
