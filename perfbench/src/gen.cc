#include "gen.h"

#include <cstdio>

namespace pb {

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

FireInput MakeContended(uint64_t seed, int jobs, int steps, int cost_us) {
  Rng rng(seed ^ 0xc0de'0001ULL);
  FireInput in;
  const std::string cost = std::to_string(cost_us);
  in.source = R"((relation job (id int) (kind symbol) (steps int))
(relation hub (v int))

(rule work-local :cost )" + cost + R"(
  (job ^kind local ^steps { > 0 } ^steps <s>)
  -->
  (modify 1 ^steps (- <s> 1)))

(rule work-shared :cost )" + cost + R"(
  (job ^kind shared ^steps { > 0 } ^steps <s>)
  (hub ^v <h>)
  -->
  (modify 1 ^steps (- <s> 1))
  (modify 2 ^v (+ <h> 1)))

(make hub ^v 0)
)";
  char buf[256];
  // Exactly a quarter of the jobs are shared; which ones is seeded.
  std::vector<bool> shared(jobs, false);
  for (int placed = 0; placed < jobs / 4;) {
    const uint64_t j = rng.Below(jobs);
    if (!shared[j]) {
      shared[j] = true;
      ++placed;
    }
  }
  for (int j = 0; j < jobs; ++j) {
    // Chain lengths vary +-20% around `steps`.
    const int s = steps - steps / 5 + static_cast<int>(rng.Below(
                                          2 * (steps / 5) + 1));
    std::snprintf(buf, sizeof(buf), "(make job ^id %d ^kind %s ^steps %d)\n",
                  j, shared[j] ? "shared" : "local", s);
    in.source += buf;
    in.expected_firings += s;
    if (shared[j]) in.expected_hub += s;
  }
  return in;
}

std::string ServeProgram(int buckets) {
  std::string out = R"((relation inbox (id int) (k int) (st symbol))
(relation done (k int) (n int))

(rule serve
  (inbox ^st new ^k <k>)
  (done ^k <k> ^n <n>)
  -->
  (modify 1 ^st served)
  (modify 2 ^n (+ <n> 1)))

)";
  for (int k = 0; k < buckets; ++k) {
    out += "(make done ^k " + std::to_string(k) + " ^n 0)\n";
  }
  return out;
}

std::vector<TxnPlan> MakeSchedule(uint64_t seed, double rate, size_t count,
                                  uint32_t conns, int buckets,
                                  int64_t first_id) {
  Rng rng(seed ^ 0xc0de'0003ULL ^ static_cast<uint64_t>(first_id));
  std::vector<TxnPlan> out(count);
  int64_t next_id = first_id;
  for (size_t i = 0; i < count; ++i) {
    TxnPlan& t = out[i];
    t.at_s = static_cast<double>(i) / rate;
    t.conn = static_cast<uint32_t>(i % conns);
    t.write = rng.Below(4) != 0;
    if (t.write) {
      t.id = next_id++;
      t.bucket = static_cast<int64_t>(rng.Below(buckets));
    }
  }
  return out;
}

std::string WriteLine(const TxnPlan& txn) {
  return "(delta (make inbox " + std::to_string(txn.id) + " " +
         std::to_string(txn.bucket) + " new))";
}

std::string ScheduleBytes(const std::vector<TxnPlan>& schedule) {
  std::string out;
  char buf[128];
  for (const TxnPlan& t : schedule) {
    std::snprintf(buf, sizeof(buf), "%.9f %u %s\n", t.at_s, t.conn,
                  t.write ? WriteLine(t).c_str() : "(read done)");
    out += buf;
  }
  return out;
}

}  // namespace pb
