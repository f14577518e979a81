// Outside-in per-layer measurement: the serial ledger, the lock replay,
// the commit observer, and the engine/lock counter ratios.

#include <algorithm>
#include <thread>

#include "bench.h"

namespace pb {

using namespace dbps;

size_t NumWorkers() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

ParallelEngineOptions EngineOptionsFor(uint64_t seed,
                                       uint64_t expected_firings) {
  ParallelEngineOptions options;
  options.num_workers = NumWorkers();
  options.base.seed = seed;
  options.base.cost_model = CostModel::kBusySpin;
  options.base.max_firings = expected_firings + 1000;
  return options;
}

void CommitClock::OnEvent(const EngineEvent& event) {
  const double now = Now();
  std::lock_guard<std::mutex> lock(mu_);
  if (event.kind == EngineEvent::Kind::kCommit) {
    if (batch_start_ < 0) batch_start_ = now;
    if (last_commit_ >= 0) commit_gap_us.Add((now - last_commit_) * 1e6);
    last_commit_ = now;
    ++commits;
    if (!IsClientFiring(*event.key)) {
      ++rule_commits;
      // Reaction latency covers firings activated by an earlier commit
      // of this run; firings of the initial facts only measure queueing.
      double activated = -1;
      for (const auto& [id, tag] : event.key->wmes) {
        if (tag >= base_tag_ && tag - base_tag_ < tag_time_.size()) {
          activated = std::max(activated, tag_time_[tag - base_tag_]);
        }
      }
      if (activated >= 0) reaction_ms.Add((now - activated) * 1e3);
    }
    if (event.audit != nullptr) {
      for (const auto& [id, tag] : event.audit->writes) {
        if (tag < base_tag_) continue;
        const size_t slot = tag - base_tag_;
        if (slot >= tag_time_.size()) tag_time_.resize(slot + 1024, -1);
        tag_time_[slot] = now;
      }
    }
  } else if (event.kind == EngineEvent::Kind::kBatchEnd) {
    if (batch_start_ >= 0) {
      batch_us.Add((now - batch_start_) * 1e6);
      ++batches;
      tracer_->Add("engine.batch", batch_start_, now, run_span_, batches);
    }
    batch_start_ = -1;
  }
}

uint64_t RunLedger(const std::string& source, uint64_t seed, Tracer* tracer,
                   Outcome* out) {
  // lang.load_ms and match.init_ms: median of three fresh loads; the
  // firing loop continues from the last one.
  std::vector<double> load_ms, init_ms;
  std::unique_ptr<WorkingMemory> wm;
  std::unique_ptr<Matcher> matcher;
  for (int i = 0; i < 3; ++i) {
    matcher.reset();  // may point into the previous working memory
    wm = std::make_unique<WorkingMemory>();
    double a = Now();
    auto rules = LoadProgram(source, wm.get());
    double b = Now();
    tracer->Add("lang.load", a, b);
    if (!rules.ok()) {
      out->Fail("ledger load: " + rules.status().ToString());
      return 0;
    }
    load_ms.push_back((b - a) * 1e3);
    matcher = CreateMatcher(MatcherKind::kRete);
    a = Now();
    Status st = matcher->Initialize(rules.ValueOrDie(), *wm);
    b = Now();
    tracer->Add("match.init", a, b);
    if (!st.ok()) {
      out->Fail("ledger init: " + st.ToString());
      return 0;
    }
    init_ms.push_back((b - a) * 1e3);
  }
  out->Set("lang.load_ms", Median(load_ms), "ms");
  out->Set("match.init_ms", Median(init_ms), "ms");

  Samples select_us, propagate_us, rhs_us, apply_us, cs_size;
  Random rng(seed);
  const ConflictResolution strategy = EngineOptions().strategy;
  uint64_t firings = 0;
  for (;; ++firings) {
    ScopedSpan step(tracer, "ledger.step", 0, firings + 1);
    cs_size.Add(static_cast<double>(matcher->conflict_set().size()));
    double a = Now();
    InstPtr inst = matcher->conflict_set().Claim(strategy, &rng);
    double b = Now();
    tracer->Add("match.select", a, b, step.id(), firings + 1);
    if (inst == nullptr) break;
    select_us.Add((b - a) * 1e6);

    a = Now();
    auto delta = EvaluateRhs(*inst->rule(), inst->matched());
    b = Now();
    tracer->Add("rules.rhs", a, b, step.id(), firings + 1);
    rhs_us.Add((b - a) * 1e6);
    if (!delta.ok()) {
      out->Fail("ledger RHS: " + delta.status().ToString());
      return firings;
    }
    matcher->conflict_set().MarkFired(inst->key());

    a = Now();
    auto change = wm->Apply(delta.ValueOrDie());
    b = Now();
    tracer->Add("wm.apply", a, b, step.id(), firings + 1);
    apply_us.Add((b - a) * 1e6);
    if (!change.ok()) {
      out->Fail("ledger apply: " + change.status().ToString());
      return firings;
    }

    a = Now();
    matcher->ApplyChange(change.ValueOrDie());
    b = Now();
    tracer->Add("match.propagate", a, b, step.id(), firings + 1);
    propagate_us.Add((b - a) * 1e6);
  }
  out->Set("match.select_us.p50", select_us.Pct(50), "us");
  out->Set("match.select_us.p99", select_us.Pct(99), "us");
  out->Set("match.cs_size", cs_size.Mean(), "count");
  out->Set("match.propagate_us.p50", propagate_us.Pct(50), "us");
  out->Set("match.propagate_us.p99", propagate_us.Pct(99), "us");
  out->Set("rules.rhs_us", rhs_us.Mean(), "us");
  out->Set("wm.apply_us", apply_us.Mean(), "us");
  out->NoteSamples("ledger_firings", firings);
  return firings;
}

double SerialFiringsPerSecond(const std::string& source, uint64_t expected,
                              int reps, Outcome* out) {
  std::vector<double> fps;
  for (int i = 0; i < reps; ++i) {
    WorkingMemory wm;
    auto rules = LoadProgram(source, &wm);
    if (!rules.ok()) {
      out->Fail("serial reference load: " + rules.status().ToString());
      return 0;
    }
    EngineOptions options;
    options.cost_model = CostModel::kBusySpin;
    options.max_firings = expected + 1000;
    SingleThreadEngine engine(&wm, rules.ValueOrDie(), options);
    const double a = Now();
    auto result = engine.Run();
    const double secs = Now() - a;
    if (!result.ok() || result.ValueOrDie().stats.firings != expected) {
      out->Fail("serial reference fired the wrong number of firings");
      return 0;
    }
    fps.push_back(expected / secs);
  }
  return Median(fps);
}

void ReplayLocks(const std::vector<FiringRecord>& log,
                 const WorkingMemory& wm, Tracer* tracer, Outcome* out) {
  LockManager::Options options;
  LockManager manager(options);
  auto relation_of = [&](WmeId id) -> SymbolId {
    WmePtr w = wm.Get(id);
    return w == nullptr ? 0 : w->relation();
  };
  Samples txn_us;
  for (const FiringRecord& rec : log) {
    const double a = Now();
    const TxnId txn = manager.Begin();
    for (const auto& [id, tag] : rec.audit.reads) {
      (void)tag;
      Status st = manager.Acquire(txn, {relation_of(id), id}, LockMode::kRc);
      if (!st.ok()) out->Fail("lock replay Rc: " + st.ToString());
    }
    for (const auto& [id, tag] : rec.audit.writes) {
      (void)tag;
      Status st = manager.Acquire(txn, {relation_of(id), id}, LockMode::kWa);
      if (!st.ok()) out->Fail("lock replay Wa: " + st.ToString());
    }
    manager.Release(txn);
    const double b = Now();
    tracer->Add("lock.txn", a, b, 0, rec.seq + 1);
    txn_us.Add((b - a) * 1e6);
  }
  if (manager.live_transactions() != 0) out->Fail("lock replay leaked");
  out->Set("lock.txn_us", txn_us.Mean(), "us");
  out->NoteSamples("lock_replay_txns", txn_us.count());
}

namespace {
double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }
}  // namespace

void SetEngineLayerMetrics(const EngineStats& stats,
                           const LockManager::Stats& lock,
                           const CommitClock& clock, Outcome* out) {
  uint64_t slow_acquires = 0, hold_ns = 0;
  for (const auto& shard : lock.shards) {
    slow_acquires += shard.acquires;
    hold_ns += shard.hold_ns;
  }
  const double commits = static_cast<double>(stats.firings +
                                             stats.client_commits);
  out->Set("lock.blocked_share", Ratio(lock.blocked, lock.acquired), "share");
  out->Set("lock.fast_path_share", Ratio(lock.fast_path_grants, lock.acquired),
           "share");
  out->Set("lock.hold_ns_per_acquire", Ratio(hold_ns, slow_acquires), "ns");
  out->Set("lock.victims_per_commit", Ratio(lock.aborts_marked, commits),
           "count");
  out->Set("engine.useful_ratio",
           Ratio(stats.firings,
                 stats.firings + stats.aborts + stats.stale_skips),
           "share");
  out->Set("engine.stall_us_per_commit",
           Ratio(stats.sequencer_stall_micros, stats.commit_tickets), "us");
  out->Set("engine.backoff_us_per_firing",
           Ratio(stats.backoff_micros, stats.firings), "us");
  out->Set("engine.peak_parallel", stats.peak_parallel_executions, "count");
  out->Set("engine.commit_gap_us.p50", clock.commit_gap_us.Pct(50), "us");
  out->Set("engine.commit_gap_us.p99", clock.commit_gap_us.Pct(99), "us");
  out->Set("engine.batch_commits", Ratio(clock.commits, clock.batches),
           "count");
  out->Set("engine.batch_us.p50", clock.batch_us.Pct(50), "us");
  out->Set("engine.batch_us.p99", clock.batch_us.Pct(99), "us");
  out->NoteSamples("commit_gaps", clock.commit_gap_us.count());
  out->NoteSamples("batches", clock.batch_us.count());
}

void FinishTrace(const Args& args, const Tracer& tracer, Outcome* out) {
  for (const char* layer : {"lang", "match", "rules", "wm", "lock", "engine",
                            "ledger", "net", "server", "load"}) {
    out->Set(std::string("self_ms.") + layer, 0, "ms");
  }
  for (const auto& [layer, ms] : tracer.SelfMsByLayer()) {
    out->Set("self_ms." + layer, ms, "ms");
  }
  const std::string path = args.workdir + "/trace-" + args.workload + ".json";
  if (!tracer.WriteChromeTrace(path)) out->Fail("cannot write " + path);
  out->facts["trace_file"] = path;
  out->facts["trace_spans"] = std::to_string(tracer.size());
}

void CheckSameState(const std::string& live, const std::string& recovered,
                    Outcome* out) {
  if (live == recovered) return;
  size_t line = 0, a = 0, b = 0;
  for (;; ++line) {
    const size_t ea = live.find('\n', a), eb = recovered.find('\n', b);
    const std::string la = live.substr(a, ea - a);
    const std::string lb = recovered.substr(b, eb - b);
    if (la != lb || ea == std::string::npos || eb == std::string::npos) {
      return out->Fail("recovered state differs at line " +
                       std::to_string(line) + ": live '" + la +
                       "' recovered '" + lb + "'");
    }
    a = ea + 1;
    b = eb + 1;
  }
}

std::string SelfTest(uint64_t seed) {
  auto bytes = [](uint64_t s) { return FireInputBytes(s) + ServeInputBytes(s); };
  const std::string first = bytes(seed);
  if (first != bytes(seed)) return "same seed gave different inputs";
  if (first == bytes(seed + 1)) return "different seeds gave the same inputs";
  return "";
}

}  // namespace pb
