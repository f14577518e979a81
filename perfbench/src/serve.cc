// serve_mixed: traffic over loopback. One generator thread drives one
// DbpsClient connection per core, open-loop at a fixed rate; three in four
// transactions insert an inbox tuple, one in four only reads `done`. The
// `serve` rule drains the inbox while clients commit, so rule firings and
// client commits share the commit path. The WAL is a real file with
// group commit; after the load the journal is recovered and audited. The
// traced run also offers bursts at once that saturate the server.

#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <limits>
#include <thread>
#include <unordered_map>

#include "bench.h"
#include "gen.h"

namespace pb {
namespace {

using namespace dbps;
using net::DbpsClient;
using net::Frame;
using net::FrameType;

constexpr int kBuckets = 16;
/// Offered rate of the untraced run, txn/s: about a third of what the
/// server sustains on a 4-core host, so a correct server keeps up and the
/// achieved rate falls only when the server cannot.
constexpr double kOfferedRate = 4000;
/// Offered rate of the traced run, which keeps one frame in flight per
/// connection, txn/s.
constexpr double kTracedRate = 1000;
/// Length of one fixed-rate measurement window, seconds.
constexpr double kWindowS = 0.5;
/// Rounds of the untraced run: each starts a fresh server (one set-up
/// sample), drives its windows, and recovers that server's journal
/// kRecoveriesPerRound times.
constexpr int kRounds = 5;
constexpr int kRecoveriesPerRound = 3;
/// Transactions offered at once in one saturation burst.
constexpr size_t kBurstTxns = 3000;
constexpr int kBursts = 4;
/// Server threads: epoll loops and session dispatchers (each <= nproc).
size_t NetLoops() { return std::min<size_t>(2, NumWorkers()); }
size_t Dispatchers() { return NumWorkers(); }
/// Client connections: one per core, all driven by one generator thread.
uint32_t Connections() { return static_cast<uint32_t>(NumWorkers()); }

/// Engine + session manager + net server over a durable journal file
/// (group commit on, no checkpoints, no flush deadline: one fsync per
/// commit batch).
class Server {
 public:
  Server(std::string journal, Tracer* tracer)
      : journal_(std::move(journal)), clock_(tracer, 0, 0) {}
  ~Server() { Finish(); }
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Loads the program and starts serving. Returns the set-up time in
  /// seconds (the pristine clone kept for recovery is not counted), or a
  /// negative value on failure.
  double Start(bool with_net) {
    const double t0 = Now();
    auto rules = LoadProgram(ServeProgram(kBuckets), &wm_);
    if (!rules.ok()) return -1;
    rules_ = rules.ValueOrDie();
    const double t1 = Now();
    pristine_ = wm_.Clone();
    const double t2 = Now();
    DurabilityOptions durability;
    durability.path = journal_;
    durability.open_mode = JournalOpenMode::kTruncate;
    durability.group_commit = true;
    if (!feed_.EnableDurability(durability).ok()) return -1;
    ServerOptions server_options;
    server_options.max_sessions = 4 * Connections() + 8;
    server_options.durable_feed = &feed_;
    manager_ = std::make_unique<SessionManager>(&wm_, server_options);
    ParallelEngineOptions options = EngineOptionsFor(1, 1u << 30);
    options.external_source = manager_.get();
    options.base.observer = feed_.MakeObserver(clock_.Observer());
    engine_ = std::make_unique<ParallelEngine>(&wm_, rules_, options);
    manager_->BindEngine(engine_.get());
    thread_ = std::thread([this] { result_ = engine_->Run(); });
    if (!engine_->WaitUntilAccepting(std::chrono::seconds(10))) return -1;
    if (with_net) {
      net::NetServerOptions net_options;
      net_options.num_loops = NetLoops();
      net_options.num_dispatchers = Dispatchers();
      // Readers see a pinned snapshot and take no Rc lock, so no read is
      // an Rc-Wa victim of the serve rule and no operation fails.
      net_options.session.snapshot_reads = true;
      net_ = std::make_unique<net::NetServer>(manager_.get(), net_options);
      if (!net_->Start().ok()) return -1;
    }
    return (t1 - t0) + (Now() - t2);
  }

  /// Stops serving, lets the engine drain to quiescence, and returns
  /// false if the engine run failed. Idempotent.
  bool Finish() {
    if (finished_) return result_.ok();
    finished_ = true;
    if (net_ != nullptr) {
      net_stats_ = net_->GetStats();
      net_->Stop();
    }
    if (manager_ != nullptr) manager_->Close();
    if (thread_.joinable()) thread_.join();
    return result_.ok();
  }

  uint16_t port() const { return net_->port(); }
  SessionManager& manager() { return *manager_; }
  const WorkingMemory& wm() const { return wm_; }
  const WorkingMemory& pristine() const { return *pristine_; }
  const RunResult& result() const { return result_.ValueOrDie(); }
  const ParallelEngine& engine() const { return *engine_; }
  const JournalFeed& feed() const { return feed_; }
  const net::NetStats& net_stats() const { return net_stats_; }
  CommitClock& clock() { return clock_; }
  const std::string& journal() const { return journal_; }

 private:
  std::string journal_;
  WorkingMemory wm_;
  RuleSetPtr rules_;
  std::unique_ptr<WorkingMemory> pristine_;
  JournalFeed feed_;
  CommitClock clock_;
  std::unique_ptr<SessionManager> manager_;
  std::unique_ptr<ParallelEngine> engine_;
  std::unique_ptr<net::NetServer> net_;
  std::thread thread_;
  StatusOr<RunResult> result_{Status::Internal("engine not run")};
  net::NetStats net_stats_;
  bool finished_ = false;
};

/// The send schedule of fixed-rate window `w`; write ids start at
/// `first_id`.
std::vector<TxnPlan> WindowSchedule(uint64_t seed, int w, int64_t first_id) {
  return MakeSchedule(seed + 1000 * w, kOfferedRate,
                      static_cast<size_t>(kOfferedRate * kWindowS),
                      Connections(), kBuckets, first_id);
}

/// Sleeps as long as `seconds`: a hypervisor throttles a guest that keeps
/// its vCPUs busy, so measured windows are separated by idle gaps of their
/// own length to start from the same host state. Gaps are not measured.
void CoolDown(double seconds) {
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
}

/// What one open-loop phase measured.
struct Phase {
  Samples write_ms, read_ms, lag_ms;
  Samples net_us[4];  // begin, read, write, commit (sequential mode)
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<int64_t> acked_ids;
  uint64_t acked_reads = 0;
  double start = 0;  ///< Now() when the first transaction was due
  double wall_s = 0;
  uint64_t rule_commits = 0;  ///< serve firings (RunServed only)
};

enum Stage { kBeginStage = 0, kReadStage = 1, kWriteStage = 2, kCommitStage = 3 };
const char* const kStageSpan[] = {"net.begin", "net.read", "net.write",
                                  "net.commit"};

/// Drives `schedule` open-loop over `conns`. Pipelined: each transaction's
/// three frames go out together at their scheduled time. Sequential
/// (traced): a connection sends one frame at a time so each frame's
/// round trip is timed; due transactions queue in the client.
Phase Drive(const std::vector<TxnPlan>& schedule,
            std::vector<std::unique_ptr<DbpsClient>>& conns, bool sequential,
            Tracer* tracer, Outcome* out) {
  struct Pending {
    size_t txn;
    int stage;
    double sent;
  };
  struct Conn {
    std::unordered_map<uint64_t, Pending> pending;
    std::deque<size_t> waiting;  // sequential mode
    bool busy = false;
  };
  std::vector<Conn> state(conns.size());
  std::vector<bool> txn_failed(schedule.size(), false);
  std::vector<uint64_t> txn_span(schedule.size(), 0);
  Phase phase;
  phase.attempted = schedule.size();
  size_t next = 0, completed = 0;
  const double start = Now();
  const double deadline =
      start + (schedule.empty() ? 0 : schedule.back().at_s) + 30;

  auto send = [&](size_t c, size_t txn, int stage) {
    const TxnPlan& plan = schedule[txn];
    std::string body;
    StatusOr<uint64_t> id = Status::Internal("unsent");
    if (stage == kBeginStage) {
      id = conns[c]->Send(FrameType::kBegin);
    } else if (stage == kReadStage) {
      net::PutString(&body, "done");
      id = conns[c]->Send(FrameType::kRead, body);
    } else if (stage == kWriteStage) {
      net::PutString(&body, WriteLine(plan));
      id = conns[c]->Send(FrameType::kWrite, body);
    } else {
      id = conns[c]->Send(FrameType::kCommit);
    }
    if (!id.ok()) {
      out->Fail("send: " + id.status().ToString());
      return;
    }
    state[c].pending[id.ValueOrDie()] = Pending{txn, stage, Now()};
  };
  auto start_txn = [&](size_t c, size_t txn) {
    phase.lag_ms.Add((Now() - start - schedule[txn].at_s) * 1e3);
    if (tracer->enabled()) txn_span[txn] = tracer->NewId();
    send(c, txn, kBeginStage);
    if (!sequential) {
      send(c, txn, schedule[txn].write ? kWriteStage : kReadStage);
      send(c, txn, kCommitStage);
    }
    state[c].busy = true;
  };
  auto finish_txn = [&](size_t txn, bool ok, double now) {
    const TxnPlan& plan = schedule[txn];
    const double due = start + plan.at_s;
    // A failure counts as missing every latency limit.
    const double ms =
        ok && !txn_failed[txn] ? (now - due) * 1e3
                               : std::numeric_limits<double>::infinity();
    (plan.write ? phase.write_ms : phase.read_ms).Add(ms);
    if (std::isinf(ms)) {
      ++phase.failed;
    } else if (plan.write) {
      phase.acked_ids.push_back(plan.id);
    } else {
      ++phase.acked_reads;
    }
    tracer->AddWithId(txn_span[txn], plan.write ? "load.write" : "load.read",
                      due, now, 0, txn + 1);
    ++completed;
  };

  std::vector<pollfd> fds(conns.size());
  while (completed < schedule.size() && out->correct) {
    const double now_rel = Now() - start;
    while (next < schedule.size() && schedule[next].at_s <= now_rel) {
      const size_t c = schedule[next].conn;
      if (sequential && state[c].busy) {
        state[c].waiting.push_back(next);
      } else {
        start_txn(c, next);
      }
      ++next;
    }
    if (Now() > deadline) {
      out->Fail("open loop did not drain");
      break;
    }
    for (size_t c = 0; c < conns.size(); ++c) {
      fds[c] = pollfd{conns[c]->fd(), POLLIN, 0};
    }
    // Sleep until the next send is due or a response arrives.
    double wait_s = 0.001;
    if (next < schedule.size()) {
      wait_s = std::clamp(schedule[next].at_s - (Now() - start), 0.0, wait_s);
    }
    const timespec timeout{0, static_cast<long>(wait_s * 1e9)};
    const int ready = ::ppoll(fds.data(), fds.size(), &timeout, nullptr);
    if (ready < 0 && errno != EINTR) {
      out->Fail(std::string("poll: ") + std::strerror(errno));
      break;
    }
    for (size_t c = 0; c < conns.size() && ready > 0; ++c) {
      if ((fds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      Frame frame;
      for (;;) {
        auto got = conns[c]->TryNext(&frame);
        if (!got.ok()) {
          out->Fail("receive: " + got.status().ToString());
          break;
        }
        if (!got.ValueOrDie()) break;
        const double now = Now();
        auto it = state[c].pending.find(frame.request_id);
        if (it == state[c].pending.end()) {
          out->Fail("response to an unknown request");
          break;
        }
        const Pending p = it->second;
        state[c].pending.erase(it);
        const bool ok = p.stage == kCommitStage
                            ? DbpsClient::ExpectCommitOk(frame).ok()
                            : DbpsClient::ExpectOk(frame).ok();
        if (!ok) txn_failed[p.txn] = true;
        if (sequential) {
          phase.net_us[p.stage].Add((now - p.sent) * 1e6);
          tracer->Add(kStageSpan[p.stage], p.sent, now, txn_span[p.txn],
                      p.txn + 1);
          if (p.stage == kBeginStage) {
            send(c, p.txn, schedule[p.txn].write ? kWriteStage : kReadStage);
            continue;
          }
          if (p.stage != kCommitStage) {
            send(c, p.txn, kCommitStage);
            continue;
          }
        }
        if (p.stage != kCommitStage) continue;
        finish_txn(p.txn, ok, now);
        state[c].busy = false;
        if (sequential && !state[c].waiting.empty()) {
          const size_t txn = state[c].waiting.front();
          state[c].waiting.pop_front();
          start_txn(c, txn);
        }
      }
    }
  }
  phase.start = start;
  phase.wall_s = Now() - start;
  return phase;
}

std::vector<std::unique_ptr<DbpsClient>> Connect(Server& server,
                                                 const std::string& prefix,
                                                 Outcome* out) {
  std::vector<std::unique_ptr<DbpsClient>> conns;
  for (uint32_t c = 0; c < Connections(); ++c) {
    auto client = DbpsClient::Connect("127.0.0.1", server.port(),
                                      prefix + std::to_string(c));
    if (!client.ok()) {
      out->Fail("connect: " + client.status().ToString());
      return {};
    }
    conns.push_back(std::move(client).ValueOrDie());
  }
  return conns;
}

void Disconnect(std::vector<std::unique_ptr<DbpsClient>>& conns) {
  for (auto& c : conns) (void)c->Goodbye();
  conns.clear();
}

/// Runs `schedule` against `server` and returns the phase.
Phase RunPhase(Server& server, const std::vector<TxnPlan>& schedule,
               bool sequential, Tracer* tracer, const std::string& prefix,
               Outcome* out) {
  auto conns = Connect(server, prefix, out);
  if (conns.empty()) return Phase{};
  Phase phase = Drive(schedule, conns, sequential, tracer, out);
  Disconnect(conns);
  return phase;
}

/// The live-state check: every acked write is in the inbox and served,
/// and the done counters add up to the inbox size.
void CheckServedState(const WorkingMemory& wm,
                      const std::vector<int64_t>& acked, Outcome* out) {
  std::unordered_map<int64_t, bool> served;
  for (const WmePtr& w : wm.Scan(Sym("inbox"))) {
    served[w->value(0).AsInt()] = w->value(2) == Value::Symbol("served");
  }
  for (int64_t id : acked) {
    auto it = served.find(id);
    if (it == served.end()) return out->Fail("acked write missing");
    if (!it->second) return out->Fail("acked write never served");
  }
  int64_t total = 0;
  for (const WmePtr& w : wm.Scan(Sym("done"))) total += w->value(1).AsInt();
  if (total != static_cast<int64_t>(served.size())) {
    out->Fail("done counters do not match the inbox");
  }
}

/// Splits a CanonicalWmDump into its CSN counter and everything else.
std::pair<uint64_t, std::string> SplitCsn(const std::string& dump) {
  const size_t at = dump.find(" csn=");
  const size_t end = dump.find('\n', at);
  if (at == std::string::npos || end == std::string::npos) return {0, dump};
  return {std::stoull(dump.substr(at + 5, end - at - 5)),
          dump.substr(0, at) + dump.substr(end)};
}

/// Recovers the server's journal into a fresh working memory and checks
/// it against the live state. Returns the recovery time, seconds.
///
/// Known defect, checked exactly rather than hidden: a committed
/// read-only transaction applies an empty delta, which advances the live
/// CSN, but leaves no journal record — so the recovered CSN counter lags
/// the live one by exactly the number of read-only commits. Everything
/// else in the dump must match byte for byte.
double RecoverOnce(Server& server, const Phase& phase, Outcome* out) {
  const auto [live_csn, live] = SplitCsn(CanonicalWmDump(server.wm()));
  auto wm = server.pristine().Clone();
  const double a = Now();
  auto stats = RecoveryManager(server.journal()).Recover(wm.get());
  const double seconds = Now() - a;
  if (!stats.ok()) {
    out->Fail("recovery: " + stats.status().ToString());
    return seconds;
  }
  const auto [csn, recovered] = SplitCsn(CanonicalWmDump(*wm));
  CheckSameState(live, recovered, out);
  if (live_csn - csn != phase.acked_reads) {
    out->Fail("recovered CSN lags the live one by " +
              std::to_string(live_csn - csn) + ", expected " +
              std::to_string(phase.acked_reads));
  }
  out->facts["known_defect.read_only_csn_gap"] = std::to_string(live_csn - csn);
  CheckServedState(*wm, phase.acked_ids, out);
  return seconds;
}

void AuditJournal(const Server& server, Outcome* out) {
  auto audit = ConsistencyAuditor::AuditWalFile(server.journal());
  if (!audit.ok() || !audit.ValueOrDie().clean()) {
    out->Fail("audit of the serve journal failed");
  }
}

std::string JournalPath(const Args& args, const std::string& what) {
  return args.workdir + "/serve-" + std::to_string(::getpid()) + "-" + what +
         ".wal";
}

/// Burst `b` of the saturation phase: kBurstTxns transactions offered at
/// once; write ids start at `first_id`.
std::vector<TxnPlan> BurstSchedule(uint64_t seed, int b, int64_t first_id) {
  return MakeSchedule(seed + 7919 * (b + 1), 1e12, kBurstTxns, Connections(),
                      kBuckets, first_id);
}

/// Drives `schedule` (pipelined over every connection) and waits until the
/// serve rule has served every acked write. Returns the phase with
/// `wall_s` extended to that point.
Phase RunServed(Server& server, const std::vector<TxnPlan>& schedule,
                const std::string& prefix, Outcome* out) {
  Tracer off(false);
  const uint64_t rules_before = server.clock().rule_commits;
  Phase p = RunPhase(server, schedule, false, &off, prefix, out);
  const uint64_t target = rules_before + p.acked_ids.size();
  while (out->correct && server.clock().rule_commits < target) {
    if (Now() - p.start > 60) {
      out->Fail("serve rule did not drain the inbox");
      break;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  p.wall_s = Now() - p.start;
  p.rule_commits = server.clock().rule_commits - rules_before;
  return p;
}

/// Saturation throughput for the traced run: kBursts bursts on a second
/// server; committed transactions ÷ time to serve the burst, best quarter.
/// A p99-limited rate ladder was the first design; on a shared host its
/// answer swung by 2x between runs (see README.md).
double SaturationRate(const Args& args, Outcome* out) {
  Tracer off(false);
  Server server(JournalPath(args, "burst"), &off);
  if (server.Start(true) < 0) {
    out->Fail("burst server did not start");
    return 0;
  }
  std::vector<double> rates;
  std::vector<int64_t> acked;
  for (int b = 0; b < kBursts && out->correct; ++b) {
    Phase p = RunServed(
        server, BurstSchedule(args.seed, b, 1 + b * int64_t{kBurstTxns}),
        "burst-", out);
    out->attempted += p.attempted;
    out->failed += p.failed;
    acked.insert(acked.end(), p.acked_ids.begin(), p.acked_ids.end());
    rates.push_back((p.attempted - p.failed) / p.wall_s);
    CoolDown(p.wall_s);
  }
  if (!server.Finish()) out->Fail("burst engine failed");
  CheckServedState(server.wm(), acked, out);
  std::remove(server.journal().c_str());
  out->facts["all_bursts_median.max_rate_txn_s"] =
      std::to_string(Median(rates));
  return BestQuarter(rates, true);
}

void MeasureEndToEnd(const Args& args, Outcome* out) {
  Tracer off(false);
  // Each round: a fresh server (its start-up is one set-up sample), then
  // open-loop windows of kWindowS at kOfferedRate, each followed by an idle
  // gap as long as itself, together filling the run. A window's rate is
  // serve firings ÷ time from its first due send until its last acked
  // write is served; its latency medians are taken alone.
  const int windows_per_round = std::max(
      2, static_cast<int>(args.seconds / (2 * kWindowS) / kRounds));
  std::vector<double> setup, w50, r50, fps, recoveries;
  double peak_rss_mb = 0;
  for (int round = 0; round < kRounds && out->correct; ++round) {
    Server server(JournalPath(args, "main"), &off);
    const double setup_s = server.Start(true);
    if (setup_s < 0) return out->Fail("server did not start");
    setup.push_back(setup_s);
    Phase all;
    int64_t first_id = 1;
    for (int w = 0; w < windows_per_round && out->correct; ++w) {
      Phase p = RunServed(
          server,
          WindowSchedule(args.seed, round * windows_per_round + w, first_id),
          "fixed-", out);
      fps.push_back(p.rule_commits / p.wall_s);
      w50.push_back(p.write_ms.Pct(50));
      r50.push_back(p.read_ms.Pct(50));
      out->NoteSamples("write_per_window", p.write_ms.count());
      out->NoteSamples("read_per_window", p.read_ms.count());
      all.attempted += p.attempted;
      all.failed += p.failed;
      all.acked_ids.insert(all.acked_ids.end(), p.acked_ids.begin(),
                           p.acked_ids.end());
      all.acked_reads += p.acked_reads;
      first_id += static_cast<int64_t>(p.attempted);
      CoolDown(p.wall_s);
    }
    out->attempted += all.attempted;
    out->failed += all.failed;
    if (!server.Finish()) return out->Fail("engine failed");
    CheckServedState(server.wm(), all.acked_ids, out);
    AuditJournal(server, out);
    // The round's journal recovered into fresh working memories.
    for (int i = 0; i < kRecoveriesPerRound && out->correct; ++i) {
      recoveries.push_back(RecoverOnce(server, all, out));
      CoolDown(recoveries.back());
    }
    std::remove(server.journal().c_str());
    // Each further server in one process raised the high-water mark by
    // 3-6 MB, by a different amount on every run (README.md), so the
    // gated figure is the process's high water through its first server.
    if (round == 0) peak_rss_mb = PeakRssMb();
  }

  out->Set("firings_per_s", Median(fps), "1/s");
  out->Set("setup_s", Median(setup), "s");
  out->Set("peak_rss_mb", peak_rss_mb, "MB");
  out->Set("ok_share",
           1.0 - static_cast<double>(out->failed) / out->attempted, "share");
  out->facts["all_rounds.peak_rss_mb"] = std::to_string(PeakRssMb());
  out->facts["rounds"] = std::to_string(kRounds);
  out->facts["windows"] = std::to_string(fps.size());
  out->facts["offered_rate_txn_s"] = std::to_string(kOfferedRate);
  // Not steady enough on a shared host to gate (README.md): kept as facts.
  out->facts["ungated.recovery_s"] =
      std::to_string(BestQuarter(recoveries, false));
  out->facts["ungated.write_p50_ms"] = std::to_string(BestQuarter(w50, false));
  out->facts["ungated.read_p50_ms"] = std::to_string(BestQuarter(r50, false));
}

/// server.commit_us: Session::Commit of write transactions in process,
/// one thread per connection, at the traced rate in total.
void MeasureInProcessCommit(const Args& args, double seconds, Tracer* tracer,
                            Outcome* out) {
  Tracer off(false);
  Server server(JournalPath(args, "inproc"), &off);
  if (server.Start(false) < 0) return out->Fail("in-process server");
  const uint32_t threads = Connections();
  const double per_thread_rate = kTracedRate / threads;
  const auto per_thread = static_cast<size_t>(per_thread_rate * seconds);
  std::vector<Samples> commit_us(threads);
  std::vector<std::thread> pool;
  std::atomic<bool> ok{true};
  for (uint32_t t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      auto session = server.manager().Connect("inproc-" + std::to_string(t));
      if (!session.ok()) {
        ok = false;
        return;
      }
      auto plan = MakeSchedule(args.seed + 7 * t, per_thread_rate, per_thread,
                               1, kBuckets, 1 + t * 10'000'000LL);
      const auto begin = std::chrono::steady_clock::now();
      for (const TxnPlan& txn : plan) {
        if (!txn.write) continue;
        std::this_thread::sleep_until(
            begin + std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::duration<double>(txn.at_s)));
        Delta delta;
        delta.Create(Sym("inbox"), {Value::Int(txn.id), Value::Int(txn.bucket),
                                    Value::Symbol("new")});
        Session& s = *session.ValueOrDie();
        if (!s.Begin().ok() || !s.Write(delta).ok()) {
          ok = false;
          return;
        }
        const double a = Now();
        auto seq = s.Commit();
        const double b = Now();
        if (!seq.ok()) {
          ok = false;
          return;
        }
        tracer->Add("server.commit", a, b, 0, txn.id);
        commit_us[t].Add((b - a) * 1e6);
      }
      session.ValueOrDie()->Close();
    });
  }
  for (auto& th : pool) th.join();
  if (!ok) out->Fail("in-process session failed");
  if (!server.Finish()) out->Fail("in-process engine failed");
  std::remove(server.journal().c_str());
  Samples all;
  for (const Samples& s : commit_us) all.Merge(s);
  out->Set("server.commit_us.p50", all.Pct(50), "us");
  out->Set("server.commit_us.p99", all.Pct(99), "us");
  out->NoteSamples("server_commit", all.count());
}

void MeasureLayers(const Args& args, Outcome* out) {
  Tracer tracer(true);
  Server server(JournalPath(args, "traced"), &tracer);
  if (server.Start(true) < 0) return out->Fail("server did not start");
  const double fixed_s = args.seconds * 0.4;
  auto schedule = MakeSchedule(args.seed, kTracedRate,
                               static_cast<size_t>(kTracedRate * fixed_s),
                               Connections(), kBuckets, 1);
  Phase p = RunPhase(server, schedule, true, &tracer, "traced-", out);
  out->attempted += p.attempted;
  out->failed += p.failed;
  if (!server.Finish()) return out->Fail("engine failed");
  CheckServedState(server.wm(), p.acked_ids, out);

  const char* names[] = {"net.begin_us", "net.read_us", "net.write_us",
                         "net.commit_us"};
  for (int s = 0; s < 4; ++s) {
    out->Set(std::string(names[s]) + ".p50", p.net_us[s].Pct(50), "us");
    out->Set(std::string(names[s]) + ".p99", p.net_us[s].Pct(99), "us");
    out->NoteSamples(names[s], p.net_us[s].count());
  }
  out->Set("load.generator_lag_ms.p99", p.lag_ms.Pct(99), "ms");
  out->Set("tail.write_p50_ms", p.write_ms.Pct(50), "ms");
  out->Set("tail.write_p99_ms", p.write_ms.Pct(99), "ms");
  out->Set("tail.read_p50_ms", p.read_ms.Pct(50), "ms");
  out->Set("tail.read_p99_ms", p.read_ms.Pct(99), "ms");

  const DurabilityStats d = server.feed().durability();
  const double records = std::max<double>(1, d.records_synced);
  out->Set("server.fsyncs_per_commit", d.fsyncs / records, "count");
  out->Set("server.records_per_fsync", d.MeanGroup(), "count");
  out->Set("server.bytes_per_commit", d.bytes_written / records, "B");
  out->Set("server.busy_refusals", server.net_stats().busy_frames, "count");

  SetEngineLayerMetrics(server.result().stats, server.engine().lock_stats(),
                        server.clock(), out);
  ReplayLocks(server.result().log, server.wm(), &tracer, out);
  AuditJournal(server, out);
  std::vector<double> recoveries;
  for (int i = 0; i < 3; ++i) recoveries.push_back(RecoverOnce(server, p, out));
  out->Set("recovery.replay_ms", Median(recoveries) * 1e3, "ms");
  std::remove(server.journal().c_str());
  out->Set("load.max_rate_txn_s", SaturationRate(args, out), "1/s");

  MeasureInProcessCommit(args, args.seconds * 0.2, &tracer, out);
  out->Set("net.commit_overhead_us",
           p.net_us[kCommitStage].Pct(50) - out->Get("server.commit_us.p50"),
           "us");

  // The serial ledger over the serve program with the fixed phase's
  // writes preloaded as facts.
  std::string source = ServeProgram(kBuckets);
  uint64_t writes = 0;
  for (const TxnPlan& txn : schedule) {
    if (txn.write) {
      ++writes;
      source += "(make inbox ^id " + std::to_string(txn.id) + " ^k " +
                std::to_string(txn.bucket) + " ^st new)\n";
    }
  }
  if (RunLedger(source, args.seed, &tracer, out) != writes) {
    out->Fail("ledger fired the wrong number of firings");
  }
  out->Set("engine.single_firings_per_s",
           SerialFiringsPerSecond(source, writes, 2, out), "1/s");
  FinishTrace(args, tracer, out);
}

}  // namespace

std::string ServeInputBytes(uint64_t seed) {
  return ServeProgram(kBuckets) + ScheduleBytes(WindowSchedule(seed, 0, 1));
}

Outcome RunServe(const Args& args) {
  Outcome out;
  out.facts["net_loops"] = std::to_string(NetLoops());
  out.facts["net_dispatchers"] = std::to_string(Dispatchers());
  out.facts["generator_threads"] = "1";
  out.facts["connections"] = std::to_string(Connections());
  if (args.trace) {
    MeasureLayers(args, &out);
  } else {
    MeasureEndToEnd(args, &out);
  }
  return out;
}

}  // namespace pb
