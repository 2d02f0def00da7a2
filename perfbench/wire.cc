// The wire runner: drives nf2d as deployed (fsync at every commit, no
// automatic checkpoints, --workers 2) from one closed-loop client
// process over at most two loopback connections, checks every reply
// against the model, and reaps every daemon it starts.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <sstream>
#include <thread>

#include "bench.h"
#include "server/client.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using nf2::server::Client;

/// One nf2d process. The destructor SIGKILLs and reaps a daemon that is
/// still running, so no exit path of the benchmark leaves one behind.
class Daemon {
 public:
  Daemon() = default;
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  ~Daemon() { Stop(SIGKILL); }

  /// Starts `bin args...` and waits for its "listening on H:P" line.
  bool Start(const std::string& bin, const std::vector<std::string>& args,
             const std::string& log) {
    int out[2];
    if (::pipe(out) != 0) return false;
    pid_ = ::fork();
    if (pid_ == 0) {
      ::dup2(out[1], STDOUT_FILENO);
      const int err = ::open(log.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
      if (err >= 0) ::dup2(err, STDERR_FILENO);
      ::close(out[0]);
      std::vector<char*> argv{const_cast<char*>(bin.c_str())};
      for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
      argv.push_back(nullptr);
      ::execv(bin.c_str(), argv.data());
      ::_exit(127);
    }
    ::close(out[1]);
    if (pid_ < 0) {
      ::close(out[0]);
      return false;
    }
    std::string buffer;
    const Clock::time_point deadline = Clock::now() + std::chrono::seconds(60);
    while (Clock::now() < deadline) {
      pollfd p{out[0], POLLIN, 0};
      if (::poll(&p, 1, 100) <= 0) continue;
      char chunk[256];
      const ssize_t n = ::read(out[0], chunk, sizeof chunk);
      if (n <= 0) break;
      buffer.append(chunk, static_cast<size_t>(n));
      const size_t at = buffer.find("listening on ");
      const size_t eol = at == std::string::npos ? at : buffer.find('\n', at);
      if (eol != std::string::npos) {
        const std::string line = buffer.substr(at, eol - at);
        port_ = static_cast<uint16_t>(std::stoi(line.substr(line.rfind(':') + 1)));
        ::close(out[0]);
        return true;
      }
    }
    ::close(out[0]);
    Stop(SIGKILL);
    return false;
  }

  /// Sends `sig` and waits for the process to end.
  void Stop(int sig) {
    if (pid_ <= 0) return;
    ::kill(pid_, sig);
    int status = 0;
    while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
    pid_ = -1;
  }

  uint16_t port() const { return port_; }

 private:
  pid_t pid_ = -1;
  uint16_t port_ = 0;
};

/// An end-to-end run is cut into this many rounds (see RunWire).
constexpr size_t kRounds = 10;

/// How long one operation may keep being bounced with kUnavailable
/// before it counts as failed.
constexpr double kBusyDeadlineS = 20;

/// A loopback connection. kUnavailable means the statement was not
/// executed (another session's transaction holds the engine or a shard).
struct Conn {
  std::optional<Client> client;
  Rng jitter{1};
  uint64_t retries = 0;
  uint64_t stmts = 0;
  double stmt_seconds = 0;  // Client-side round-trip time of statements.

  bool Open(uint16_t port) {
    auto c = Client::Connect("127.0.0.1", port);
    if (!c.ok()) return false;
    client.emplace(std::move(*c));
    return true;
  }

  nf2::Result<std::string> Exec(const std::string& text) {
    const Clock::time_point t0 = Clock::now();
    nf2::Result<std::string> r = client->Execute(text);
    stmt_seconds += SecondsSince(t0);
    ++stmts;
    return r;
  }

  /// Exponential backoff with jitter before the next attempt:
  /// 50 us * 2^attempt, at most 1.6 ms, times a factor in [0.5, 1.5).
  void Backoff(int attempt) {
    ++retries;
    const double us = 50.0 * static_cast<double>(1 << std::min(attempt, 5)) *
                      (0.5 + static_cast<double>(jitter.Below(1024)) / 1024.0);
    std::this_thread::sleep_for(std::chrono::microseconds(static_cast<int64_t>(us)));
  }
};

struct Samples {
  std::map<OpClass, std::vector<double>> us;  // Latency per class, µs.
  void Merge(const Samples& o) {
    for (const auto& [cls, v] : o.us) us[cls].insert(us[cls].end(), v.begin(), v.end());
  }
};

enum class Attempt { kDone, kBusy, kError };

/// Sends an operation's statements once, checking each reply. A
/// transaction that is bounced or fails after its BEGIN is rolled back,
/// so a retry starts from a clean slate and holds no shard's slot.
Attempt TryOp(Conn* conn, const Op& op, RunResult* result, std::mutex* result_mu,
              std::string* error) {
  for (size_t i = 0; i < op.stmts.size(); ++i) {
    const Stmt& s = op.stmts[i];
    nf2::Result<std::string> r = conn->Exec(s.text);
    if (!r.ok()) {
      if (op.cls == OpClass::kTxn && i > 0) (void)conn->Exec("ROLLBACK");
      if (r.status().code() == nf2::StatusCode::kUnavailable) return Attempt::kBusy;
      *error = s.text.substr(0, 80) + ": " + r.status().ToString();
      return Attempt::kError;
    }
    if (!CheckReply(s, *r)) {
      std::lock_guard<std::mutex> lock(*result_mu);
      result->Fail("wrong reply to `" + s.text.substr(0, 80) + "`: got `" +
                   r->substr(0, 120) + "`");
    }
  }
  return Attempt::kDone;
}

/// Runs one operation, timing it as a whole, retries included. A
/// bounced operation is retried whole after a backoff; one still
/// bounced after kBusyDeadlineS, or one that fails, is counted in
/// `failed` and returns false.
bool RunOp(Conn* conn, const Op& op, Samples* samples, RunResult* result,
           std::mutex* result_mu) {
  const Clock::time_point t0 = Clock::now();
  for (int attempt = 0;; ++attempt) {
    std::string error;
    const Attempt a = TryOp(conn, op, result, result_mu, &error);
    if (a == Attempt::kDone) break;
    if (a == Attempt::kBusy && SecondsSince(t0) < kBusyDeadlineS) {
      conn->Backoff(attempt);
      continue;
    }
    std::lock_guard<std::mutex> lock(*result_mu);
    ++result->failed;
    result->Fail(a == Attempt::kBusy
                     ? op.stmts.front().text.substr(0, 80) + ": still bounced after " +
                           std::to_string(static_cast<int>(kBusyDeadlineS)) + " s"
                     : error);
    return false;
  }
  samples->us[op.cls].push_back(SecondsSince(t0) * 1e6);
  return true;
}

/// `\metrics prom` summed over label sets (shards), buckets skipped.
Counters Scrape(Conn* conn) {
  Counters out;
  nf2::Result<std::string> text = conn->client->Execute("\\metrics prom");
  if (!text.ok()) return out;
  std::istringstream in(*text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const size_t sp = line.rfind(' ');
    if (sp == std::string::npos) continue;
    std::string name = line.substr(0, line.find_first_of("{ "));
    if (name.size() > 7 && name.compare(name.size() - 7, 7, "_bucket") == 0) continue;
    out[name] += std::strtod(line.c_str() + sp + 1, nullptr);
  }
  return out;
}

void AddDelta(Counters* total, const Counters& before, const Counters& after) {
  for (const auto& [name, v] : after) {
    auto it = before.find(name);
    (*total)[name] += v - (it == before.end() ? 0 : it->second);
  }
}

double Get(const Counters& c, const std::string& name) {
  auto it = c.find(name);
  return it == c.end() ? 0 : it->second;
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t bytes = 0;
  for (const auto& e : fs::recursive_directory_iterator(dir)) {
    if (e.is_regular_file()) bytes += e.file_size();
  }
  return bytes;
}

}  // namespace

WireOutput RunWire(const Options& opt, Plan* setup_plan) {
  const Plan& plan = *setup_plan;
  WireOutput out;
  RunResult& res = out.result;
  std::mutex res_mu;
  Model model = plan.model;
  const std::string dir = opt.work_dir + "/primary";
  const std::string log = opt.work_dir + "/daemon.log";
  fs::create_directories(dir);
  std::vector<std::string> args{dir, "--port", "0", "--workers", "2"};
  if (plan.shards > 1) {
    args.insert(args.end(), {"--shards", std::to_string(plan.shards)});
  }
  // Phase boundaries, seconds since the process started (to stderr).
  std::vector<std::pair<const char*, double>> phases{
      {"generate", SecondsSince(opt.process_start)}};
  auto phase = [&](const char* name) {
    phases.emplace_back(name, SecondsSince(opt.process_start));
  };
  auto primary = std::make_unique<Daemon>();
  Conn c0;
  auto fatal = [&](const std::string& why) {
    res.Fail(why);
    ++res.failed;
    ++res.attempted;
    return out;
  };
  if (!primary->Start(opt.nf2d, args, log) || !c0.Open(primary->port())) {
    return fatal("cannot start nf2d");
  }
  phase("daemon");
  for (const std::string& ddl : plan.ddl) {
    auto r = c0.client->Execute(ddl);
    if (!r.ok() || r->rfind("created relation", 0) != 0) return fatal("DDL failed: " + ddl);
  }
  phase("ddl");
  for (const auto& batch : plan.loads) {
    auto r = c0.client->ExecuteBatch(batch);
    if (!r.ok()) return fatal("bulk load failed: " + r.status().ToString());
    for (const auto& one : *r) {
      if (!one.ok()) return fatal("bulk load statement failed: " + one.status().ToString());
    }
  }
  Conn c1;
  c1.jitter = Rng(2);
  if (!c1.Open(primary->port())) return fatal("cannot open second connection");
  Counters layer, life_start = opt.trace ? Scrape(&c0) : Counters{};
  c0.stmts = 0;
  c0.stmt_seconds = 0;
  phase("load");
  const double setup_s = SecondsSince(opt.process_start);
  MakeOps(setup_plan, opt.seed, opt.seconds);
  phase("generate_ops");

  // ---- The run proper: kRounds rounds, each a slice of the main phase,
  // of the maintenance cycles and of the cold followers, so that every
  // metric's samples spread over the whole run and a slow spell of the
  // host weighs on all of them alike. The cycles and the followers write
  // only the cycle relation, which the main phase never touches, so the
  // slicing changes no reply. A traced run keeps one round, the phases
  // one after another: the main phase then runs on one daemon process,
  // so the server's composition counter covers all of it (a restarted
  // daemon's counter misses updates on relations read back from a
  // checkpoint; see CHANGES.md).
  const size_t rounds = opt.trace ? 1 : kRounds;
  auto Slice = [rounds](size_t n, size_t round) { return n * round / rounds; };
  Samples samples;
  double main_s = 0, cycles_s = 0, followers_s = 0;
  uint64_t main_ops = 0, cycle_ops = 0, checkpoints = 0;
  Counters main_delta;
  std::vector<double> checkpoint_ms, restart_ms, catchup_s;
  double recovery_ns = 0, recoveries = 0;
  // Replication figures (trace runs): cold catch-ups, then the resumed
  // follower's catch-up over WAL records.
  double snapshot_rows = 0, bootstraps = 0, reconnects = 0;
  double applied = 0, segments = 0, resume_s = 0;
  // The canonical form of a relation's rows, recomputed only when the
  // model's rows of it changed.
  std::map<std::string, std::pair<uint64_t, std::string>> shows;
  auto expected_show = [&](const std::string& rel) -> const std::string& {
    auto it = shows.find(rel);
    if (it == shows.end() || it->second.first != model.Version(rel)) {
      it = shows.insert_or_assign(rel, std::make_pair(model.Version(rel),
                                                      model.ExpectedShow(rel))).first;
    }
    return it->second.second;
  };

  // Main phase: the round's slice of each connection's operations, the
  // two connections closed-loop on their own threads.
  auto main_block = [&](size_t round) {
    std::vector<Samples> per(plan.conns.size());
    std::vector<Conn*> conns{&c0, &c1};
    const Counters before = opt.trace ? Scrape(&c0) : Counters{};
    const Clock::time_point t0 = Clock::now();
    std::vector<std::thread> threads;
    for (size_t c = 0; c < plan.conns.size(); ++c) {
      threads.emplace_back([&, c] {
        const std::vector<Op>& ops = plan.conns[c];
        for (size_t i = Slice(ops.size(), round); i < Slice(ops.size(), round + 1); ++i) {
          RunOp(conns[c], ops[i], &per[c], &res, &res_mu);
        }
      });
    }
    for (std::thread& t : threads) t.join();
    main_s += SecondsSince(t0);
    if (opt.trace) AddDelta(&main_delta, before, Scrape(&c0));
    // Each connection's effects touch only its own rows, so applying
    // them after the block gives the state whatever the interleaving.
    for (size_t c = 0; c < plan.conns.size(); ++c) {
      samples.Merge(per[c]);
      const std::vector<Op>& ops = plan.conns[c];
      for (size_t i = Slice(ops.size(), round); i < Slice(ops.size(), round + 1); ++i) {
        ++main_ops;
        for (const Effect& e : ops[i].effects) model.Apply(e);
      }
    }
  };

  // One maintenance cycle: txn → CHECKPOINT → WAL tail → SIGKILL →
  // restart → SHOW of every relation → probe. Returns an error that
  // ends the run, or "".
  auto cycle = [&](size_t i) -> std::string {
    const Op& txn = plan.cycle_txns[i];
    cycle_ops += 2 + plan.cycle_tails[i].size();
    if (RunOp(&c0, txn, &samples, &res, &res_mu)) {
      for (const Effect& e : txn.effects) model.Apply(e);
    }
    Op ckpt;
    ckpt.cls = OpClass::kCheckpoint;
    ckpt.stmts.push_back(Stmt{"CHECKPOINT", "checkpoint complete"});
    Samples ck;
    if (RunOp(&c0, ckpt, &ck, &res, &res_mu)) {
      checkpoint_ms.push_back(ck.us[OpClass::kCheckpoint][0] / 1e3);
      ++checkpoints;
    }
    for (const Op& op : plan.cycle_tails[i]) {
      if (RunOp(&c0, op, &samples, &res, &res_mu)) {
        for (const Effect& e : op.effects) model.Apply(e);
      }
    }
    if (opt.trace) AddDelta(&layer, life_start, Scrape(&c0));
    c0.client.reset();
    c1.client.reset();
    primary->Stop(SIGKILL);
    const Clock::time_point r0 = Clock::now();
    primary = std::make_unique<Daemon>();
    ++cycle_ops;
    if (!primary->Start(opt.nf2d, args, log) || !c0.Open(primary->port()) ||
        !c0.client->Ping().ok()) {
      return "restart after SIGKILL failed";
    }
    restart_ms.push_back(SecondsSince(r0) * 1e3);
    if (!c1.Open(primary->port())) return "reconnect failed";
    if (opt.trace) {
      life_start = Scrape(&c0);
      recovery_ns += Get(life_start, "nf2_recovery_duration_ns_sum");
      recoveries += Get(life_start, "nf2_recovery_duration_ns_count");
    }
    // Theorem 2: the recovered NFR is exactly the canonical form of the
    // acknowledged flat rows.
    for (const std::string& rel : plan.show_relations) {
      auto r = c0.client->Execute("SHOW " + rel);
      if (!r.ok() || *r != expected_show(rel)) {
        res.Fail("after restart " + std::to_string(i) + ", SHOW " + rel +
                 " differs from CanonicalForm of the model");
      }
    }
    for (const Op& op : plan.cycle_probes[i]) {
      ++cycle_ops;
      RunOp(&c0, op, &samples, &res, &res_mu);
    }
    return "";
  };

  auto start_follower = [&](const std::string& fdir, Daemon* d, Conn* c) {
    const std::vector<std::string> a{fdir, "--port", "0", "--workers", "2", "--follow",
                                     "127.0.0.1:" + std::to_string(primary->port())};
    return d->Start(opt.nf2d, a, log) && c->Open(d->port());
  };
  // One cold follower, timed from spawn until its SHOW of every
  // relation is byte-identical to the primary's `head`. Returns an
  // error that ends the run, or "".
  auto follower = [&](size_t f, const std::map<std::string, std::string>& head) -> std::string {
    const std::string fdir = opt.work_dir + "/follower-" + std::to_string(f);
    fs::create_directories(fdir);
    const Clock::time_point f0 = Clock::now();
    Daemon follower;
    Conn fc;
    if (!start_follower(fdir, &follower, &fc)) return "cannot start follower";
    bool caught_up = false;
    std::string last;
    while (!caught_up && SecondsSince(f0) < 20) {
      caught_up = true;
      for (const std::string& rel : plan.show_relations) {
        auto r = fc.client->Execute("SELECT COUNT(*) FROM " + rel);
        if (!r.ok() || *r != std::to_string(model.Rows(rel).size())) {
          last = rel + ": " + (r.ok() ? *r : r.status().ToString()) + " want " +
                 std::to_string(model.Rows(rel).size());
          caught_up = false;
          break;
        }
      }
      if (caught_up) {
        for (const std::string& rel : plan.show_relations) {
          auto r = fc.client->Execute("SHOW " + rel);
          if (!r.ok() || !CheckReply(Stmt{"SHOW", head.at(rel)}, *r)) {
            caught_up = false;
            break;
          }
        }
      }
      if (!caught_up) std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    const double took = SecondsSince(f0);
    if (!caught_up) {
      res.Fail("follower " + std::to_string(f) + " never matched the primary (" + last + ")");
      ++res.failed;
    } else {
      catchup_s.push_back(took);
    }
    if (opt.trace) {
      // A fresh process: its counters started at 0 at spawn, so this
      // scrape covers exactly the catch-up. src/ counts no snapshot
      // bootstraps; rows the follower inserted beyond the WAL records
      // it applied came in a snapshot.
      const Counters fm = Scrape(&fc);
      const double rows = Get(fm, "nf2_inserts_total") - Get(fm, "nf2_repl_applied_records_total");
      snapshot_rows += std::max(0.0, rows);
      bootstraps += rows > 0 ? 1 : 0;
      reconnects += Get(fm, "nf2_repl_reconnects_total");
    }
    fc.client.reset();
    follower.Stop(SIGTERM);
    if (plan.follower_writes[f].empty()) return "";
    // The follower is stopped while a burst of writes lands on the
    // primary, then restarted on its directory: it resumes from its
    // persisted position and catches up over WAL records, ending
    // byte-identical again.
    const std::string& rel = plan.cycle_relation;
    for (const Op& op : plan.follower_writes[f]) {
      if (RunOp(&c0, op, &samples, &res, &res_mu)) {
        for (const Effect& e : op.effects) model.Apply(e);
      }
    }
    const std::string& want = expected_show(rel);
    const Clock::time_point r0 = Clock::now();
    Daemon resumed;
    Conn rc;
    if (!start_follower(fdir, &resumed, &rc)) return "cannot restart follower";
    bool applied_all = false;
    while (!applied_all && SecondsSince(r0) < 60) {
      auto r = rc.client->Execute("SHOW " + rel);
      applied_all = r.ok() && *r == want;
      if (!applied_all) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (!applied_all) {
      res.Fail("follower " + std::to_string(f) + " did not catch up with the write burst");
    }
    if (opt.trace) {
      resume_s += SecondsSince(r0);
      const Counters fm = Scrape(&rc);
      applied += Get(fm, "nf2_repl_applied_records_total");
      segments += Get(fm, "nf2_repl_segments_total");
    }
    rc.client.reset();
    resumed.Stop(SIGTERM);
    return "";
  };

  // Every operation counts as attempted up front; RunOp counts the
  // ones that fail, and a follower that never matches counts as one.
  for (const auto& conn : plan.conns) res.attempted += conn.size();
  for (size_t i = 0; i < plan.cycle_txns.size(); ++i) {
    res.attempted += 3 + plan.cycle_tails[i].size() + plan.cycle_probes[i].size();
  }
  for (const auto& writes : plan.follower_writes) res.attempted += 1 + writes.size();
  for (size_t round = 0; round < rounds; ++round) {
    Clock::time_point t0 = Clock::now();
    if (!plan.conns.empty()) main_block(round);
    t0 = Clock::now();
    const size_t cycles = plan.cycle_txns.size();
    for (size_t i = Slice(cycles, round); i < Slice(cycles, round + 1); ++i) {
      const std::string error = cycle(i);
      if (!error.empty()) return fatal(error);
    }
    cycles_s += SecondsSince(t0);
    t0 = Clock::now();
    std::map<std::string, std::string> head;
    for (const std::string& rel : plan.show_relations) {
      auto r = c0.client->Execute("SHOW " + rel);
      head[rel] = r.ok() ? *r : "";
    }
    for (size_t f = Slice(plan.followers, round); f < Slice(plan.followers, round + 1); ++f) {
      const std::string error = follower(f, head);
      if (!error.empty()) return fatal(error);
    }
    followers_s += SecondsSince(t0);
  }
  if (res.failed > 0) {
    // A failed write leaves the model ahead of the server; later checks
    // would only repeat that failure.
    res.Fail("the run had failed operations");
  }
  phases.emplace_back("main", phases.back().second + main_s);
  phases.emplace_back("cycles", phases.back().second + cycles_s);
  phases.emplace_back("followers", phases.back().second + followers_s);
  // ---- Space: data directory after CHECKPOINT ÷ bytes of the flat rows.
  ++res.attempted;
  if (!c0.client->Execute("CHECKPOINT").ok()) return fatal("final CHECKPOINT failed");
  ++checkpoints;
  const double disk_ratio = static_cast<double>(DirBytes(dir)) /
                            static_cast<double>(model.UserBytes());
  if (opt.trace) AddDelta(&layer, life_start, Scrape(&c0));
  c0.client.reset();
  c1.client.reset();
  primary->Stop(SIGTERM);
  phase("space");
  std::string line = "phases (s):";
  for (size_t i = 0; i < phases.size(); ++i) {
    line += std::string(" ") + phases[i].first + " " +
            std::to_string(phases[i].second - (i ? phases[i - 1].second : 0.0));
  }
  std::fprintf(stderr, "%s\n", line.c_str());

  // ---- End-to-end metrics.
  Metrics& m = res.metrics;
  auto q = [&](OpClass cls, double p) { return Quantile(samples.us[cls], p); };
  m["setup_s"] = {"s", setup_s};
  m["throughput_ops_s"] = {"ops/s", main_ops > 0 ? static_cast<double>(main_ops) / main_s
                                                 : static_cast<double>(cycle_ops) / cycles_s};
  // No tails: on a shared 4-core host the p99 of 1,000+ samples moved
  // by more than 2x between runs of the same code, and the p90 by more
  // than the 25% bound.
  m["read_p50_us"] = {"us", q(OpClass::kRead, 0.5)};
  m["query_p50_us"] = {"us", q(OpClass::kQuery, 0.5)};
  m["write_p50_us"] = {"us", q(OpClass::kWrite, 0.5)};
  m["txn_p50_us"] = {"us", q(OpClass::kTxn, 0.5)};
  m["checkpoint_ms"] = {"ms", Quantile(checkpoint_ms, 0.5)};
  m["restart_ms"] = {"ms", Quantile(restart_ms, 0.5)};
  // The mean, not the median: a cold follower's catch-up is bimodal (a
  // reconnect after the snapshot bootstrap waits out the replicator's
  // backoff in some of them), and a median of a few such samples jumps
  // between the two modes from run to run.
  double catchup_sum = 0;
  for (double v : catchup_s) catchup_sum += v;
  m["catchup_s"] = {"s", catchup_s.empty() ? 0.0 : catchup_sum / catchup_s.size()};
  m["disk_bytes_per_user_byte"] = {"B/B", disk_ratio};

  if (opt.trace) {
    Counters& l = out.layer;
    const double req_n = Get(layer, "nf2_server_request_ns_count");
    const double req_us = req_n > 0 ? Get(layer, "nf2_server_request_ns_sum") / req_n / 1e3 : 0;
    const double client_us = c0.stmts + c1.stmts > 0
        ? (c0.stmt_seconds + c1.stmt_seconds) * 1e6 / static_cast<double>(c0.stmts + c1.stmts)
        : 0;
    // Statement round trips of the main phase and the cycles.
    l["server.request_us"] = req_us;
    l["server.wire_us"] = client_us - req_us;
    const double hits = Get(layer, "nf2_stmtcache_hits_total");
    const double misses = Get(layer, "nf2_stmtcache_misses_total");
    l["server.stmtcache_hit_ratio"] = hits + misses > 0 ? hits / (hits + misses) : 0;
    l["server.busy_retries"] = static_cast<double>(c0.retries + c1.retries);
    const double gate_n = Get(layer, "nf2_gate_write_wait_ns_count");
    l["engine.gate_wait_us"] = gate_n > 0 ? Get(layer, "nf2_gate_write_wait_ns_sum") / gate_n / 1e3 : 0;
    l["engine.dict_values"] = Get(life_start, "nf2_dict_values");
    const double writes = Get(layer, "nf2_inserts_total") + Get(layer, "nf2_deletes_total");
    l["server.main_compositions"] = Get(main_delta, "nf2_compo_total");
    l["storage.wal_bytes_per_write"] = writes > 0 ? Get(layer, "nf2_wal_append_bytes_total") / writes : 0;
    l["storage.checkpoint_pages_written"] = Get(layer, "nf2_checkpoint_pages_written_total") / checkpoints;
    l["storage.checkpoint_pages_skipped"] = Get(layer, "nf2_checkpoint_pages_skipped_total") / checkpoints;
    l["storage.checkpoint_bytes"] = Get(layer, "nf2_checkpoint_bytes_total") / checkpoints;
    l["storage.recovery_ms"] = recoveries > 0 ? recovery_ns / recoveries / 1e6 : 0;
    const double scatter = Get(layer, "nf2_router_scatter_total");
    l["shard.point_stmts"] = Get(layer, "nf2_router_point_total");
    l["shard.scatter_stmts"] = scatter;
    l["shard.merge_rows_per_scatter"] = scatter > 0 ? Get(layer, "nf2_router_merge_rows_total") / scatter : 0;
    const double cold = static_cast<double>(plan.followers);
    l["replication.snapshot_bootstraps"] = bootstraps;
    l["replication.snapshot_rows"] = cold > 0 ? snapshot_rows / cold : 0;
    l["replication.reconnects"] = reconnects;
    l["replication.applied_records"] = applied;
    l["replication.records_per_segment"] = segments > 0 ? applied / segments : 0;
    l["replication.apply_records_s"] = resume_s > 0 ? applied / resume_s : 0;
  }
  return out;
}

}  // namespace perfbench
