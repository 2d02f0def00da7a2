// The traced run: replays a plan's generated inputs in-process, timing
// the calls into each layer's public functions from here (the program
// itself is not instrumented). Spans (name, start, end, parent, request
// id) are kept in memory and written to a file at the end. A shadow
// CanonicalRelation and a shadow WAL repeat every write, so the §4
// update and the log append are timed apart from the engine around them.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <variant>

#include "bench.h"
#include "core/update.h"
#include "engine/database.h"
#include "exec/plan.h"
#include "exec/planner.h"
#include "nfrql/executor.h"
#include "nfrql/parser.h"
#include "shard/router.h"
#include "storage/checkpoint.h"
#include "storage/serde.h"
#include "storage/wal.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;

struct Span {
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
  int parent;
  uint64_t request;
};

/// In-memory span recorder. When off, Begin/End cost one branch.
class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}

  bool on() const { return on_; }
  void set_on(bool on) { on_ = on; }

  int Begin(const char* name) {
    if (!on_) return -1;
    spans_.push_back(Span{name, Now(), 0, current_, request_});
    current_ = static_cast<int>(spans_.size() - 1);
    return current_;
  }
  void End(int id) {
    if (id < 0) return;
    spans_[id].end_ns = Now();
    current_ = spans_[id].parent;
  }
  void NextRequest() { ++request_; }

  /// Self time per span name: duration minus the children's durations.
  std::map<std::string, std::pair<double, uint64_t>> SelfTimes() const {
    std::vector<int64_t> child(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) child[s.parent] += s.end_ns - s.start_ns;
    }
    std::map<std::string, std::pair<double, uint64_t>> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
      auto& [ns, n] = out[spans_[i].name];
      ns += static_cast<double>(spans_[i].end_ns - spans_[i].start_ns - child[i]);
      ++n;
    }
    return out;
  }
  /// Mean duration (µs) of spans named `name`.
  double MeanUs(const std::string& name) const {
    double ns = 0;
    uint64_t n = 0;
    for (const Span& s : spans_) {
      if (name == s.name) {
        ns += static_cast<double>(s.end_ns - s.start_ns);
        ++n;
      }
    }
    return n ? ns / static_cast<double>(n) / 1e3 : 0;
  }

  void Write(const std::string& path) const {
    std::ofstream out(path);
    out << "[\n";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "{\"id\":" << i << ",\"name\":\"" << s.name << "\",\"start_ns\":"
          << s.start_ns << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent
          << ",\"request\":" << s.request << "}" << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    out << "]\n";
  }

 private:
  int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_)
        .count();
  }
  bool on_ = true;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  int current_ = -1;
  uint64_t request_ = 0;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer* t, const char* name) : t_(t), id_(t->Begin(name)) {}
  ~ScopedSpan() { t_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* t_;
  int id_;
};

/// CatalogView over a pinned snapshot, as the server's read path binds.
class SnapshotView : public nf2::CatalogView {
 public:
  explicit SnapshotView(const nf2::DatabaseSnapshot* snap) : snap_(snap) {}
  nf2::Result<nf2::BoundRelation> Bind(const std::string& name) const override {
    auto version = snap_->FindVersion(name);
    if (version == nullptr) return nf2::Status::NotFound(name);
    return nf2::BoundRelation{&version->info, version->relation.get()};
  }
  const nf2::ValueDictionary* frozen_dictionary() const override {
    return snap_->dictionary().get();
  }

 private:
  const nf2::DatabaseSnapshot* snap_;
};

/// Row counts of one executed plan: rows leaving the leaves (examined)
/// and rows drained by blocking operators (materialized).
void CountRows(const nf2::PlanOp& op, uint64_t* examined, uint64_t* materialized) {
  if (op.children().empty()) *examined += op.rows_out();
  const bool blocking = dynamic_cast<const nf2::AggregateOp*>(&op) != nullptr ||
                        dynamic_cast<const nf2::JoinOp*>(&op) != nullptr;
  for (const auto& child : op.children()) {
    if (blocking) *materialized += child->rows_out();
    CountRows(*child, examined, materialized);
  }
}

const char* StmtClass(const nf2::Statement& s) {
  if (std::holds_alternative<nf2::SelectStatement>(s)) return "select";
  if (std::holds_alternative<nf2::InsertStatement>(s)) return "insert";
  if (std::holds_alternative<nf2::DeleteStatement>(s)) return "delete";
  if (std::holds_alternative<nf2::TxnStatement>(s)) return "txn";
  return "other";
}

/// Everything one replay measures.
struct Replay {
  Tracer tracer;
  // Per pair of blocks: traced time / untraced time - 1 (see RunOp).
  std::vector<double> pair_overhead;
  // exec
  uint64_t queries = 0, rows_out = 0, examined = 0, materialized = 0;
  // core (shadow)
  uint64_t updates = 0, max_compositions = 0, bound_violations = 0;
  nf2::UpdateStats shadow_stats;
  uint64_t main_shadow_compositions = 0, main_engine_compositions = 0;
  // storage
  uint64_t syncs = 0, commit_points = 0, txns = 0, txn_commits = 0;
  std::vector<double> recovery_ms, replayed, table_read_ms;
  // shard
  double scatter_router_us = 0, scatter_shards_us = 0;
  uint64_t scatters = 0;
  std::map<std::string, std::pair<double, uint64_t>> parse_by_class;
};

uint64_t Syncs(const std::vector<nf2::Database*>& dbs) {
  uint64_t n = 0;
  for (nf2::Database* db : dbs) n += db->wal_sync_count();
  return n;
}

uint64_t EngineCompositions(const std::vector<nf2::Database*>& dbs) {
  uint64_t n = 0;
  for (nf2::Database* db : dbs) n += db->MetricsSnapshot().counter("nf2_compo_total");
  return n;
}

class Replayer {
 public:
  Replayer(const Plan& plan, const std::string& dir, Replay* r)
      : plan_(plan), dir_(dir), r_(r), t_(&r->tracer) {}

  bool Run(std::string* error) {
    fs::create_directories(dir_);
    if (plan_.shards > 1) {
      nf2::shard::ShardRouter::Options o;
      o.shards = plan_.shards;
      auto router = nf2::shard::ShardRouter::Open(dir_ + "/db", o);
      if (!router.ok()) return Err(error, router.status().ToString());
      router_ = std::move(*router);
      session_ = router_->NewClientSession();
      for (size_t i = 0; i < router_->shard_count(); ++i) {
        dbs_.push_back(router_->shard_db(i));
        shard_sessions_.push_back(router_->shard_sessions(i)->NewSession());
      }
    } else if (!OpenEngine(dir_ + "/db", error)) {
      return false;
    }
    auto wal = nf2::WriteAheadLog::Open(dir_ + "/shadow.wal");
    if (!wal.ok()) return Err(error, wal.status().ToString());
    shadow_wal_ = std::move(*wal);
    // Set-up: DDL and bulk loads, untimed; the shadow starts from the
    // loaded rows.
    for (const std::string& ddl : plan_.ddl) {
      if (!Exec(ddl, error)) return false;
    }
    for (const auto& batch : plan_.loads) {
      for (const std::string& s : batch) {
        if (!Exec(s, error)) return false;
      }
    }
    for (const auto& [name, spec] : plan_.model.specs()) {
      auto rel = nf2::CanonicalRelation::FromFlat(plan_.model.Flat(name), spec.order);
      if (!rel.ok()) return Err(error, rel.status().ToString());
      shadow_base_[name] = rel->stats();
      shadow_.emplace(name, std::move(*rel));
    }
    // About 100 pairs of blocks over the replayed operations.
    const size_t cycles = std::min<size_t>(plan_.cycle_txns.size(), 10);
    size_t total_ops = 0;
    for (const auto& conn : plan_.conns) total_ops += conn.size();
    for (size_t c = 0; c < cycles; ++c) {
      total_ops += 1 + plan_.cycle_tails[c].size() + plan_.cycle_probes[c].size();
    }
    block_ = std::max<size_t>(1, total_ops / 200);
    const uint64_t compo0 = ShadowCompositions();
    const uint64_t engine0 = EngineCompositions(dbs_);
    // Main phase: the two connections' operations, interleaved.
    size_t longest = 0;
    for (const auto& conn : plan_.conns) longest = std::max(longest, conn.size());
    for (size_t i = 0; i < longest; ++i) {
      for (const auto& conn : plan_.conns) {
        if (i < conn.size() && !RunOp(conn[i], error)) return false;
      }
    }
    r_->main_shadow_compositions = ShadowCompositions() - compo0;
    r_->main_engine_compositions = EngineCompositions(dbs_) - engine0;
    // Maintenance cycles; a copy of the directory taken after the WAL
    // tail stands in for the crash (every commit is fsync'd, so the
    // copy holds exactly what a SIGKILL would leave).
    for (size_t c = 0; c < cycles; ++c) {
      if (!RunOp(plan_.cycle_txns[c], error)) return false;
      {
        t_->NextRequest();
        ScopedSpan span(t_, "storage.checkpoint");
        if (!Exec("CHECKPOINT", error)) return false;
      }
      for (const Op& op : plan_.cycle_tails[c]) {
        if (!RunOp(op, error)) return false;
      }
      if (plan_.shards == 1 && !CrashAndRecover(c, error)) return false;
      for (const Op& op : plan_.cycle_probes[c]) {
        if (!RunOp(op, error)) return false;
      }
    }
    for (const auto& [name, rel] : shadow_) {
      const nf2::UpdateStats d = rel.stats() - shadow_base_.at(name);
      r_->shadow_stats.compositions += d.compositions;
      r_->shadow_stats.decompositions += d.decompositions;
      r_->shadow_stats.candidate_scans += d.candidate_scans;
    }
    if (plan_.shards == 1 && !ReadTables(error)) return false;
    return true;
  }

 private:
  static bool Err(std::string* error, const std::string& why) {
    *error = why;
    return false;
  }

  bool OpenEngine(const std::string& path, std::string* error) {
    auto db = nf2::Database::Open(path);
    if (!db.ok()) return Err(error, db.status().ToString());
    db_ = std::move(*db);
    executor_ = std::make_unique<nf2::Executor>(db_.get());
    dbs_ = {db_.get()};
    return true;
  }

  uint64_t ShadowCompositions() const {
    uint64_t n = 0;
    for (const auto& [name, rel] : shadow_) n += rel.stats().compositions;
    return n;
  }

  /// Untimed statement execution (set-up and checkpoints).
  bool Exec(const std::string& text, std::string* error) {
    auto r = router_ ? session_->Execute(text) : executor_->Execute(text);
    if (!r.ok()) return Err(error, text.substr(0, 60) + ": " + r.status().ToString());
    return true;
  }

  /// Replays one operation. Tracing is switched on and off in blocks
  /// of block_ operations: pair p runs its blocks untraced then traced
  /// when p is even, traced then untraced when p is odd, so a drift of
  /// the host's speed cancels within a pair. Only the operations are
  /// timed, not the checkpoints, crash copies or recoveries between them.
  bool RunOp(const Op& op, std::string* error) {
    const uint64_t block = op_index_ / block_;
    const bool on = (block % 2 == 1) == (block / 2 % 2 == 0);
    t_->set_on(on);
    const Clock::time_point t0 = Clock::now();
    bool ok = true;
    {
      t_->NextRequest();
      ScopedSpan request(t_, "request");
      for (const Stmt& s : op.stmts) {
        if (!RunStmt(s.text, error)) {
          ok = false;
          break;
        }
      }
    }
    block_seconds_[on ? 1 : 0] += SecondsSince(t0);
    t_->set_on(true);
    if (++op_index_ % (2 * block_) == 0) {
      r_->pair_overhead.push_back(block_seconds_[1] / block_seconds_[0] - 1.0);
      block_seconds_[0] = block_seconds_[1] = 0;
    }
    return ok;
  }

  bool RunStmt(const std::string& text, std::string* error) {
    nf2::Result<nf2::Statement> parsed = nf2::Status::Internal("unparsed");
    {
      const bool on = t_->on();
      const Clock::time_point p0 = on ? Clock::now() : Clock::time_point{};
      ScopedSpan span(t_, "nfrql.parse");
      parsed = nf2::ParseStatement(text);
      if (!parsed.ok()) return Err(error, parsed.status().ToString());
      if (on) {
        auto& [ns, n] = r_->parse_by_class[StmtClass(*parsed)];
        ns += SecondsSince(p0) * 1e9;
        ++n;
      }
    }
    if (router_) return RouteStmt(text, *parsed, error);
    nf2::Statement& stmt = *parsed;
    if (auto* sel = std::get_if<nf2::SelectStatement>(&stmt)) return Select(*sel, error);
    if (auto* ins = std::get_if<nf2::InsertStatement>(&stmt)) {
      return Write(true, ins->name, ins->rows, error);
    }
    if (auto* del = std::get_if<nf2::DeleteStatement>(&stmt)) {
      return Write(false, del->name, del->rows, error);
    }
    if (auto* txn = std::get_if<nf2::TxnStatement>(&stmt)) {
      if (txn->kind == nf2::TxnStatement::Kind::kBegin) {
        in_txn_ = true;
        ShadowAppend(nf2::WalOpType::kTxnBegin, "", "");
        return Check(db_->Begin(), error);
      }
      const uint64_t s0 = Syncs(dbs_);
      {
        ScopedSpan span(t_, "engine.commit");
        if (!Check(db_->Commit(), error)) return false;
      }
      {
        ScopedSpan span(t_, "storage.wal_append");
        ShadowAppend(nf2::WalOpType::kTxnCommit, "", "");
      }
      in_txn_ = false;
      ++r_->txns;
      ++r_->commit_points;
      r_->syncs += Syncs(dbs_) - s0;
      r_->txn_commits += 1;
      return true;
    }
    return Err(error, "unexpected statement " + text.substr(0, 40));
  }

  bool Check(const nf2::Status& s, std::string* error) {
    return s.ok() ? true : Err(error, s.ToString());
  }

  void ShadowAppend(nf2::WalOpType type, const std::string& rel, const std::string& payload) {
    (void)shadow_wal_->Append(nf2::WalRecord{0, type, rel, payload});
  }

  bool Select(const nf2::SelectStatement& sel, std::string* error) {
    std::shared_ptr<const nf2::DatabaseSnapshot> snap = db_->PinSnapshot();
    SnapshotView view(snap.get());
    nf2::Result<nf2::SelectPlan> plan = nf2::Status::Internal("unplanned");
    {
      ScopedSpan span(t_, "exec.plan");
      plan = nf2::PlanSelect(sel, view);
    }
    if (!plan.ok()) return Err(error, plan.status().ToString());
    uint64_t rows = 0;
    {
      ScopedSpan span(t_, "exec.execute");
      plan->root->Open();
      nf2::FlatTuple row;
      while (plan->root->Next(&row)) ++rows;
      plan->root->Close();
    }
    ++r_->queries;
    r_->rows_out += rows;
    CountRows(*plan->root, &r_->examined, &r_->materialized);
    return true;
  }

  bool Write(bool insert, const std::string& name,
             const std::vector<std::vector<nf2::Value>>& rows, std::string* error) {
    for (const auto& values : rows) {
      nf2::FlatTuple t(values);
      const uint64_t s0 = Syncs(dbs_);
      {
        ScopedSpan span(t_, "engine.write");
        nf2::Status s = insert ? db_->Insert(name, t) : db_->Delete(name, t);
        if (!s.ok()) return Err(error, s.ToString());
      }
      r_->syncs += Syncs(dbs_) - s0;
      if (!in_txn_) ++r_->commit_points;
      nf2::CanonicalRelation& shadow = shadow_.at(name);
      const uint64_t c0 = shadow.stats().compositions;
      {
        ScopedSpan span(t_, "core.update");
        nf2::Status s = insert ? shadow.Insert(t) : shadow.Delete(t);
        if (!s.ok()) return Err(error, "shadow: " + s.ToString());
      }
      const uint64_t c = shadow.stats().compositions - c0;
      ++r_->updates;
      r_->max_compositions = std::max(r_->max_compositions, c);
      if (c > CompositionBound(t.degree())) ++r_->bound_violations;
      nf2::BufferWriter payload;
      nf2::EncodeFlatTuple(t, &payload);
      ScopedSpan span(t_, "storage.wal_append");
      ShadowAppend(insert ? nf2::WalOpType::kInsert : nf2::WalOpType::kDelete, name,
                   payload.data());
    }
    return true;
  }

  /// Sharded replay: the router executes the statement; scatters are
  /// also run on each shard directly, so the router's own share (the
  /// re-parse, classification and merge) is the difference.
  bool RouteStmt(const std::string& text, const nf2::Statement& stmt, std::string* error) {
    const bool commit = std::holds_alternative<nf2::TxnStatement>(stmt) &&
                        std::get<nf2::TxnStatement>(stmt).kind != nf2::TxnStatement::Kind::kBegin;
    const bool write = std::holds_alternative<nf2::InsertStatement>(stmt) ||
                       std::holds_alternative<nf2::DeleteStatement>(stmt);
    const uint64_t s0 = Syncs(dbs_);
    const Clock::time_point t0 = Clock::now();
    {
      ScopedSpan span(t_, "shard.execute");
      auto r = session_->Execute(text);
      if (!r.ok()) return Err(error, r.status().ToString());
    }
    const double routed_us = SecondsSince(t0) * 1e6;
    const uint64_t synced = Syncs(dbs_) - s0;
    r_->syncs += synced;
    if (commit) {
      in_txn_ = false;
      ++r_->txns;
      r_->txn_commits += synced;
      r_->commit_points += synced;
    } else if (std::holds_alternative<nf2::TxnStatement>(stmt)) {
      in_txn_ = true;
    } else if (write && !in_txn_) {
      ++r_->commit_points;
    }
    const auto* sel = std::get_if<nf2::SelectStatement>(&stmt);
    if (sel != nullptr && sel->where != nullptr && sel->aggregates.empty() &&
        nf2::EqualityConjunct(sel->where.get(), "k").has_value()) {
      return true;  // Point-routed.
    }
    if (sel != nullptr) {
      const Clock::time_point s1 = Clock::now();
      for (auto& shard : shard_sessions_) {
        ScopedSpan span(t_, "shard.per_shard");
        auto r = shard->Execute(text);
        if (!r.ok()) return Err(error, r.status().ToString());
      }
      r_->scatter_shards_us += SecondsSince(s1) * 1e6;
      r_->scatter_router_us += routed_us;
      ++r_->scatters;
    }
    return true;
  }

  bool CrashAndRecover(size_t cycle, std::string* error) {
    const std::string copy = dir_ + "/crash-" + std::to_string(cycle);
    fs::copy(dir_ + "/db", copy, fs::copy_options::recursive);
    const Clock::time_point t0 = Clock::now();
    nf2::Result<std::unique_ptr<nf2::Database>> db = nf2::Status::Internal("unopened");
    {
      t_->NextRequest();
      ScopedSpan span(t_, "storage.recovery");
      db = nf2::Database::Open(copy);
    }
    if (!db.ok()) return Err(error, db.status().ToString());
    r_->recovery_ms.push_back(SecondsSince(t0) * 1e3);
    r_->replayed.push_back(static_cast<double>((*db)->wal_records_since_checkpoint()));
    db->reset();
    fs::remove_all(copy);
    return true;
  }

  bool ReadTables(std::string* error) {
    if (!Exec("CHECKPOINT", error)) return false;
    nf2::Env* env = nf2::Env::Default();
    auto manifest = nf2::LoadManifest(env, dir_ + "/db/MANIFEST.nf2");
    if (!manifest.ok()) return Err(error, manifest.status().ToString());
    for (const auto& [name, spec] : plan_.model.specs()) {
      auto info = db_->Info(name);
      if (!info.ok()) return Err(error, info.status().ToString());
      auto entry = manifest->tables.find((*info)->table_file);
      if (entry == manifest->tables.end()) continue;
      const Clock::time_point t0 = Clock::now();
      {
        t_->NextRequest();
        ScopedSpan span(t_, "storage.table_read");
        auto table = nf2::ReadTableMapped(env, dir_ + "/db/" + (*info)->table_file,
                                          entry->second);
        if (!table.ok()) return Err(error, table.status().ToString());
      }
      r_->table_read_ms.push_back(SecondsSince(t0) * 1e3);
    }
    return true;
  }

  const Plan& plan_;
  std::string dir_;
  Replay* r_;
  Tracer* t_;
  std::unique_ptr<nf2::Database> db_;
  std::unique_ptr<nf2::Executor> executor_;
  std::unique_ptr<nf2::shard::ShardRouter> router_;
  std::unique_ptr<nf2::server::ClientSession> session_;
  std::vector<std::unique_ptr<nf2::server::Session>> shard_sessions_;
  std::vector<nf2::Database*> dbs_;
  std::unique_ptr<nf2::WriteAheadLog> shadow_wal_;
  std::map<std::string, nf2::CanonicalRelation> shadow_;
  std::map<std::string, nf2::UpdateStats> shadow_base_;
  bool in_txn_ = false;
  size_t block_ = 1;
  uint64_t op_index_ = 0;
  double block_seconds_[2] = {0, 0};  // Untraced, traced; current pair.
};

}  // namespace

void RunTraced(const Options& opt, const Plan& plan, Metrics* out, RunResult* result) {
  Replay traced;
  std::string error;
  if (!Replayer(plan, opt.work_dir + "/replay", &traced).Run(&error)) {
    result->Fail("in-process replay failed: " + error);
    return;
  }
  traced.tracer.Write(opt.trace_out);
  Metrics& m = *out;
  const Tracer& t = traced.tracer;
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  for (const char* layer : {"request", "nfrql", "exec", "engine", "core", "storage", "shard"}) {
    m[std::string("self.") + layer + "_ms"] = {"ms", 0};
  }
  for (const char* cls : {"select", "insert", "delete", "txn"}) {
    m[std::string("nfrql.parse_us.") + cls] = {"us", 0};
  }
  for (const auto& [name, v] : t.SelfTimes()) {
    std::string layer = name.substr(0, name.find('.'));
    m["self." + layer + "_ms"].unit = "ms";
    m["self." + layer + "_ms"].value += v.first / 1e6;
  }
  // Extra time of traced operations over untraced ones: the median over
  // the pairs of blocks.
  m["trace.overhead_pct"] = {"%", 100.0 * Quantile(traced.pair_overhead, 0.5)};
  double parse_ns = 0, parse_n = 0;
  for (const auto& [cls, v] : traced.parse_by_class) {
    m["nfrql.parse_us." + cls] = {"us", v.first / static_cast<double>(v.second) / 1e3};
    parse_ns += v.first;
    parse_n += static_cast<double>(v.second);
  }
  m["nfrql.parse_us"] = {"us", ratio(parse_ns, parse_n) / 1e3};
  m["exec.plan_us"] = {"us", t.MeanUs("exec.plan")};
  m["exec.execute_us"] = {"us", t.MeanUs("exec.execute")};
  m["exec.rows_examined_per_row"] = {"ratio", ratio(traced.examined, traced.rows_out)};
  m["exec.materialized_rows_per_query"] = {"rows", ratio(traced.materialized, traced.queries)};
  const double write_us = t.MeanUs("engine.write");
  const double core_us = t.MeanUs("core.update");
  // Mean shadow-log append, data records and commit markers alike (a
  // commit marker's append is the fsync of its transaction).
  const double wal_us = t.MeanUs("storage.wal_append");
  m["engine.write_us"] = {"us", write_us};
  m["engine.publish_us"] = {"us", write_us > 0 ? write_us - core_us - wal_us : 0};
  m["engine.commit_us"] = {"us", t.MeanUs("engine.commit")};
  m["core.update_us"] = {"us", core_us};
  m["core.compositions_per_update"] = {"ratio", ratio(traced.shadow_stats.compositions, traced.updates)};
  m["core.decompositions_per_update"] = {"ratio", ratio(traced.shadow_stats.decompositions, traced.updates)};
  m["core.candidate_scans_per_update"] = {"ratio", ratio(traced.shadow_stats.candidate_scans, traced.updates)};
  m["storage.wal_append_us"] = {"us", wal_us};
  m["storage.fsyncs_per_commit"] = {"ratio", ratio(traced.syncs, traced.commit_points)};
  m["storage.recovery_inproc_ms"] = {"ms", Quantile(traced.recovery_ms, 0.5)};
  m["storage.replayed_records"] = {"count", Quantile(traced.replayed, 0.5)};
  double table_ms = 0;
  for (double v : traced.table_read_ms) table_ms += v;
  m["storage.table_read_ms"] = {"ms", table_ms};
  m["shard.merge_us"] = {"us", traced.scatters
                                   ? (traced.scatter_router_us - traced.scatter_shards_us) /
                                         static_cast<double>(traced.scatters)
                                   : 0};
  m["shard.commits_per_txn"] = {"count", plan.shards > 1 ? ratio(traced.txn_commits, traced.txns) : 1.0};
  m["core.max_compositions_per_update"] = {"count", static_cast<double>(traced.max_compositions)};
  m["core.main_compositions"] = {"count", static_cast<double>(traced.main_shadow_compositions)};
  m["engine.main_compositions"] = {"count", static_cast<double>(traced.main_engine_compositions)};
  if (traced.bound_violations > 0) {
    result->Fail(std::to_string(traced.bound_violations) +
                 " shadow updates exceeded the Theorem A-4 composition bound");
  }
  if (traced.main_shadow_compositions != traced.main_engine_compositions && plan.shards == 1) {
    result->Fail("shadow and engine composition totals differ");
  }
  if (m["storage.fsyncs_per_commit"].value > 1.0) {
    result->Fail("more than one fsync per commit");
  }
}

}  // namespace perfbench
