// The seeded workload generator, its flat model, and the reply checkers.
// Every expected reply is computed here from the generator's own rows —
// never read back from the program under test.
#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "bench.h"
#include "core/format.h"
#include "core/value.h"
#include "shard/shard_map.h"

namespace perfbench {
namespace {

using nf2::Attribute;
using nf2::Schema;
using nf2::ValueType;

std::string I(uint64_t v) { return std::to_string(v); }

RelSpec Spec(const std::string& name,
             std::vector<std::pair<std::string, ValueType>> attrs,
             nf2::Permutation order, const std::string& deps) {
  RelSpec s;
  s.name = name;
  std::vector<Attribute> list;
  std::string cols, nest;
  for (const auto& [attr, type] : attrs) {
    list.push_back(Attribute{attr, type});
    if (!cols.empty()) cols += ", ";
    cols += attr + (type == ValueType::kInt ? " INT" : " STRING");
  }
  for (size_t p : order) {
    if (!nest.empty()) nest += ", ";
    nest += attrs[p].first;
  }
  s.schema = Schema(list);
  s.order = order;
  s.ddl = "CREATE RELATION " + name + " (" + cols + ") NEST " + nest +
          (deps.empty() ? "" : " " + deps);
  return s;
}

std::string Tuple(const Row& r) {
  std::string out = "(";
  for (size_t i = 0; i < r.size(); ++i) {
    if (i) out += ", ";
    out += r[i];
  }
  return out + ")";
}

nf2::Value ToValue(const std::string& text, ValueType type) {
  return type == ValueType::kInt ? nf2::Value::Int(std::stoll(text))
                                 : nf2::Value::String(text);
}

/// The rendering ExecSelect produces for an unordered SELECT.
std::string RenderRows(const Schema& schema, const std::vector<Row>& rows) {
  std::vector<nf2::FlatTuple> tuples;
  for (const Row& r : rows) {
    std::vector<nf2::Value> values;
    for (size_t i = 0; i < r.size(); ++i) {
      values.push_back(ToValue(r[i], schema.attribute(i).type));
    }
    tuples.emplace_back(std::move(values));
  }
  nf2::FlatRelation rel(schema, std::move(tuples));
  return nf2::RenderTable(rel) + std::to_string(rel.size()) + " row(s)";
}


// ---- Relations of the workloads -------------------------------------

// Keyed FD relation: one row per key; keys nest first, so each NFR
// tuple holds the keys of one (a, b) pair (~keys/128 per component).
RelSpec KeyedSpec(const std::string& name, bool fd) {
  return Spec(name, {{"k", ValueType::kInt}, {"a", ValueType::kString},
                     {"b", ValueType::kInt}},
              {0, 1, 2}, fd ? "FD k -> a, b" : "");
}
// MVD relation nested to depth 3: per group g the rows are X×Y×Z, so
// the NFR holds one tuple per group while R* holds |X||Y||Z| rows.
RelSpec MvdSpec(const std::string& name) {
  return Spec(name, {{"g", ValueType::kString}, {"x", ValueType::kString},
                     {"y", ValueType::kString}, {"z", ValueType::kString}},
              {1, 2, 3, 0}, "MVD g ->-> x");
}

/// The row of a keyed relation with key `k`, if present. Rows sort as
/// texts, and a row's key text is a prefix of the row itself.
std::optional<Row> FindKey(const Model& m, const std::string& rel, uint64_t k) {
  const std::set<Row>& rows = m.Rows(rel);
  const std::string key = I(k);
  auto it = rows.lower_bound(Row{key});
  if (it == rows.end() || it->at(0) != key) return std::nullopt;
  return *it;
}

struct Builder {
  Plan plan;
  Rng rng;
  Model model;  // Evolves as ops are generated.
  uint64_t next_cycle_key = 10'000'000;
  // Main-phase aggregates by kind: kv and mvd are read-only there, so
  // each aggregate's expected reply is computed once.
  std::map<uint64_t, Op> aggregates;

  explicit Builder(uint64_t seed) : rng(seed) {}

  void AddRelation(const RelSpec& spec) {
    plan.ddl.push_back(spec.ddl);
    model.Add(spec);
    model.MutableRows(spec.name);
  }

  /// Bulk-loads rows. Every relation's rows go into one transaction,
  /// so set-up waits for one commit's fsync, not one per relation.
  void Load(const std::string& rel, const std::vector<Row>& rows) {
    if (plan.loads.empty()) plan.loads.push_back({"BEGIN", "COMMIT"});
    std::vector<std::string>& batch = plan.loads.front();
    batch.pop_back();
    std::string stmt;
    size_t in_stmt = 0;
    for (const Row& r : rows) {
      stmt += (in_stmt ? ", " : "INSERT INTO " + rel + " VALUES ") + Tuple(r);
      model.Apply(Effect{true, rel, r});
      if (++in_stmt == 400) {
        batch.push_back(stmt);
        stmt.clear();
        in_stmt = 0;
      }
    }
    if (in_stmt) batch.push_back(stmt);
    batch.push_back("COMMIT");
  }

  static Stmt Write(bool insert, const std::string& rel, const Row& row) {
    return insert ? Stmt{"INSERT INTO " + rel + " VALUES " + Tuple(row),
                         "inserted 1 tuple(s) into " + rel}
                  : Stmt{"DELETE FROM " + rel + " VALUES " + Tuple(row),
                         "deleted 1 tuple(s) from " + rel};
  }

  static Op WriteOp(bool insert, const std::string& rel, const Row& row) {
    Op op;
    op.cls = OpClass::kWrite;
    op.stmts.push_back(Write(insert, rel, row));
    op.effects.push_back(Effect{insert, rel, row});
    return op;
  }

  static Op TxnOp(const std::vector<Effect>& effects) {
    Op op;
    op.cls = OpClass::kTxn;
    op.stmts.push_back(Stmt{"BEGIN", "transaction started"});
    for (const Effect& e : effects) {
      op.stmts.push_back(Write(e.insert, e.relation, e.row));
    }
    op.stmts.push_back(Stmt{"COMMIT", "transaction committed"});
    op.effects = effects;
    return op;
  }

  Row KeyedRow(uint64_t k, const std::string& a_prefix, size_t a_values) {
    return Row{I(k), a_prefix + I(rng.Below(a_values)), I(rng.Below(8))};
  }

  // ---- Reads checked against the model ------------------------------

  Op PointRead(const Model& m, const std::string& rel, const Row& row) const {
    Op op;
    op.cls = OpClass::kRead;
    op.stmts.push_back(Stmt{"SELECT * FROM " + rel + " WHERE k = " + row[0],
                            RenderRows(m.Spec(rel).schema, {row})});
    return op;
  }

  Op RangeRead(const Model& m, const std::string& rel, uint64_t lo,
               uint64_t width) const {
    std::vector<Row> hit;
    for (uint64_t k = lo; k < lo + width; ++k) {
      if (auto row = FindKey(m, rel, k)) hit.push_back(*row);
    }
    Op op;
    op.cls = OpClass::kQuery;
    op.stmts.push_back(Stmt{"SELECT * FROM " + rel + " WHERE k >= " + I(lo) +
                                " AND k < " + I(lo + width),
                            RenderRows(m.Spec(rel).schema, hit)});
    return op;
  }

  /// COUNT(*), SUM(k) over a keyed relation.
  static Op CountSum(const Model& m, const std::string& rel) {
    uint64_t sum = 0;
    for (const Row& r : m.Rows(rel)) sum += std::stoull(r[0]);
    Op op;
    op.cls = OpClass::kQuery;
    op.stmts.push_back(Stmt{"SELECT COUNT(*), SUM(k) FROM " + rel,
                            I(m.Rows(rel).size()) + "\t" + I(sum)});
    return op;
  }

  /// attr, COUNT(*) [or SUM(sum_attr)] GROUP BY attr.
  static Op GroupBy(const Model& m, const std::string& rel, size_t attr,
                    int sum_attr) {
    const Schema& schema = m.Spec(rel).schema;
    std::map<std::string, uint64_t> groups;
    for (const Row& r : m.Rows(rel)) {
      groups[r[attr]] += sum_attr < 0 ? 1 : std::stoull(r[sum_attr]);
    }
    std::string expected;
    for (const auto& [g, v] : groups) expected += g + "\t" + I(v) + "\n";
    expected += I(groups.size()) + " group(s)";
    const std::string agg = sum_attr < 0
                                ? "COUNT(*)"
                                : "SUM(" + schema.attribute(sum_attr).name + ")";
    const std::string& a = schema.attribute(attr).name;
    Op op;
    op.cls = OpClass::kQuery;
    op.stmts.push_back(Stmt{"SELECT " + a + ", " + agg + " FROM " + rel +
                                " GROUP BY " + a,
                            expected, Expect::kGroups});
    return op;
  }

  static Op Count(const Model& m, const std::string& rel) {
    Op op;
    op.cls = OpClass::kQuery;
    op.stmts.push_back(Stmt{"SELECT COUNT(*) FROM " + rel,
                            I(m.Rows(rel).size())});
    return op;
  }
};

// ---- Shared shapes ------------------------------------------------------

constexpr uint64_t kKeys = 4000;       // kv rows (all but recovery).
constexpr size_t kMvdGroups = 48;      // mvd groups, 2..6 values per set.
constexpr uint64_t kEmployees = 400;   // emp rows over 20 departments.
constexpr uint64_t kTogglesPerConn = 32;
constexpr uint64_t kCycleKeys = 1000;  // cyc rows after set-up.

std::vector<Row> KeyedRows(Builder* b, uint64_t keys) {
  std::vector<Row> rows;
  for (uint64_t k = 1; k <= keys; ++k) rows.push_back(b->KeyedRow(k, "a", 16));
  return rows;
}

/// Set sizes follow the group number (base-`span` digits), not the
/// seed, so |R*| and the per-group costs are the same for every seed.
std::vector<Row> MvdRows(size_t groups, uint64_t lo, uint64_t hi) {
  const uint64_t span = hi - lo + 1;
  std::vector<Row> rows;
  for (size_t g = 0; g < groups; ++g) {
    const uint64_t nx = lo + g % span;
    const uint64_t ny = lo + (g / span) % span;
    const uint64_t nz = lo + (g / span / span) % span;
    for (uint64_t x = 0; x < nx; ++x)
      for (uint64_t y = 0; y < ny; ++y)
        for (uint64_t z = 0; z < nz; ++z)
          rows.push_back(Row{"g" + I(g), "x" + I(x), "y" + I(y), "z" + I(z)});
  }
  return rows;
}

Row ToggleRow(uint64_t t) { return Row{I(t), "s" + I(t % 4)}; }

/// Read-side statements shared by read_mix and sharded_mix.
Op ReadOp(Builder* b, int roll, bool joins) {
  const Model& m = b->model;
  if (roll < 70) {
    return b->PointRead(m, "kv", *FindKey(m, "kv", 1 + b->rng.Below(kKeys)));
  }
  if (roll < 80) return b->RangeRead(m, "kv", 1 + b->rng.Below(kKeys), 16);
  if (roll < 90 || !joins) {
    const uint64_t kind = b->rng.Below(5);
    auto it = b->aggregates.find(kind);
    if (it != b->aggregates.end()) return it->second;
    Op op;
    switch (kind) {
      case 0: op = Builder::CountSum(m, "kv"); break;
      case 1: op = Builder::GroupBy(m, "kv", 1, -1); break;
      case 2: op = Builder::GroupBy(m, "kv", 2, 0); break;
      case 3: op = Builder::Count(m, "mvd"); break;
      default: op = Builder::GroupBy(m, "mvd", 0, -1); break;
    }
    return b->aggregates[kind] = op;
  }
  // Natural join of emp and dept, pinned to one department.
  const std::string d = "d" + I(b->rng.Below(20));
  std::vector<Row> joined;
  std::string floor;
  for (const Row& r : m.Rows("dept")) {
    if (r[0] == d) floor = r[1];
  }
  for (const Row& r : m.Rows("emp")) {
    if (r[1] == d) joined.push_back(Row{r[0], r[1], floor});
  }
  Schema schema({{"e", ValueType::kInt}, {"dept", ValueType::kString},
                 {"floor", ValueType::kInt}});
  Op op;
  op.cls = OpClass::kQuery;
  op.stmts.push_back(Stmt{"SELECT * FROM emp JOIN dept WHERE dept = " + d,
                          RenderRows(schema, joined)});
  return op;
}

/// Toggles one of the connection's own rows of `tog` (insert when
/// absent, delete when present); the state is tracked in `present`.
Effect Toggle(Builder* b, size_t conn, std::set<uint64_t>* present,
              uint64_t avoid) {
  uint64_t t;
  do {
    t = conn * kTogglesPerConn + b->rng.Below(kTogglesPerConn);
  } while (t == avoid);
  const bool insert = present->count(t) == 0;
  if (insert) present->insert(t); else present->erase(t);
  return Effect{insert, "tog", ToggleRow(t)};
}

/// The keyed FD relation and the depth-3 MVD relation every workload
/// but recovery loads in set-up.
void Preload(Builder* b) {
  b->AddRelation(KeyedSpec("kv", true));
  b->AddRelation(MvdSpec("mvd"));
  b->Load("kv", KeyedRows(b, kKeys));
  b->Load("mvd", MvdRows(kMvdGroups, 2, 6));
}

void SetupReadRelations(Builder* b, bool joins) {
  Preload(b);
  b->AddRelation(Spec("tog", {{"t", ValueType::kInt}, {"s", ValueType::kString}},
                      {0, 1}, ""));
  std::vector<Row> tog;
  for (uint64_t t = 0; t < 2 * kTogglesPerConn; ++t) tog.push_back(ToggleRow(t));
  b->Load("tog", tog);
  if (joins) {
    b->AddRelation(Spec("emp", {{"e", ValueType::kInt},
                                {"dept", ValueType::kString}},
                        {0, 1}, "FD e -> dept"));
    b->AddRelation(Spec("dept", {{"dept", ValueType::kString},
                                 {"floor", ValueType::kInt}},
                        {0, 1}, "FD dept -> floor"));
    std::vector<Row> emp, dept;
    for (uint64_t e = 1; e <= kEmployees; ++e) {
      emp.push_back(Row{I(e), "d" + I(b->rng.Below(20))});
    }
    for (uint64_t d = 0; d < 20; ++d) {
      dept.push_back(Row{"d" + I(d), I(1 + b->rng.Below(9))});
    }
    b->Load("emp", emp);
    b->Load("dept", dept);
  }
}

// ---- Main phases ----------------------------------------------------------

void ReadMix(Builder* b, int seconds, bool sharded) {
  // sharded_mix runs fewer operations: each is slower through the router.
  const uint64_t ops = static_cast<uint64_t>(seconds) * (sharded ? 4000 : 6000);
  for (size_t c = 0; c < 2; ++c) {
    std::set<uint64_t> present;
    for (uint64_t t = 0; t < kTogglesPerConn; ++t) {
      present.insert(c * kTogglesPerConn + t);
    }
    uint64_t next_sw = 0;
    std::vector<Op>& out = b->plan.conns.emplace_back();
    for (uint64_t i = 0; i < ops; ++i) {
      const int roll = static_cast<int>(b->rng.Below(100));
      const int write_from = sharded ? 90 : 95;
      if (roll < write_from) {
        out.push_back(ReadOp(b, sharded && roll >= 75 ? 85 : roll, !sharded));
        continue;
      }
      const int kind = static_cast<int>(b->rng.Below(20));
      // Under shards only connection 0 opens transactions. Two
      // connections' concurrent cross-shard transactions finish (see
      // README.md) but bounce each other, which spread the run-to-run
      // figures beyond the bounds.
      if (kind < 2 && (!sharded || c == 0)) {
        // Transaction. read_mix toggles two rows; sharded_mix inserts
        // four new keys spread over both shards.
        std::vector<Effect> effects;
        if (!sharded) {
          Effect first = Toggle(b, c, &present, UINT64_MAX);
          effects.push_back(first);
          effects.push_back(Toggle(b, c, &present, std::stoull(first.row[0])));
        } else {
          std::set<size_t> shards;
          while (effects.size() < 4 || shards.size() < 2) {
            const uint64_t k = 2 * (next_sw++) + c + 1;
            shards.insert(nf2::shard::ShardOf(nf2::Value::Int(k), 2));
            effects.push_back(Effect{true, "sw", b->KeyedRow(k, "a", 16)});
          }
        }
        out.push_back(Builder::TxnOp(effects));
      } else if (sharded && kind < 7) {
        const uint64_t k = 2 * (next_sw++) + c + 1;
        out.push_back(Builder::WriteOp(true, "sw", b->KeyedRow(k, "a", 16)));
      } else {
        Effect e = Toggle(b, c, &present, UINT64_MAX);
        out.push_back(Builder::WriteOp(e.insert, e.relation, e.row));
      }
    }
  }
}

constexpr size_t kIngestEpochs = 3;

std::string IngestRelation(size_t epoch) { return "ing" + I(epoch); }

/// One connection's share of one ingest epoch: rounds of 50 operations,
/// 45 autocommit INSERTs, 4 DELETEs of earlier rows and one 16-row
/// transaction. Each connection writes its own keys (k ≡ c+1 mod 2)
/// into its own (a, b) groups, so the two streams never touch the same
/// NFR tuple.
void IngestEpoch(Builder* b, const std::string& rel, size_t c, uint64_t rounds,
                 std::vector<Op>* out) {
  const std::string a_prefix = "c" + I(c) + "a";
  uint64_t next = 0;
  std::vector<Row> live;
  auto new_row = [&]() {
    Row r = b->KeyedRow(2 * (next++) + c + 1, a_prefix, 8);
    live.push_back(r);
    return r;
  };
  for (uint64_t round = 0; round < rounds; ++round) {
    std::vector<int> kinds(45, 0);
    kinds.insert(kinds.end(), 4, 1);
    kinds.push_back(2);
    for (size_t i = kinds.size(); i > 1; --i) {
      std::swap(kinds[i - 1], kinds[b->rng.Below(i)]);
    }
    for (int kind : kinds) {
      if (kind == 1 && live.size() > 1) {
        const size_t at = b->rng.Below(live.size() - 1);
        Row victim = live[at];
        live.erase(live.begin() + static_cast<long>(at));
        out->push_back(Builder::WriteOp(false, rel, victim));
      } else if (kind == 2) {
        std::vector<Effect> effects;
        for (int i = 0; i < 16; ++i) effects.push_back({true, rel, new_row()});
        out->push_back(Builder::TxnOp(effects));
      } else {
        out->push_back(Builder::WriteOp(true, rel, new_row()));
      }
    }
  }
}

/// Epochs: each grows a fresh relation from empty to a few thousand
/// rows, so a run takes more samples at the same relation sizes.
void Ingest(Builder* b, int seconds) {
  const uint64_t rounds = static_cast<uint64_t>(seconds) * 3;
  b->plan.conns.resize(2);
  for (size_t e = 0; e < kIngestEpochs; ++e) {
    for (size_t c = 0; c < 2; ++c) {
      IngestEpoch(b, IngestRelation(e), c, rounds, &b->plan.conns[c]);
    }
  }
}

void Recovery(Builder* b) {
  // |R*| large beside the NFR: 64 groups of X×Y×Z with 6..9 values per
  // set (27,000 flat rows, 64 NFR tuples, every component far under a
  // page), plus a keyed relation the WAL tails write to.
  b->AddRelation(MvdSpec("big"));
  b->AddRelation(KeyedSpec("kv", true));
  b->Load("big", MvdRows(64, 6, 9));
  b->Load("kv", KeyedRows(b, 2000));
}

}  // namespace

// ---- Model ------------------------------------------------------------------

void Model::Apply(const Effect& e) {
  std::set<Row>& rows = rows_[e.relation];
  const bool changed = e.insert ? rows.insert(e.row).second : rows.erase(e.row) > 0;
  if (changed) ++versions_[e.relation];
}

nf2::FlatRelation Model::Flat(const std::string& name) const {
  const Schema& schema = Spec(name).schema;
  std::vector<nf2::FlatTuple> tuples;
  for (const Row& r : Rows(name)) {
    std::vector<nf2::Value> values;
    for (size_t i = 0; i < r.size(); ++i) {
      values.push_back(ToValue(r[i], schema.attribute(i).type));
    }
    tuples.emplace_back(std::move(values));
  }
  return nf2::FlatRelation(schema, std::move(tuples));
}

std::string Model::ExpectedShow(const std::string& name) const {
  return nf2::RenderTable(nf2::CanonicalForm(Flat(name), Spec(name).order),
                          name);
}

uint64_t Model::UserBytes() const {
  uint64_t bytes = 0;
  for (const auto& [name, rows] : rows_) {
    const Schema& schema = Spec(name).schema;
    for (const Row& r : rows) {
      for (size_t i = 0; i < r.size(); ++i) {
        bytes += schema.attribute(i).type == ValueType::kInt ? 8 : r[i].size();
      }
    }
  }
  return bytes;
}

// ---- Plan -------------------------------------------------------------------

std::vector<Op> MakeProbe(const Plan& plan, const Model& m, Rng* rng,
                          size_t reads) {
  Builder b(rng->Next());
  const std::string& rel = plan.cycle_relation;
  std::vector<Row> rows(m.Rows(rel).begin(), m.Rows(rel).end());
  std::vector<Op> ops;
  for (size_t i = 0; i < reads && !rows.empty(); ++i) {
    ops.push_back(b.PointRead(m, rel, rows[rng->Below(rows.size())]));
  }
  ops.push_back(Builder::CountSum(m, rel));
  ops.push_back(Builder::GroupBy(m, rel, 1, -1));
  const std::string mvd = plan.workload == "recovery" ? "big" : "mvd";
  if (m.specs().count(mvd)) {
    ops.push_back(Builder::Count(m, mvd));
    ops.push_back(Builder::GroupBy(m, mvd, 0, -1));
  } else {
    ops.push_back(Builder::GroupBy(m, rel, 2, 0));
    ops.push_back(Builder::CountSum(m, rel));
  }
  return ops;
}

Plan MakeSetup(const std::string& workload, uint64_t seed) {
  Builder b(seed * 0x100000001b3ULL + 7);
  b.plan.workload = workload;
  if (workload == "read_mix") {
    SetupReadRelations(&b, true);
  } else if (workload == "sharded_mix") {
    b.plan.shards = 2;
    SetupReadRelations(&b, false);
    b.AddRelation(KeyedSpec("sw", false));
  } else if (workload == "ingest") {
    Preload(&b);
    for (size_t e = 0; e < kIngestEpochs; ++e) {
      b.AddRelation(KeyedSpec(IngestRelation(e), false));
    }
  } else if (workload == "recovery") {
    Recovery(&b);
  } else {
    throw std::invalid_argument("unknown workload " + workload);
  }
  if (workload != "recovery") {
    // The cycles' own relation: no main-phase operation reads or writes
    // it, so the cycles can run between slices of the main phase.
    b.AddRelation(KeyedSpec("cyc", true));
    b.Load("cyc", KeyedRows(&b, kCycleKeys));
  }
  b.plan.model = b.model;
  return std::move(b.plan);
}

void MakeOps(Plan* plan, uint64_t seed, int seconds) {
  Builder b(seed * 0x9e3779b97f4a7c15ULL + 11);
  b.model = plan->model;
  b.plan = std::move(*plan);
  const std::string& workload = b.plan.workload;
  size_t cycles = 12 * static_cast<size_t>(seconds);
  size_t tail = 16, probe_reads = 120, txn_rows = 8;
  if (workload == "read_mix" || workload == "sharded_mix") {
    ReadMix(&b, seconds, b.plan.shards > 1);
  } else if (workload == "ingest") {
    Ingest(&b, seconds);
  } else {
    cycles = 5 * static_cast<size_t>(seconds);
    tail = 32;
    probe_reads = 64;
  }
  b.plan.followers = workload == "recovery" ? 10 : workload == "sharded_mix" ? 16 : 24;
  b.plan.cycle_relation = workload == "recovery" ? "kv" : "cyc";

  // The cycles, probes and follower writes read and write only the
  // cycle relation and the MVD relation, which the main phase leaves
  // alone, so they are generated without the main phase's effects.
  const std::string& rel = b.plan.cycle_relation;
  for (const auto& [name, spec] : b.model.specs()) {
    b.plan.show_relations.push_back(name);
  }
  for (size_t cycle = 0; cycle < cycles; ++cycle) {
    std::vector<Effect> txn;
    for (size_t i = 0; i < txn_rows; ++i) {
      txn.push_back(Effect{true, rel, b.KeyedRow(b.next_cycle_key++, "a", 16)});
    }
    if (workload == "recovery") {
      // A new x value for one group: |Y|·|Z| rows, so the group stays
      // one NFR tuple and the checkpoint rewrites its page.
      // Groups 40..43 have |Y| = |Z| = 8: every cycle adds 64 rows.
      const std::string g = "g" + I(40 + b.rng.Below(4));
      std::set<std::string> ys, zs;
      for (const Row& r : b.model.Rows("big")) {
        if (r[0] == g) { ys.insert(r[2]); zs.insert(r[3]); }
      }
      const std::string x = "n" + I(cycle);
      for (const std::string& y : ys)
        for (const std::string& z : zs) txn.push_back({true, "big", {g, x, y, z}});
    }
    for (const Effect& e : txn) b.model.Apply(e);
    b.plan.cycle_txns.push_back(Builder::TxnOp(txn));
    std::vector<Op>& tail_ops = b.plan.cycle_tails.emplace_back();
    for (size_t i = 0; i < tail; ++i) {
      if (i % 8 == 7) {
        // Delete one of this cycle's tail rows again.
        const Effect victim = tail_ops[i - 3].effects.front();
        tail_ops.push_back(Builder::WriteOp(false, rel, victim.row));
        b.model.Apply(Effect{false, rel, victim.row});
      } else {
        Row r = b.KeyedRow(b.next_cycle_key++, "a", 16);
        tail_ops.push_back(Builder::WriteOp(true, rel, r));
        b.model.Apply(Effect{true, rel, r});
      }
    }
    b.plan.cycle_probes.push_back(MakeProbe(b.plan, b.model, &b.rng, probe_reads));
  }
  // Only the last follower sees a write burst: a cold follower started
  // after another one has applied WAL records never converges (see the
  // FOUND note on ReplicationHub::StreamShard in CHANGES.md).
  for (size_t f = 0; f < b.plan.followers; ++f) {
    std::vector<Op>& ops = b.plan.follower_writes.emplace_back();
    for (size_t i = 0; f + 1 == b.plan.followers && i < 64; ++i) {
      Row r = b.KeyedRow(b.next_cycle_key++, "a", 16);
      ops.push_back(Builder::WriteOp(true, rel, r));
      b.model.Apply(Effect{true, rel, r});
    }
  }
  *plan = std::move(b.plan);
}

// ---- Checks and statistics ------------------------------------------------

bool CheckReply(const Stmt& stmt, const std::string& got) {
  switch (stmt.expect) {
    case Expect::kExact:
      return got == stmt.expected;
    case Expect::kGroups: {
      auto lines = [](const std::string& text) {
        std::vector<std::string> out;
        size_t start = 0;
        while (start <= text.size()) {
          size_t end = text.find('\n', start);
          if (end == std::string::npos) end = text.size();
          out.push_back(text.substr(start, end - start));
          start = end + 1;
        }
        std::sort(out.begin(), out.end());
        return out;
      };
      return lines(got) == lines(stmt.expected);
    }
  }
  return false;
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

// ---- Self-test of the checkers ----------------------------------------------

int SelfTest() {
  int failures = 0;
  auto expect = [&](bool cond, const char* what) {
    std::printf("%s: %s\n", cond ? "ok  " : "FAIL", what);
    if (!cond) ++failures;
  };
  Builder b(42);
  SetupReadRelations(&b, true);
  const Model& m = b.model;

  // One row of a reply changed.
  Op range = b.RangeRead(m, "kv", 100, 8);
  const Stmt& rs = range.stmts[0];
  expect(CheckReply(rs, rs.expected), "range reply as predicted is accepted");
  std::string changed = rs.expected;
  const size_t cell = changed.find("| 10");
  changed[cell + 4] = changed[cell + 4] == '1' ? '2' : '1';
  expect(!CheckReply(rs, changed), "range reply with one row changed is rejected");

  // One aggregate value changed, in a bare aggregate and in a group.
  Op sum = Builder::CountSum(m, "kv");
  std::string bad_sum = sum.stmts[0].expected;
  bad_sum.back() = bad_sum.back() == '9' ? '8' : static_cast<char>(bad_sum.back() + 1);
  expect(CheckReply(sum.stmts[0], sum.stmts[0].expected), "COUNT/SUM as predicted is accepted");
  expect(!CheckReply(sum.stmts[0], bad_sum), "COUNT/SUM with one value changed is rejected");
  Op group = Builder::GroupBy(m, "mvd", 0, -1);
  std::string bad_group = group.stmts[0].expected;
  const size_t tab = bad_group.find('\t');
  bad_group[tab + 1] = bad_group[tab + 1] == '9' ? '8' : static_cast<char>(bad_group[tab + 1] + 1);
  expect(!CheckReply(group.stmts[0], bad_group), "GROUP BY with one count changed is rejected");
  std::string shuffled = group.stmts[0].expected;
  const size_t nl = shuffled.find('\n');
  shuffled = shuffled.substr(nl + 1, shuffled.rfind('\n') - nl) + shuffled.substr(0, nl + 1) +
             shuffled.substr(shuffled.rfind('\n') + 1);
  expect(CheckReply(group.stmts[0], shuffled), "GROUP BY lines in another order are accepted");

  // One byte of a follower's rendering changed: the follower check
  // compares SHOW output byte for byte with the primary's.
  const std::string show = m.ExpectedShow("mvd");
  Stmt follower{"SHOW mvd", show};
  std::string bad_show = show;
  bad_show[bad_show.size() / 2] ^= 0x01;
  expect(CheckReply(follower, show), "identical follower rendering is accepted");
  expect(!CheckReply(follower, bad_show), "follower rendering with one byte changed is rejected");

  // The oracle itself: one NFR tuple per MVD group.
  expect(show.find("| g0 ") != std::string::npos, "canonical form renders group g0");
  std::printf("%s\n", failures == 0 ? "selftest passed" : "selftest FAILED");
  return failures == 0 ? 0 : 1;
}

}  // namespace perfbench
