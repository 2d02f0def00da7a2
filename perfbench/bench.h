// Shared declarations of the nf2d wire-level benchmark (see README.md):
// the seeded workload generator and its flat model, the reply checkers,
// the sample statistics, and the two runners (wire and traced).
#ifndef NF2_PERFBENCH_BENCH_H_
#define NF2_PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/nest.h"
#include "core/relation.h"
#include "core/schema.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// splitmix64: the benchmark's only source of randomness, seeded from
/// --seed so the same seed always yields the same inputs.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  uint64_t Below(uint64_t n) { return Next() % n; }

 private:
  uint64_t state_;
};

/// One relation of a workload: its DDL and the schema the model and the
/// oracle use.
struct RelSpec {
  std::string name;
  std::string ddl;
  nf2::Schema schema;
  nf2::Permutation order;
};

/// A flat row as literal texts, in schema order.
using Row = std::vector<std::string>;

/// How a reply is compared with what the model predicts.
enum class Expect {
  kExact,      // byte-identical text
  kGroups,     // GROUP BY: the same lines in any order
};

/// The latency class an operation's time is filed under.
enum class OpClass { kRead, kQuery, kWrite, kTxn, kCheckpoint };

/// One statement of an operation with the reply the model predicts.
struct Stmt {
  std::string text;
  std::string expected;
  Expect expect = Expect::kExact;
};

/// A row change the model applies once the server acknowledged it.
struct Effect {
  bool insert = true;
  std::string relation;
  Row row;
};

/// One closed-loop operation: a single statement, or a BEGIN…COMMIT
/// transaction sent statement by statement on one connection.
struct Op {
  OpClass cls = OpClass::kRead;
  std::vector<Stmt> stmts;
  std::vector<Effect> effects;
};

/// The generator's flat model: the rows of every relation.
class Model {
 public:
  void Add(const RelSpec& spec) { specs_[spec.name] = spec; }
  const RelSpec& Spec(const std::string& name) const {
    return specs_.at(name);
  }
  const std::map<std::string, RelSpec>& specs() const { return specs_; }
  void Apply(const Effect& e);
  /// Changes whenever Apply changes the relation's rows.
  uint64_t Version(const std::string& name) const {
    auto it = versions_.find(name);
    return it == versions_.end() ? 0 : it->second;
  }
  const std::set<Row>& Rows(const std::string& name) const {
    return rows_.at(name);
  }
  std::set<Row>& MutableRows(const std::string& name) { return rows_[name]; }
  /// The relation's R* as an nf2 FlatRelation (typed values).
  nf2::FlatRelation Flat(const std::string& name) const;
  /// What SHOW must print: the rendering of CanonicalForm(R*) — the
  /// unique canonical NFR of Theorem 2, computed from the flat rows.
  std::string ExpectedShow(const std::string& name) const;
  /// Bytes of the flat rows (INT 8 bytes, STRING its length).
  uint64_t UserBytes() const;

 private:
  std::map<std::string, RelSpec> specs_;
  std::map<std::string, std::set<Row>> rows_;
  std::map<std::string, uint64_t> versions_;
};

/// The whole input of one run, generated from (workload, seed, seconds).
struct Plan {
  std::string workload;
  size_t shards = 1;
  Model model;                       // State after setup.
  std::vector<std::string> ddl;      // CREATE statements.
  std::vector<std::vector<std::string>> loads;  // Bulk-load batches.
  std::vector<std::vector<Op>> conns;           // Main phase, per connection.
  // Maintenance cycles: txn → CHECKPOINT → WAL tail → SIGKILL → restart.
  std::vector<Op> cycle_txns;
  std::vector<std::vector<Op>> cycle_tails;
  std::vector<std::vector<Op>> cycle_probes;    // Generated after the cycle.
  std::string cycle_relation;  // Keyed relation the cycles write and probe.
  size_t followers = 0;
  // Writes made on the primary once each follower has caught up; the
  // follower then applies them as WAL records.
  std::vector<std::vector<Op>> follower_writes;
  std::vector<std::string> show_relations;      // Compared after restarts.
};

/// Builds a plan in two steps, both from (workload, seed): MakeSetup
/// gives the relations, their DDL and bulk loads; MakeOps adds the main
/// phase, the cycles and the follower writes (their sizes scale with
/// `seconds`). The wire run calls MakeOps once the daemon is loaded, so
/// set-up time is the loaded rows' generation and the daemon's start,
/// DDL and bulk loads, not the generation of the operations after them.
/// Probe ops (point reads and aggregates checked against the model) are
/// generated per cycle by MakeProbe, because their expected replies
/// depend on the model after the cycle's writes.
Plan MakeSetup(const std::string& workload, uint64_t seed);
void MakeOps(Plan* plan, uint64_t seed, int seconds);
std::vector<Op> MakeProbe(const Plan& plan, const Model& model, Rng* rng,
                          size_t reads);

/// Reply checking: true when `got` is what `stmt` predicts.
bool CheckReply(const Stmt& stmt, const std::string& got);

/// Sample statistics over latency samples.
double Quantile(std::vector<double> v, double q);

/// One metric of the result line.
struct Metric {
  std::string unit;
  double value = 0;
};
using Metrics = std::map<std::string, Metric>;

struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  Metrics metrics;
  std::vector<std::string> errors;  // First few check failures, to stderr.
  void Fail(const std::string& why) {
    correct = false;
    if (errors.size() < 8) errors.push_back(why);
  }
};

struct Options {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string nf2d;      // Path of the daemon binary.
  std::string work_dir;  // Scratch directory for this run (removed after).
  std::string trace_out; // Where the span file goes (trace runs).
  Clock::time_point process_start;
};

/// Per-layer counters the wire run collects from the daemons' `\metrics`.
using Counters = std::map<std::string, double>;

struct WireOutput {
  RunResult result;
  Counters layer;  // Per-layer figures from the daemons (trace runs).
};

/// Sets the daemon up from `plan`'s set-up part, then completes the plan
/// with MakeOps and runs it.
WireOutput RunWire(const Options& opt, Plan* plan);
/// The in-process replay with spans; adds per-layer metrics to `out`.
void RunTraced(const Options& opt, const Plan& plan, Metrics* out,
               RunResult* result);

/// Theorem A-4 bound used by the shadow-copy check: compositions per
/// single update may not exceed 2^degree, a function of the degree only.
inline uint64_t CompositionBound(size_t degree) { return 1ULL << degree; }

int SelfTest();

}  // namespace perfbench

#endif  // NF2_PERFBENCH_BENCH_H_
