#ifndef NF2_ENGINE_CONCURRENCY_H_
#define NF2_ENGINE_CONCURRENCY_H_

#include <cstdint>
#include <mutex>

#include "nfrql/ast.h"
#include "obs/metrics.h"

namespace nf2 {

/// The writer gate over one Database — the writer-serialization layer
/// the server (src/server/) drives, usable on its own by any embedder.
/// It is one mutex plus acquisition/wait instrumentation.
///
/// Locking discipline (DESIGN.md §8/§9): every mutating statement —
/// including BEGIN/COMMIT/ROLLBACK and CHECKPOINT — serializes under
/// the gate for the duration of that one statement, and so do the
/// server's session abort and shutdown checkpoint. Theorem A-4 is what
/// makes the single writer lock viable: the §4 composition count per
/// insert/delete is bounded by a function of the degree alone,
/// independent of |R|, so writer critical sections stay short no
/// matter how large the relation grows.
///
/// Statements classified read-only by IsReadOnlyStatement do NOT come
/// here at all: they pin an immutable DatabaseSnapshot
/// (engine/snapshot.h) and execute with zero gate traffic.
///
/// Writer-side obligation: nothing a published snapshot can reach may
/// be written again. The writer honours it by copy-on-write — every
/// CowVector node or Cow value it writes is cloned first when a
/// published version still holds it — and by handing snapshots a
/// frozen dictionary view, which covers only ids interned before the
/// publish and has no lazy state (no ranks) for readers to fill in.
class EngineGate {
 public:
  /// RAII guard for the writer; unlocks on destruction.
  using ExclusiveLock = std::unique_lock<std::mutex>;

  EngineGate() = default;
  EngineGate(const EngineGate&) = delete;
  EngineGate& operator=(const EngineGate&) = delete;

  /// Exclusive (writer) lock — held for the duration of one mutating
  /// statement.
  ExclusiveLock LockExclusive();

  /// Mirrors acquisitions (and writer wait time) into the given metric
  /// handles. Call before the gate sees traffic; an all-null set (the
  /// default) records nothing.
  void set_metrics(const GateMetrics& metrics) { metrics_ = metrics; }

 private:
  std::mutex mu_;
  GateMetrics metrics_;  // Handles are themselves thread-safe.
};

/// True when executing `stmt` cannot mutate engine state, so it may run
/// against a pinned snapshot without the gate: SELECT, SHOW, DESCRIBE,
/// NEST/UNNEST views, LIST, STATS, and EXPLAIN of anything (EXPLAIN
/// never executes).
/// PROFILE executes its inner statement and classifies as that
/// statement does. Everything else — INSERT/DELETE/UPDATE, DDL,
/// CHECKPOINT, BEGIN/COMMIT/ROLLBACK — requires the gate.
bool IsReadOnlyStatement(const Statement& stmt);

}  // namespace nf2

#endif  // NF2_ENGINE_CONCURRENCY_H_
