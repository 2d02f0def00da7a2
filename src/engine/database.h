#ifndef NF2_ENGINE_DATABASE_H_
#define NF2_ENGINE_DATABASE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "algebra/predicate.h"
#include "catalog/catalog.h"
#include "core/update.h"
#include "engine/snapshot.h"
#include "engine/statistics.h"
#include "obs/metrics.h"
#include "storage/checkpoint.h"
#include "storage/wal.h"
#include "util/result.h"

namespace nf2 {

/// The nf2db engine: a directory of canonical NFR tables plus a shared
/// write-ahead log.
///
/// Durability protocol:
///  - CreateRelation/DropRelation are logged (fsync'd), then the table
///    and catalog files are replaced atomically — a crash between the
///    steps is recovered by replaying the log.
///  - Insert/Delete are logged to the WAL (fsync'd at each commit
///    point: every autocommit op, every Commit), then applied in
///    memory via the §4 algorithms. Table files are only rewritten at
///    Checkpoint, which then truncates the WAL.
///  - Checkpoint is incremental (DESIGN.md §12): it shadow-writes only
///    the changed pages of mutated relations, publishes the new
///    logical→physical page mapping by atomically replacing
///    MANIFEST.nf2, and truncates the WAL only after that — the
///    truncate is the commit point. A crash at any point leaves a
///    state WAL replay converges from: either the old manifest's page
///    versions plus the full log, or the new ones plus an idempotent
///    replay.
///  - Open removes stray temp files, loads the catalog and the
///    manifest, reads each table through its page mapping (flat when
///    no mapping applies), then replays the WAL through the same §4
///    algorithms — recovery reconstructs exactly the canonical form
///    (Theorem 2 uniqueness makes this well-defined).
class Database {
 public:
  struct Options {
    /// Insert/delete operations between automatic checkpoints
    /// (0 disables automatic checkpointing).
    size_t auto_checkpoint_every = 0;
    /// When true, Insert rejects tuples that would violate a relation's
    /// declared FDs (FailedPrecondition). Declared MVDs are never
    /// enforced: the paper's §2 lesson is precisely that updates must
    /// not assume MVDs continue to hold.
    bool enforce_fds = true;
    /// When true (the default) the WAL fdatasyncs at every commit
    /// point, so an acknowledged operation survives a crash. Turning
    /// it off trades that guarantee for speed (benchmarks, bulk
    /// loads): data is still consistent after a crash, just possibly
    /// stale.
    bool sync_wal = true;
  };

  /// Opens (creating if needed) a database in `dir`, running recovery.
  /// All file I/O goes through `env` (fault-injection tests pass a
  /// FaultInjectionEnv here).
  static Result<std::unique_ptr<Database>> Open(const std::string& dir,
                                                Options options, Env* env);
  static Result<std::unique_ptr<Database>> Open(const std::string& dir,
                                                Options options) {
    return Open(dir, options, Env::Default());
  }
  static Result<std::unique_ptr<Database>> Open(const std::string& dir) {
    return Open(dir, Options{});
  }

  ~Database();
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  /// Creates a relation. When `nest_order` is empty the §3.4 advisor
  /// derives it from the declared dependencies.
  Status CreateRelation(const std::string& name, Schema schema,
                        Permutation nest_order = {},
                        std::vector<Fd> fds = {},
                        std::vector<Mvd> mvds = {});

  /// Drops a relation and removes its table file.
  Status DropRelation(const std::string& name);

  /// Names of all relations, sorted.
  std::vector<std::string> ListRelations() const;

  /// The stored canonical NFR (by reference; valid until the next
  /// mutation of that relation).
  Result<const NfrRelation*> Relation(const std::string& name) const;

  /// The canonical-form container itself — what the query planner binds
  /// to reach the inverted index (same lifetime as Relation()).
  Result<const CanonicalRelation*> Canonical(const std::string& name) const;

  /// Catalog metadata for `name`.
  Result<const RelationInfo*> Info(const std::string& name) const;

  /// Inserts / deletes one simple tuple through the §4 algorithms.
  Status Insert(const std::string& name, const FlatTuple& tuple);
  Status Delete(const std::string& name, const FlatTuple& tuple);

  /// True when the simple tuple is in R*.
  Result<bool> Contains(const std::string& name,
                        const FlatTuple& tuple) const;

  /// R* of the stored relation.
  Result<FlatRelation> Scan(const std::string& name) const;

  /// sigma_pred(R*), evaluated against the NFR without full expansion
  /// of non-matching tuples.
  Result<FlatRelation> Query(const std::string& name,
                             const Predicate& pred) const;

  /// Starts a transaction: subsequent Insert/Delete calls become
  /// atomic — Commit makes them durable as a unit; Rollback (or a crash
  /// before Commit) undoes all of them. DDL (create/drop) and
  /// Checkpoint are rejected while a transaction is open. Error when a
  /// transaction is already active (no nesting).
  Status Begin();

  /// Commits the open transaction.
  Status Commit();

  /// Rolls back the open transaction by applying inverse operations in
  /// reverse order (delete for insert, insert for delete).
  Status Rollback();

  /// True between Begin and Commit/Rollback.
  bool in_transaction() const { return in_txn_; }

  /// Incremental checkpoint (DESIGN.md §12): writes only the pages of
  /// relations mutated since the last checkpoint (shadow-paged, diffed
  /// by CRC against the manifest), publishes the new manifest
  /// atomically, then truncates the WAL. FailedPrecondition while a
  /// transaction is open.
  Status Checkpoint();

  /// Size/maintenance statistics for one relation.
  Result<RelationStats> Stats(const std::string& name) const;

  /// Full integrity audit (what tools/nf2_check runs): every relation
  /// must be well-formed (disjoint expansions), exactly the canonical
  /// form for its nest order, and must satisfy its declared FDs.
  /// Returns the first violation found, OK when everything checks out.
  Status VerifyIntegrity() const;

  /// Number of data/DDL operations applied since the last checkpoint.
  /// Transaction markers and checkpoint records do not count — after
  /// recovery this equals the number of replayed, applied operations,
  /// so auto-checkpoint cadence is unchanged by a crash.
  uint64_t wal_records_since_checkpoint() const {
    return ops_since_checkpoint_;
  }

  /// The Env all storage I/O goes through.
  Env* env() const { return env_; }

  /// fdatasyncs issued by the WAL since open — observability for the
  /// group-commit batching benchmarks.
  uint64_t wal_sync_count() const { return wal_->sync_count(); }

  /// Path of the write-ahead log file inside dir().
  std::string wal_path() const;

  /// The write-ahead log itself — the replication streamer subscribes
  /// to its tail and reads its (epoch, lsn) position. Valid for the
  /// lifetime of the Database. Callers must not Append or Reset
  /// through it; mutations go through the Database API.
  WriteAheadLog* wal() { return wal_.get(); }

  /// When the last successful Checkpoint() of this process completed;
  /// nullopt before the first one since Open. Monitoring surfaces
  /// (`\shards`) render this as a checkpoint age; atomic because they
  /// read it without the engine gate.
  std::optional<std::chrono::steady_clock::time_point> last_checkpoint_time()
      const {
    int64_t ns = last_checkpoint_ns_.load(std::memory_order_relaxed);
    if (ns < 0) return std::nullopt;
    return std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(ns));
  }

  /// The database-wide value dictionary: every relation interns its
  /// atoms here, so one atomic value has one dense id across the whole
  /// database. Persisted at Checkpoint and reloaded (with identical id
  /// assignment) at Open.
  const std::shared_ptr<ValueDictionary>& dictionary() const {
    return dict_;
  }

  /// Pins the current published snapshot: one atomic shared_ptr load,
  /// no locks. The returned view is immutable and consistent — it
  /// reflects exactly the state as of the last commit boundary
  /// (autocommit op, COMMIT/ROLLBACK, DDL, or end of recovery) and is
  /// never affected by later writes. Readers may hold it for as long
  /// as they like (but not past the Database's destruction); dropping
  /// the last reference frees the version. Thread-safe against
  /// concurrent writers.
  std::shared_ptr<const DatabaseSnapshot> PinSnapshot() const {
    return snapshot_.load(std::memory_order_acquire);
  }

  /// Monotone epoch bumped by every successful CREATE/DROP — the
  /// plan-reuse key for caches of parsed statements (a cached parse is
  /// valid only for the epoch it was built under). Thread-safe.
  uint64_t catalog_epoch() const {
    return catalog_epoch_.load(std::memory_order_acquire);
  }

  /// The engine-wide metrics registry — WAL, checkpoint /
  /// recovery timings, and §4 algebra counters all land here. Valid for
  /// the lifetime of the Database.
  MetricsRegistry* metrics() { return &metrics_; }

  /// A point-in-time copy of every registered metric (refreshes derived
  /// gauges like the dictionary size first).
  ::nf2::MetricsSnapshot MetricsSnapshot() const;

  /// Per-relation §4 operation counters without the (expensive) size
  /// statistics of Stats() — what PROFILE uses to delta around one
  /// statement.
  Result<UpdateStats> RelationUpdateStats(const std::string& name) const;

  /// Human-readable (`prometheus = false`) or Prometheus text-exposition
  /// dump of the registry — the shell's `\metrics` command.
  std::string MetricsText(bool prometheus) const;

  const std::string& dir() const { return dir_; }

 private:
  Database() = default;

  Status Recover();

  /// FailedPrecondition when inserting `tuple` into `name` would break
  /// one of its declared FDs (checked against the stored NFR without
  /// expansion).
  Status CheckFdsForInsert(const RelationInfo& info,
                           const CanonicalRelation& rel,
                           const FlatTuple& tuple) const;

  Status ApplyInsert(const std::string& name, const FlatTuple& tuple);
  Status ApplyDelete(const std::string& name, const FlatTuple& tuple);
  std::string TablePath(const RelationInfo& info) const;
  std::string CatalogPath() const;
  std::string DictionaryPath() const;
  std::string ManifestPath() const;
  Status SaveDictionary() const;
  Status LoadDictionary();
  /// A fresh interned CanonicalRelation wired to the shared dictionary.
  CanonicalRelation MakeRelation(const Schema& schema,
                                 const Permutation& order) const;
  Status MaybeAutoCheckpoint();

  /// Publishes the current state as a new immutable DatabaseSnapshot
  /// (DESIGN.md §9): takes a frozen view of the dictionary, copies
  /// every dirty relation in O(degree) (clean ones share their version
  /// with the previous snapshot), then swaps the snapshot pointer — the
  /// single commit point readers observe. Costs O(dirty relations ×
  /// degree), whatever their size. Called at every commit boundary;
  /// writer context only; timed by nf2_snapshot_publish_ns.
  void PublishSnapshot();

  /// Declared first so it is destroyed last: the WAL, tables, and
  /// relations all hold Counter*/Histogram* handles into it.
  mutable MetricsRegistry metrics_;
  std::string dir_;
  Options options_;
  Env* env_ = nullptr;
  Catalog catalog_;
  std::unique_ptr<WriteAheadLog> wal_;
  std::shared_ptr<ValueDictionary> dict_;
  std::map<std::string, CanonicalRelation> relations_;
  uint64_t ops_since_checkpoint_ = 0;
  /// steady_clock nanos of the last successful checkpoint, -1 for none.
  std::atomic<int64_t> last_checkpoint_ns_{-1};

  // --- Incremental checkpoint state (DESIGN.md §12).
  /// In-memory copy of the durable MANIFEST.nf2; swapped only after
  /// SaveManifestAtomic + WAL truncate succeed.
  Manifest manifest_;
  /// Relations mutated since the last CHECKPOINT (distinct from
  /// dirty_relations_, which clears at every snapshot publish). A clean
  /// relation with a live manifest entry is skipped wholesale.
  std::set<std::string> ckpt_dirty_;
  /// Dictionary size covered by the on-disk dict.nf2; the dictionary is
  /// append-only, so an equal size means identical content and the
  /// save is skipped. SIZE_MAX forces the first save.
  size_t saved_dict_size_ = SIZE_MAX;

  // Registry handles cached at Open (stable for the Database lifetime).
  Counter* metric_checkpoints_ = nullptr;
  Counter* metric_recoveries_ = nullptr;
  Counter* metric_inserts_ = nullptr;
  Counter* metric_deletes_ = nullptr;
  Histogram* metric_checkpoint_ns_ = nullptr;
  Histogram* metric_recovery_ns_ = nullptr;
  Histogram* metric_insert_ns_ = nullptr;
  Histogram* metric_delete_ns_ = nullptr;
  Gauge* metric_dict_values_ = nullptr;
  Gauge* metric_relations_ = nullptr;
  Counter* metric_snapshots_published_ = nullptr;
  Histogram* metric_publish_ns_ = nullptr;
  CheckpointMetrics ckpt_metrics_;

  // --- MVCC snapshot state (DESIGN.md §9). Written only by writer
  // paths; snapshot_ is the one reader-visible cell.
  /// The published snapshot, swapped atomically by PublishSnapshot().
  std::atomic<std::shared_ptr<const DatabaseSnapshot>> snapshot_;
  /// Live-version bookkeeping behind nf2_snapshot_{pinned,oldest_age_ms}.
  std::shared_ptr<SnapshotTracker> snapshot_tracker_;
  /// Relations mutated since the last publish — the ones the next
  /// publish must clone instead of share.
  std::set<std::string> dirty_relations_;
  std::atomic<uint64_t> catalog_epoch_{0};
  uint64_t published_version_ = 0;

  /// One undoable operation of the open transaction.
  struct UndoEntry {
    bool was_insert;
    std::string relation;
    FlatTuple tuple;
  };
  bool in_txn_ = false;
  /// Set once Recover() completes; the destructor refuses to checkpoint
  /// a partially-recovered database (see ~Database).
  bool recovered_ = false;
  std::vector<UndoEntry> undo_log_;
};

}  // namespace nf2

#endif  // NF2_ENGINE_DATABASE_H_
