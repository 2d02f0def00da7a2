#ifndef NF2_SERVER_SESSION_H_
#define NF2_SERVER_SESSION_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "engine/concurrency.h"
#include "engine/database.h"
#include "nfrql/executor.h"
#include "obs/metrics.h"
#include "util/result.h"

namespace nf2 {
namespace server {

class Session;

/// The server's view of one connected client: the statement surface
/// Server needs to serve a connection. Implemented by Session (single
/// engine) and by the shard router's fan-out session (shard/router.h),
/// so the TCP layer is indifferent to how many engines sit behind it.
class ClientSession {
 public:
  virtual ~ClientSession() = default;

  virtual uint64_t id() const = 0;

  /// Executes one statement (or meta command), returning the rendered
  /// result text.
  virtual Result<std::string> Execute(std::string_view statement) = 0;

  /// Executes `statements` in order, returning one result per statement
  /// (the kBatch contract, DESIGN.md §8): a failing statement reports
  /// its error in place and execution continues with the next one.
  virtual std::vector<Result<std::string>> ExecuteBatch(
      const std::vector<std::string>& statements) = 0;

  /// Rolls back this session's open transaction, if it holds one.
  virtual void Abort() = 0;
};

/// The factory behind Server: hands out ClientSessions and owns the
/// engine state they share. SessionManager provides single-engine
/// sessions; ShardRouter provides fan-out sessions over N shards.
class SessionProvider {
 public:
  virtual ~SessionProvider() = default;

  /// A new session with a unique id; it must not outlive the provider.
  /// Thread-safe.
  virtual std::unique_ptr<ClientSession> NewClientSession() = 0;

  /// Registry the server's nf2_server_* metrics are registered in.
  virtual MetricsRegistry* metrics_registry() = 0;

  /// Best-effort durability at server shutdown: checkpoint the
  /// engine(s), serialized against writers, skipping any engine with an
  /// open transaction.
  virtual void ShutdownCheckpoint() = 0;
};

/// Default capacity of the shared parsed-statement cache.
constexpr size_t kDefaultStatementCacheCapacity = 512;

/// Statements longer than this bypass the cache entirely (neither
/// looked up nor inserted): bulk INSERTs are one-shot, and caching them
/// would evict the short, hot statements the cache exists for.
constexpr size_t kMaxCachedStatementBytes = 4096;

/// A bounded, thread-safe LRU cache of parsed statements, keyed on the
/// canonical statement text (StatementCacheKey) and shared by every
/// session of one SessionManager. Entries are immutable parse trees
/// behind shared_ptr, so a hit handed to one worker stays valid even if
/// the entry is evicted mid-execution.
///
/// Staleness is handled per entry, not whole-cache: each entry records
/// the Database catalog epoch it was parsed under, and Lookup treats an
/// epoch mismatch as a miss (dropping the stale entry). DDL therefore
/// never takes a cache-wide lock or cold-starts unrelated statements —
/// it just bumps the epoch, and entries lazily re-validate on their
/// next use. Today's parser binds no names, so cached ASTs cannot
/// actually go stale; the epoch contract exists so the cache stays
/// correct the day parsing starts resolving against the catalog.
class StatementCache {
 public:
  StatementCache(size_t capacity, StatementCacheMetrics metrics)
      : capacity_(capacity), metrics_(metrics) {}
  StatementCache(const StatementCache&) = delete;
  StatementCache& operator=(const StatementCache&) = delete;

  /// The cached parse for `key` if it was inserted under `epoch`,
  /// refreshing its LRU position; nullptr on miss. An entry from an
  /// older epoch is erased (counted as one invalidation) and reported
  /// as a miss.
  std::shared_ptr<const Statement> Lookup(const std::string& key,
                                          uint64_t epoch);

  /// Caches `stmt` under `key` for `epoch`, evicting the
  /// least-recently-used entry beyond capacity. A key already present
  /// is refreshed (and re-stamped), not duplicated.
  void Insert(const std::string& key, std::shared_ptr<const Statement> stmt,
              uint64_t epoch);

  size_t size() const;

 private:
  struct Entry {
    std::string key;
    std::shared_ptr<const Statement> stmt;
    uint64_t epoch;
  };
  using LruList = std::list<Entry>;

  mutable std::mutex mu_;
  const size_t capacity_;
  LruList lru_;  // Most recently used first. Guarded by mu_.
  std::unordered_map<std::string, LruList::iterator> index_;  // Guarded by mu_.
  StatementCacheMetrics metrics_;
};

/// Shared state of all sessions over one Database: the writer gate,
/// the transaction owner, and the parsed-statement cache. Create one
/// per Database; hand it to every Session (the TCP server owns one,
/// tests can own their own and drive Sessions directly without
/// sockets).
///
/// Since the snapshot read path (DESIGN.md §9) the gate serializes
/// writers only — read-only statements pin a published snapshot and
/// never touch it.
class SessionManager : public SessionProvider {
 public:
  explicit SessionManager(
      Database* db,
      size_t statement_cache_capacity = kDefaultStatementCacheCapacity);
  SessionManager(const SessionManager&) = delete;
  SessionManager& operator=(const SessionManager&) = delete;

  /// A new session with a unique id. The session must not outlive the
  /// manager. Thread-safe.
  std::unique_ptr<Session> NewSession();

  // SessionProvider:
  std::unique_ptr<ClientSession> NewClientSession() override;
  MetricsRegistry* metrics_registry() override { return db_->metrics(); }
  void ShutdownCheckpoint() override;

  Database* db() const { return db_; }
  EngineGate* gate() { return &gate_; }
  StatementCache* statement_cache() { return &stmt_cache_; }

 private:
  friend class Session;

  Database* db_;
  EngineGate gate_;
  StatementCache stmt_cache_;
  std::atomic<uint64_t> next_session_id_{1};
  /// Id of the session holding the open transaction, 0 when none.
  /// Written only under gate_ (mutating statements, aborts); atomic
  /// because the lock-free read path loads it to decide between
  /// snapshot reads and read-your-own-writes live reads.
  std::atomic<uint64_t> txn_owner_{0};

  // Registered once; sessions share the handles.
  Counter* metric_sessions_total_ = nullptr;
  Gauge* metric_sessions_active_ = nullptr;
  Counter* metric_txn_conflicts_ = nullptr;
  Histogram* metric_read_stmt_ns_ = nullptr;
  Histogram* metric_write_stmt_ns_ = nullptr;
};

/// One client's execution context: its own NFRQL Executor (parse and
/// PROFILE state are per-session, which is what makes concurrent read
/// sessions reentrant) and its claim, if any, on the database's single
/// transaction slot.
///
/// Concurrency discipline per statement (DESIGN.md §9): read-only
/// statements pin the current published snapshot and execute against
/// it with zero engine-gate acquisitions — reads are read-committed
/// (they see exactly the last commit boundary, never another session's
/// in-flight transaction) and never block on, or are blocked by,
/// writers. Everything else runs under the gate.
/// While one session holds the open transaction, other sessions'
/// mutating statements are rejected with kUnavailable; the owning
/// session's own reads go to the live database instead of a snapshot
/// (read-your-own-writes), which is race-free precisely because every
/// other session's writes bounce while the transaction is open. A
/// second BEGIN on the owning session is rejected by the engine
/// itself.
///
/// A Session instance is NOT internally synchronized: one statement (or
/// one batch) at a time per session (the server's request→response
/// lockstep enforces this for TCP clients).
class Session : public ClientSession {
 public:
  ~Session() override;
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  uint64_t id() const override { return id_; }

  /// Parses (through the shared statement cache), classifies, and
  /// executes one statement (or one of the `\metrics [prom]` /
  /// `\sleep N` meta commands) — reads against a pinned snapshot,
  /// writes under the gate — returning the rendered result text.
  Result<std::string> Execute(std::string_view statement) override;

  /// Executes `statements` in order, returning one result per
  /// statement (the kBatch contract, DESIGN.md §8). A failing
  /// statement reports its error in place and execution continues with
  /// the next one. Consecutive read-only statements share a single
  /// pinned snapshot (so they observe one consistent version);
  /// mutating statements lock individually, exactly as in Execute.
  std::vector<Result<std::string>> ExecuteBatch(
      const std::vector<std::string>& statements) override;

  /// Executes one already-parsed statement, bypassing statement text
  /// and the cache — the shard router's entry point for statements it
  /// has rewritten or split per shard. Dispatches to the snapshot-read
  /// or exclusive-write path exactly like Execute. `stmt` must outlive
  /// the call.
  Result<std::string> ExecuteParsed(const Statement& stmt);

  /// Rolls back this session's open transaction, if it holds one.
  /// Called on disconnect and on server shutdown; the destructor also
  /// calls it, so an abandoned session can never leak the transaction
  /// slot.
  void Abort() override;

 private:
  friend class SessionManager;
  Session(uint64_t id, SessionManager* manager);

  /// A statement with its provenance: parsed fresh or served from the
  /// shared cache.
  struct ParsedStatement {
    std::shared_ptr<const Statement> stmt;
    bool cache_hit = false;
  };

  /// Cache lookup, falling back to a full parse (which populates the
  /// cache). Oversized statements bypass the cache in both directions.
  Result<ParsedStatement> ParseCached(const std::string& trimmed);

  /// The exclusive-lock path shared by Execute and ExecuteBatch:
  /// transaction-slot arbitration and execution. Snapshot publication
  /// (and with it rank materialization and epoch bumping) happens
  /// inside the engine at each commit boundary.
  Result<std::string> ExecuteWrite(const ParsedStatement& parsed);

  /// Executes one read-only statement: against the live database when
  /// this session owns the open transaction (read-your-own-writes),
  /// otherwise against `snapshot`. Times it into the read histogram.
  Result<std::string> ExecuteRead(
      const ParsedStatement& parsed,
      const std::shared_ptr<const DatabaseSnapshot>& snapshot);

  Result<std::string> ExecuteMeta(const std::string& command);

  uint64_t id_;
  SessionManager* manager_;
  Database* db_;
  Executor executor_;
};

}  // namespace server
}  // namespace nf2

#endif  // NF2_SERVER_SESSION_H_
