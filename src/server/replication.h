#ifndef NF2_SERVER_REPLICATION_H_
#define NF2_SERVER_REPLICATION_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "engine/database.h"
#include "server/protocol.h"
#include "server/session.h"
#include "storage/env.h"
#include "storage/wal.h"
#include "util/result.h"

namespace nf2 {
namespace server {

/// WAL shipping (DESIGN.md §14): a primary streams its per-shard
/// logical WALs to follower processes over the frame protocol, and a
/// follower applies them through the same §4 update algorithms — so by
/// Theorem 2 uniqueness its canonical forms are bit-identical to the
/// primary's at every applied position.
///
/// Conversation, all inside one TCP connection:
///   follower → primary   kSubscribe  [positions, one per shard]
///   primary  → follower  kWalSegment kHello {shard_count}
///   primary  → follower  kWalSegment kSnapshotBegin/Relation/End  (only
///                        when the follower's position predates the
///                        primary's retained log — checkpoint truncation
///                        discarded the records it would need)
///   primary  → follower  kWalSegment kRecords / kTruncate, forever
///   follower → primary   kWalAck     [positions durably applied]
/// The subscription deliberately abandons request→response lockstep:
/// segments flow whenever the primary commits, acks whenever the
/// follower persists.

// ---- Wire codecs ------------------------------------------------------

/// One shard's stream position, as carried by kSubscribe and kWalAck:
/// the last (epoch, lsn) the sender has durably applied. lsn 0 = the
/// shard has nothing (bootstrap me).
struct ShardPosition {
  uint32_t shard = 0;
  uint64_t epoch = 0;
  uint64_t lsn = 0;

  bool operator==(const ShardPosition&) const = default;
};

/// kSubscribe / kWalAck payload: [u32 n][n × (u32 shard, u64 epoch,
/// u64 lsn)].
std::string EncodeShardPositions(const std::vector<ShardPosition>& positions);
Result<std::vector<ShardPosition>> DecodeShardPositions(
    std::string_view payload);

/// One kWalSegment frame. The payload starts [u8 kind][u32 shard];
/// the rest is kind-specific (see Encode/DecodeWalSegment).
struct WalSegment {
  enum class Kind : uint8_t {
    kHello = 1,             // shard_count; first segment on every stream.
    kRecords = 2,           // epoch, head_lsn, send_unix_ms, records[].
    kSnapshotBegin = 3,     // epoch, lsn the snapshot is consistent at.
    kSnapshotRelation = 4,  // relation_payload = RelationInfo + NfrRelation.
    kSnapshotEnd = 5,       // epoch, lsn again; commit the bootstrap.
    kTruncate = 6,          // epoch (new), lsn = new epoch base.
  };
  Kind kind = Kind::kRecords;
  uint32_t shard = 0;
  uint32_t shard_count = 0;          // kHello.
  uint64_t epoch = 0;                // kRecords/kSnapshot*/kTruncate.
  uint64_t lsn = 0;                  // Head / snapshot / base lsn.
  uint64_t send_unix_ms = 0;         // kRecords: primary clock at send.
  std::vector<WalRecord> records;    // kRecords.
  std::string relation_payload;      // kSnapshotRelation.
};

std::string EncodeWalSegment(const WalSegment& segment);
Result<WalSegment> DecodeWalSegment(std::string_view payload);

// ---- Primary side -----------------------------------------------------

/// The primary's log-streaming service. The Server hands it every
/// connection that sends kSubscribe (ServeSubscriber runs on that
/// connection's reader thread until the subscriber disconnects or the
/// server shuts the socket down). Each subscriber gets one streamer
/// thread per shard: catch-up from the on-disk log (or a pinned MVCC
/// snapshot when checkpoint truncation discarded the records the
/// follower needs), then live tailing via WriteAheadLog::SubscribeTail.
class ReplicationHub {
 public:
  /// `shards` are the primary's engines in shard order (one entry for
  /// an unsharded server); they and `registry` must outlive the hub.
  ReplicationHub(std::vector<Database*> shards, MetricsRegistry* registry);
  ReplicationHub(const ReplicationHub&) = delete;
  ReplicationHub& operator=(const ReplicationHub&) = delete;

  /// Serves one subscriber until disconnect; blocks the calling thread.
  /// `subscribe_payload` is the kSubscribe frame's payload.
  void ServeSubscriber(int fd, std::string_view subscribe_payload);

  size_t shard_count() const { return shards_.size(); }

 private:
  struct Subscriber {
    int fd = -1;
    std::mutex write_mu;          // Serializes frames from shard streamers.
    std::atomic<bool> stop{false};
  };

  Status SendSegment(Subscriber* sub, const WalSegment& segment);
  /// Streams one shard to one subscriber: catch-up, then tail.
  void StreamShard(Subscriber* sub, size_t shard, uint64_t start_lsn);
  /// Brings `*last_sent` up to the shard's current head using the log
  /// file, falling back to a snapshot bootstrap when the retained log
  /// starts past `*last_sent + 1`. Loops until the read was not
  /// invalidated by a concurrent truncate.
  Status CatchUp(Subscriber* sub, size_t shard, uint64_t* last_sent);
  Status SendSnapshot(Subscriber* sub, size_t shard, uint64_t* last_sent);

  std::vector<Database*> shards_;
  Counter* metric_segments_ = nullptr;
  Counter* metric_subscribers_total_ = nullptr;
  Gauge* metric_subscribers_ = nullptr;
};

// ---- Follower side ----------------------------------------------------

/// The follower's replication client: connects to the primary,
/// subscribes from the last durable per-shard position (persisted in
/// REPL.nf2 under the follower's datadir), applies every segment
/// through the engines' public API, and acks applied positions.
/// Reconnects with exponential backoff forever — a follower outlives
/// primary restarts.
class Replicator {
 public:
  struct Options {
    std::string host;
    uint16_t port = 0;
    /// Follower datadir root (REPL.nf2 lives here).
    std::string dir;
    /// Reconnect backoff bounds.
    std::chrono::milliseconds backoff_min{100};
    std::chrono::milliseconds backoff_max{2000};
  };

  /// `shards` are the follower's engines in shard order — the same
  /// count the primary streams (kHello is cross-checked). They,
  /// `registry`, and `env` must outlive the Replicator. Only the
  /// Replicator may mutate these engines; read sessions pin snapshots.
  Replicator(Options options, std::vector<Database*> shards,
             MetricsRegistry* registry, Env* env);
  ~Replicator();
  Replicator(const Replicator&) = delete;
  Replicator& operator=(const Replicator&) = delete;

  /// Loads REPL.nf2 (absent = bootstrap from zero) and spawns the
  /// replication thread.
  Status Start();

  /// Stops and joins the replication thread. Idempotent.
  void Stop();

  /// True when every shard's applied position has reached the head the
  /// primary last reported and the stream is connected.
  bool CaughtUp() const;

  /// Human-readable status for the `\replica` meta command.
  std::string StatusText() const;

  /// Per-shard applied positions — what a kWalAck would carry right
  /// now. Lets tests and tooling wait for "applied has reached lsn X"
  /// deterministically instead of racing CaughtUp() against a head
  /// report that may predate the writes being waited for.
  std::vector<ShardPosition> AppliedPositions() const {
    return SnapshotPositions();
  }

  /// Asks the primary at host:port how many shards it streams (one
  /// kSubscribe/kHello round trip on a throwaway connection) — how
  /// `nf2d --follow` sizes a fresh follower datadir before opening it.
  static Result<uint32_t> ProbeShardCount(const std::string& host,
                                          uint16_t port);

 private:
  struct ShardState {
    uint64_t applied_epoch = 0;
    uint64_t applied_lsn = 0;
    /// Last head position / send time the primary reported. head_known
    /// flips when the first kRecords segment of a connection lands —
    /// until then the shard's lag is unknowable and CaughtUp() must not
    /// report true (the primary always closes catch-up with a possibly
    /// empty head-carrying segment, so the latch flips promptly).
    bool head_known = false;
    uint64_t head_lsn = 0;
    uint64_t head_unix_ms = 0;
    /// Open primary transaction being buffered (applied at its commit).
    bool in_txn = false;
    std::vector<WalRecord> txn_buffer;
    /// Snapshot bootstrap in flight.
    bool bootstrapping = false;
    uint64_t bootstrap_epoch = 0;
    uint64_t bootstrap_lsn = 0;
    std::vector<std::string> bootstrap_received;
  };

  void Run();
  /// One connection lifetime: subscribe, stream, apply. Returns when
  /// the connection dies or Stop() was called.
  void RunConnection(int fd);
  Status ApplySegment(int fd, const WalSegment& segment);
  Status ApplyRecords(size_t shard, const WalSegment& segment);
  Status ApplySnapshotRelation(size_t shard, const WalSegment& segment);
  Status ApplySnapshotEnd(size_t shard, const WalSegment& segment);
  /// Applies one autocommit run: a single record directly, longer runs
  /// inside a local transaction (one follower fsync per run).
  Status ApplyRun(size_t shard, const std::vector<WalRecord>& run);
  Status ApplyDataRecord(size_t shard, const WalRecord& record);
  Status ApplyDdlRecord(size_t shard, const WalRecord& record);
  /// Persists every shard's applied position to REPL.nf2 and acks the
  /// shard that advanced.
  Status PersistAndAck(int fd, size_t shard);
  Status LoadPositions();
  std::vector<ShardPosition> SnapshotPositions() const;
  std::string PositionsPath() const;
  void RefreshLagMetrics();

  Options options_;
  std::vector<Database*> shards_;
  Env* env_;
  mutable std::mutex mu_;  // Guards states_ and connected_.
  std::vector<ShardState> states_;
  bool connected_ = false;  // Guarded by mu_.

  std::thread thread_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> started_{false};
  /// fd of the live connection, for shutdown() from Stop(); -1 none.
  std::atomic<int> conn_fd_{-1};
  /// Wakes the backoff sleep on Stop().
  std::mutex wake_mu_;
  std::condition_variable wake_cv_;

  Counter* metric_segments_ = nullptr;
  Counter* metric_reconnects_ = nullptr;
  Counter* metric_applied_records_ = nullptr;
  Counter* metric_snapshot_bootstraps_ = nullptr;
  Gauge* metric_lag_records_ = nullptr;
  Gauge* metric_lag_ms_ = nullptr;
};

/// SessionProvider for a follower: wraps the real provider (a
/// SessionManager or ShardRouter) and serves only read-only statements
/// and meta commands. Mutations and BEGIN answer kUnavailable — the
/// follower's consistency contract is read-committed-at-a-lag, and the
/// only writer of a follower engine is its Replicator. Also answers
/// the `\replica` meta command. Shutdown stops the Replicator before
/// checkpointing, so the final checkpoint never races the applier.
class ReadOnlyProvider : public SessionProvider {
 public:
  /// `inner` and `replicator` must outlive the provider.
  ReadOnlyProvider(SessionProvider* inner, Replicator* replicator)
      : inner_(inner), replicator_(replicator) {}

  std::unique_ptr<ClientSession> NewClientSession() override;
  MetricsRegistry* metrics_registry() override {
    return inner_->metrics_registry();
  }
  void ShutdownCheckpoint() override {
    replicator_->Stop();
    inner_->ShutdownCheckpoint();
  }

 private:
  SessionProvider* inner_;
  Replicator* replicator_;
};

/// One follower connection: read-only statements delegate to the
/// wrapped session, everything mutating bounces with kUnavailable.
class FollowerSession : public ClientSession {
 public:
  FollowerSession(std::unique_ptr<ClientSession> inner,
                  Replicator* replicator)
      : inner_(std::move(inner)), replicator_(replicator) {}

  uint64_t id() const override { return inner_->id(); }
  Result<std::string> Execute(std::string_view statement) override;
  std::vector<Result<std::string>> ExecuteBatch(
      const std::vector<std::string>& statements) override;
  void Abort() override { inner_->Abort(); }

 private:
  std::unique_ptr<ClientSession> inner_;
  Replicator* replicator_;
};

}  // namespace server
}  // namespace nf2

#endif  // NF2_SERVER_REPLICATION_H_
