#include "server/replication.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <set>

#include "catalog/catalog.h"
#include "engine/concurrency.h"
#include "nfrql/parser.h"
#include "storage/serde.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace nf2 {
namespace server {

namespace {

constexpr uint32_t kPositionsMagic = 0x5052464e;  // "NFRP".
/// Records per kRecords segment — bounds frame size and the follower's
/// per-segment commit batch.
constexpr size_t kRecordsPerSegment = 512;

uint64_t NowUnixMs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

Result<int> ConnectTcp(const std::string& host, uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IOError(StrCat("socket: ", std::strerror(errno)));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument(StrCat("not an IPv4 address: ", host));
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    Status s = Status::IOError(
        StrCat("connect ", host, ":", port, ": ", std::strerror(errno)));
    ::close(fd);
    return s;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

}  // namespace

// ---- Wire codecs ------------------------------------------------------

std::string EncodeShardPositions(const std::vector<ShardPosition>& positions) {
  BufferWriter out;
  out.PutU32(static_cast<uint32_t>(positions.size()));
  for (const ShardPosition& p : positions) {
    out.PutU32(p.shard);
    out.PutU64(p.epoch);
    out.PutU64(p.lsn);
  }
  return out.data();
}

Result<std::vector<ShardPosition>> DecodeShardPositions(
    std::string_view payload) {
  BufferReader in(payload);
  NF2_ASSIGN_OR_RETURN(uint32_t n, in.GetU32());
  if (n > 4096) {
    return Status::Corruption(StrCat("position list announces ", n,
                                     " entries"));
  }
  std::vector<ShardPosition> out;
  out.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    ShardPosition p;
    NF2_ASSIGN_OR_RETURN(p.shard, in.GetU32());
    NF2_ASSIGN_OR_RETURN(p.epoch, in.GetU64());
    NF2_ASSIGN_OR_RETURN(p.lsn, in.GetU64());
    out.push_back(p);
  }
  if (!in.AtEnd()) {
    return Status::Corruption("trailing bytes after position list");
  }
  return out;
}

std::string EncodeWalSegment(const WalSegment& segment) {
  BufferWriter out;
  out.PutU8(static_cast<uint8_t>(segment.kind));
  out.PutU32(segment.shard);
  switch (segment.kind) {
    case WalSegment::Kind::kHello:
      out.PutU32(segment.shard_count);
      break;
    case WalSegment::Kind::kRecords:
      out.PutU64(segment.epoch);
      out.PutU64(segment.lsn);
      out.PutU64(segment.send_unix_ms);
      out.PutU32(static_cast<uint32_t>(segment.records.size()));
      for (const WalRecord& r : segment.records) {
        out.PutU64(r.lsn);
        out.PutU8(static_cast<uint8_t>(r.type));
        out.PutString(r.relation);
        out.PutString(r.payload);
      }
      break;
    case WalSegment::Kind::kSnapshotRelation:
      out.PutString(segment.relation_payload);
      break;
    case WalSegment::Kind::kSnapshotBegin:
    case WalSegment::Kind::kSnapshotEnd:
    case WalSegment::Kind::kTruncate:
      out.PutU64(segment.epoch);
      out.PutU64(segment.lsn);
      break;
  }
  return out.data();
}

Result<WalSegment> DecodeWalSegment(std::string_view payload) {
  BufferReader in(payload);
  WalSegment seg;
  NF2_ASSIGN_OR_RETURN(uint8_t kind, in.GetU8());
  if (kind < static_cast<uint8_t>(WalSegment::Kind::kHello) ||
      kind > static_cast<uint8_t>(WalSegment::Kind::kTruncate)) {
    return Status::Corruption(StrCat("unknown WAL segment kind ",
                                     static_cast<int>(kind)));
  }
  seg.kind = static_cast<WalSegment::Kind>(kind);
  NF2_ASSIGN_OR_RETURN(seg.shard, in.GetU32());
  switch (seg.kind) {
    case WalSegment::Kind::kHello: {
      NF2_ASSIGN_OR_RETURN(seg.shard_count, in.GetU32());
      break;
    }
    case WalSegment::Kind::kRecords: {
      NF2_ASSIGN_OR_RETURN(seg.epoch, in.GetU64());
      NF2_ASSIGN_OR_RETURN(seg.lsn, in.GetU64());
      NF2_ASSIGN_OR_RETURN(seg.send_unix_ms, in.GetU64());
      NF2_ASSIGN_OR_RETURN(uint32_t count, in.GetU32());
      if (count > kMaxBatchStatements) {
        return Status::Corruption(
            StrCat("record segment announces ", count, " records"));
      }
      seg.records.reserve(count);
      for (uint32_t i = 0; i < count; ++i) {
        WalRecord r;
        NF2_ASSIGN_OR_RETURN(r.lsn, in.GetU64());
        NF2_ASSIGN_OR_RETURN(uint8_t type, in.GetU8());
        if (type < kMinWalOpType || type > kMaxWalOpType) {
          return Status::Corruption(
              StrCat("bad WAL op type ", static_cast<int>(type),
                     " in record segment"));
        }
        r.type = static_cast<WalOpType>(type);
        NF2_ASSIGN_OR_RETURN(r.relation, in.GetString());
        NF2_ASSIGN_OR_RETURN(r.payload, in.GetString());
        seg.records.push_back(std::move(r));
      }
      break;
    }
    case WalSegment::Kind::kSnapshotRelation: {
      NF2_ASSIGN_OR_RETURN(seg.relation_payload, in.GetString());
      break;
    }
    case WalSegment::Kind::kSnapshotBegin:
    case WalSegment::Kind::kSnapshotEnd:
    case WalSegment::Kind::kTruncate: {
      NF2_ASSIGN_OR_RETURN(seg.epoch, in.GetU64());
      NF2_ASSIGN_OR_RETURN(seg.lsn, in.GetU64());
      break;
    }
  }
  if (!in.AtEnd()) {
    return Status::Corruption("trailing bytes after WAL segment");
  }
  return seg;
}

// ---- ReplicationHub ---------------------------------------------------

ReplicationHub::ReplicationHub(std::vector<Database*> shards,
                               MetricsRegistry* registry)
    : shards_(std::move(shards)) {
  metric_segments_ = registry->GetCounter(
      "nf2_repl_segments_total", "WAL segments sent to subscribers");
  metric_subscribers_total_ = registry->GetCounter(
      "nf2_repl_subscribers_total", "Subscriptions ever accepted");
  metric_subscribers_ = registry->GetGauge(
      "nf2_repl_subscribers", "Live WAL subscribers");
}

Status ReplicationHub::SendSegment(Subscriber* sub,
                                   const WalSegment& segment) {
  std::string payload = EncodeWalSegment(segment);
  Status s;
  {
    std::lock_guard<std::mutex> lock(sub->write_mu);
    s = WriteFrame(sub->fd, FrameType::kWalSegment, payload);
  }
  if (!s.ok()) {
    sub->stop.store(true, std::memory_order_release);
    return s;
  }
  metric_segments_->Increment();
  return Status::OK();
}

Status ReplicationHub::SendSnapshot(Subscriber* sub, size_t shard,
                                    uint64_t* last_sent) {
  std::shared_ptr<const DatabaseSnapshot> snap =
      shards_[shard]->PinSnapshot();
  WalSegment begin;
  begin.kind = WalSegment::Kind::kSnapshotBegin;
  begin.shard = static_cast<uint32_t>(shard);
  begin.epoch = snap->wal_epoch();
  begin.lsn = snap->wal_lsn();
  NF2_RETURN_IF_ERROR(SendSegment(sub, begin));
  for (const std::string& name : snap->ListRelations()) {
    NF2_ASSIGN_OR_RETURN(const RelationInfo* info, snap->Info(name));
    NF2_ASSIGN_OR_RETURN(const NfrRelation* rel, snap->Relation(name));
    BufferWriter w;
    EncodeRelationInfo(*info, &w);
    EncodeNfrRelation(*rel, &w);
    WalSegment seg;
    seg.kind = WalSegment::Kind::kSnapshotRelation;
    seg.shard = static_cast<uint32_t>(shard);
    seg.relation_payload = w.data();
    NF2_RETURN_IF_ERROR(SendSegment(sub, seg));
  }
  WalSegment end = begin;
  end.kind = WalSegment::Kind::kSnapshotEnd;
  NF2_RETURN_IF_ERROR(SendSegment(sub, end));
  *last_sent = snap->wal_lsn();
  return Status::OK();
}

Status ReplicationHub::CatchUp(Subscriber* sub, size_t shard,
                               uint64_t* last_sent) {
  WriteAheadLog* wal = shards_[shard]->wal();
  // The loop handles a checkpoint truncating the log under us: a read
  // that raced a truncate is discarded and retried against the new
  // epoch base (possibly via a snapshot bootstrap).
  for (int attempt = 0; attempt < 16; ++attempt) {
    const uint64_t base = wal->epoch_base_lsn();
    const uint64_t epoch = wal->epoch();
    if (*last_sent + 1 < base) {
      // The records the subscriber needs were truncated away; only a
      // snapshot can bring it forward.
      NF2_RETURN_IF_ERROR(SendSnapshot(sub, shard, last_sent));
      continue;
    }
    NF2_ASSIGN_OR_RETURN(WalReadResult scan, wal->ReadAll());
    if (wal->epoch_base_lsn() != base) continue;  // Truncated mid-read.
    WalSegment seg;
    seg.kind = WalSegment::Kind::kRecords;
    seg.shard = static_cast<uint32_t>(shard);
    seg.epoch = epoch;
    for (const WalRecord& r : scan.records) {
      if (r.lsn <= *last_sent) continue;
      seg.records.push_back(r);
      *last_sent = r.lsn;
      if (seg.records.size() >= kRecordsPerSegment) {
        seg.lsn = wal->position().lsn;
        seg.send_unix_ms = NowUnixMs();
        NF2_RETURN_IF_ERROR(SendSegment(sub, seg));
        seg.records.clear();
      }
    }
    // Always send the trailing (possibly empty) segment: it carries the
    // head position, which is what lets the follower see itself as
    // caught up even on an idle primary.
    seg.lsn = wal->position().lsn;
    seg.send_unix_ms = NowUnixMs();
    return SendSegment(sub, seg);
  }
  return Status::IOError("log kept truncating during catch-up");
}

void ReplicationHub::StreamShard(Subscriber* sub, size_t shard,
                                 uint64_t start_lsn) {
  WriteAheadLog* wal = shards_[shard]->wal();
  // Subscribe BEFORE the catch-up read: every record is then either in
  // the file we read or in the feed (or both — the lsn filter dedups).
  std::shared_ptr<WalTailSubscription> tail = wal->SubscribeTail(8192);
  uint64_t last_sent = start_lsn;
  Status caught = CatchUp(sub, shard, &last_sent);
  if (!caught.ok()) {
    NF2_LOG(Warning) << "replication catch-up for shard " << shard
                     << " failed: " << caught;
    sub->stop.store(true, std::memory_order_release);
    return;
  }
  WalSegment batch;
  batch.kind = WalSegment::Kind::kRecords;
  batch.shard = static_cast<uint32_t>(shard);
  auto flush = [&]() -> Status {
    if (batch.records.empty()) return Status::OK();
    batch.lsn = wal->position().lsn;
    batch.send_unix_ms = NowUnixMs();
    Status s = SendSegment(sub, batch);
    batch.records.clear();
    return s;
  };
  while (!sub->stop.load(std::memory_order_acquire)) {
    std::vector<WalTailEvent> events =
        tail->Poll(std::chrono::milliseconds(100));
    if (tail->lost()) {
      // The feed dropped events; resynchronize from the log file (the
      // polled events are a subset of what CatchUp re-reads, so they
      // are simply superseded).
      tail->ClearLost();
      events.clear();
      if (!CatchUp(sub, shard, &last_sent).ok()) break;
      continue;
    }
    for (const WalTailEvent& e : events) {
      if (e.kind == WalTailEvent::Kind::kClosed) {
        // The engine is shutting down; the subscription is over.
        sub->stop.store(true, std::memory_order_release);
        break;
      }
      if (e.kind == WalTailEvent::Kind::kTruncate) {
        if (!flush().ok()) break;
        WalSegment trunc;
        trunc.kind = WalSegment::Kind::kTruncate;
        trunc.shard = static_cast<uint32_t>(shard);
        trunc.epoch = e.epoch;
        trunc.lsn = e.record.lsn;
        if (!SendSegment(sub, trunc).ok()) break;
        continue;
      }
      if (e.record.lsn <= last_sent) continue;  // Covered by catch-up.
      if (!batch.records.empty() && batch.epoch != e.epoch) {
        if (!flush().ok()) break;
      }
      batch.epoch = e.epoch;
      batch.records.push_back(e.record);
      last_sent = e.record.lsn;
      if (batch.records.size() >= kRecordsPerSegment) {
        if (!flush().ok()) break;
      }
    }
    if (!flush().ok()) break;
  }
}

void ReplicationHub::ServeSubscriber(int fd,
                                     std::string_view subscribe_payload) {
  Result<std::vector<ShardPosition>> decoded =
      DecodeShardPositions(subscribe_payload);
  if (!decoded.ok()) {
    (void)WriteFrame(fd, FrameType::kError,
                     EncodeStatusPayload(decoded.status()));
    return;
  }
  std::vector<uint64_t> start(shards_.size(), 0);
  for (const ShardPosition& p : *decoded) {
    if (p.shard < start.size()) start[p.shard] = p.lsn;
  }

  Subscriber sub;
  sub.fd = fd;
  WalSegment hello;
  hello.kind = WalSegment::Kind::kHello;
  hello.shard_count = static_cast<uint32_t>(shards_.size());
  if (!SendSegment(&sub, hello).ok()) return;

  metric_subscribers_total_->Increment();
  metric_subscribers_->Add(1);
  std::vector<std::thread> streamers;
  streamers.reserve(shards_.size());
  for (size_t i = 0; i < shards_.size(); ++i) {
    streamers.emplace_back(
        [this, &sub, i, s = start[i]] { StreamShard(&sub, i, s); });
  }

  // This (the connection's reader) thread consumes acks until the
  // subscriber goes away or the server shuts the socket down.
  for (;;) {
    Result<std::optional<Frame>> read = ReadFrame(fd);
    if (!read.ok() || !read->has_value()) break;
    const Frame& frame = **read;
    if (frame.type == FrameType::kWalAck) continue;  // Positions noted.
    if (frame.type == FrameType::kQuit) break;
    break;  // Anything else is a protocol violation; drop the stream.
  }
  sub.stop.store(true, std::memory_order_release);
  for (std::thread& t : streamers) t.join();
  metric_subscribers_->Add(-1);
}

// ---- Replicator -------------------------------------------------------

Replicator::Replicator(Options options, std::vector<Database*> shards,
                       MetricsRegistry* registry, Env* env)
    : options_(std::move(options)), shards_(std::move(shards)), env_(env) {
  metric_segments_ = registry->GetCounter(
      "nf2_repl_segments_total", "WAL segments received from the primary");
  metric_reconnects_ = registry->GetCounter(
      "nf2_repl_reconnects_total",
      "Reconnect attempts to the primary (after a failure or disconnect)");
  metric_applied_records_ = registry->GetCounter(
      "nf2_repl_applied_records_total", "WAL records applied locally");
  metric_snapshot_bootstraps_ = registry->GetCounter(
      "nf2_repl_snapshot_bootstraps_total",
      "Shard snapshot bootstraps completed (one per kSnapshotEnd applied)");
  metric_lag_records_ = registry->GetGauge(
      "nf2_repl_lag_records",
      "Records between the primary head and the applied position, summed "
      "over shards");
  metric_lag_ms_ = registry->GetGauge(
      "nf2_repl_lag_ms",
      "Receive-to-apply delay of the last record segment (ms, primary "
      "clock)");
}

Replicator::~Replicator() { Stop(); }

std::string Replicator::PositionsPath() const {
  return (std::filesystem::path(options_.dir) / "REPL.nf2").string();
}

Status Replicator::LoadPositions() {
  const std::string path = PositionsPath();
  if (!env_->FileExists(path)) return Status::OK();
  NF2_ASSIGN_OR_RETURN(std::string bytes, env_->ReadFileToString(path));
  if (bytes.size() < 8) {
    return Status::Corruption("replication position file too short");
  }
  std::string_view body(bytes.data(), bytes.size() - 4);
  BufferReader crc_reader(
      std::string_view(bytes.data() + bytes.size() - 4, 4));
  NF2_ASSIGN_OR_RETURN(uint32_t stored_crc, crc_reader.GetU32());
  if (Crc32(body) != stored_crc) {
    return Status::Corruption("replication position file CRC mismatch");
  }
  BufferReader in(body);
  NF2_ASSIGN_OR_RETURN(uint32_t magic, in.GetU32());
  if (magic != kPositionsMagic) {
    return Status::Corruption("bad replication position magic");
  }
  NF2_ASSIGN_OR_RETURN(
      std::vector<ShardPosition> positions,
      DecodeShardPositions(
          std::string_view(body.data() + 4, body.size() - 4)));
  std::lock_guard<std::mutex> lock(mu_);
  for (const ShardPosition& p : positions) {
    if (p.shard >= states_.size()) continue;
    states_[p.shard].applied_epoch = p.epoch;
    states_[p.shard].applied_lsn = p.lsn;
  }
  return Status::OK();
}

std::vector<ShardPosition> Replicator::SnapshotPositions() const {
  std::vector<ShardPosition> out;
  std::lock_guard<std::mutex> lock(mu_);
  out.reserve(states_.size());
  for (size_t i = 0; i < states_.size(); ++i) {
    out.push_back({static_cast<uint32_t>(i), states_[i].applied_epoch,
                   states_[i].applied_lsn});
  }
  return out;
}

Status Replicator::PersistAndAck(int fd, size_t shard) {
  std::vector<ShardPosition> positions = SnapshotPositions();
  BufferWriter body;
  body.PutU32(kPositionsMagic);
  body.PutRaw(EncodeShardPositions(positions));
  BufferWriter file;
  file.PutRaw(body.data());
  file.PutU32(Crc32(body.data()));
  NF2_RETURN_IF_ERROR(env_->WriteFileAtomic(PositionsPath(), file.data()));
  // A failed ack is not an apply failure: the read loop will notice the
  // dead connection on its own.
  Status acked = WriteFrame(fd, FrameType::kWalAck,
                            EncodeShardPositions({positions[shard]}));
  if (!acked.ok()) {
    NF2_LOG(Debug) << "replication ack failed: " << acked;
  }
  return Status::OK();
}

Status Replicator::ApplyDataRecord(size_t shard, const WalRecord& record) {
  Database* db = shards_[shard];
  BufferReader reader(record.payload);
  NF2_ASSIGN_OR_RETURN(FlatTuple tuple, DecodeFlatTuple(&reader));
  if (record.type == WalOpType::kInsert) {
    Status s = db->Insert(record.relation, tuple);
    // Idempotence across replays, mirroring recovery: AlreadyExists
    // means a previous apply (or a local checkpoint) already holds it;
    // NotFound means a later drop in the same stream supersedes it.
    if (!s.ok() && s.code() != StatusCode::kAlreadyExists &&
        s.code() != StatusCode::kNotFound) {
      return s;
    }
  } else {
    Status s = db->Delete(record.relation, tuple);
    if (!s.ok() && s.code() != StatusCode::kNotFound) return s;
  }
  metric_applied_records_->Increment();
  return Status::OK();
}

Status Replicator::ApplyDdlRecord(size_t shard, const WalRecord& record) {
  Database* db = shards_[shard];
  if (record.type == WalOpType::kCreateRelation) {
    BufferReader reader(record.payload);
    NF2_ASSIGN_OR_RETURN(RelationInfo info, DecodeRelationInfo(&reader));
    Status s = db->CreateRelation(info.name, info.schema, info.nest_order,
                                  info.fds, info.mvds);
    if (!s.ok() && s.code() != StatusCode::kAlreadyExists) return s;
  } else {
    Status s = db->DropRelation(record.relation);
    if (!s.ok() && s.code() != StatusCode::kNotFound) return s;
  }
  metric_applied_records_->Increment();
  return Status::OK();
}

Status Replicator::ApplyRun(size_t shard, const std::vector<WalRecord>& run) {
  if (run.empty()) return Status::OK();
  Database* db = shards_[shard];
  // One follower fsync per run: a local transaction groups the
  // autocommit records' durability into the commit marker, and the
  // snapshot publishes once, at the commit boundary.
  if (run.size() > 1) NF2_RETURN_IF_ERROR(db->Begin());
  for (const WalRecord& r : run) {
    Status s = ApplyDataRecord(shard, r);
    if (!s.ok()) {
      if (run.size() > 1) (void)db->Rollback();
      return s;
    }
  }
  if (run.size() > 1) NF2_RETURN_IF_ERROR(db->Commit());
  return Status::OK();
}

Status Replicator::ApplyRecords(size_t shard, const WalSegment& segment) {
  Database* db = shards_[shard];
  ShardState& st = states_[shard];
  uint64_t applied;
  bool in_txn;
  {
    std::lock_guard<std::mutex> lock(mu_);
    applied = st.applied_lsn;
    in_txn = st.in_txn;
  }
  auto advance = [&](uint64_t lsn, uint64_t epoch) {
    std::lock_guard<std::mutex> lock(mu_);
    st.applied_lsn = lsn;
    if (epoch > st.applied_epoch) st.applied_epoch = epoch;
    applied = lsn;
  };
  std::vector<WalRecord> run;
  auto flush_run = [&]() -> Status {
    if (run.empty()) return Status::OK();
    NF2_RETURN_IF_ERROR(ApplyRun(shard, run));
    advance(run.back().lsn, segment.epoch);
    run.clear();
    return Status::OK();
  };
  for (const WalRecord& rec : segment.records) {
    if (rec.lsn <= applied) continue;  // Replayed after a reconnect.
    switch (rec.type) {
      case WalOpType::kInsert:
      case WalOpType::kDelete:
        if (in_txn) {
          st.txn_buffer.push_back(rec);
        } else {
          run.push_back(rec);
          if (run.size() >= kRecordsPerSegment) {
            NF2_RETURN_IF_ERROR(flush_run());
          }
        }
        break;
      case WalOpType::kTxnBegin:
        NF2_RETURN_IF_ERROR(flush_run());
        in_txn = true;
        st.txn_buffer.clear();
        // The applied position does NOT advance until this transaction
        // commits or aborts: a crash here must replay it from the top.
        break;
      case WalOpType::kTxnCommit: {
        NF2_RETURN_IF_ERROR(flush_run());
        if (in_txn && !st.txn_buffer.empty()) {
          NF2_RETURN_IF_ERROR(db->Begin());
          for (const WalRecord& b : st.txn_buffer) {
            Status s = ApplyDataRecord(shard, b);
            if (!s.ok()) {
              (void)db->Rollback();
              return s;
            }
          }
          NF2_RETURN_IF_ERROR(db->Commit());
        }
        st.txn_buffer.clear();
        in_txn = false;
        advance(rec.lsn, segment.epoch);
        break;
      }
      case WalOpType::kTxnAbort:
        NF2_RETURN_IF_ERROR(flush_run());
        st.txn_buffer.clear();
        in_txn = false;
        advance(rec.lsn, segment.epoch);
        break;
      case WalOpType::kCreateRelation:
      case WalOpType::kDropRelation:
        NF2_RETURN_IF_ERROR(flush_run());
        NF2_RETURN_IF_ERROR(ApplyDdlRecord(shard, rec));
        advance(rec.lsn, segment.epoch);
        break;
      case WalOpType::kCheckpoint:
        NF2_RETURN_IF_ERROR(flush_run());
        advance(rec.lsn, segment.epoch);
        break;
    }
  }
  NF2_RETURN_IF_ERROR(flush_run());
  {
    std::lock_guard<std::mutex> lock(mu_);
    st.in_txn = in_txn;
  }
  return Status::OK();
}

Status Replicator::ApplySnapshotRelation(size_t shard,
                                         const WalSegment& segment) {
  Database* db = shards_[shard];
  BufferReader reader(segment.relation_payload);
  NF2_ASSIGN_OR_RETURN(RelationInfo info, DecodeRelationInfo(&reader));
  NF2_ASSIGN_OR_RETURN(NfrRelation relation, DecodeNfrRelation(&reader));
  // Replace wholesale: whatever local version exists predates the
  // snapshot (or diverged past a truncation) and is stale either way.
  if (db->Info(info.name).ok()) {
    NF2_RETURN_IF_ERROR(db->DropRelation(info.name));
  }
  NF2_RETURN_IF_ERROR(db->CreateRelation(info.name, info.schema,
                                         info.nest_order, info.fds,
                                         info.mvds));
  FlatRelation flat = relation.Expand();
  if (flat.size() > 1) NF2_RETURN_IF_ERROR(db->Begin());
  for (const FlatTuple& t : flat.tuples()) {
    Status s = db->Insert(info.name, t);
    if (!s.ok() && s.code() != StatusCode::kAlreadyExists) {
      if (flat.size() > 1) (void)db->Rollback();
      return s;
    }
  }
  if (flat.size() > 1) NF2_RETURN_IF_ERROR(db->Commit());
  std::lock_guard<std::mutex> lock(mu_);
  states_[shard].bootstrap_received.push_back(info.name);
  return Status::OK();
}

Status Replicator::ApplySnapshotEnd(size_t shard, const WalSegment& segment) {
  Database* db = shards_[shard];
  std::set<std::string> received;
  {
    std::lock_guard<std::mutex> lock(mu_);
    received.insert(states_[shard].bootstrap_received.begin(),
                    states_[shard].bootstrap_received.end());
  }
  // Local relations absent from the snapshot were dropped on the
  // primary while this follower was away.
  for (const std::string& name : db->ListRelations()) {
    if (received.count(name) == 0) {
      NF2_RETURN_IF_ERROR(db->DropRelation(name));
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  ShardState& st = states_[shard];
  st.bootstrapping = false;
  st.bootstrap_received.clear();
  st.applied_epoch = segment.epoch;
  st.applied_lsn = segment.lsn;
  return Status::OK();
}

void Replicator::RefreshLagMetrics() {
  int64_t lag = 0;
  std::lock_guard<std::mutex> lock(mu_);
  for (const ShardState& st : states_) {
    if (st.head_lsn > st.applied_lsn) {
      lag += static_cast<int64_t>(st.head_lsn - st.applied_lsn);
    }
  }
  metric_lag_records_->Set(lag);
}

Status Replicator::ApplySegment(int fd, const WalSegment& segment) {
  metric_segments_->Increment();
  if (segment.kind == WalSegment::Kind::kHello) {
    if (segment.shard_count != shards_.size()) {
      stop_.store(true, std::memory_order_release);
      return Status::FailedPrecondition(
          StrCat("primary streams ", segment.shard_count,
                 " shard(s) but this follower has ", shards_.size(),
                 " — follower datadirs are pinned to the primary's "
                 "shard layout"));
    }
    std::lock_guard<std::mutex> lock(mu_);
    connected_ = true;
    return Status::OK();
  }
  if (segment.shard >= shards_.size()) {
    return Status::Corruption(
        StrCat("segment for unknown shard ", segment.shard));
  }
  const size_t shard = segment.shard;
  switch (segment.kind) {
    case WalSegment::Kind::kRecords: {
      uint64_t before;
      {
        std::lock_guard<std::mutex> lock(mu_);
        before = states_[shard].applied_lsn;
      }
      NF2_RETURN_IF_ERROR(ApplyRecords(shard, segment));
      uint64_t after;
      {
        std::lock_guard<std::mutex> lock(mu_);
        ShardState& st = states_[shard];
        st.head_known = true;
        st.head_lsn = segment.lsn;
        st.head_unix_ms = segment.send_unix_ms;
        after = st.applied_lsn;
      }
      if (!segment.records.empty()) {
        const uint64_t now = NowUnixMs();
        metric_lag_ms_->Set(now >= segment.send_unix_ms
                                ? static_cast<int64_t>(
                                      now - segment.send_unix_ms)
                                : 0);
      }
      RefreshLagMetrics();
      if (after != before) {
        NF2_RETURN_IF_ERROR(PersistAndAck(fd, shard));
      }
      return Status::OK();
    }
    case WalSegment::Kind::kTruncate: {
      // Nothing to apply — the follower's own log is independent. The
      // epoch note keeps the reported position aligned with the
      // primary's numbering.
      std::lock_guard<std::mutex> lock(mu_);
      ShardState& st = states_[shard];
      if (segment.epoch > st.applied_epoch &&
          st.applied_lsn + 1 >= segment.lsn) {
        st.applied_epoch = segment.epoch;
      }
      return Status::OK();
    }
    case WalSegment::Kind::kSnapshotBegin: {
      std::lock_guard<std::mutex> lock(mu_);
      ShardState& st = states_[shard];
      st.bootstrapping = true;
      st.bootstrap_received.clear();
      st.bootstrap_epoch = segment.epoch;
      st.bootstrap_lsn = segment.lsn;
      return Status::OK();
    }
    case WalSegment::Kind::kSnapshotRelation:
      return ApplySnapshotRelation(shard, segment);
    case WalSegment::Kind::kSnapshotEnd: {
      NF2_RETURN_IF_ERROR(ApplySnapshotEnd(shard, segment));
      metric_snapshot_bootstraps_->Increment();
      RefreshLagMetrics();
      return PersistAndAck(fd, shard);
    }
    case WalSegment::Kind::kHello:
      break;  // Handled above.
  }
  return Status::OK();
}

void Replicator::RunConnection(int fd) {
  conn_fd_.store(fd, std::memory_order_release);
  Status sent = WriteFrame(fd, FrameType::kSubscribe,
                           EncodeShardPositions(SnapshotPositions()));
  if (!sent.ok()) return;
  while (!stop_.load(std::memory_order_acquire)) {
    Result<std::optional<Frame>> read = ReadFrame(fd);
    if (!read.ok() || !read->has_value()) return;
    const Frame& frame = **read;
    if (frame.type == FrameType::kError) {
      NF2_LOG(Warning) << "primary refused the subscription: "
                       << DecodeStatusPayload(frame.payload);
      return;
    }
    if (frame.type != FrameType::kWalSegment) continue;
    Result<WalSegment> segment = DecodeWalSegment(frame.payload);
    if (!segment.ok()) {
      NF2_LOG(Warning) << "bad WAL segment: " << segment.status();
      return;
    }
    Status applied = ApplySegment(fd, *segment);
    if (!applied.ok()) {
      NF2_LOG(Warning) << "applying WAL segment failed: " << applied;
      return;  // Reconnect restarts from the persisted position.
    }
  }
}

void Replicator::Run() {
  std::chrono::milliseconds backoff = options_.backoff_min;
  while (!stop_.load(std::memory_order_acquire)) {
    Result<int> fd = ConnectTcp(options_.host, options_.port);
    if (fd.ok()) {
      RunConnection(*fd);
      conn_fd_.store(-1, std::memory_order_release);
      ::close(*fd);
      bool was_connected;
      {
        std::lock_guard<std::mutex> lock(mu_);
        was_connected = connected_;
        connected_ = false;
        // A transaction cut by the disconnect replays from its begin.
        for (ShardState& st : states_) {
          st.in_txn = false;
          st.txn_buffer.clear();
          st.bootstrapping = false;
          st.bootstrap_received.clear();
          // The primary may have advanced while we were away; the head
          // is unknown again until the next connection reports it.
          st.head_known = false;
        }
      }
      if (was_connected) backoff = options_.backoff_min;
    }
    if (stop_.load(std::memory_order_acquire)) break;
    metric_reconnects_->Increment();
    std::unique_lock<std::mutex> lock(wake_mu_);
    wake_cv_.wait_for(lock, backoff, [this] {
      return stop_.load(std::memory_order_acquire);
    });
    backoff = std::min(backoff * 2, options_.backoff_max);
  }
}

Status Replicator::Start() {
  if (started_.exchange(true)) {
    return Status::FailedPrecondition("replicator already started");
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    states_.resize(shards_.size());
  }
  NF2_RETURN_IF_ERROR(LoadPositions());
  thread_ = std::thread([this] { Run(); });
  return Status::OK();
}

void Replicator::Stop() {
  if (!started_.load(std::memory_order_acquire)) return;
  if (stop_.exchange(true)) {
    if (thread_.joinable()) thread_.join();
    return;
  }
  int fd = conn_fd_.load(std::memory_order_acquire);
  if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
  wake_cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

bool Replicator::CaughtUp() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (!connected_) return false;
  for (const ShardState& st : states_) {
    if (!st.head_known || st.bootstrapping || st.in_txn) return false;
    if (st.applied_lsn < st.head_lsn) return false;
  }
  return true;
}

std::string Replicator::StatusText() const {
  std::string out = StrCat("replica of ", options_.host, ":", options_.port,
                           "\n");
  std::lock_guard<std::mutex> lock(mu_);
  out += StrCat("  connected: ", connected_ ? "yes" : "no",
                "  reconnects: ", metric_reconnects_->value(), "\n");
  for (size_t i = 0; i < states_.size(); ++i) {
    const ShardState& st = states_[i];
    const uint64_t lag =
        st.head_lsn > st.applied_lsn ? st.head_lsn - st.applied_lsn : 0;
    out += StrCat("  shard ", i, ": applied ", st.applied_epoch, ":",
                  st.applied_lsn, "  head ", st.head_lsn, "  lag ", lag,
                  st.bootstrapping ? "  (bootstrapping)" : "", "\n");
  }
  return out;
}

Result<uint32_t> Replicator::ProbeShardCount(const std::string& host,
                                             uint16_t port) {
  NF2_ASSIGN_OR_RETURN(int fd, ConnectTcp(host, port));
  Status sent = WriteFrame(fd, FrameType::kSubscribe,
                           EncodeShardPositions({}));
  if (!sent.ok()) {
    ::close(fd);
    return sent;
  }
  Result<std::optional<Frame>> read = ReadFrame(fd);
  ::close(fd);
  if (!read.ok()) return read.status();
  if (!read->has_value()) {
    return Status::IOError("primary closed the probe connection");
  }
  const Frame& frame = **read;
  if (frame.type == FrameType::kError) {
    Status decoded = DecodeStatusPayload(frame.payload);
    if (decoded.ok()) {
      return Status::Corruption("error frame carried an OK status");
    }
    return decoded;
  }
  if (frame.type != FrameType::kWalSegment) {
    return Status::Corruption("probe expected a kWalSegment hello");
  }
  NF2_ASSIGN_OR_RETURN(WalSegment seg, DecodeWalSegment(frame.payload));
  if (seg.kind != WalSegment::Kind::kHello) {
    return Status::Corruption("probe expected a hello segment");
  }
  return seg.shard_count;
}

// ---- Read-only follower sessions --------------------------------------

std::unique_ptr<ClientSession> ReadOnlyProvider::NewClientSession() {
  return std::make_unique<FollowerSession>(inner_->NewClientSession(),
                                           replicator_);
}

Result<std::string> FollowerSession::Execute(std::string_view statement) {
  const std::string trimmed = Trim(statement);
  if (!trimmed.empty() && trimmed.front() == '\\') {
    if (trimmed == "\\replica") return replicator_->StatusText();
    return inner_->Execute(statement);  // \metrics, \shards, ...
  }
  Result<Statement> parsed = ParseStatement(trimmed);
  if (!parsed.ok()) {
    // Let the wrapped session render the parse error exactly as the
    // primary would.
    return inner_->Execute(statement);
  }
  if (IsReadOnlyStatement(*parsed)) {
    return inner_->Execute(statement);
  }
  return Status::Unavailable(
      "follower is read-only; writes and transactions must go to the "
      "primary");
}

std::vector<Result<std::string>> FollowerSession::ExecuteBatch(
    const std::vector<std::string>& statements) {
  std::vector<Result<std::string>> results;
  results.reserve(statements.size());
  for (const std::string& s : statements) {
    results.push_back(Execute(s));
  }
  return results;
}

}  // namespace server
}  // namespace nf2
