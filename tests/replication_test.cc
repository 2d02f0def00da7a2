// End-to-end tests of WAL shipping (DESIGN.md §14): a primary nf2d
// stack streaming its per-shard logical WALs to a follower that applies
// them through the same §4 update algorithms. The headline property is
// Theorem 2's: at quiesce, each follower shard's canonical form is
// BIT-IDENTICAL to its primary shard's — replication is replay, and
// replay lands on the unique canonical form.

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/format.h"
#include "engine/database.h"
#include "server/client.h"
#include "server/replication.h"
#include "server/server.h"
#include "shard/router.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace nf2 {
namespace {

using server::Client;
using server::DecodeShardPositions;
using server::DecodeWalSegment;
using server::EncodeShardPositions;
using server::EncodeWalSegment;
using server::ReadOnlyProvider;
using server::ReplicationHub;
using server::Replicator;
using server::Server;
using server::ServerOptions;
using server::ShardPosition;
using server::WalSegment;

// ---- Codec unit tests -------------------------------------------------

TEST(ReplicationCodec, ShardPositionsRoundTrip) {
  std::vector<ShardPosition> positions = {
      {0, 0, 0}, {1, 3, 4104}, {2, 0, 17}};
  auto decoded = DecodeShardPositions(EncodeShardPositions(positions));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(*decoded, positions);

  auto empty = DecodeShardPositions(EncodeShardPositions({}));
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
}

TEST(ReplicationCodec, ShardPositionsRejectGarbage) {
  EXPECT_FALSE(DecodeShardPositions("abc").ok());
  std::string good = EncodeShardPositions({{0, 1, 2}});
  EXPECT_FALSE(DecodeShardPositions(good + "x").ok());  // Trailing bytes.
  EXPECT_FALSE(DecodeShardPositions(good.substr(0, good.size() - 3)).ok());
}

TEST(ReplicationCodec, WalSegmentRoundTripsEveryKind) {
  WalSegment hello;
  hello.kind = WalSegment::Kind::kHello;
  hello.shard_count = 4;
  auto h = DecodeWalSegment(EncodeWalSegment(hello));
  ASSERT_TRUE(h.ok()) << h.status();
  EXPECT_EQ(h->kind, WalSegment::Kind::kHello);
  EXPECT_EQ(h->shard_count, 4u);

  WalSegment records;
  records.kind = WalSegment::Kind::kRecords;
  records.shard = 2;
  records.epoch = 1;
  records.lsn = 42;
  records.send_unix_ms = 123456789;
  records.records.push_back({41, WalOpType::kInsert, "takes", "payload-a"});
  records.records.push_back({42, WalOpType::kTxnCommit, "", ""});
  auto r = DecodeWalSegment(EncodeWalSegment(records));
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->shard, 2u);
  EXPECT_EQ(r->lsn, 42u);
  EXPECT_EQ(r->send_unix_ms, 123456789u);
  ASSERT_EQ(r->records.size(), 2u);
  EXPECT_EQ(r->records[0], records.records[0]);
  EXPECT_EQ(r->records[1], records.records[1]);

  WalSegment trunc;
  trunc.kind = WalSegment::Kind::kTruncate;
  trunc.shard = 1;
  trunc.epoch = 5;
  trunc.lsn = 900;
  auto t = DecodeWalSegment(EncodeWalSegment(trunc));
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->kind, WalSegment::Kind::kTruncate);
  EXPECT_EQ(t->epoch, 5u);
  EXPECT_EQ(t->lsn, 900u);

  WalSegment snap_rel;
  snap_rel.kind = WalSegment::Kind::kSnapshotRelation;
  snap_rel.relation_payload = std::string("\x01\x02\x00raw", 6);
  auto sr = DecodeWalSegment(EncodeWalSegment(snap_rel));
  ASSERT_TRUE(sr.ok());
  EXPECT_EQ(sr->relation_payload, snap_rel.relation_payload);
}

TEST(ReplicationCodec, WalSegmentRejectsGarbage) {
  EXPECT_FALSE(DecodeWalSegment("").ok());
  EXPECT_FALSE(DecodeWalSegment(std::string("\x09\0\0\0\0", 5)).ok());
  std::string good = EncodeWalSegment([] {
    WalSegment s;
    s.kind = WalSegment::Kind::kTruncate;
    return s;
  }());
  EXPECT_FALSE(DecodeWalSegment(good + "zz").ok());  // Trailing bytes.
  // A record with an op type outside the WalOpType range is rejected.
  WalSegment records;
  records.kind = WalSegment::Kind::kRecords;
  records.records.push_back({1, WalOpType::kInsert, "r", "p"});
  std::string bytes = EncodeWalSegment(records);
  // The type byte sits after the fixed header (kind, shard, epoch, lsn,
  // send_ms, count) and the record's own u64 lsn.
  const size_t type_at = 1 + 4 + 8 + 8 + 8 + 4 + 8;
  ASSERT_LT(type_at, bytes.size());
  bytes[type_at] = '\x77';
  EXPECT_FALSE(DecodeWalSegment(bytes).ok());
}

// ---- End-to-end fixture -----------------------------------------------

/// A primary (shard group + hub + server) and a follower (shard group +
/// replicator + read-only server), both on loopback ephemeral ports.
class ReplicationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    base_ = (std::filesystem::temp_directory_path() /
             ("nf2_repl_" + std::string(::testing::UnitTest::GetInstance()
                                            ->current_test_info()
                                            ->name())))
                .string();
    std::filesystem::remove_all(base_);
    ASSERT_TRUE(Env::Default()->CreateDirs(base_).ok());
  }

  void TearDown() override {
    StopFollower();
    StopPrimaryServer();
    follower_router_.reset();
    primary_router_.reset();
    std::filesystem::remove_all(base_);
  }

  std::string PrimaryDir() const { return base_ + "/primary"; }
  std::string FollowerDir() const { return base_ + "/follower"; }

  void OpenPrimary(size_t shards) {
    shard::ShardRouter::Options options;
    options.shards = shards;
    auto router = shard::ShardRouter::Open(PrimaryDir(), options);
    ASSERT_TRUE(router.ok()) << router.status();
    primary_router_ = *std::move(router);
    std::vector<Database*> dbs;
    for (size_t i = 0; i < primary_router_->shard_count(); ++i) {
      dbs.push_back(primary_router_->shard_db(i));
    }
    hub_ = std::make_unique<ReplicationHub>(
        dbs, primary_router_->metrics_registry());
  }

  /// Starts (or restarts) the primary server. `port` 0 = ephemeral;
  /// restarts pass the previous port so the follower's reconnect loop
  /// finds the primary where it left it.
  void StartPrimaryServer(uint16_t port = 0) {
    ServerOptions options;
    options.port = port;
    options.replication = hub_.get();
    primary_server_ = std::make_unique<Server>(primary_router_.get(),
                                               options);
    Status s = primary_server_->Start();
    ASSERT_TRUE(s.ok()) << s;
    primary_port_ = primary_server_->port();
  }

  void StopPrimaryServer() {
    if (primary_server_ != nullptr) {
      primary_server_->Stop();
      primary_server_.reset();
    }
  }

  /// Opens the follower stack: shard layout matching the primary,
  /// replicator, and a read-only server on an ephemeral port.
  void StartFollower() {
    if (follower_router_ == nullptr) {
      auto probed = Replicator::ProbeShardCount("127.0.0.1", primary_port_);
      ASSERT_TRUE(probed.ok()) << probed.status();
      shard::ShardRouter::Options options;
      options.shards = *probed;
      auto router = shard::ShardRouter::Open(FollowerDir(), options);
      ASSERT_TRUE(router.ok()) << router.status();
      follower_router_ = *std::move(router);
    }
    std::vector<Database*> dbs;
    for (size_t i = 0; i < follower_router_->shard_count(); ++i) {
      dbs.push_back(follower_router_->shard_db(i));
    }
    Replicator::Options options;
    options.host = "127.0.0.1";
    options.port = primary_port_;
    options.dir = FollowerDir();
    options.backoff_min = std::chrono::milliseconds(50);
    options.backoff_max = std::chrono::milliseconds(250);
    replicator_ = std::make_unique<Replicator>(
        options, dbs, follower_router_->metrics_registry(), Env::Default());
    ASSERT_TRUE(replicator_->Start().ok());
    provider_ = std::make_unique<ReadOnlyProvider>(follower_router_.get(),
                                                   replicator_.get());
    ServerOptions server_options;
    server_options.port = 0;
    follower_server_ = std::make_unique<Server>(provider_.get(),
                                                server_options);
    Status s = follower_server_->Start();
    ASSERT_TRUE(s.ok()) << s;
  }

  void StopFollower() {
    if (follower_server_ != nullptr) {
      follower_server_->Stop();  // Stops the replicator via the provider.
      follower_server_.reset();
    }
    provider_.reset();
    replicator_.reset();
  }

  Client ConnectPrimary() {
    auto client = Client::Connect("127.0.0.1", primary_port_);
    EXPECT_TRUE(client.ok()) << client.status();
    return *std::move(client);
  }

  Client ConnectFollower() {
    auto client = Client::Connect("127.0.0.1", follower_server_->port());
    EXPECT_TRUE(client.ok()) << client.status();
    return *std::move(client);
  }

  /// Blocks until the follower has applied at least the primary's
  /// per-shard WAL positions as of this call, AND reports caught-up.
  /// The explicit position targets make the wait deterministic:
  /// CaughtUp() alone can be true against a head report that predates
  /// the writes this test just issued.
  void AwaitCaughtUp(int timeout_ms = 20000) {
    std::vector<uint64_t> heads;
    for (size_t i = 0; i < primary_router_->shard_count(); ++i) {
      heads.push_back(primary_router_->shard_db(i)->wal()->position().lsn);
    }
    auto reached = [&] {
      std::vector<ShardPosition> applied = replicator_->AppliedPositions();
      for (size_t i = 0; i < heads.size(); ++i) {
        if (applied[i].lsn < heads[i]) return false;
      }
      return replicator_->CaughtUp();
    };
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    while (!reached()) {
      ASSERT_LT(std::chrono::steady_clock::now(), deadline)
          << "follower never caught up: " << replicator_->StatusText();
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }

  /// The follower-side value of counter `name`.
  uint64_t FollowerCounter(const char* name) {
    return follower_router_->metrics_registry()->GetCounter(name)->value();
  }

  /// The Theorem-2 acceptance check: every relation's stored canonical
  /// form, rendered per shard, must be bit-identical between primary
  /// and follower.
  void ExpectCanonicalFormsIdentical() {
    ASSERT_EQ(primary_router_->shard_count(),
              follower_router_->shard_count());
    for (size_t i = 0; i < primary_router_->shard_count(); ++i) {
      Database* p = primary_router_->shard_db(i);
      Database* f = follower_router_->shard_db(i);
      std::vector<std::string> p_names = p->ListRelations();
      EXPECT_EQ(p_names, f->ListRelations()) << "shard " << i;
      for (const std::string& name : p_names) {
        auto p_rel = p->Relation(name);
        auto f_rel = f->Relation(name);
        ASSERT_TRUE(p_rel.ok()) << p_rel.status();
        ASSERT_TRUE(f_rel.ok()) << "shard " << i << " relation " << name
                                << ": " << f_rel.status();
        EXPECT_EQ(RenderTable(**p_rel, name), RenderTable(**f_rel, name))
            << "shard " << i << " relation " << name
            << ": canonical forms diverge";
      }
    }
  }

  std::string base_;
  std::unique_ptr<shard::ShardRouter> primary_router_;
  std::unique_ptr<ReplicationHub> hub_;
  std::unique_ptr<Server> primary_server_;
  uint16_t primary_port_ = 0;

  std::unique_ptr<shard::ShardRouter> follower_router_;
  std::unique_ptr<Replicator> replicator_;
  std::unique_ptr<ReadOnlyProvider> provider_;
  std::unique_ptr<Server> follower_server_;
};

TEST_F(ReplicationTest, FollowerCatchesUpThenTailsLiveWrites) {
  OpenPrimary(/*shards=*/1);
  StartPrimaryServer();
  {
    // Rows written BEFORE the follower exists: the catch-up path.
    Client primary = ConnectPrimary();
    ASSERT_TRUE(primary
                    .Execute("CREATE RELATION takes (Student STRING, "
                             "Course STRING, Club STRING) "
                             "MVD Student ->-> Course")
                    .ok());
    ASSERT_TRUE(primary
                    .Execute("INSERT INTO takes VALUES "
                             "(ada, algebra, chess), (ada, crypto, chess)")
                    .ok());
    ASSERT_TRUE(primary.Quit().ok());
  }

  StartFollower();
  AwaitCaughtUp();
  {
    Client follower = ConnectFollower();
    auto count = follower.Execute("SELECT COUNT(*) FROM takes");
    ASSERT_TRUE(count.ok()) << count.status();
    EXPECT_EQ(*count, "2");
    ASSERT_TRUE(follower.Quit().ok());
  }

  {
    // Rows written WHILE the follower tails: the live path.
    Client primary = ConnectPrimary();
    ASSERT_TRUE(primary
                    .Execute("INSERT INTO takes VALUES "
                             "(bob, algebra, go), (eve, crypto, go)")
                    .ok());
    ASSERT_TRUE(
        primary.Execute("DELETE FROM takes WHERE Student = ada").ok());
    ASSERT_TRUE(primary.Quit().ok());
  }
  AwaitCaughtUp();
  {
    Client follower = ConnectFollower();
    auto count = follower.Execute("SELECT COUNT(*) FROM takes");
    ASSERT_TRUE(count.ok());
    EXPECT_EQ(*count, "2");
    auto rows = follower.Execute("SELECT * FROM takes WHERE Student = bob");
    ASSERT_TRUE(rows.ok());
    EXPECT_NE(rows->find("algebra"), std::string::npos);
    ASSERT_TRUE(follower.Quit().ok());
  }
  ExpectCanonicalFormsIdentical();
  // The WAL was never truncated, so both phases streamed records.
  EXPECT_EQ(FollowerCounter("nf2_repl_snapshot_bootstraps_total"), 0u);
  EXPECT_GT(FollowerCounter("nf2_repl_applied_records_total"), 0u);
}

TEST_F(ReplicationTest, FollowerRejectsWritesAndTransactions) {
  OpenPrimary(/*shards=*/1);
  StartPrimaryServer();
  {
    Client primary = ConnectPrimary();
    ASSERT_TRUE(
        primary.Execute("CREATE RELATION r (a STRING, b STRING)").ok());
    ASSERT_TRUE(primary.Execute("INSERT INTO r VALUES (x, y)").ok());
    ASSERT_TRUE(primary.Quit().ok());
  }
  StartFollower();
  AwaitCaughtUp();

  Client follower = ConnectFollower();
  // Reads flow.
  auto count = follower.Execute("SELECT COUNT(*) FROM r");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, "1");
  // Mutations bounce with kUnavailable (the kBusy wire frame), naming
  // the primary as the write target.
  for (const char* stmt :
       {"INSERT INTO r VALUES (p, q)", "DELETE FROM r WHERE a = x",
        "BEGIN", "CREATE RELATION s (c STRING)", "DROP RELATION r",
        "CHECKPOINT"}) {
    auto result = follower.Execute(stmt);
    ASSERT_FALSE(result.ok()) << stmt << " succeeded on a follower";
    EXPECT_EQ(result.status().code(), StatusCode::kUnavailable) << stmt;
  }
  // The refused writes changed nothing.
  count = follower.Execute("SELECT COUNT(*) FROM r");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, "1");
  // The \replica meta command reports the stream.
  auto replica = follower.Execute("\\replica");
  ASSERT_TRUE(replica.ok()) << replica.status();
  EXPECT_NE(replica->find("connected: yes"), std::string::npos);
  EXPECT_NE(replica->find("shard 0"), std::string::npos);
  // Lag metrics are registered and visible over the wire.
  auto prom = follower.Execute("\\metrics prom");
  ASSERT_TRUE(prom.ok());
  EXPECT_NE(prom->find("nf2_repl_lag_records"), std::string::npos);
  ASSERT_TRUE(follower.Quit().ok());
}

TEST_F(ReplicationTest, TransactionsApplyAtomicallyAndAbortsAreSkipped) {
  OpenPrimary(/*shards=*/1);
  StartPrimaryServer();
  StartFollower();
  {
    Client primary = ConnectPrimary();
    ASSERT_TRUE(
        primary.Execute("CREATE RELATION acct (owner STRING, asset STRING)")
            .ok());
    ASSERT_TRUE(primary.Execute("BEGIN").ok());
    ASSERT_TRUE(
        primary.Execute("INSERT INTO acct VALUES (ada, gold)").ok());
    ASSERT_TRUE(
        primary.Execute("INSERT INTO acct VALUES (bob, iron)").ok());
    ASSERT_TRUE(primary.Execute("COMMIT").ok());
    ASSERT_TRUE(primary.Execute("BEGIN").ok());
    ASSERT_TRUE(
        primary.Execute("INSERT INTO acct VALUES (eve, tin)").ok());
    ASSERT_TRUE(primary.Execute("ROLLBACK").ok());
    ASSERT_TRUE(primary.Quit().ok());
  }
  AwaitCaughtUp();
  {
    Client follower = ConnectFollower();
    auto count = follower.Execute("SELECT COUNT(*) FROM acct");
    ASSERT_TRUE(count.ok());
    EXPECT_EQ(*count, "2") << "committed rows missing or aborted row leaked";
    auto eve = follower.Execute("SELECT COUNT(*) FROM acct WHERE owner = eve");
    ASSERT_TRUE(eve.ok());
    EXPECT_EQ(*eve, "0");
    ASSERT_TRUE(follower.Quit().ok());
  }
  ExpectCanonicalFormsIdentical();
}

TEST_F(ReplicationTest, FreshFollowerBootstrapsFromSnapshotAfterTruncate) {
  OpenPrimary(/*shards=*/1);
  StartPrimaryServer();
  {
    Client primary = ConnectPrimary();
    ASSERT_TRUE(
        primary.Execute("CREATE RELATION r (a STRING, b STRING)").ok());
    ASSERT_TRUE(
        primary.Execute("INSERT INTO r VALUES (x, y), (u, v)").ok());
    // CHECKPOINT truncates the WAL: the records a from-zero follower
    // would need are gone, so subscription must fall back to a pinned
    // MVCC snapshot.
    ASSERT_TRUE(primary.Execute("CHECKPOINT").ok());
    ASSERT_TRUE(primary.Execute("INSERT INTO r VALUES (p, q)").ok());
    ASSERT_TRUE(primary.Quit().ok());
  }
  ASSERT_GE(primary_router_->shard_db(0)->wal()->epoch(), 1u)
      << "checkpoint did not truncate; the test would not cover bootstrap";

  StartFollower();
  AwaitCaughtUp();
  {
    Client follower = ConnectFollower();
    auto count = follower.Execute("SELECT COUNT(*) FROM r");
    ASSERT_TRUE(count.ok());
    EXPECT_EQ(*count, "3");
    ASSERT_TRUE(follower.Quit().ok());
  }
  ExpectCanonicalFormsIdentical();
  EXPECT_GE(FollowerCounter("nf2_repl_snapshot_bootstraps_total"), 1u);
}

TEST_F(ReplicationTest, FollowerReconnectsAfterPrimaryRestart) {
  OpenPrimary(/*shards=*/1);
  StartPrimaryServer();
  {
    Client primary = ConnectPrimary();
    ASSERT_TRUE(
        primary.Execute("CREATE RELATION r (a STRING, b STRING)").ok());
    ASSERT_TRUE(primary.Execute("INSERT INTO r VALUES (x, y)").ok());
    ASSERT_TRUE(primary.Quit().ok());
  }
  StartFollower();
  AwaitCaughtUp();

  // Primary goes away (graceful stop = shutdown checkpoint + WAL
  // truncate); rows are written while the follower is disconnected.
  const uint16_t port = primary_port_;
  StopPrimaryServer();
  ASSERT_TRUE(primary_router_->shard_db(0)
                  ->Insert("r", FlatTuple{Value::String("u"),
                                          Value::String("v")})
                  .ok());
  StartPrimaryServer(port);

  AwaitCaughtUp();
  {
    Client follower = ConnectFollower();
    auto count = follower.Execute("SELECT COUNT(*) FROM r");
    ASSERT_TRUE(count.ok());
    EXPECT_EQ(*count, "2");
    ASSERT_TRUE(follower.Quit().ok());
  }
  EXPECT_GE(follower_router_->metrics_registry()
                ->GetCounter("nf2_repl_reconnects_total")
                ->value(),
            1u);
  ExpectCanonicalFormsIdentical();
}

TEST_F(ReplicationTest, FollowerPositionSurvivesItsOwnRestart) {
  OpenPrimary(/*shards=*/1);
  StartPrimaryServer();
  {
    Client primary = ConnectPrimary();
    ASSERT_TRUE(
        primary.Execute("CREATE RELATION r (a STRING, b STRING)").ok());
    ASSERT_TRUE(primary.Execute("INSERT INTO r VALUES (x, y)").ok());
    ASSERT_TRUE(primary.Quit().ok());
  }
  StartFollower();
  AwaitCaughtUp();
  StopFollower();

  // More writes while the follower is down, then a cold follower
  // restart: it must resume from its persisted REPL.nf2 position and
  // re-apply idempotently, not double-apply or bootstrap from zero.
  {
    Client primary = ConnectPrimary();
    ASSERT_TRUE(primary.Execute("INSERT INTO r VALUES (u, v)").ok());
    ASSERT_TRUE(primary.Quit().ok());
  }
  follower_router_.reset();  // Close the shard group; reopen on start.
  StartFollower();
  AwaitCaughtUp();
  {
    Client follower = ConnectFollower();
    auto count = follower.Execute("SELECT COUNT(*) FROM r");
    ASSERT_TRUE(count.ok());
    EXPECT_EQ(*count, "2");
    ASSERT_TRUE(follower.Quit().ok());
  }
  ExpectCanonicalFormsIdentical();
}

// ---------------------------------------------------------------------
// Torture: a sharded primary under a deterministic keyed write storm —
// autocommit runs, multi-op transactions, rollbacks, DDL, and primary
// checkpoints — while the primary SERVER is killed and restarted at
// every phase boundary (the follower reconnects mid-storm each time,
// sometimes resuming from the log, sometimes past a truncation that
// forces a snapshot bootstrap). At quiesce the follower must hold
// bit-identical canonical forms on every shard.
// ---------------------------------------------------------------------

TEST_F(ReplicationTest, ShardedWriteStormSurvivesPrimaryKills) {
  constexpr size_t kShards = 2;
  constexpr int kPhases = 6;
  constexpr int kUnitsPerPhase = 40;

  OpenPrimary(kShards);
  StartPrimaryServer();
  {
    Client primary = ConnectPrimary();
    ASSERT_TRUE(
        primary
            .Execute("CREATE RELATION storm (k STRING, v STRING, w STRING)")
            .ok());
    ASSERT_TRUE(primary.Quit().ok());
  }
  StartFollower();

  Rng rng(0xF0110E);
  const uint16_t port = primary_port_;
  // Mutations go straight at the shard engines (replication is
  // per-shard WAL replay; routing is irrelevant to it), which keeps the
  // storm running while the primary server is down.
  auto one_unit = [&](int phase, int unit) {
    Database* db = primary_router_->shard_db(
        rng.NextBelow(primary_router_->shard_count()));
    auto tuple = [&] {
      return FlatTuple{Value::String(StrCat("k", rng.NextBelow(12))),
                       Value::String(StrCat("v", rng.NextBelow(6))),
                       Value::String(StrCat("w", rng.NextBelow(4)))};
    };
    const uint64_t kind = rng.NextBelow(10);
    if (kind < 6) {
      // Autocommit insert/delete; collisions with existing keys are
      // fine (AlreadyExists / NotFound are part of the workload).
      if (kind % 2 == 0) {
        (void)db->Insert("storm", tuple());
      } else {
        (void)db->Delete("storm", tuple());
      }
    } else if (kind < 9) {
      // A small transaction, committed or rolled back.
      ASSERT_TRUE(db->Begin().ok()) << "phase " << phase << " unit " << unit;
      for (int i = 0; i < 3; ++i) (void)db->Insert("storm", tuple());
      if (kind == 8) {
        ASSERT_TRUE(db->Rollback().ok());
      } else {
        ASSERT_TRUE(db->Commit().ok());
      }
    } else {
      // A primary-side checkpoint: truncates that shard's WAL under
      // the live subscription.
      ASSERT_TRUE(db->Checkpoint().ok())
          << "phase " << phase << " unit " << unit;
    }
  };

  for (int phase = 0; phase < kPhases; ++phase) {
    // Let the follower reach the live primary, then write while it
    // tails. No checkpoint runs until it has applied these writes, so
    // they reach it as WAL records, however the threads are scheduled;
    // without this, a loaded host can let every catch-up happen by
    // snapshot bootstrap after the checkpoints truncated the WAL.
    AwaitCaughtUp();
    if (::testing::Test::HasFailure()) return;
    for (size_t s = 0; s < primary_router_->shard_count(); ++s) {
      ASSERT_TRUE(primary_router_->shard_db(s)
                      ->Insert("storm",
                               FlatTuple{Value::String(StrCat("live", phase)),
                                         Value::String("v"),
                                         Value::String("w")})
                      .ok());
    }
    AwaitCaughtUp();
    if (::testing::Test::HasFailure()) return;
    for (int unit = 0; unit < kUnitsPerPhase; ++unit) {
      one_unit(phase, unit);
      if (::testing::Test::HasFailure()) return;
    }
    // Kill the primary server mid-stream (ungraceful for the
    // subscriber: its socket just dies). Keep writing while it is
    // down, then restart on the same port and let the follower
    // reconnect and catch up.
    StopPrimaryServer();
    for (int unit = 0; unit < kUnitsPerPhase; ++unit) {
      one_unit(phase, kUnitsPerPhase + unit);
      if (::testing::Test::HasFailure()) return;
    }
    StartPrimaryServer(port);
  }

  AwaitCaughtUp(/*timeout_ms=*/60000);
  ExpectCanonicalFormsIdentical();

  // The storm must have actually exercised the hard paths.
  // At least some kills must have hit a live connection (the follower
  // can sleep in backoff through a fast kill/restart cycle, so the
  // count is not exactly kPhases).
  EXPECT_GE(FollowerCounter("nf2_repl_reconnects_total"), 2u);
  // Every phase's live writes arrived as records.
  EXPECT_GE(FollowerCounter("nf2_repl_applied_records_total"),
            static_cast<uint64_t>(kPhases * kShards))
      << "snapshot bootstraps: "
      << FollowerCounter("nf2_repl_snapshot_bootstraps_total");
}

}  // namespace
}  // namespace nf2
