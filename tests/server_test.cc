// End-to-end tests of the nf2d server stack: frame protocol, client
// library, worker pool backpressure, and graceful shutdown — real TCP
// sockets on a loopback ephemeral port.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "engine/database.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "util/string_util.h"

namespace nf2 {
namespace {

using server::Client;
using server::Server;
using server::ServerOptions;

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("nf2_server_" + std::string(::testing::UnitTest::GetInstance()
                                             ->current_test_info()
                                             ->name())))
               .string();
    std::filesystem::remove_all(dir_);
    auto db = Database::Open(dir_);
    ASSERT_TRUE(db.ok());
    db_ = *std::move(db);
  }
  void TearDown() override {
    db_.reset();
    std::filesystem::remove_all(dir_);
  }

  /// Starts a server on an ephemeral port over db_.
  std::unique_ptr<Server> StartServer(ServerOptions options = {}) {
    options.port = 0;
    auto server = std::make_unique<Server>(db_.get(), options);
    Status s = server->Start();
    EXPECT_TRUE(s.ok()) << s.ToString();
    return server;
  }

  Client MustConnect(const Server& server) {
    auto client = Client::Connect("127.0.0.1", server.port());
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return *std::move(client);
  }

  std::string dir_;
  std::unique_ptr<Database> db_;
};

TEST_F(ServerTest, PingQueryAndQuitRoundTrip) {
  auto server = StartServer();
  Client client = MustConnect(*server);

  ASSERT_TRUE(client.Ping().ok());

  auto created = client.Execute(
      "CREATE RELATION takes (Student STRING, Course STRING, Club STRING) "
      "MVD Student ->-> Course");
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  ASSERT_TRUE(client
                  .Execute("INSERT INTO takes VALUES (ada, algebra, chess), "
                           "(ada, crypto, chess)")
                  .ok());
  auto count = client.Execute("SELECT COUNT(*) FROM takes");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, "2");

  // Typed errors survive the wire: code and message both round-trip.
  auto missing = client.Execute("SELECT * FROM nonesuch");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
  EXPECT_NE(missing.status().message().find("nonesuch"), std::string::npos);

  // Prometheus text over the protocol, trailing newline included.
  auto prom = client.Execute("\\metrics prom");
  ASSERT_TRUE(prom.ok());
  EXPECT_NE(prom->find("nf2_server_requests_total"), std::string::npos);
  EXPECT_EQ(prom->back(), '\n');

  ASSERT_TRUE(client.Quit().ok());
  EXPECT_FALSE(client.connected());
}

TEST_F(ServerTest, ManyClientsReadConcurrently) {
  auto server = StartServer();
  {
    Client setup = MustConnect(*server);
    ASSERT_TRUE(setup.Execute("CREATE RELATION r (a STRING, b STRING)").ok());
    ASSERT_TRUE(
        setup.Execute("INSERT INTO r VALUES (x, y), (u, v), (p, q)").ok());
    ASSERT_TRUE(setup.Quit().ok());
  }

  constexpr int kClients = 8;
  constexpr int kQueriesEach = 25;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&server, &failures, this] {
      auto client = Client::Connect("127.0.0.1", server->port());
      if (!client.ok()) {
        ++failures;
        return;
      }
      for (int q = 0; q < kQueriesEach; ++q) {
        auto out = client->Execute("SELECT COUNT(*) FROM r");
        if (!out.ok() || *out != "3") ++failures;
      }
      if (!client->Quit().ok()) ++failures;
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GE(db_->metrics()->GetCounter("nf2_server_requests_total")->value(),
            static_cast<uint64_t>(kClients * kQueriesEach));
}

// workers=1, queue=1: one in-flight \sleep plus one queued request
// saturate the server, so a third concurrent request must bounce with
// kBusy (surfaced by the client as kUnavailable).
TEST_F(ServerTest, QueueFullAnswersBusy) {
  ServerOptions options;
  options.workers = 1;
  options.queue_capacity = 1;
  auto server = StartServer(options);

  Client sleeper = MustConnect(*server);
  Client filler = MustConnect(*server);
  Client rejected = MustConnect(*server);

  std::thread sleep_thread([&sleeper] {
    auto out = sleeper.Execute("\\sleep 1500");
    EXPECT_TRUE(out.ok()) << out.status().ToString();
  });
  // Let the sleeper reach the worker, then occupy the single queue slot.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  std::thread fill_thread([&filler] {
    auto out = filler.Execute("\\sleep 10");
    EXPECT_TRUE(out.ok()) << out.status().ToString();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(300));

  auto busy = rejected.Execute("LIST");
  ASSERT_FALSE(busy.ok());
  EXPECT_EQ(busy.status().code(), StatusCode::kUnavailable);

  sleep_thread.join();
  fill_thread.join();
  EXPECT_GE(db_->metrics()->GetCounter("nf2_server_busy_total")->value(), 1u);

  // The server recovered: the rejected client can retry successfully.
  auto retry = rejected.Execute("LIST");
  EXPECT_TRUE(retry.ok()) << retry.status().ToString();
}

// Another session's open transaction bounces mutations with kBusy but
// admits reads.
TEST_F(ServerTest, TransactionConflictAnswersBusyOverTheWire) {
  auto server = StartServer();
  Client owner = MustConnect(*server);
  Client other = MustConnect(*server);

  ASSERT_TRUE(owner.Execute("CREATE RELATION r (x STRING)").ok());
  ASSERT_TRUE(owner.Execute("BEGIN").ok());
  ASSERT_TRUE(owner.Execute("INSERT INTO r VALUES (mine)").ok());

  auto blocked = other.Execute("INSERT INTO r VALUES (theirs)");
  ASSERT_FALSE(blocked.ok());
  EXPECT_EQ(blocked.status().code(), StatusCode::kUnavailable);
  auto read = other.Execute("SELECT COUNT(*) FROM r");
  ASSERT_TRUE(read.ok());

  ASSERT_TRUE(owner.Execute("COMMIT").ok());
  EXPECT_TRUE(other.Execute("INSERT INTO r VALUES (theirs)").ok());
}

// Stop() with a connection mid-transaction: the session's transaction
// rolls back, acknowledged statements survive via the shutdown
// checkpoint, and the engine is left clean.
TEST_F(ServerTest, GracefulShutdownRollsBackOpenTransactions) {
  auto server = StartServer();
  Client client = MustConnect(*server);
  ASSERT_TRUE(client.Execute("CREATE RELATION r (x STRING)").ok());
  ASSERT_TRUE(client.Execute("INSERT INTO r VALUES (durable)").ok());
  ASSERT_TRUE(client.Execute("BEGIN").ok());
  ASSERT_TRUE(client.Execute("INSERT INTO r VALUES (doomed)").ok());
  {
    // Peeking at live engine state (not a snapshot) while the server
    // runs requires the gate.
    auto lock = server->session_manager()->gate()->LockExclusive();
    ASSERT_TRUE(db_->in_transaction());
  }

  server->Stop();

  EXPECT_FALSE(db_->in_transaction());
  auto scan = db_->Scan("r");
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->size(), 1u);
  EXPECT_TRUE(db_->VerifyIntegrity().ok());

  // The connection is dead from the client's point of view.
  EXPECT_FALSE(client.Execute("LIST").ok());
}

TEST_F(ServerTest, StopIsIdempotentAndRestartableDatabase) {
  auto server = StartServer();
  {
    Client client = MustConnect(*server);
    ASSERT_TRUE(client.Execute("CREATE RELATION r (x STRING)").ok());
    ASSERT_TRUE(client.Execute("INSERT INTO r VALUES (v)").ok());
    ASSERT_TRUE(client.Quit().ok());
  }
  server->Stop();
  server->Stop();  // Idempotent.
  server.reset();

  // The shutdown checkpoint made the state durable: reopen and read.
  db_.reset();
  auto reopened = Database::Open(dir_);
  ASSERT_TRUE(reopened.ok());
  auto scan = (*reopened)->Scan("r");
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->size(), 1u);
  db_ = *std::move(reopened);
}

TEST_F(ServerTest, OversizedFrameIsRejected) {
  auto server = StartServer();
  Client client = MustConnect(*server);
  // The client-side WriteFrame refuses to build an oversized frame, so
  // this exercises the limit without shipping 64 MiB through loopback.
  std::string huge(server::kMaxFramePayload + 1, 'x');
  auto out = client.Execute(huge);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument);
}

// ---- Protocol v1: pipelined batches + parsed-statement cache. ----

TEST_F(ServerTest, BatchMixedReadWriteExecutesInOrder) {
  auto server = StartServer();
  Client client = MustConnect(*server);

  auto results = client.ExecuteBatch({
      "CREATE RELATION r (a STRING, b STRING)",
      "INSERT INTO r VALUES (x, y), (u, v)",
      "SELECT COUNT(*) FROM r",
      "INSERT INTO r VALUES (p, q)",
      "SELECT COUNT(*) FROM r",
  });
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  ASSERT_EQ(results->size(), 5u);
  for (const auto& r : *results) ASSERT_TRUE(r.ok()) << r.status().ToString();
  // In-order execution is observable through the two counts straddling
  // the second insert.
  EXPECT_EQ(*(*results)[2], "2");
  EXPECT_EQ(*(*results)[4], "3");
}

TEST_F(ServerTest, BatchMidStatementErrorReportsInPlaceAndContinues) {
  auto server = StartServer();
  Client client = MustConnect(*server);
  ASSERT_TRUE(client.Execute("CREATE RELATION r (x STRING)").ok());

  auto results = client.ExecuteBatch({
      "INSERT INTO r VALUES (one)",
      "SELECT * FROM nonesuch",
      "this does not parse",
      "SELECT COUNT(*) FROM r",
  });
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  ASSERT_EQ(results->size(), 4u);
  EXPECT_TRUE((*results)[0].ok());
  ASSERT_FALSE((*results)[1].ok());
  EXPECT_EQ((*results)[1].status().code(), StatusCode::kNotFound);
  EXPECT_NE((*results)[1].status().message().find("nonesuch"),
            std::string::npos);
  ASSERT_FALSE((*results)[2].ok());
  EXPECT_EQ((*results)[2].status().code(), StatusCode::kInvalidArgument);
  // The batch kept going after both failures.
  ASSERT_TRUE((*results)[3].ok());
  EXPECT_EQ(*(*results)[3], "1");
}

TEST_F(ServerTest, EmptyBatchIsAnsweredWithEmptyReply) {
  auto server = StartServer();
  Client client = MustConnect(*server);
  auto results = client.ExecuteBatch({});
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  EXPECT_TRUE(results->empty());
}

TEST_F(ServerTest, BatchTransactionConflictSurfacesBusyEntries) {
  auto server = StartServer();
  Client owner = MustConnect(*server);
  Client other = MustConnect(*server);

  ASSERT_TRUE(owner.Execute("CREATE RELATION r (x STRING)").ok());
  ASSERT_TRUE(owner.Execute("BEGIN").ok());
  ASSERT_TRUE(owner.Execute("INSERT INTO r VALUES (mine)").ok());

  // The other session's batch: its write bounces kUnavailable (the
  // per-entry busy tag), but its reads still run.
  auto results = other.ExecuteBatch(
      {"SELECT COUNT(*) FROM r", "INSERT INTO r VALUES (theirs)", "LIST"});
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  ASSERT_EQ(results->size(), 3u);
  EXPECT_TRUE((*results)[0].ok());
  ASSERT_FALSE((*results)[1].ok());
  EXPECT_EQ((*results)[1].status().code(), StatusCode::kUnavailable);
  EXPECT_TRUE((*results)[2].ok());

  ASSERT_TRUE(owner.Execute("COMMIT").ok());
}

TEST_F(ServerTest, V0ClientInteroperatesWithV1Server) {
  auto server = StartServer();
  // A pure-v0 peer: only kQuery/kPing/kQuit frames, driven at the frame
  // level exactly as a PR-4 binary would speak them.
  Client v0 = MustConnect(*server);
  ASSERT_TRUE(v0.Ping().ok());
  ASSERT_TRUE(v0.Execute("CREATE RELATION r (x STRING)").ok());

  // A v1 peer batches against the same server between the v0 frames.
  Client v1 = MustConnect(*server);
  auto batched = v1.ExecuteBatch(
      {"INSERT INTO r VALUES (a)", "SELECT COUNT(*) FROM r"});
  ASSERT_TRUE(batched.ok());
  ASSERT_TRUE((*batched)[1].ok());
  EXPECT_EQ(*(*batched)[1], "1");

  // The v0 peer still sees one response frame per request, in order.
  auto count = v0.Execute("SELECT COUNT(*) FROM r");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, "1");
  ASSERT_TRUE(v0.Quit().ok());
}

TEST_F(ServerTest, StatementCacheCountsHitsAndServesRepeats) {
  auto server = StartServer();
  Client client = MustConnect(*server);
  ASSERT_TRUE(client.Execute("CREATE RELATION r (x STRING)").ok());
  ASSERT_TRUE(client.Execute("INSERT INTO r VALUES (v)").ok());

  Counter* hits = db_->metrics()->GetCounter("nf2_stmtcache_hits_total");
  Counter* misses = db_->metrics()->GetCounter("nf2_stmtcache_misses_total");
  const uint64_t hits_before = hits->value();
  const uint64_t misses_before = misses->value();

  // Same text, three spellings that share one canonical key.
  ASSERT_TRUE(client.Execute("SELECT COUNT(*) FROM r").ok());
  ASSERT_TRUE(client.Execute("SELECT COUNT(*) FROM r;").ok());
  ASSERT_TRUE(client.Execute("  SELECT COUNT(*) FROM r ; ").ok());
  EXPECT_EQ(misses->value() - misses_before, 1u);
  EXPECT_GE(hits->value() - hits_before, 2u);

  // The counters are visible over the wire through \metrics.
  auto metrics = client.Execute("\\metrics");
  ASSERT_TRUE(metrics.ok());
  EXPECT_NE(metrics->find("nf2_stmtcache_hits_total"), std::string::npos);
  EXPECT_NE(metrics->find("nf2_stmtcache_misses_total"), std::string::npos);
}

TEST_F(ServerTest, ProfileReportsStatementCacheHit) {
  auto server = StartServer();
  Client client = MustConnect(*server);
  ASSERT_TRUE(client.Execute("CREATE RELATION r (x STRING)").ok());

  auto first = client.Execute("PROFILE SELECT COUNT(*) FROM r");
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_NE(first->find("statement cache: miss"), std::string::npos)
      << *first;
  auto second = client.Execute("PROFILE SELECT COUNT(*) FROM r");
  ASSERT_TRUE(second.ok());
  EXPECT_NE(second->find("statement cache: hit"), std::string::npos)
      << *second;
}

TEST_F(ServerTest, DdlInvalidatesStatementCacheLazilyPerEntry) {
  auto server = StartServer();
  Client client = MustConnect(*server);
  ASSERT_TRUE(client.Execute("CREATE RELATION r (x STRING)").ok());

  Counter* hits = db_->metrics()->GetCounter("nf2_stmtcache_hits_total");
  Counter* misses = db_->metrics()->GetCounter("nf2_stmtcache_misses_total");
  Counter* invalidations =
      db_->metrics()->GetCounter("nf2_stmtcache_invalidations_total");
  server::StatementCache* cache =
      server->session_manager()->statement_cache();

  // Warm the cache, then drop a relation. Epoch keying: the DDL itself
  // evicts nothing — stale entries are detected and dropped on their
  // next lookup instead.
  ASSERT_TRUE(client.Execute("SELECT COUNT(*) FROM r").ok());
  ASSERT_TRUE(client.Execute("SELECT COUNT(*) FROM r").ok());
  const size_t warm_size = cache->size();
  EXPECT_GE(warm_size, 2u);  // SELECT + the CREATE that warmed it.
  const uint64_t invalidations_before = invalidations->value();
  ASSERT_TRUE(client.Execute("DROP RELATION r").ok());
  EXPECT_EQ(invalidations->value(), invalidations_before);
  EXPECT_GE(cache->size(), warm_size);  // Nothing dropped eagerly.

  // The same text parses fresh afterwards — the stale entry counts one
  // invalidation and a miss, never a stale hit.
  ASSERT_TRUE(client.Execute("CREATE RELATION r (x STRING)").ok());
  const uint64_t misses_before = misses->value();
  const uint64_t inval_before = invalidations->value();
  ASSERT_TRUE(client.Execute("SELECT COUNT(*) FROM r").ok());
  EXPECT_EQ(misses->value(), misses_before + 1);
  EXPECT_EQ(invalidations->value(), inval_before + 1);

  // Re-inserted under the current epoch: the next lookup is a hit.
  const uint64_t hits_before = hits->value();
  ASSERT_TRUE(client.Execute("SELECT COUNT(*) FROM r").ok());
  EXPECT_EQ(hits->value(), hits_before + 1);
}

TEST_F(ServerTest, BatchWithDdlInvalidatesCacheMidBatch) {
  auto server = StartServer();
  Client client = MustConnect(*server);

  Counter* invalidations =
      db_->metrics()->GetCounter("nf2_stmtcache_invalidations_total");
  const uint64_t before = invalidations->value();
  // The same CREATE and SELECT texts recur after a DROP inside one
  // batch: neither may reuse its pre-DDL parse — both entries are
  // epoch-stale at their second lookup, so each re-parses (two
  // per-entry invalidations, no whole-cache clear).
  auto results = client.ExecuteBatch({
      "CREATE RELATION s (x STRING)",
      "SELECT COUNT(*) FROM s",
      "DROP RELATION s",
      "CREATE RELATION s (x STRING)",
      "SELECT COUNT(*) FROM s",
  });
  ASSERT_TRUE(results.ok());
  for (const auto& r : *results) ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(invalidations->value(), before + 2);
}

TEST_F(ServerTest, SleepWithoutMillisecondsIsRejected) {
  auto server = StartServer();
  Client client = MustConnect(*server);
  for (const char* bad : {"\\sleep", "\\sleep ", "\\sleep   "}) {
    auto out = client.Execute(bad);
    ASSERT_FALSE(out.ok()) << "'" << bad << "' was accepted: " << *out;
    EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(out.status().message().find("milliseconds"), std::string::npos);
  }
  auto ok = client.Execute("\\sleep 1");
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(*ok, "slept 1 ms");
}

// Session-level batch semantics without sockets: the read-run gate
// sharing must not deadlock against meta commands or writes that take
// their own locks, and results stay positional.
TEST_F(ServerTest, SessionExecuteBatchDirect) {
  server::SessionManager manager(db_.get());
  auto session = manager.NewSession();
  auto results = session->ExecuteBatch({
      "CREATE RELATION t (x STRING)",
      "INSERT INTO t VALUES (a)",
      "SELECT COUNT(*) FROM t",
      "LIST",
      "\\metrics",
      "SELECT COUNT(*) FROM t",
      "",
      "DROP RELATION t",
  });
  ASSERT_EQ(results.size(), 8u);
  EXPECT_TRUE(results[0].ok());
  EXPECT_TRUE(results[1].ok());
  EXPECT_EQ(*results[2], "1");
  EXPECT_TRUE(results[3].ok());
  EXPECT_TRUE(results[4].ok());
  EXPECT_EQ(*results[5], "1");
  ASSERT_FALSE(results[6].ok());
  EXPECT_EQ(results[6].status().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(results[7].ok());
}

TEST_F(ServerTest, LargeReadOnlyBatchOverOneConnection) {
  auto server = StartServer();
  Client client = MustConnect(*server);
  ASSERT_TRUE(client.Execute("CREATE RELATION r (x STRING)").ok());
  ASSERT_TRUE(client.Execute("INSERT INTO r VALUES (a), (b), (c)").ok());

  std::vector<std::string> batch(64, "SELECT COUNT(*) FROM r");
  auto results = client.ExecuteBatch(batch);
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  ASSERT_EQ(results->size(), 64u);
  for (const auto& r : *results) {
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(*r, "3");
  }
  // 63 of the 64 identical statements were cache hits.
  EXPECT_GE(db_->metrics()->GetCounter("nf2_stmtcache_hits_total")->value(),
            63u);
}

// ---- MVCC snapshot reads (DESIGN.md §9). ----

// The lock-free read path is observable: read-only statements never
// acquire the engine gate, so after a burst of reads its acquire
// counter sits exactly where the write burst left it.
TEST_F(ServerTest, ReadOnlyStatementsAcquireNoEngineGate) {
  auto server = StartServer();
  Client client = MustConnect(*server);
  ASSERT_TRUE(client.Execute("CREATE RELATION r (x STRING)").ok());
  ASSERT_TRUE(client.Execute("INSERT INTO r VALUES (a), (b)").ok());

  Counter* write =
      db_->metrics()->GetCounter("nf2_gate_write_acquires_total");
  const uint64_t write_before = write->value();

  for (int i = 0; i < 10; ++i) {
    auto out = client.Execute("SELECT COUNT(*) FROM r");
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(*out, "2");
  }
  auto batch = client.ExecuteBatch(
      {"SELECT * FROM r", "LIST", "STATS r", "DESCRIBE r", "\\metrics prom"});
  ASSERT_TRUE(batch.ok());
  for (const auto& r : *batch) ASSERT_TRUE(r.ok()) << r.status().ToString();
  // The snapshot and gate metrics are exported over the wire.
  const std::string& prom = *(*batch)[4];
  for (const char* name :
       {"nf2_snapshot_published_total", "nf2_snapshot_pinned",
        "nf2_snapshot_oldest_age_ms", "nf2_gate_write_acquires_total",
        "nf2_gate_write_wait_ns"}) {
    EXPECT_NE(prom.find(name), std::string::npos) << name;
  }

  EXPECT_EQ(write->value(), write_before);

  // And writers are counted: one more acquisition.
  ASSERT_TRUE(client.Execute("INSERT INTO r VALUES (c)").ok());
  EXPECT_EQ(write->value(), write_before + 1);
}

// A long read-only batch must not block a concurrent writer: the batch
// holds a pinned snapshot, not a lock, so the writer commits while the
// batch is still executing.
TEST_F(ServerTest, ReadBatchDoesNotBlockConcurrentWriter) {
  auto server = StartServer();
  Client reader = MustConnect(*server);
  Client writer = MustConnect(*server);
  ASSERT_TRUE(reader.Execute("CREATE RELATION r (x STRING)").ok());
  ASSERT_TRUE(reader.Execute("INSERT INTO r VALUES (a)").ok());

  // A batch that reads for >= 400 ms: 4 chunks of \sleep (meta commands
  // flush the read run, so the SELECTs around them pin fresh snapshots
  // — the point here is wall-clock overlap, not pin identity).
  std::atomic<bool> batch_done{false};
  std::thread reading([&] {
    std::vector<std::string> batch;
    for (int i = 0; i < 4; ++i) {
      batch.push_back("SELECT COUNT(*) FROM r");
      batch.push_back("\\sleep 100");
    }
    auto results = reader.ExecuteBatch(batch);
    EXPECT_TRUE(results.ok()) << results.status().ToString();
    for (const auto& r : *results) EXPECT_TRUE(r.ok());
    batch_done.store(true, std::memory_order_release);
  });

  // Give the batch time to start, then write. Reads hold no gate, so
  // the insert must land while the batch is still running.
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  const auto write_start = std::chrono::steady_clock::now();
  auto wrote = writer.Execute("INSERT INTO r VALUES (b)");
  const auto write_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - write_start)
          .count();
  ASSERT_TRUE(wrote.ok()) << wrote.status().ToString();
  EXPECT_FALSE(batch_done.load(std::memory_order_acquire))
      << "batch finished before the write — no overlap was exercised";
  EXPECT_LT(write_ms, 200) << "writer appears to have waited on readers";

  reading.join();
}

// Statements in one batch read-run share a single pinned snapshot: a
// write committed mid-run is invisible to every statement of the run,
// even those executed after the commit landed.
TEST_F(ServerTest, WriteCommittedMidBatchInvisibleToPinnedRun) {
  auto server = StartServer();
  Client reader = MustConnect(*server);
  Client writer = MustConnect(*server);
  ASSERT_TRUE(reader.Execute("CREATE RELATION r (x STRING)").ok());
  ASSERT_TRUE(reader.Execute("INSERT INTO r VALUES (a)").ok());

  // One uninterrupted run of identical counts, long enough for the
  // concurrent writer to commit mid-run.
  std::vector<std::string> batch(200, "SELECT COUNT(*) FROM r");
  std::atomic<bool> start{false};
  std::thread writing([&] {
    while (!start.load(std::memory_order_acquire)) {
    }
    for (int i = 0; i < 20; ++i) {
      auto out = writer.Execute(StrCat("INSERT INTO r VALUES (w", i, ")"));
      EXPECT_TRUE(out.ok()) << out.status().ToString();
    }
  });

  start.store(true, std::memory_order_release);
  auto results = reader.ExecuteBatch(batch);
  writing.join();
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  ASSERT_EQ(results->size(), batch.size());
  // Every count equals the first: the run observed exactly one version.
  const std::string& first = *(*results)[0];
  for (const auto& r : *results) {
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(*r, first);
  }
  // The writes are visible to the next (freshly pinned) statement.
  auto after = reader.Execute("SELECT COUNT(*) FROM r");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*after, "21");
}

// The index-backed read path (SELECT ... WHERE attr = value plans as an
// index scan) must honor the same pinned-run rule: every statement of a
// batch read-run sees one version, even while a writer commits matching
// tuples mid-run.
TEST_F(ServerTest, IndexedSelectInPinnedRunIsSnapshotConsistent) {
  auto server = StartServer();
  Client reader = MustConnect(*server);
  Client writer = MustConnect(*server);
  ASSERT_TRUE(
      reader.Execute("CREATE RELATION r (A STRING, B STRING)").ok());
  ASSERT_TRUE(reader.Execute("INSERT INTO r VALUES (a1, b0)").ok());

  // Index-backed point counts: the planner answers these from the
  // snapshot's inverted index and frozen dictionary.
  std::vector<std::string> batch(200, "SELECT COUNT(*) FROM r WHERE A = a1");
  std::atomic<bool> start{false};
  std::thread writing([&] {
    while (!start.load(std::memory_order_acquire)) {
    }
    for (int i = 0; i < 20; ++i) {
      auto out =
          writer.Execute(StrCat("INSERT INTO r VALUES (a1, w", i, ")"));
      EXPECT_TRUE(out.ok()) << out.status().ToString();
    }
  });

  start.store(true, std::memory_order_release);
  auto results = reader.ExecuteBatch(batch);
  writing.join();
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  ASSERT_EQ(results->size(), batch.size());
  const std::string& first = *(*results)[0];
  for (const auto& r : *results) {
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(*r, first);
  }
  // The next statement pins a fresh snapshot and sees all commits.
  auto after = reader.Execute("SELECT COUNT(*) FROM r WHERE A = a1");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*after, "21");
}

// Regression: a DELETE with neither VALUES nor WHERE reaching the
// executor used to abort the server process on an internal check. Over
// the wire it must come back as a clean statement error, and the
// session must stay usable.
TEST_F(ServerTest, MalformedDeleteReturnsErrorNotCrash) {
  auto server = StartServer();
  Client client = MustConnect(*server);
  ASSERT_TRUE(client.Execute("CREATE RELATION r (x STRING)").ok());
  ASSERT_TRUE(client.Execute("INSERT INTO r VALUES (a)").ok());
  auto bad = client.Execute("DELETE FROM r");
  EXPECT_FALSE(bad.ok());
  // The connection survived and the data is intact.
  auto count = client.Execute("SELECT COUNT(*) FROM r");
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  EXPECT_EQ(*count, "1");
}

}  // namespace
}  // namespace nf2
