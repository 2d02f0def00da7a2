// Concurrent-session tests over the engine gate (engine/concurrency.h,
// server/session.h) — no sockets: sessions are driven directly so ASan/
// TSan failures point straight at engine-level races.
//
// The torture test's oracle argument: with a single writer session, the
// reader interleaving cannot affect the final state (readers take only
// shared locks and never mutate), so the database after the concurrent
// run must be bit-identical to replaying the writer's statement stream
// into a fresh single-threaded database.

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "algebra/predicate.h"
#include "core/format.h"
#include "core/nest.h"
#include "engine/concurrency.h"
#include "engine/database.h"
#include "engine/snapshot.h"
#include "nfrql/parser.h"
#include "server/session.h"
#include "storage/serde.h"
#include "util/string_util.h"

namespace nf2 {
namespace {

using server::Session;
using server::SessionManager;

class ConcurrencyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("nf2_concurrency_" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name())))
               .string();
    RemoveDirs();
  }
  void TearDown() override { RemoveDirs(); }

  void RemoveDirs() {
    std::filesystem::remove_all(dir_);
    std::filesystem::remove_all(dir_ + "_torture");
    std::filesystem::remove_all(dir_ + "_oracle");
  }

  std::string dir_;
};

/// The deterministic §4 write stream the torture test and its oracle
/// both replay: inserts streamed over a small value domain (forcing
/// heavy composition/nesting) with periodic deletes of earlier tuples.
std::vector<std::string> WriterStatements(int rounds) {
  std::vector<std::string> stmts;
  stmts.push_back(
      "CREATE RELATION takes (Student STRING, Course STRING, Club STRING) "
      "MVD Student ->-> Course");
  // The small moduli force heavy value sharing (composition-heavy §4
  // paths); the shadow set keeps the stream valid — no duplicate
  // inserts, no deletes of absent tuples.
  std::set<std::string> live;
  for (int i = 0; i < rounds; ++i) {
    const std::string tuple = StrCat("s", (i * 13) % 7, ", c", (i * 7) % 5,
                                     ", k", i % 3);
    if (live.insert(tuple).second) {
      stmts.push_back(StrCat("INSERT INTO takes VALUES (", tuple, ")"));
    }
    if (i % 4 == 3 && !live.empty()) {
      auto victim = live.begin();
      stmts.push_back(StrCat("DELETE FROM takes VALUES (", *victim, ")"));
      live.erase(victim);
    }
  }
  return stmts;
}

/// Serializes every relation of `db` to bytes — the bit-identical
/// comparison the acceptance criteria ask for.
std::string SerializeAllRelations(Database* db) {
  std::string out;
  for (const std::string& name : db->ListRelations()) {
    auto rel = db->Relation(name);
    EXPECT_TRUE(rel.ok()) << name;
    if (!rel.ok()) continue;
    BufferWriter w;
    EncodeNfrRelation(**rel, &w);
    out += name;
    out += '\0';
    out += w.data();
  }
  return out;
}

/// Serializes every relation reachable from `snap` — same byte format
/// as SerializeAllRelations, but answered entirely from the snapshot.
std::string SerializeSnapshot(const DatabaseSnapshot& snap) {
  std::string out;
  for (const std::string& name : snap.ListRelations()) {
    auto rel = snap.Relation(name);
    EXPECT_TRUE(rel.ok()) << name;
    if (!rel.ok()) continue;
    BufferWriter w;
    EncodeNfrRelation(**rel, &w);
    out += name;
    out += '\0';
    out += w.data();
  }
  return out;
}

TEST(IsReadOnlyStatementTest, Classification) {
  auto classify = [](const std::string& source) {
    auto stmt = ParseStatement(source);
    EXPECT_TRUE(stmt.ok()) << source;
    return IsReadOnlyStatement(*stmt);
  };
  EXPECT_TRUE(classify("SELECT * FROM r"));
  EXPECT_TRUE(classify("SELECT COUNT(*) FROM r"));
  EXPECT_TRUE(classify("SHOW r"));
  EXPECT_TRUE(classify("DESCRIBE r"));
  EXPECT_TRUE(classify("NEST r ON a"));
  EXPECT_TRUE(classify("UNNEST r ON a"));
  EXPECT_TRUE(classify("LIST"));
  EXPECT_TRUE(classify("STATS r"));
  // EXPLAIN never executes, so even EXPLAIN of a mutation is a read.
  EXPECT_TRUE(classify("EXPLAIN SELECT * FROM r"));
  EXPECT_TRUE(classify("EXPLAIN INSERT INTO r VALUES (a)"));
  // PROFILE executes its inner statement: classify as the inner does.
  EXPECT_TRUE(classify("PROFILE SELECT * FROM r"));
  EXPECT_FALSE(classify("PROFILE INSERT INTO r VALUES (a)"));

  EXPECT_FALSE(classify("CREATE RELATION r (a STRING)"));
  EXPECT_FALSE(classify("DROP RELATION r"));
  EXPECT_FALSE(classify("INSERT INTO r VALUES (a)"));
  EXPECT_FALSE(classify("DELETE FROM r VALUES (a)"));
  EXPECT_FALSE(classify("UPDATE r SET a = b"));
  EXPECT_FALSE(classify("CHECKPOINT"));
  EXPECT_FALSE(classify("BEGIN"));
  EXPECT_FALSE(classify("COMMIT"));
  EXPECT_FALSE(classify("ROLLBACK"));
}

// The acceptance-criteria torture: 8 sessions — one writer streaming
// §4 inserts/deletes, seven readers hammering every read-only statement
// shape — then a bit-identical comparison against the single-threaded
// oracle replay.
TEST_F(ConcurrencyTest, EightSessionTortureMatchesSingleThreadedOracle) {
  constexpr int kReaders = 7;
  constexpr int kRounds = 200;
  const std::vector<std::string> writes = WriterStatements(kRounds);

  std::string concurrent_bytes;
  {
    auto db = Database::Open(dir_ + "_torture");
    ASSERT_TRUE(db.ok());
    SessionManager sessions(db->get());

    std::atomic<bool> writer_done{false};
    std::atomic<int> read_failures{0};
    std::atomic<long> reads_done{0};

    std::vector<std::thread> readers;
    readers.reserve(kReaders);
    for (int r = 0; r < kReaders; ++r) {
      readers.emplace_back([&sessions, &writer_done, &read_failures,
                            &reads_done, r] {
        auto session = sessions.NewSession();
        const std::vector<std::string> queries = {
            "SELECT COUNT(*) FROM takes",
            "SELECT * FROM takes",
            "SHOW takes",
            "DESCRIBE takes",
            "EXPLAIN SELECT Student FROM takes WHERE Course = c1",
            "STATS takes",
            "LIST",
            "\\metrics prom",
        };
        size_t i = static_cast<size_t>(r);
        while (!writer_done.load(std::memory_order_acquire)) {
          auto out = session->Execute(queries[i++ % queries.size()]);
          // Until the writer's CREATE lands, NotFound is the correct
          // answer; any other failure is a bug.
          if (!out.ok() && out.status().code() != StatusCode::kNotFound) {
            ++read_failures;
          }
          ++reads_done;
        }
      });
    }

    {
      auto writer = sessions.NewSession();
      for (const std::string& stmt : writes) {
        auto out = writer->Execute(stmt);
        ASSERT_TRUE(out.ok()) << stmt << ": " << out.status().ToString();
      }
    }
    writer_done.store(true, std::memory_order_release);
    for (std::thread& t : readers) t.join();

    EXPECT_EQ(read_failures.load(), 0);
    EXPECT_GT(reads_done.load(), 0);
    ASSERT_TRUE((*db)->VerifyIntegrity().ok());
    concurrent_bytes = SerializeAllRelations(db->get());
  }

  // Oracle: same write stream, no concurrency, fresh database.
  auto oracle = Database::Open(dir_ + "_oracle");
  ASSERT_TRUE(oracle.ok());
  {
    SessionManager sessions(oracle->get());
    auto session = sessions.NewSession();
    for (const std::string& stmt : writes) {
      ASSERT_TRUE(session->Execute(stmt).ok()) << stmt;
    }
  }
  ASSERT_TRUE((*oracle)->VerifyIntegrity().ok());
  const std::string oracle_bytes = SerializeAllRelations(oracle->get());

  ASSERT_FALSE(oracle_bytes.empty());
  EXPECT_EQ(concurrent_bytes, oracle_bytes)
      << "concurrent final state diverged from single-threaded oracle";
}

// MVCC torture (DESIGN.md §9): readers pin snapshots while a writer
// streams §4 mutations, and every pinned version must be bit-identical
// to the shadow-oracle state the writer recorded at that version's
// commit boundary — a reader can observe any published state, but
// never a torn or mutated-in-place one. Runs under TSan via the
// concurrency ctest label.
TEST_F(ConcurrencyTest, PinnedSnapshotsMatchShadowOracleStates) {
  constexpr int kReaders = 4;
  constexpr int kRounds = 150;
  const std::vector<std::string> writes = WriterStatements(kRounds);

  auto db = Database::Open(dir_);
  ASSERT_TRUE(db.ok());
  SessionManager sessions(db->get());

  // Shadow oracle: serialized state per published version, recorded by
  // the writer after each statement. Versions are published inside
  // Execute and recorded just after, so a racing reader may pin a
  // version not yet in the map (it skips those) — but a version that
  // IS in the map has immutable expected bytes.
  std::mutex mu;
  std::map<uint64_t, std::string> expected;
  {
    auto snap = (*db)->PinSnapshot();
    ASSERT_NE(snap, nullptr);
    std::lock_guard<std::mutex> lock(mu);
    expected[snap->version()] = SerializeSnapshot(*snap);
  }

  std::atomic<bool> writer_done{false};
  std::atomic<int> mismatches{0};
  std::atomic<long> verified{0};

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      while (!writer_done.load(std::memory_order_acquire)) {
        auto snap = (*db)->PinSnapshot();
        const std::string bytes = SerializeSnapshot(*snap);
        // Re-serializing the same pin must be bit-identical: nothing
        // mutates a published version in place.
        if (bytes != SerializeSnapshot(*snap)) {
          ++mismatches;
          continue;
        }
        std::string want;
        {
          std::lock_guard<std::mutex> lock(mu);
          auto it = expected.find(snap->version());
          if (it == expected.end()) continue;
          want = it->second;
        }
        if (bytes == want) {
          ++verified;
        } else {
          ++mismatches;
        }
      }
    });
  }

  {
    auto writer = sessions.NewSession();
    for (const std::string& stmt : writes) {
      auto out = writer->Execute(stmt);
      ASSERT_TRUE(out.ok()) << stmt << ": " << out.status().ToString();
      // Single writer: the pin right after Execute is exactly the
      // version that statement published.
      auto snap = (*db)->PinSnapshot();
      std::lock_guard<std::mutex> lock(mu);
      expected.emplace(snap->version(), SerializeSnapshot(*snap));
    }
  }
  writer_done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GT(verified.load(), 0);
  ASSERT_TRUE((*db)->VerifyIntegrity().ok());
}

// Relation versions share storage with the live relation (CowVector
// nodes, Cow tuples and postings) and snapshots see the live dictionary
// through a frozen view. A pinned snapshot must come through every
// kind of write unchanged: interns that dirty the live ranks (new INTs
// sort before the STRINGs interned earlier), postings that grow across
// CowVector leaf and level boundaries, DELETEs that split a tuple, and
// a ROLLBACK — while a reader pins and reads the newest version.
TEST_F(ConcurrencyTest, PinnedSnapshotSurvivesCopyOnWriteWrites) {
  Database::Options options;
  options.sync_wal = false;
  auto db = Database::Open(dir_, options);
  ASSERT_TRUE(db.ok());
  const Schema schema({Attribute{"k", ValueType::kInt},
                       Attribute{"a", ValueType::kString},
                       Attribute{"b", ValueType::kInt}});
  const Permutation order{0, 1, 2};
  ASSERT_TRUE((*db)->CreateRelation("t", schema, order).ok());
  std::set<FlatTuple> model;
  auto row = [](int64_t k) {
    return FlatTuple{Value::Int(k), Value::String(StrCat("a", (k & 7))),
                     Value::Int((k >> 3) & 1)};
  };
  auto insert = [&](int64_t k) {
    ASSERT_TRUE((*db)->Insert("t", row(k)).ok()) << k;
    model.insert(row(k));
  };
  auto erase = [&](int64_t k) {
    ASSERT_TRUE((*db)->Delete("t", row(k)).ok()) << k;
    model.erase(row(k));
  };
  ASSERT_TRUE((*db)->Begin().ok());
  for (int64_t k = 1000; k < 1200; ++k) insert(k);
  ASSERT_TRUE((*db)->Commit().ok());

  std::shared_ptr<const DatabaseSnapshot> pinned = (*db)->PinSnapshot();
  auto show = [](const DatabaseSnapshot& snap) {
    return RenderTable(**snap.Relation("t"), "t");
  };
  const std::string pinned_show = show(*pinned);
  const std::string pinned_bytes = SerializeSnapshot(*pinned);
  const size_t pinned_dict = pinned->dictionary()->size();
  // Point lookups in id space: literal -> frozen id -> postings.
  auto lookups = [](const DatabaseSnapshot& snap) {
    std::string out;
    const CanonicalRelation& rel = *snap.FindVersion("t")->relation;
    for (int64_t k : {1000, 1013, 1100, 1199, -5}) {
      std::optional<ValueId> id = snap.dictionary()->Find(Value::Int(k));
      out += StrCat(k, "->", id.has_value() ? StrCat(*id) : "none", ":");
      if (id.has_value()) {
        out += rel.TuplesContainingId(0, *id).ToString();
      }
      out += RenderTable(*snap.Query("t", Predicate::Eq(0, Value::Int(k))));
    }
    return out;
  };
  const std::string pinned_lookups = lookups(*pinned);

  std::atomic<bool> done{false};
  std::atomic<int> torn{0};
  std::atomic<long> reads{0};
  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      std::shared_ptr<const DatabaseSnapshot> snap = (*db)->PinSnapshot();
      const std::string first = SerializeSnapshot(*snap) + lookups(*snap);
      if (first != SerializeSnapshot(*snap) + lookups(*snap)) ++torn;
      if (SerializeSnapshot(*pinned) != pinned_bytes) ++torn;
      ++reads;
    }
  });

  const UpdateStats before = *(*db)->RelationUpdateStats("t");
  // New INT keys below every earlier key, interned after the STRINGs:
  // each one is out of rank order. 1,200 of them carry the key
  // postings across many 32-slot leaves and a new tree level.
  for (int64_t k = -1; k >= -1200; --k) insert(k);
  // Deletes from the middle of nested key components split tuples.
  for (int64_t k = 1001; k < 1200; k += 17) erase(k);
  ASSERT_TRUE((*db)->Begin().ok());
  for (int64_t k = 5000; k < 5040; ++k) {
    ASSERT_TRUE((*db)->Insert("t", row(k)).ok());
  }
  ASSERT_TRUE((*db)->Delete("t", row(-7)).ok());
  ASSERT_TRUE((*db)->Rollback().ok());
  const UpdateStats delta = *(*db)->RelationUpdateStats("t") - before;
  done.store(true, std::memory_order_release);
  reader.join();

  EXPECT_GT(delta.decompositions, 0u);
  EXPECT_EQ(torn.load(), 0);
  EXPECT_GT(reads.load(), 0);
  EXPECT_EQ(show(*pinned), pinned_show);
  EXPECT_EQ(SerializeSnapshot(*pinned), pinned_bytes);
  EXPECT_EQ(lookups(*pinned), pinned_lookups);
  EXPECT_EQ(pinned->dictionary()->size(), pinned_dict);
  // Interned after the pin: invisible to the pinned view, found live.
  EXPECT_FALSE(pinned->dictionary()->Find(Value::Int(-5)).has_value());
  EXPECT_FALSE(pinned->dictionary()->Find(Value::Int(5001)).has_value());
  EXPECT_TRUE((*db)->dictionary()->Find(Value::Int(-5)).has_value());

  // The newest version is Theorem 2's unique canonical form of the
  // rows the writes left.
  std::shared_ptr<const DatabaseSnapshot> newest = (*db)->PinSnapshot();
  NfrRelation oracle = CanonicalForm(
      FlatRelation(schema, std::vector<FlatTuple>(model.begin(), model.end())),
      order);
  EXPECT_EQ(show(*newest), RenderTable(oracle, "t"));
  EXPECT_TRUE((*db)->VerifyIntegrity().ok());
}

// Regression: while session A holds the open transaction, A's second
// BEGIN is rejected by the engine, B's reads proceed, and B's mutations
// bounce with kUnavailable until A resolves the transaction.
TEST_F(ConcurrencyTest, SecondBeginRejectedWhileOtherSessionReads) {
  auto db = Database::Open(dir_);
  ASSERT_TRUE(db.ok());
  SessionManager sessions(db->get());
  auto a = sessions.NewSession();
  auto b = sessions.NewSession();

  ASSERT_TRUE(a->Execute("CREATE RELATION r (x STRING, y STRING)").ok());
  ASSERT_TRUE(a->Execute("INSERT INTO r VALUES (u, v)").ok());
  ASSERT_TRUE(a->Execute("BEGIN").ok());
  ASSERT_TRUE(a->Execute("INSERT INTO r VALUES (w, z)").ok());

  // A second BEGIN on the owning session: engine-level rejection.
  auto second = a->Execute("BEGIN");
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kFailedPrecondition);

  // Another session's read proceeds while the transaction is open.
  // Reads are read-committed against the pinned snapshot: B sees only
  // the last commit boundary, never A's uncommitted (w, z).
  std::thread reader([&b] {
    auto out = b->Execute("SELECT COUNT(*) FROM r");
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    EXPECT_EQ(*out, "1");
  });
  reader.join();

  // A itself still sees its own uncommitted insert (read-your-own-
  // writes goes to the live database, not a snapshot).
  auto own = a->Execute("SELECT COUNT(*) FROM r");
  ASSERT_TRUE(own.ok());
  EXPECT_EQ(*own, "2");

  // Another session's mutation is refused — retryable, not fatal.
  auto blocked = b->Execute("INSERT INTO r VALUES (p, q)");
  ASSERT_FALSE(blocked.ok());
  EXPECT_EQ(blocked.status().code(), StatusCode::kUnavailable);

  ASSERT_TRUE(a->Execute("ROLLBACK").ok());
  // Slot released: B can mutate now.
  ASSERT_TRUE(b->Execute("INSERT INTO r VALUES (p, q)").ok());
  auto count = b->Execute("SELECT COUNT(*) FROM r");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, "2");  // (w, z) was rolled back; (p, q) landed.
}

// A session abandoned mid-transaction must not leak the transaction
// slot: its destructor rolls back.
TEST_F(ConcurrencyTest, AbandonedSessionRollsBackOnDestruction) {
  auto db = Database::Open(dir_);
  ASSERT_TRUE(db.ok());
  SessionManager sessions(db->get());
  auto keeper = sessions.NewSession();
  ASSERT_TRUE(keeper->Execute("CREATE RELATION r (x STRING)").ok());

  {
    auto doomed = sessions.NewSession();
    ASSERT_TRUE(doomed->Execute("BEGIN").ok());
    ASSERT_TRUE(doomed->Execute("INSERT INTO r VALUES (gone)").ok());
    // doomed drops here without COMMIT.
  }

  EXPECT_FALSE((*db)->in_transaction());
  auto count = keeper->Execute("SELECT COUNT(*) FROM r");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, "0");
  // And the slot is actually free.
  ASSERT_TRUE(keeper->Execute("INSERT INTO r VALUES (kept)").ok());
}

}  // namespace
}  // namespace nf2
