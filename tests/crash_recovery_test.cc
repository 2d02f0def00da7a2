#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "baseline/flat_engine.h"
#include "engine/database.h"
#include "server/session.h"
#include "shard/router.h"
#include "storage/fault_injection_env.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace nf2 {
namespace {

// ---------------------------------------------------------------------
// Torture harness: run a deterministic keyed workload against a
// FaultInjectionEnv, kill the write stream at EVERY mutating syscall in
// turn, drop unsynced state (the reboot), reopen against the real Env,
// and demand that recovery lands on an exact acknowledged state.
//
// The oracle is a shadow FlatBaseline (single-table 1NF engine) per
// relation, snapshotted after every acknowledged unit. A crash during
// unit u+1 must recover to snapshot[u] (the unit's commit record never
// became durable) or to the unit's own post-state (the commit record
// reached disk but the ack was lost) — anything else is lost or
// phantom data.
// ---------------------------------------------------------------------

using Snapshot = std::map<std::string, FlatRelation>;
using ShadowMap = std::map<std::string, FlatBaseline>;

Schema EnrollSchema() {
  return Schema::OfStrings({"Student", "Course", "Club"});
}
Schema AcctSchema() { return Schema::OfStrings({"Owner", "Asset"}); }

FlatBaseline MakeShadow(const Schema& schema) {
  size_t d = schema.degree();
  return FlatBaseline(schema, FdSet(d, {}), MvdSet(d, {}),
                      FlatBaseline::Mode::kSingleTable);
}

Snapshot SnapOf(const ShadowMap& shadow) {
  Snapshot out;
  for (const auto& [name, baseline] : shadow) {
    out.emplace(name, baseline.Scan());
  }
  return out;
}

std::string DescribeSnapshot(const Snapshot& snap) {
  std::string out;
  for (const auto& [name, rel] : snap) {
    out += StrCat(name, "=", rel.size(), " tuples; ");
  }
  return out.empty() ? "(no relations)" : out;
}

/// Number of data-op units in the workload (transactions count as one
/// unit of several ops; the total logical op count exceeds 500).
constexpr int kDataUnits = 520;
constexpr uint64_t kWorkloadSeed = 0xA11CE5EED;

/// Runs the full workload against `db`, mirroring every unit into a
/// shadow oracle. Appends one snapshot per ACKNOWLEDGED unit to
/// `snapshots` (snapshots->front() is the pre-workload empty state) and
/// leaves the in-flight unit's would-be post-state in `candidate`.
/// Returns the first error (the injected kill, in torture runs).
Status RunWorkload(Database* db, std::vector<Snapshot>* snapshots,
                   Snapshot* candidate, size_t* logical_ops) {
  Rng rng(kWorkloadSeed);
  ShadowMap shadow;
  snapshots->clear();
  snapshots->push_back(SnapOf(shadow));
  *candidate = snapshots->front();

  // Runs one unit: `apply` mutates the tentative shadow to the unit's
  // post-state (it doubles as the candidate for a commit-record-durable
  // crash), `db_ops` issues the engine calls.
  auto run_unit = [&](auto&& apply,
                      auto&& db_ops) -> Status {
    ShadowMap tentative = shadow;
    apply(&tentative);
    *candidate = SnapOf(tentative);
    NF2_RETURN_IF_ERROR(db_ops(&tentative));
    shadow = std::move(tentative);
    snapshots->push_back(*candidate);
    return Status::OK();
  };

  // A keyed op against relation `name`: tuples are drawn from a small
  // fixed universe, so inserts and deletes keep hitting the same keys
  // (value sharing exercises the §4 canonical-form maintenance).
  auto random_tuple = [&](const std::string& name) -> FlatTuple {
    if (name == "enroll") {
      return FlatTuple{
          Value::String(StrCat("s", rng.NextBelow(6))),
          Value::String(StrCat("c", rng.NextBelow(4))),
          Value::String(StrCat("k", rng.NextBelow(4)))};
    }
    return FlatTuple{Value::String(StrCat("o", rng.NextBelow(5))),
                     Value::String(StrCat("a", rng.NextBelow(6)))};
  };
  // Insert when absent, delete when present — decided against the
  // tentative shadow so ops inside one transaction compose.
  auto one_op = [&](Database* target, ShadowMap* tentative,
                    const std::string& name) -> Status {
    FlatTuple t = random_tuple(name);
    FlatBaseline& oracle = tentative->at(name);
    if (oracle.Contains(t)) {
      NF2_RETURN_IF_ERROR(oracle.Delete(t));
      ++*logical_ops;
      return target->Delete(name, t);
    }
    NF2_RETURN_IF_ERROR(oracle.Insert(t));
    ++*logical_ops;
    return target->Insert(name, t);
  };
  auto pick_relation = [&](const ShadowMap& s) -> std::string {
    if (s.count("acct") == 0) return "enroll";
    return rng.NextBelow(10) < 7 ? "enroll" : "acct";
  };

  // Unit 1+2: DDL.
  NF2_RETURN_IF_ERROR(run_unit(
      [&](ShadowMap* t) { t->emplace("enroll", MakeShadow(EnrollSchema())); },
      [&](ShadowMap*) {
        return db->CreateRelation("enroll", EnrollSchema(), {0, 1, 2});
      }));
  NF2_RETURN_IF_ERROR(run_unit(
      [&](ShadowMap* t) { t->emplace("acct", MakeShadow(AcctSchema())); },
      [&](ShadowMap*) {
        return db->CreateRelation("acct", AcctSchema(), {1, 0});
      }));

  for (int unit = 0; unit < kDataUnits; ++unit) {
    if (unit > 0 && unit % 40 == 0) {
      // Checkpoint unit: no logical change, heavy I/O — many of the
      // most interesting injection points live here.
      NF2_RETURN_IF_ERROR(run_unit(
          [](ShadowMap*) {}, [&](ShadowMap*) { return db->Checkpoint(); }));
      continue;
    }
    if (unit == 250) {
      NF2_RETURN_IF_ERROR(run_unit(
          [&](ShadowMap* t) { t->erase("acct"); },
          [&](ShadowMap*) { return db->DropRelation("acct"); }));
      continue;
    }
    if (unit == 260) {
      NF2_RETURN_IF_ERROR(run_unit(
          [&](ShadowMap* t) {
            t->emplace("acct", MakeShadow(AcctSchema()));
          },
          [&](ShadowMap*) {
            return db->CreateRelation("acct", AcctSchema(), {1, 0});
          }));
      continue;
    }
    // Decide the unit's shape and keys OUTSIDE run_unit so the random
    // stream is identical whether or not the engine calls fail.
    bool txn_unit = rng.NextBelow(10) == 0;
    size_t txn_ops = 2 + rng.NextBelow(4);
    if (txn_unit) {
      NF2_RETURN_IF_ERROR(run_unit(
          [](ShadowMap*) {},  // Applied inside db_ops via one_op.
          [&](ShadowMap* tentative) -> Status {
            NF2_RETURN_IF_ERROR(db->Begin());
            for (size_t i = 0; i < txn_ops; ++i) {
              NF2_RETURN_IF_ERROR(
                  one_op(db, tentative, pick_relation(*tentative)));
            }
            Status s = db->Commit();
            // The candidate snapshot must carry the tentative state
            // mutated by one_op, so recompute it here.
            *candidate = SnapOf(*tentative);
            return s;
          }));
    } else {
      NF2_RETURN_IF_ERROR(run_unit(
          [](ShadowMap*) {},
          [&](ShadowMap* tentative) -> Status {
            Status s = one_op(db, tentative, pick_relation(*tentative));
            *candidate = SnapOf(*tentative);
            return s;
          }));
    }
  }
  return Status::OK();
}

Result<Snapshot> DbSnapshot(Database* db) {
  Snapshot out;
  for (const std::string& name : db->ListRelations()) {
    NF2_ASSIGN_OR_RETURN(FlatRelation rel, db->Scan(name));
    out.emplace(name, std::move(rel));
  }
  return out;
}

class CrashRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Every killed run logs warnings (torn WAL tails, failed shutdown
    // checkpoints) by design; thousands of them would drown real
    // output.
    SetLogThreshold(LogLevel::kError);
    // Prefer a RAM-backed directory: the sweep issues hundreds of
    // thousands of fsyncs, which are free on tmpfs and painful on disk.
    std::string base = std::filesystem::exists("/dev/shm")
                           ? "/dev/shm"
                           : std::filesystem::temp_directory_path().string();
    dir_ = (std::filesystem::path(base) /
            ("nf2_crash_test_" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name())))
               .string();
    ResetDir();
  }
  void TearDown() override {
    SetLogThreshold(LogLevel::kInfo);
    std::filesystem::remove_all(dir_);
  }

  void ResetDir() {
    std::filesystem::remove_all(dir_);
    ASSERT_TRUE(Env::Default()->CreateDirs(dir_).ok());
  }

  static Database::Options DbOptions() {
    Database::Options options;
    options.enforce_fds = false;
    options.sync_wal = true;
    return options;
  }

  std::string dir_;
};

TEST_F(CrashRecoveryTest, WorkloadRunsCleanWithoutFaults) {
  // Baseline sanity: the workload itself is valid, and the shadow
  // oracle tracks the engine exactly.
  FaultInjectionEnv fault(Env::Default(), /*seed=*/1);
  fault.Arm(UINT64_MAX);
  std::vector<Snapshot> snapshots;
  Snapshot candidate;
  size_t logical_ops = 0;
  {
    auto db = Database::Open(dir_, DbOptions(), &fault);
    ASSERT_TRUE(db.ok()) << db.status();
    Status s = RunWorkload(db->get(), &snapshots, &candidate, &logical_ops);
    ASSERT_TRUE(s.ok()) << s;
    EXPECT_GE(logical_ops, 500u) << "workload must stay >= 500 ops";
    ASSERT_TRUE((*db)->VerifyIntegrity().ok());
    auto state = DbSnapshot(db->get());
    ASSERT_TRUE(state.ok());
    EXPECT_EQ(*state, snapshots.back());
  }
  EXPECT_GT(fault.op_count(), 1000u);  // A real injection surface.
}

TEST_F(CrashRecoveryTest, EveryInjectionPointRecoversExactly) {
  // Pass 1: count the workload's mutating operations.
  uint64_t total_ops = 0;
  {
    FaultInjectionEnv fault(Env::Default(), /*seed=*/0);
    fault.Arm(UINT64_MAX);
    std::vector<Snapshot> snapshots;
    Snapshot candidate;
    size_t logical_ops = 0;
    {
      auto db = Database::Open(dir_, DbOptions(), &fault);
      ASSERT_TRUE(db.ok()) << db.status();
      ASSERT_TRUE(
          RunWorkload(db->get(), &snapshots, &candidate, &logical_ops).ok());
      ASSERT_GE(logical_ops, 500u);
    }  // Destructor checkpoint is part of the op stream.
    total_ops = fault.op_count();
  }
  ASSERT_GT(total_ops, 0u);
  ASSERT_LT(total_ops, 100000u) << "workload op count exploded";

  // CI splits the sweep across parallel jobs: shard i of N takes
  // kill_at = i+1, i+1+N, i+1+2N, ... Striding (rather than contiguous
  // ranges) levels shard runtimes, because checkpoint-heavy stretches
  // of the op stream cost more per injection point than WAL appends.
  // Unset or "0/1" runs every point, so local `ctest` stays exhaustive.
  uint64_t shard = 0;
  uint64_t total_shards = 1;
  if (const char* s = std::getenv("NF2_CRASH_SHARD_INDEX")) {
    shard = std::strtoull(s, nullptr, 10);
  }
  if (const char* s = std::getenv("NF2_CRASH_TOTAL_SHARDS")) {
    total_shards = std::max<uint64_t>(1, std::strtoull(s, nullptr, 10));
  }
  ASSERT_LT(shard, total_shards) << "NF2_CRASH_SHARD_INDEX out of range";

  // Pass 2: one run per injection point. Each starts from a fresh
  // directory, so determinism makes run k identical to the count run
  // up to the kill at mutating op k.
  for (uint64_t kill_at = 1 + shard; kill_at <= total_ops;
       kill_at += total_shards) {
    ResetDir();
    FaultInjectionEnv fault(Env::Default(), /*seed=*/kill_at * 7919);
    fault.Arm(kill_at);
    std::vector<Snapshot> snapshots;
    Snapshot candidate;
    size_t logical_ops = 0;
    {
      auto db = Database::Open(dir_, DbOptions(), &fault);
      if (db.ok()) {
        // The workload stops at the injected kill; the destructor's
        // best-effort checkpoint fails cleanly against the dead env.
        Status ignored =
            RunWorkload(db->get(), &snapshots, &candidate, &logical_ops);
        (void)ignored;
      } else {
        // The kill hit during Open itself; the acknowledged state is
        // the empty database.
        snapshots.assign(1, Snapshot{});
        candidate = Snapshot{};
      }
    }
    ASSERT_TRUE(fault.killed()) << "trigger " << kill_at << " never fired";
    // Reboot: everything unsynced vanishes.
    ASSERT_TRUE(fault.DropUnsyncedState().ok());

    // Recover against the real Env and audit.
    auto db = Database::Open(dir_, DbOptions());
    ASSERT_TRUE(db.ok()) << "kill_at=" << kill_at
                         << " recovery failed: " << db.status();
    Status integrity = (*db)->VerifyIntegrity();
    ASSERT_TRUE(integrity.ok())
        << "kill_at=" << kill_at << ": " << integrity;
    auto state = DbSnapshot(db->get());
    ASSERT_TRUE(state.ok()) << "kill_at=" << kill_at << ": "
                            << state.status();
    const Snapshot& acked = snapshots.back();
    EXPECT_TRUE(*state == acked || *state == candidate)
        << "kill_at=" << kill_at << " recovered to neither the last "
        << "acknowledged state nor the in-flight unit's post-state\n"
        << "  recovered: " << DescribeSnapshot(*state) << "\n"
        << "  acked:     " << DescribeSnapshot(acked) << "\n"
        << "  in-flight: " << DescribeSnapshot(candidate);
    if (::testing::Test::HasFailure()) break;  // One repro is enough.
  }
}

TEST_F(CrashRecoveryTest, IncrementalCheckpointKillSweepRecoversExactly) {
  // A dense sweep over just the SECOND checkpoint's injection points:
  // the first checkpoint builds the page mapping, so the second runs
  // the incremental path (shadow page writes, manifest rename, WAL
  // truncate). A checkpoint changes no logical data, so every kill
  // inside it must recover to exactly the pre-checkpoint state — via
  // the old manifest + full replay before the rename lands, via the
  // new manifest after — and the recovered database must survive a
  // fresh checkpoint (stray shadow pages from the failed attempt are
  // unreferenced slots, not corruption).
  Schema schema = Schema::OfStrings({"K", "P"});
  auto row = [](int i) {
    return FlatTuple{Value::String(StrCat("k", i)),
                     Value::String(StrCat("p", i, "_", std::string(80, 'x')))};
  };
  // Fixed workload; reports the fault-op counts bracketing the second
  // checkpoint. Returns the injected kill in torture runs.
  auto drive = [&](FaultInjectionEnv* fault, uint64_t* before,
                   uint64_t* after) -> Status {
    auto db = Database::Open(dir_, DbOptions(), fault);
    NF2_RETURN_IF_ERROR(db.status());
    NF2_RETURN_IF_ERROR((*db)->CreateRelation("t", schema, {0, 1}));
    for (int i = 0; i < 40; ++i) {
      NF2_RETURN_IF_ERROR((*db)->Insert("t", row(i)));
    }
    NF2_RETURN_IF_ERROR((*db)->Checkpoint());  // Builds the mapping.
    for (int i = 40; i < 44; ++i) {
      NF2_RETURN_IF_ERROR((*db)->Insert("t", row(i)));
    }
    NF2_RETURN_IF_ERROR((*db)->Delete("t", row(0)));
    if (before) *before = fault->op_count();
    NF2_RETURN_IF_ERROR((*db)->Checkpoint());  // Incremental delta.
    if (after) *after = fault->op_count();
    return Status::OK();
  };

  uint64_t before = 0;
  uint64_t after = 0;
  {
    FaultInjectionEnv fault(Env::Default(), /*seed=*/11);
    fault.Arm(UINT64_MAX);
    ASSERT_TRUE(drive(&fault, &before, &after).ok());
  }
  ASSERT_GT(after, before) << "second checkpoint issued no mutating ops";

  FlatRelation expected(schema);
  for (int i = 1; i < 44; ++i) expected.Insert(row(i));

  for (uint64_t kill_at = before + 1; kill_at <= after; ++kill_at) {
    ResetDir();
    FaultInjectionEnv fault(Env::Default(), /*seed=*/kill_at * 131);
    fault.Arm(kill_at);
    {
      Status ignored = drive(&fault, nullptr, nullptr);
      (void)ignored;
    }  // The handle's shutdown checkpoint fails cleanly: the env is dead.
    ASSERT_TRUE(fault.killed()) << "trigger " << kill_at << " never fired";
    ASSERT_TRUE(fault.DropUnsyncedState().ok());

    auto db = Database::Open(dir_, DbOptions());
    ASSERT_TRUE(db.ok()) << "kill_at=" << kill_at
                         << " recovery failed: " << db.status();
    ASSERT_TRUE((*db)->VerifyIntegrity().ok()) << "kill_at=" << kill_at;
    auto scan = (*db)->Scan("t");
    ASSERT_TRUE(scan.ok()) << "kill_at=" << kill_at;
    EXPECT_EQ(*scan, expected)
        << "kill_at=" << kill_at << " recovered " << scan->size()
        << " tuples, want " << expected.size();
    ASSERT_TRUE((*db)->Checkpoint().ok())
        << "kill_at=" << kill_at << ": checkpoint retry after recovery";
    if (::testing::Test::HasFailure()) break;
  }
}

TEST_F(CrashRecoveryTest, CrashCutTransactionIsDiscarded) {
  // A kill between a transaction's data records and its commit marker
  // must discard the whole transaction on recovery.
  FaultInjectionEnv fault(Env::Default(), /*seed=*/3);
  fault.Arm(UINT64_MAX);
  {
    auto db = Database::Open(dir_, DbOptions(), &fault);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE(
        (*db)->CreateRelation("acct", AcctSchema(), {1, 0}).ok());
    ASSERT_TRUE((*db)->Insert("acct", FlatTuple{V("ada"), V("gold")}).ok());
    ASSERT_TRUE((*db)->Begin().ok());
    ASSERT_TRUE(
        (*db)->Insert("acct", FlatTuple{V("bob"), V("gold")}).ok());
    ASSERT_TRUE(
        (*db)->Delete("acct", FlatTuple{V("ada"), V("gold")}).ok());
    // Crash NOW: leak the handle so neither the rollback nor the
    // shutdown checkpoint runs, exactly like a power cut. The txn's
    // data records were appended but never synced (they defer to the
    // commit marker, which never happened).
    (void)(*db).release();
  }
  ASSERT_TRUE(fault.DropUnsyncedState().ok());
  auto db = Database::Open(dir_, DbOptions());
  ASSERT_TRUE(db.ok()) << db.status();
  ASSERT_TRUE((*db)->VerifyIntegrity().ok());
  auto scan = (*db)->Scan("acct");
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->size(), 1u);
  EXPECT_TRUE(scan->Contains(FlatTuple{V("ada"), V("gold")}));
  EXPECT_FALSE(scan->Contains(FlatTuple{V("bob"), V("gold")}));
}

TEST_F(CrashRecoveryTest, AutocommitAfterCrashCutTxnSurvivesSecondRestart) {
  // Regression: a crash-cut transaction leaves an unmatched kTxnBegin
  // in the log. Recovery correctly discarded the cut transaction — but
  // left the log as it was, so records appended after the restart sat
  // inside the still-open region and a SECOND restart discarded them
  // too: acknowledged post-crash writes silently vanished. Recovery
  // must close the region (it logs a kTxnAbort) before serving.
  //
  // The crash here is a process kill, not power loss: WAL appends are
  // unbuffered writes, so the un-synced begin+data records ARE in the
  // file when the next open replays it.
  {
    auto db = Database::Open(dir_, DbOptions());
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->CreateRelation("acct", AcctSchema(), {1, 0}).ok());
    ASSERT_TRUE((*db)->Insert("acct", FlatTuple{V("ada"), V("gold")}).ok());
    ASSERT_TRUE((*db)->Begin().ok());
    ASSERT_TRUE((*db)->Insert("acct", FlatTuple{V("bob"), V("gold")}).ok());
    // Crash 1: the transaction never commits.
    (void)(*db).release();
  }
  {
    // Restart 1: the cut transaction is gone; an autocommit write is
    // acknowledged (synced) on top.
    auto db = Database::Open(dir_, DbOptions());
    ASSERT_TRUE(db.ok()) << db.status();
    ASSERT_TRUE(
        (*db)->Insert("acct", FlatTuple{V("carol"), V("iron")}).ok());
    // Crash 2: no shutdown checkpoint — the next open replays the log.
    (void)(*db).release();
  }
  auto db = Database::Open(dir_, DbOptions());
  ASSERT_TRUE(db.ok()) << db.status();
  ASSERT_TRUE((*db)->VerifyIntegrity().ok());
  auto scan = (*db)->Scan("acct");
  ASSERT_TRUE(scan.ok());
  EXPECT_TRUE(scan->Contains(FlatTuple{V("ada"), V("gold")}));
  EXPECT_TRUE(scan->Contains(FlatTuple{V("carol"), V("iron")}))
      << "acknowledged post-crash write lost by the second restart";
  EXPECT_FALSE(scan->Contains(FlatTuple{V("bob"), V("gold")}));
}

TEST_F(CrashRecoveryTest, WalPositionsStayMonotoneAcrossCheckpointReopen) {
  // Regression: checkpointing truncates the WAL, and Reset() used to
  // rewind the LSN counter to 1 — so append → checkpoint → append →
  // reopen observed the same (epoch, lsn) twice, poisoning any log
  // shipper keyed on positions. The counter must only move forward,
  // surviving both the truncate (in memory) and the reopen (via the
  // manifest).
  std::vector<uint64_t> seen;
  {
    auto db = Database::Open(dir_, DbOptions());
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->CreateRelation("acct", AcctSchema(), {1, 0}).ok());
    ASSERT_TRUE((*db)->Insert("acct", FlatTuple{V("a"), V("x")}).ok());
    seen.push_back((*db)->wal()->position().lsn);
    ASSERT_TRUE((*db)->Checkpoint().ok());
    ASSERT_TRUE((*db)->Insert("acct", FlatTuple{V("b"), V("y")}).ok());
    seen.push_back((*db)->wal()->position().lsn);
    EXPECT_GE((*db)->wal()->epoch(), 1u);
    // Crash (no shutdown checkpoint): reopen must restore the counter
    // from the manifest plus the surviving log.
    (void)(*db).release();
  }
  auto db = Database::Open(dir_, DbOptions());
  ASSERT_TRUE(db.ok()) << db.status();
  // Recovery released the recovered-record cache (it must not pin the
  // replayed log in RAM for the process lifetime).
  EXPECT_TRUE((*db)->wal()->recovered_records().empty());
  ASSERT_TRUE((*db)->Insert("acct", FlatTuple{V("c"), V("z")}).ok());
  seen.push_back((*db)->wal()->position().lsn);
  ASSERT_TRUE((*db)->Checkpoint().ok());
  ASSERT_TRUE((*db)->Insert("acct", FlatTuple{V("d"), V("w")}).ok());
  seen.push_back((*db)->wal()->position().lsn);
  for (size_t i = 1; i < seen.size(); ++i) {
    EXPECT_GT(seen[i], seen[i - 1])
        << "LSN reissued around checkpoint/reopen at step " << i;
  }
}

TEST_F(CrashRecoveryTest, RecoveryCountsOnlyAppliedOps) {
  // A committed 2-op transaction is 4 WAL records (begin, two data
  // records, commit) but exactly 2 operations. After a crash-reopen
  // the counter must say 2 — counting markers would make the
  // auto-checkpoint cadence drift on every recovery.
  {
    auto db = Database::Open(dir_, DbOptions());
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE(
        (*db)->CreateRelation("acct", AcctSchema(), {1, 0}).ok());
    ASSERT_TRUE((*db)->Checkpoint().ok());
    ASSERT_TRUE((*db)->Begin().ok());
    ASSERT_TRUE((*db)->Insert("acct", FlatTuple{V("a"), V("x")}).ok());
    ASSERT_TRUE((*db)->Insert("acct", FlatTuple{V("b"), V("y")}).ok());
    ASSERT_TRUE((*db)->Commit().ok());
    EXPECT_EQ((*db)->wal_records_since_checkpoint(), 2u);
    // Simulate a crash: leak the handle so no shutdown checkpoint runs.
    (void)(*db).release();
  }
  auto db = Database::Open(dir_, DbOptions());
  ASSERT_TRUE(db.ok());
  EXPECT_EQ((*db)->wal_records_since_checkpoint(), 2u)
      << "replay must count applied data ops, not WAL records";
}

// ---------------------------------------------------------------------
// Sharded crash torture (DESIGN.md §13): run a workload that exercises
// the DDL fan-out (CREATE/DROP across all shards), point-routed
// inserts, and a fanned-out CHECKPOINT against a FaultInjectionEnv,
// kill the write stream at every mutating operation in turn, reboot,
// and reopen the shard group. Every shard must recover, the catalogs
// must converge (Open-time straggler healing), and the global state
// must be either the last acknowledged statement's post-state or the
// in-flight statement's — nothing in between, nothing phantom.
// ---------------------------------------------------------------------

constexpr size_t kTortureShards = 3;

/// Global logical state observed through a router session:
/// relation name -> COUNT(*).
using ShardState = std::map<std::string, uint64_t>;

Result<ShardState> ObserveShardState(server::ClientSession* session) {
  ShardState out;
  NF2_ASSIGN_OR_RETURN(std::string listed, session->Execute("LIST"));
  if (listed == "no relations") return out;
  size_t start = 0;
  while (start < listed.size()) {
    size_t nl = listed.find('\n', start);
    if (nl == std::string::npos) nl = listed.size();
    const std::string name = listed.substr(start, nl - start);
    start = nl + 1;
    if (name.empty()) continue;
    NF2_ASSIGN_OR_RETURN(
        std::string count,
        session->Execute(StrCat("SELECT COUNT(*) FROM ", name)));
    out[name] = std::strtoull(count.c_str(), nullptr, 10);
  }
  return out;
}

/// One workload statement plus its effect on the logical model.
struct ShardStep {
  std::string stmt;
  std::function<void(ShardState*)> apply;
};

std::vector<ShardStep> ShardWorkload() {
  auto ins = [](const char* rel) {
    return [rel](ShardState* s) { ++(*s)[rel]; };
  };
  std::vector<ShardStep> steps;
  steps.push_back({"CREATE RELATION acct (Owner STRING, Asset STRING) "
                   "FD Owner -> Asset",
                   [](ShardState* s) { (*s)["acct"] = 0; }});
  steps.push_back({"INSERT INTO acct VALUES (alice, gold)", ins("acct")});
  steps.push_back({"INSERT INTO acct VALUES (bob, silver)", ins("acct")});
  steps.push_back({"INSERT INTO acct VALUES (carol, tin)", ins("acct")});
  steps.push_back({"CHECKPOINT", [](ShardState*) {}});
  steps.push_back({"CREATE RELATION club (Member STRING, Team STRING)",
                   [](ShardState* s) { (*s)["club"] = 0; }});
  steps.push_back({"INSERT INTO club VALUES (dan, red)", ins("club")});
  steps.push_back({"INSERT INTO acct VALUES (erin, lead)", ins("acct")});
  steps.push_back({"CHECKPOINT", [](ShardState*) {}});
  steps.push_back({"DROP RELATION acct",
                   [](ShardState* s) { s->erase("acct"); }});
  steps.push_back({"INSERT INTO club VALUES (fay, blue)", ins("club")});
  return steps;
}

TEST_F(CrashRecoveryTest, ShardedDdlFanoutKillSweepConverges) {
  shard::ShardRouter::Options ropts;
  ropts.shards = kTortureShards;
  ropts.db = DbOptions();
  ropts.parallel_open = false;  // FaultInjectionEnv is single-threaded.
  const std::vector<ShardStep> steps = ShardWorkload();

  // Pass 1: count the workload's mutating operations (and sanity-check
  // that the workload runs clean without faults).
  uint64_t total_ops = 0;
  {
    FaultInjectionEnv fault(Env::Default(), /*seed=*/21);
    fault.Arm(UINT64_MAX);
    {
      auto router = shard::ShardRouter::Open(dir_, ropts, &fault);
      ASSERT_TRUE(router.ok()) << router.status();
      auto session = (*router)->NewClientSession();
      for (const ShardStep& step : steps) {
        auto res = session->Execute(step.stmt);
        ASSERT_TRUE(res.ok()) << step.stmt << ": " << res.status();
      }
    }
    total_ops = fault.op_count();
  }
  ASSERT_GT(total_ops, 0u);
  ASSERT_LT(total_ops, 100000u) << "workload op count exploded";

  // Same CI striding contract as EveryInjectionPointRecoversExactly.
  uint64_t shard_idx = 0;
  uint64_t total_shards = 1;
  if (const char* s = std::getenv("NF2_CRASH_SHARD_INDEX")) {
    shard_idx = std::strtoull(s, nullptr, 10);
  }
  if (const char* s = std::getenv("NF2_CRASH_TOTAL_SHARDS")) {
    total_shards = std::max<uint64_t>(1, std::strtoull(s, nullptr, 10));
  }
  ASSERT_LT(shard_idx, total_shards) << "NF2_CRASH_SHARD_INDEX out of range";

  for (uint64_t kill_at = 1 + shard_idx; kill_at <= total_ops;
       kill_at += total_shards) {
    ResetDir();
    FaultInjectionEnv fault(Env::Default(), /*seed=*/kill_at * 6151);
    fault.Arm(kill_at);
    size_t acked = 0;
    bool attempted_next = false;
    {
      auto router = shard::ShardRouter::Open(dir_, ropts, &fault);
      if (router.ok()) {
        auto session = (*router)->NewClientSession();
        for (const ShardStep& step : steps) {
          attempted_next = true;
          if (!session->Execute(step.stmt).ok()) break;
          attempted_next = false;
          ++acked;
        }
      }
    }
    ASSERT_TRUE(fault.killed()) << "trigger " << kill_at << " never fired";
    ASSERT_TRUE(fault.DropUnsyncedState().ok());

    // Reboot: reopen against the real Env (healing runs inside Open).
    shard::ShardRouter::Options reopen = ropts;
    reopen.parallel_open = true;
    auto router = shard::ShardRouter::Open(dir_, reopen);
    ASSERT_TRUE(router.ok()) << "kill_at=" << kill_at
                             << " recovery failed: " << router.status();

    // Catalog convergence across shards + per-shard integrity.
    std::vector<std::string> names0 = (*router)->shard_db(0)->ListRelations();
    std::sort(names0.begin(), names0.end());
    for (size_t i = 0; i < (*router)->shard_count(); ++i) {
      Status integrity = (*router)->shard_db(i)->VerifyIntegrity();
      ASSERT_TRUE(integrity.ok())
          << "kill_at=" << kill_at << " shard " << i << ": " << integrity;
      std::vector<std::string> names = (*router)->shard_db(i)->ListRelations();
      std::sort(names.begin(), names.end());
      EXPECT_EQ(names, names0)
          << "kill_at=" << kill_at << ": shard " << i
          << " catalog diverged after healing";
    }

    // The global state is the acked prefix's post-state, or — when a
    // statement was in flight at the kill — that statement's.
    ShardState model_acked;
    for (size_t i = 0; i < acked; ++i) steps[i].apply(&model_acked);
    ShardState model_inflight = model_acked;
    if (attempted_next && acked < steps.size()) {
      steps[acked].apply(&model_inflight);
    }
    auto session = (*router)->NewClientSession();
    auto state = ObserveShardState(session.get());
    ASSERT_TRUE(state.ok()) << "kill_at=" << kill_at << ": "
                            << state.status();
    EXPECT_TRUE(*state == model_acked || *state == model_inflight)
        << "kill_at=" << kill_at
        << " recovered to neither the acked nor the in-flight state "
        << "(acked " << acked << " of " << steps.size() << " statements)";
    if (::testing::Test::HasFailure()) break;  // One repro is enough.
  }
}

}  // namespace
}  // namespace nf2
