#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>

#include "core/nest.h"
#include "engine/database.h"
#include "storage/checkpoint.h"
#include "storage/fault_injection_env.h"
#include "storage/heap_file.h"
#include "storage/page.h"
#include "storage/serde.h"
#include "storage/table.h"
#include "storage/wal.h"
#include "tests/test_util.h"
#include "util/rng.h"

namespace nf2 {
namespace {

/// Creates a fresh scratch directory per test and removes it after.
class StorageTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("nf2_test_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Path(const std::string& name) const {
    return (dir_ / name).string();
  }

  std::filesystem::path dir_;
};

TEST_F(StorageTest, PageInsertReadDelete) {
  Page page;
  std::optional<uint16_t> s0 = page.Insert("record zero");
  std::optional<uint16_t> s1 = page.Insert("record one");
  ASSERT_TRUE(s0.has_value());
  ASSERT_TRUE(s1.has_value());
  EXPECT_EQ(*page.Read(*s0), "record zero");
  EXPECT_EQ(*page.Read(*s1), "record one");
  ASSERT_TRUE(page.Delete(*s0).ok());
  EXPECT_EQ(page.Read(*s0).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(page.Read(*s1).status().code(), StatusCode::kOk);
  EXPECT_EQ(page.Delete(*s0).code(), StatusCode::kNotFound);
  EXPECT_EQ(page.Read(99).status().code(), StatusCode::kOutOfRange);
}

TEST_F(StorageTest, PageFillsUpThenRejects) {
  Page page;
  std::string record(100, 'x');
  size_t inserted = 0;
  while (page.Insert(record).has_value()) {
    ++inserted;
  }
  // ~4096 / 104 ≈ 39 records.
  EXPECT_GT(inserted, 30u);
  EXPECT_LT(inserted, 45u);
  EXPECT_FALSE(page.Insert(record).has_value());
}

TEST_F(StorageTest, PageCompactReclaimsSpace) {
  Page page;
  std::string record(100, 'y');
  std::vector<uint16_t> slots;
  while (true) {
    std::optional<uint16_t> s = page.Insert(record);
    if (!s.has_value()) break;
    slots.push_back(*s);
  }
  // Delete every other record and compact.
  for (size_t i = 0; i < slots.size(); i += 2) {
    ASSERT_TRUE(page.Delete(slots[i]).ok());
  }
  size_t live_before = page.LiveRecords().size();
  page.Compact();
  EXPECT_EQ(page.LiveRecords().size(), live_before);
  EXPECT_TRUE(page.Insert(record).has_value());
}

TEST_F(StorageTest, PageLiveRecordsSkipsTombstones) {
  Page page;
  auto a = page.Insert("a");
  auto b = page.Insert("b");
  auto c = page.Insert("c");
  ASSERT_TRUE(a && b && c);
  ASSERT_TRUE(page.Delete(*b).ok());
  auto live = page.LiveRecords();
  ASSERT_EQ(live.size(), 2u);
  EXPECT_EQ(live[0].second, "a");
  EXPECT_EQ(live[1].second, "c");
}

TEST_F(StorageTest, HeapFileCreateWriteRead) {
  auto hf = HeapFile::Create(Path("t.nf2"));
  ASSERT_TRUE(hf.ok());
  EXPECT_EQ((*hf)->page_count(), 0u);
  Page page;
  page.Insert("persisted");
  ASSERT_TRUE((*hf)->WritePageAt(0, page).ok());
  EXPECT_EQ((*hf)->page_count(), 1u);
  ASSERT_TRUE((*hf)->Sync().ok());

  Page loaded;
  ASSERT_TRUE((*hf)->ReadPage(0, &loaded).ok());
  EXPECT_EQ(*loaded.Read(0), "persisted");
}

TEST_F(StorageTest, HeapFileReopenSeesData) {
  {
    auto hf = HeapFile::Create(Path("t.nf2"));
    ASSERT_TRUE(hf.ok());
    Page page;
    ASSERT_TRUE((*hf)->WritePageAt(0, page).ok());
    page.Insert("second page record");
    ASSERT_TRUE((*hf)->WritePageAt(1, page).ok());
  }
  auto reopened = HeapFile::Open(Path("t.nf2"));
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->page_count(), 2u);
  Page loaded;
  ASSERT_TRUE((*reopened)->ReadPage(1, &loaded).ok());
  EXPECT_EQ(*loaded.Read(0), "second page record");
}

TEST_F(StorageTest, HeapFileErrors) {
  EXPECT_EQ(HeapFile::Open(Path("missing.nf2")).status().code(),
            StatusCode::kNotFound);
  // Non-page-aligned file is corrupt.
  {
    std::ofstream f(Path("bad.nf2"), std::ios::binary);
    f << "stub";
  }
  EXPECT_EQ(HeapFile::Open(Path("bad.nf2")).status().code(),
            StatusCode::kCorruption);
  auto hf = HeapFile::Create(Path("t.nf2"));
  ASSERT_TRUE(hf.ok());
  Page page;
  EXPECT_EQ((*hf)->ReadPage(5, &page).code(), StatusCode::kOutOfRange);
  // Writes may extend the file by one page, never leave a hole.
  EXPECT_EQ((*hf)->WritePageAt(5, page).code(), StatusCode::kOutOfRange);
}

TEST_F(StorageTest, WalAppendAndReadAll) {
  auto wal = WriteAheadLog::Open(Path("wal.log"));
  ASSERT_TRUE(wal.ok());
  WalRecord r1{0, WalOpType::kInsert, "students", "tuple-bytes"};
  WalRecord r2{0, WalOpType::kDelete, "students", "other-bytes"};
  ASSERT_TRUE((*wal)->Append(r1).ok());
  ASSERT_TRUE((*wal)->Append(r2).ok());
  auto read = (*wal)->ReadAll();
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(read->clean_eof);
  const std::vector<WalRecord>& records = read->records;
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].lsn, 1u);
  EXPECT_EQ(records[1].lsn, 2u);
  EXPECT_EQ(records[0].type, WalOpType::kInsert);
  EXPECT_EQ(records[1].payload, "other-bytes");
}

TEST_F(StorageTest, WalLsnsContinueAcrossReopen) {
  {
    auto wal = WriteAheadLog::Open(Path("wal.log"));
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE(
        (*wal)->Append({0, WalOpType::kInsert, "r", "x"}).ok());
  }
  auto wal = WriteAheadLog::Open(Path("wal.log"));
  ASSERT_TRUE(wal.ok());
  EXPECT_EQ((*wal)->next_lsn(), 2u);
  Result<uint64_t> lsn = (*wal)->Append({0, WalOpType::kDelete, "r", "y"});
  ASSERT_TRUE(lsn.ok());
  EXPECT_EQ(*lsn, 2u);
}

TEST_F(StorageTest, WalTornTailIsIgnored) {
  {
    auto wal = WriteAheadLog::Open(Path("wal.log"));
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)->Append({0, WalOpType::kInsert, "r", "ok"}).ok());
  }
  // Simulate a crash mid-append: garbage half-frame at the tail.
  {
    std::ofstream f(Path("wal.log"), std::ios::binary | std::ios::app);
    uint32_t bogus_len = 1000;
    f.write(reinterpret_cast<const char*>(&bogus_len), 4);
    f << "partial";
  }
  auto wal = WriteAheadLog::Open(Path("wal.log"));
  ASSERT_TRUE(wal.ok());
  // Open cut the garbage off, and the surviving prefix is cached.
  EXPECT_TRUE((*wal)->truncated_on_open());
  ASSERT_EQ((*wal)->recovered_records().size(), 1u);
  EXPECT_EQ((*wal)->recovered_records()[0].payload, "ok");
  auto read = (*wal)->ReadAll();
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(read->clean_eof);  // The tail is gone from disk.
  ASSERT_EQ(read->records.size(), 1u);
  EXPECT_EQ(read->records[0].payload, "ok");
}

TEST_F(StorageTest, WalAppendAfterTornTailKeepsNewRecords) {
  // Regression: records appended after a torn tail used to land AFTER
  // the garbage, so replay (which stops at the first bad frame) would
  // silently drop them at the next open. Open must truncate first.
  {
    auto wal = WriteAheadLog::Open(Path("wal.log"));
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)->Append({0, WalOpType::kInsert, "r", "one"}).ok());
  }
  {
    std::ofstream f(Path("wal.log"), std::ios::binary | std::ios::app);
    uint32_t bogus_len = 1000;
    f.write(reinterpret_cast<const char*>(&bogus_len), 4);
    f << "partial";
  }
  {
    auto wal = WriteAheadLog::Open(Path("wal.log"));
    ASSERT_TRUE(wal.ok());
    EXPECT_TRUE((*wal)->truncated_on_open());
    ASSERT_TRUE((*wal)->Append({0, WalOpType::kInsert, "r", "two"}).ok());
    ASSERT_TRUE((*wal)->Append({0, WalOpType::kInsert, "r", "three"}).ok());
  }
  auto wal = WriteAheadLog::Open(Path("wal.log"));
  ASSERT_TRUE(wal.ok());
  EXPECT_FALSE((*wal)->truncated_on_open());
  const std::vector<WalRecord>& records = (*wal)->recovered_records();
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].payload, "one");
  EXPECT_EQ(records[1].payload, "two");
  EXPECT_EQ(records[2].payload, "three");
}

TEST_F(StorageTest, WalCorruptedRecordStopsReplay) {
  {
    auto wal = WriteAheadLog::Open(Path("wal.log"));
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)->Append({0, WalOpType::kInsert, "r", "first"}).ok());
    ASSERT_TRUE((*wal)->Append({0, WalOpType::kInsert, "r", "second"}).ok());
  }
  // Flip a byte inside the second frame's payload.
  {
    std::fstream f(Path("wal.log"),
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekg(0, std::ios::end);
    std::streamoff size = f.tellg();
    f.seekp(size - 8);
    f.put('!');
  }
  auto wal = WriteAheadLog::Open(Path("wal.log"));
  ASSERT_TRUE(wal.ok());
  EXPECT_TRUE((*wal)->truncated_on_open());
  const std::vector<WalRecord>& records = (*wal)->recovered_records();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].payload, "first");
}

TEST_F(StorageTest, WalReset) {
  auto wal = WriteAheadLog::Open(Path("wal.log"));
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE((*wal)->Append({0, WalOpType::kInsert, "r", "x"}).ok());
  ASSERT_TRUE((*wal)->Reset().ok());
  auto read = (*wal)->ReadAll();
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(read->records.empty());
  EXPECT_TRUE(read->clean_eof);
  // The truncate does NOT rewind the LSN counter (positions are
  // globally monotone; see WalPosition): the next append continues the
  // sequence under a bumped epoch.
  EXPECT_EQ((*wal)->next_lsn(), 2u);
  EXPECT_EQ((*wal)->epoch(), 1u);
  EXPECT_EQ((*wal)->epoch_base_lsn(), 2u);
}

TEST_F(StorageTest, WalResetNeverReissuesAnLsn) {
  // Regression: Reset() used to rewind next_lsn_ to 1, so the record
  // after a truncate reused the position of a record before it — a log
  // shipper that saw both would silently drop the second as a
  // duplicate. Positions must be strictly monotone across Reset.
  auto wal = WriteAheadLog::Open(Path("wal.log"));
  ASSERT_TRUE(wal.ok());
  std::vector<uint64_t> lsns;
  for (int i = 0; i < 3; ++i) {
    auto lsn = (*wal)->Append({0, WalOpType::kInsert, "r", StrCat("a", i)});
    ASSERT_TRUE(lsn.ok());
    lsns.push_back(*lsn);
  }
  ASSERT_TRUE((*wal)->Reset().ok());
  for (int i = 0; i < 3; ++i) {
    auto lsn = (*wal)->Append({0, WalOpType::kInsert, "r", StrCat("b", i)});
    ASSERT_TRUE(lsn.ok());
    lsns.push_back(*lsn);
  }
  for (size_t i = 1; i < lsns.size(); ++i) {
    EXPECT_GT(lsns[i], lsns[i - 1]) << "position " << i;
  }
}

TEST_F(StorageTest, WalAdoptDurablePositionSurvivesReopen) {
  // After Reset() + close, the log file is empty — a bare reopen would
  // restart LSNs at 1. The checkpoint manifest persists the position;
  // AdoptDurablePosition folds it forward at recovery.
  uint64_t last_lsn = 0;
  {
    auto wal = WriteAheadLog::Open(Path("wal.log"));
    ASSERT_TRUE(wal.ok());
    for (int i = 0; i < 5; ++i) {
      auto lsn = (*wal)->Append({0, WalOpType::kInsert, "r", "x"});
      ASSERT_TRUE(lsn.ok());
      last_lsn = *lsn;
    }
    ASSERT_TRUE((*wal)->Reset().ok());
  }
  auto wal = WriteAheadLog::Open(Path("wal.log"));
  ASSERT_TRUE(wal.ok());
  (*wal)->AdoptDurablePosition(/*epoch=*/1, /*base_lsn=*/last_lsn + 1);
  EXPECT_EQ((*wal)->epoch(), 1u);
  auto lsn = (*wal)->Append({0, WalOpType::kInsert, "r", "y"});
  ASSERT_TRUE(lsn.ok());
  EXPECT_GT(*lsn, last_lsn);
  // Folding is forward-only: a stale (older) manifest cannot rewind.
  (*wal)->AdoptDurablePosition(/*epoch=*/0, /*base_lsn=*/1);
  EXPECT_EQ((*wal)->epoch(), 1u);
  EXPECT_EQ((*wal)->next_lsn(), *lsn + 1);
}

TEST_F(StorageTest, WalResetFailureFailsClosed) {
  // Regression: when Reset() could not reopen the log file, Append kept
  // writing through the stale (closed) handle. It must fail closed —
  // every Append returns a status until a later Reset succeeds.
  FaultInjectionEnv fenv(Env::Default(), /*seed=*/7);
  auto wal = WriteAheadLog::Open(&fenv, Path("wal.log"), {});
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE((*wal)->Append({0, WalOpType::kInsert, "r", "a"}).ok());
  fenv.Arm(1);  // The next mutating operation dies mid-syscall.
  Status reset = (*wal)->Reset();
  ASSERT_FALSE(reset.ok());
  Result<uint64_t> append = (*wal)->Append({0, WalOpType::kInsert, "r", "b"});
  ASSERT_FALSE(append.ok());
  EXPECT_EQ(append.status().code(), StatusCode::kIOError);
  // Service resumes once a Reset goes through.
  fenv.Arm(1u << 30);  // Clears the kill flag; trigger far away.
  ASSERT_TRUE((*wal)->Reset().ok());
  auto lsn = (*wal)->Append({0, WalOpType::kInsert, "r", "c"});
  ASSERT_TRUE(lsn.ok());
}

TEST_F(StorageTest, WalReleaseRecoveredRecordsFreesTheCache) {
  {
    auto wal = WriteAheadLog::Open(Path("wal.log"));
    ASSERT_TRUE(wal.ok());
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE((*wal)->Append({0, WalOpType::kInsert, "r", "x"}).ok());
    }
  }
  auto wal = WriteAheadLog::Open(Path("wal.log"));
  ASSERT_TRUE(wal.ok());
  ASSERT_EQ((*wal)->recovered_records().size(), 4u);
  (*wal)->ReleaseRecoveredRecords();
  EXPECT_TRUE((*wal)->recovered_records().empty());
  // The file itself is untouched: ReadAll still re-scans on demand.
  auto read = (*wal)->ReadAll();
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->records.size(), 4u);
}

TEST_F(StorageTest, WalTailSubscriptionSeesAppendsAndTruncate) {
  auto wal = WriteAheadLog::Open(Path("wal.log"));
  ASSERT_TRUE(wal.ok());
  std::shared_ptr<WalTailSubscription> tail = (*wal)->SubscribeTail();
  ASSERT_TRUE((*wal)->Append({0, WalOpType::kInsert, "r", "one"}).ok());
  ASSERT_TRUE((*wal)->Append({0, WalOpType::kInsert, "r", "two"}).ok());
  std::vector<WalTailEvent> events =
      tail->Poll(std::chrono::milliseconds(1000));
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, WalTailEvent::Kind::kRecord);
  EXPECT_EQ(events[0].record.payload, "one");
  EXPECT_EQ(events[1].record.lsn, 2u);
  ASSERT_TRUE((*wal)->Reset().ok());
  events = tail->Poll(std::chrono::milliseconds(1000));
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, WalTailEvent::Kind::kTruncate);
  EXPECT_EQ(events[0].epoch, 1u);
  EXPECT_EQ(events[0].record.lsn, 3u);  // New epoch base.
  EXPECT_FALSE(tail->lost());
  EXPECT_FALSE(tail->closed());
}

TEST_F(StorageTest, WalTailSubscriptionOverflowLatchesLost) {
  auto wal = WriteAheadLog::Open(Path("wal.log"));
  ASSERT_TRUE(wal.ok());
  std::shared_ptr<WalTailSubscription> tail =
      (*wal)->SubscribeTail(/*capacity=*/4);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE((*wal)->Append({0, WalOpType::kInsert, "r", "x"}).ok());
  }
  EXPECT_TRUE(tail->lost());
  std::vector<WalTailEvent> events =
      tail->Poll(std::chrono::milliseconds(1000));
  EXPECT_LE(events.size(), 4u);  // Only the newest survive.
  EXPECT_EQ(events.back().record.lsn, 10u);
  tail->ClearLost();
  EXPECT_FALSE(tail->lost());
}

TEST_F(StorageTest, WalTailSubscriptionClosedOnDestruction) {
  std::shared_ptr<WalTailSubscription> tail;
  {
    auto wal = WriteAheadLog::Open(Path("wal.log"));
    ASSERT_TRUE(wal.ok());
    tail = (*wal)->SubscribeTail();
    ASSERT_TRUE((*wal)->Append({0, WalOpType::kInsert, "r", "x"}).ok());
  }
  EXPECT_TRUE(tail->closed());
  std::vector<WalTailEvent> events =
      tail->Poll(std::chrono::milliseconds(100));
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events.back().kind, WalTailEvent::Kind::kClosed);
}

TEST_F(StorageTest, WalRandomCorruptionNeverCrashesAndKeepsPrefix) {
  // Property: flipping any single byte of the log yields, at worst, a
  // clean prefix of the original records — never a crash, never a
  // corrupted record passed through.
  std::vector<WalRecord> original;
  {
    auto wal = WriteAheadLog::Open(Path("wal.log"));
    ASSERT_TRUE(wal.ok());
    for (int i = 0; i < 6; ++i) {
      WalRecord r{0, i % 2 == 0 ? WalOpType::kInsert : WalOpType::kDelete,
                  StrCat("rel", i), StrCat("payload-", i)};
      ASSERT_TRUE((*wal)->Append(r).ok());
    }
    auto all = (*wal)->ReadAll();
    ASSERT_TRUE(all.ok());
    original = all->records;
  }
  std::ifstream in(Path("wal.log"), std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  Rng rng(1234);
  for (int trial = 0; trial < 60; ++trial) {
    std::string corrupted = bytes;
    size_t pos = rng.NextBelow(corrupted.size());
    corrupted[pos] = static_cast<char>(corrupted[pos] ^
                                       (1u << rng.NextBelow(8)));
    std::string path = Path(StrCat("wal_fuzz_", trial, ".log"));
    {
      std::ofstream out(path, std::ios::binary);
      out << corrupted;
    }
    auto wal = WriteAheadLog::Open(path);
    ASSERT_TRUE(wal.ok());
    const std::vector<WalRecord>& records = (*wal)->recovered_records();
    ASSERT_LE(records.size(), original.size());
    for (size_t i = 0; i < records.size(); ++i) {
      // Each surviving record is bit-exact (CRC catches payload damage)
      // OR the damage hit this record and truncated the log before it.
      EXPECT_EQ(records[i], original[i]) << "trial " << trial;
    }
  }
}

// ---- Table files: SerializeTablePages + ReplaceTableFile + flat read --

namespace {
/// Writes `rel` as a fresh flat table file, the way CREATE writes its
/// empty one; returns the file's identity stamp.
Result<uint64_t> WriteFlatTable(const std::string& path,
                                const Schema& schema,
                                const Permutation& nest_order,
                                const NfrRelation& rel) {
  const uint64_t file_id = NewTableFileId();
  NF2_ASSIGN_OR_RETURN(std::vector<Page> pages,
                       SerializeTablePages(schema, nest_order, file_id, rel));
  NF2_RETURN_IF_ERROR(ReplaceTableFile(Env::Default(), path, pages));
  return file_id;
}

/// Overwrites `path` with `bytes`.
void WriteRawFile(const std::string& path, const std::string& bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}
}  // namespace

TEST_F(StorageTest, SerializeTablePagesRejectsBadInputs) {
  Schema schema = Schema::OfStrings({"A"});
  NfrRelation rel(schema);
  rel.Add(NfrTuple{ValueSet(V("ok"))});
  // One giant string value larger than a page.
  rel.Add(NfrTuple{ValueSet(Value::String(std::string(kPageSize + 100, 'x')))});
  EXPECT_EQ(SerializeTablePages(schema, {0}, 1, rel).status().code(),
            StatusCode::kInvalidArgument);
  // A relation of another schema than the table's.
  EXPECT_EQ(SerializeTablePages(Schema::OfStrings({"A", "B"}), {0, 1}, 1,
                                NfrRelation(schema))
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST_F(StorageTest, FlatTableRoundTripsAcrossPages) {
  Schema schema = Schema::OfStrings({"A", "B"});
  // Enough tuples with fat components to span several pages, stored
  // under a non-identity nest order.
  NfrRelation expected(schema);
  for (int i = 0; i < 300; ++i) {
    ValueSet courses;
    for (int j = 0; j < 8; ++j) {
      courses.Insert(V(StrCat("course_with_long_name_", i, "_", j).c_str()));
    }
    expected.Add(NfrTuple{ValueSet(V(StrCat("student", i).c_str())), courses});
  }
  Result<uint64_t> id =
      WriteFlatTable(Path("r.tbl"), schema, {1, 0}, expected);
  ASSERT_TRUE(id.ok()) << id.status();
  auto file = HeapFile::Open(Path("r.tbl"));
  ASSERT_TRUE(file.ok());
  EXPECT_GT((*file)->page_count(), 3u);
  EXPECT_FALSE(std::filesystem::exists(Path("r.tbl.tmp")));

  Result<StoredTable> read = ReadTableFlat(Env::Default(), Path("r.tbl"));
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(read->schema, schema);
  EXPECT_EQ(read->nest_order, (Permutation{1, 0}));
  EXPECT_EQ(read->file_id, *id);
  ASSERT_EQ(read->relation.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(read->relation.tuple(i), expected.tuple(i)) << "tuple " << i;
  }

  // Replacing the file swaps its contents and identity whole.
  NfrRelation fresh(schema);
  fresh.Add(NfrTuple{ValueSet(V("new")), ValueSet(V("x"))});
  Result<uint64_t> id2 = WriteFlatTable(Path("r.tbl"), schema, {1, 0}, fresh);
  ASSERT_TRUE(id2.ok()) << id2.status();
  read = ReadTableFlat(Env::Default(), Path("r.tbl"));
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(read->file_id, *id2);
  EXPECT_TRUE(read->relation.EqualsAsSet(fresh));
}

TEST_F(StorageTest, FlatReadFailsClosed) {
  Env* env = Env::Default();
  Schema schema = Schema::OfStrings({"A", "B"});
  EXPECT_EQ(ReadTableFlat(env, Path("missing.tbl")).status().code(),
            StatusCode::kNotFound);
  // An empty file has no metadata page.
  WriteRawFile(Path("empty.tbl"), "");
  EXPECT_EQ(ReadTableFlat(env, Path("empty.tbl")).status().code(),
            StatusCode::kCorruption);

  Result<uint64_t> id =
      WriteFlatTable(Path("r.tbl"), schema, {0, 1}, NfrRelation(schema));
  ASSERT_TRUE(id.ok()) << id.status();
  Result<std::string> good = env->ReadFileToString(Path("r.tbl"));
  ASSERT_TRUE(good.ok());

  // A torn (non-page-aligned) flat file: flat files are only ever
  // renamed into place whole, so this is corruption, not a crash tail.
  WriteRawFile(Path("torn.tbl"), *good + "tail");
  EXPECT_EQ(ReadTableFlat(env, Path("torn.tbl")).status().code(),
            StatusCode::kCorruption);

  // Bad magic in the metadata record (the record sits at the page tail).
  std::string bad_magic = *good;
  Page page;
  std::memcpy(page.mutable_data(), good->data(), kPageSize);
  Result<std::string> meta = page.Read(0);
  ASSERT_TRUE(meta.ok());
  bad_magic[kPageSize - meta->size()] ^= 0x5a;
  WriteRawFile(Path("magic.tbl"), bad_magic);
  EXPECT_EQ(ReadTableFlat(env, Path("magic.tbl")).status().code(),
            StatusCode::kCorruption);

  // A tuple record whose degree disagrees with the stored schema.
  BufferWriter record;
  EncodeNfrTuple(NfrTuple{ValueSet(V("x"))}, &record);
  ASSERT_TRUE(page.Insert(record.data()).has_value());
  WriteRawFile(Path("degree.tbl"), std::string(page.data(), kPageSize));
  Result<StoredTable> read = ReadTableFlat(env, Path("degree.tbl"));
  EXPECT_EQ(read.status().code(), StatusCode::kCorruption);
  EXPECT_NE(read.status().ToString().find("degree mismatch"),
            std::string::npos)
      << read.status();
}

// ---- Incremental checkpoint manifest (DESIGN.md §12) ------------------

namespace {
/// A relation big enough to span several pages: `n` tuples with a
/// payload string so each record is a few hundred bytes.
NfrRelation BulkRelation(const Schema& schema, size_t n,
                         const std::string& tag) {
  NfrRelation rel(schema);
  for (size_t i = 0; i < n; ++i) {
    rel.Add(NfrTuple{ValueSet(V(StrCat(tag, "_k", i).c_str())),
                     ValueSet(V(std::string(200, 'p').c_str()))});
  }
  return rel;
}

Manifest SampleManifest() {
  Manifest m;
  m.checkpoint_seq = 7;
  m.dict_size = 42;
  TableManifest t;
  t.file_id = 0xDEADBEEFCAFEull;
  t.physical_pages = 5;
  t.pages = {{0, 1, 0x1111}, {3, 7, 0x2222}, {1, 6, 0x3333}};
  m.tables.emplace("acct.tbl", t);
  TableManifest u;
  u.file_id = 99;
  u.physical_pages = 1;
  u.pages = {{0, 2, 0x4444}};
  m.tables.emplace("dept.tbl", u);
  return m;
}
}  // namespace

TEST_F(StorageTest, ManifestRoundTripThroughFile) {
  Manifest m = SampleManifest();
  ASSERT_TRUE(SaveManifestAtomic(Env::Default(), Path("MANIFEST.nf2"), m).ok());
  Result<Manifest> loaded = LoadManifest(Env::Default(), Path("MANIFEST.nf2"));
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(*loaded, m);
}

TEST_F(StorageTest, ManifestMissingIsNotFound) {
  Result<Manifest> loaded = LoadManifest(Env::Default(), Path("nope.nf2"));
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

TEST_F(StorageTest, CorruptManifestFailsClosed) {
  ASSERT_TRUE(SaveManifestAtomic(Env::Default(), Path("MANIFEST.nf2"),
                                 SampleManifest())
                  .ok());
  Result<std::string> bytes =
      Env::Default()->ReadFileToString(Path("MANIFEST.nf2"));
  ASSERT_TRUE(bytes.ok());
  // Every single-byte flip must be detected — the mapping decides which
  // physical page is live, so a wrong guess silently mixes versions.
  for (size_t pos : {size_t{0}, size_t{9}, bytes->size() / 2,
                     bytes->size() - 1}) {
    std::string mutated = *bytes;
    mutated[pos] = static_cast<char>(mutated[pos] ^ 0x40);
    ASSERT_TRUE(
        Env::Default()->WriteFileAtomic(Path("MANIFEST.nf2"), mutated).ok());
    Result<Manifest> loaded =
        LoadManifest(Env::Default(), Path("MANIFEST.nf2"));
    EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption)
        << "flip at byte " << pos << " went undetected";
  }
}

TEST_F(StorageTest, TruncatedManifestFailsClosed) {
  ASSERT_TRUE(SaveManifestAtomic(Env::Default(), Path("MANIFEST.nf2"),
                                 SampleManifest())
                  .ok());
  Result<std::string> bytes =
      Env::Default()->ReadFileToString(Path("MANIFEST.nf2"));
  ASSERT_TRUE(bytes.ok());
  for (size_t keep : {size_t{0}, size_t{3}, size_t{10}, bytes->size() - 1}) {
    ASSERT_TRUE(Env::Default()
                    ->WriteFileAtomic(Path("MANIFEST.nf2"),
                                      bytes->substr(0, keep))
                    .ok());
    Result<Manifest> loaded =
        LoadManifest(Env::Default(), Path("MANIFEST.nf2"));
    EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption)
        << "truncation to " << keep << " bytes went undetected";
  }
}

TEST_F(StorageTest, CheckpointDeltaAdoptsFreshFlatFileWithZeroWrites) {
  Schema schema = Schema::OfStrings({"K", "P"});
  NfrRelation rel = BulkRelation(schema, 60, "a");
  ASSERT_TRUE(WriteFlatTable(Path("r.tbl"), schema, {0, 1}, rel).ok());
  TableManifest entry;
  Result<CheckpointDeltaStats> stats = CheckpointTableDelta(
      Env::Default(), Path("r.tbl"), schema, {0, 1}, rel, &entry,
      /*new_version=*/1);
  ASSERT_TRUE(stats.ok()) << stats.status();
  // The file ReplaceTableFile just produced serializes identically, so
  // adoption costs zero writes.
  EXPECT_EQ(stats->pages_written, 0u);
  EXPECT_GT(stats->pages_skipped, 0u);
  EXPECT_EQ(entry.file_id, ProbeTableFileId(Env::Default(), Path("r.tbl")));
  Result<StoredTable> mapped =
      ReadTableMapped(Env::Default(), Path("r.tbl"), entry);
  ASSERT_TRUE(mapped.ok()) << mapped.status();
  EXPECT_TRUE(mapped->relation.EqualsAsSet(rel));
}

TEST_F(StorageTest, CheckpointDeltaWritesOnlyChangedPages) {
  Schema schema = Schema::OfStrings({"K", "P"});
  NfrRelation rel = BulkRelation(schema, 60, "a");
  ASSERT_TRUE(WriteFlatTable(Path("r.tbl"), schema, {0, 1}, rel).ok());
  TableManifest entry;
  ASSERT_TRUE(CheckpointTableDelta(Env::Default(), Path("r.tbl"), schema,
                                   {0, 1}, rel, &entry, 1)
                  .ok());
  const size_t total_pages = entry.pages.size();
  ASSERT_GT(total_pages, 3u) << "need a multi-page table for this test";
  // Append one tuple: only the last data page (and nothing else)
  // differs in the serialized image.
  rel.Add(NfrTuple{ValueSet(V("late_arrival")),
                   ValueSet(V(std::string(200, 'p').c_str()))});
  Result<CheckpointDeltaStats> stats = CheckpointTableDelta(
      Env::Default(), Path("r.tbl"), schema, {0, 1}, rel, &entry, 2);
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_GT(stats->pages_skipped, 0u);
  EXPECT_LE(stats->pages_written, 2u);
  EXPECT_EQ(stats->bytes_written, stats->pages_written * kPageSize);
  // The mapped read sees the new state, bit-exactly.
  Result<StoredTable> mapped =
      ReadTableMapped(Env::Default(), Path("r.tbl"), entry);
  ASSERT_TRUE(mapped.ok()) << mapped.status();
  EXPECT_TRUE(mapped->relation.EqualsAsSet(rel));
  // Old versions were parked in shadow slots, not overwritten: the
  // pre-delta mapping must still read back the OLD state.
}

TEST_F(StorageTest, CheckpointDeltaPreservesOldMappedVersions) {
  Schema schema = Schema::OfStrings({"K", "P"});
  NfrRelation rel = BulkRelation(schema, 60, "a");
  ASSERT_TRUE(WriteFlatTable(Path("r.tbl"), schema, {0, 1}, rel).ok());
  TableManifest entry;
  ASSERT_TRUE(CheckpointTableDelta(Env::Default(), Path("r.tbl"), schema,
                                   {0, 1}, rel, &entry, 1)
                  .ok());
  TableManifest old_entry = entry;
  NfrRelation old_rel = rel;
  for (size_t i = 0; i < 20; ++i) {
    rel.Add(NfrTuple{ValueSet(V(StrCat("b_k", i).c_str())),
                     ValueSet(V(std::string(200, 'q').c_str()))});
  }
  ASSERT_TRUE(CheckpointTableDelta(Env::Default(), Path("r.tbl"), schema,
                                   {0, 1}, rel, &entry, 2)
                  .ok());
  // Shadow paging: the old manifest's slots are untouched, so a crash
  // before the new manifest lands still recovers the old state.
  Result<StoredTable> old_read =
      ReadTableMapped(Env::Default(), Path("r.tbl"), old_entry);
  ASSERT_TRUE(old_read.ok()) << old_read.status();
  EXPECT_TRUE(old_read->relation.EqualsAsSet(old_rel));
  Result<StoredTable> new_read =
      ReadTableMapped(Env::Default(), Path("r.tbl"), entry);
  ASSERT_TRUE(new_read.ok()) << new_read.status();
  EXPECT_TRUE(new_read->relation.EqualsAsSet(rel));
}

TEST_F(StorageTest, ReadTableMappedDetectsPageCorruption) {
  Schema schema = Schema::OfStrings({"K", "P"});
  NfrRelation rel = BulkRelation(schema, 60, "a");
  ASSERT_TRUE(WriteFlatTable(Path("r.tbl"), schema, {0, 1}, rel).ok());
  TableManifest entry;
  ASSERT_TRUE(CheckpointTableDelta(Env::Default(), Path("r.tbl"), schema,
                                   {0, 1}, rel, &entry, 1)
                  .ok());
  // Scribble into the middle of a mapped page.
  {
    std::fstream f(Path("r.tbl"),
                   std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekp(static_cast<std::streamoff>(kPageSize) + 100);
    f.write("XXXX", 4);
  }
  Result<StoredTable> mapped =
      ReadTableMapped(Env::Default(), Path("r.tbl"), entry);
  EXPECT_EQ(mapped.status().code(), StatusCode::kCorruption);
}

TEST_F(StorageTest, StaleManifestEntryDetectedByIdentityStamp) {
  Schema schema = Schema::OfStrings({"K", "P"});
  NfrRelation rel = BulkRelation(schema, 60, "a");
  ASSERT_TRUE(WriteFlatTable(Path("r.tbl"), schema, {0, 1}, rel).ok());
  TableManifest entry;
  ASSERT_TRUE(CheckpointTableDelta(Env::Default(), Path("r.tbl"), schema,
                                   {0, 1}, rel, &entry, 1)
                  .ok());
  // Wholesale-replace the file (what a DROP + CREATE does): the fresh
  // file carries a new identity stamp, so the old mapping must be
  // recognizably stale — recovery probes the stamp and reads flat.
  NfrRelation fresh = BulkRelation(schema, 5, "fresh");
  ASSERT_TRUE(WriteFlatTable(Path("r.tbl"), schema, {0, 1}, fresh).ok());
  EXPECT_NE(ProbeTableFileId(Env::Default(), Path("r.tbl")), entry.file_id);
  // A mapped read through the stale entry must fail closed, not hand
  // back a mix of old and new pages.
  Result<StoredTable> mapped =
      ReadTableMapped(Env::Default(), Path("r.tbl"), entry);
  EXPECT_EQ(mapped.status().code(), StatusCode::kCorruption);
}

// CREATE's empty table file is SerializeTablePages of the empty
// relation, byte for byte: one slotted page holding only the metadata
// record, packed at the page tail.
TEST_F(StorageTest, CreateRelationWritesSerializedEmptyTable) {
  Schema schema = Schema::OfStrings({"A", "B", "C"});
  const Permutation order{2, 0, 1};
  auto db = Database::Open(dir_.string());
  ASSERT_TRUE(db.ok()) << db.status();
  ASSERT_TRUE((*db)->CreateRelation("r", schema, order).ok());
  Result<std::string> bytes = Env::Default()->ReadFileToString(Path("r.tbl"));
  ASSERT_TRUE(bytes.ok()) << bytes.status();
  const uint64_t id = ProbeTableFileId(Env::Default(), Path("r.tbl"));
  ASSERT_NE(id, 0u);

  Result<std::vector<Page>> pages =
      SerializeTablePages(schema, order, id, NfrRelation(schema));
  ASSERT_TRUE(pages.ok());
  ASSERT_EQ(pages->size(), 1u);
  EXPECT_EQ(*bytes, std::string((*pages)[0].data(), kPageSize));

  // The slotted layout, spelled out: header (slot_count = 1, free_end),
  // one slot (offset, length), zero fill, the metadata record.
  const std::string meta = EncodeTableMeta({schema, order, id});
  const uint16_t offset = static_cast<uint16_t>(kPageSize - meta.size());
  const uint16_t length = static_cast<uint16_t>(meta.size());
  std::string expected(kPageSize, '\0');
  const uint16_t header[4] = {1, offset, offset, length};
  std::memcpy(expected.data(), header, sizeof(header));
  expected.replace(offset, meta.size(), meta);
  EXPECT_EQ(*bytes, expected);
}

TEST_F(StorageTest, HeapFileToleratesTornTailWhenAsked) {
  {
    auto hf = HeapFile::Create(Env::Default(), Path("torn.heap"));
    ASSERT_TRUE(hf.ok());
    Page p;
    p.Format();
    ASSERT_TRUE((*hf)->WritePageAt(0, p).ok());
    ASSERT_TRUE((*hf)->WritePageAt(1, p).ok());
    ASSERT_TRUE((*hf)->Sync().ok());
  }
  // Simulate a crash mid-append: a trailing partial page.
  {
    std::ofstream f(Path("torn.heap"),
                    std::ios::app | std::ios::binary);
    f.write("partial page bytes", 18);
  }
  EXPECT_EQ(HeapFile::Open(Env::Default(), Path("torn.heap"))
                .status()
                .code(),
            StatusCode::kCorruption);
  auto tolerant = HeapFile::Open(Env::Default(), Path("torn.heap"),
                                 /*tolerate_torn_tail=*/true);
  ASSERT_TRUE(tolerant.ok());
  EXPECT_EQ((*tolerant)->page_count(), 2u);
}

}  // namespace
}  // namespace nf2
