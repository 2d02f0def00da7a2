// Coverage for smaller surfaces: statistics, logging, predicates'
// helpers, rendering edge cases, WAL record names.

#include <gtest/gtest.h>

#include <filesystem>

#include "algebra/predicate.h"
#include "core/format.h"
#include "core/nest.h"
#include "core/update.h"
#include "engine/statistics.h"
#include "storage/serde.h"
#include "storage/wal.h"
#include "tests/test_util.h"
#include "util/logging.h"

namespace nf2 {
namespace {

TEST(StatisticsTest, ComputeRelationStats) {
  FlatRelation flat = MakeStringRelation(
      {"A", "B"},
      {{"a1", "b1"}, {"a2", "b1"}, {"a3", "b1"}, {"a4", "b1"}});
  NfrRelation nested = CanonicalForm(flat, {0, 1});
  RelationStats stats = ComputeRelationStats(nested);
  EXPECT_EQ(stats.nfr_tuples, 1u);
  EXPECT_EQ(stats.flat_tuples, 4u);
  EXPECT_DOUBLE_EQ(stats.TupleReduction(), 4.0);
  EXPECT_GT(stats.nfr_bytes, 0u);
  EXPECT_GT(stats.flat_bytes, stats.nfr_bytes);
  EXPECT_GT(stats.ByteReduction(), 1.0);
  stats.name = "r";
  std::string text = stats.ToString();
  EXPECT_NE(text.find("r: 1 NFR tuples"), std::string::npos);
}

// The analytic flat_bytes (derived from component cardinalities,
// Theorem 1) must equal what actually serializing R* would produce —
// pinned here against the materializing computation it replaced.
TEST(StatisticsTest, AnalyticFlatBytesMatchesMaterialized) {
  Rng rng(11);
  for (int round = 0; round < 5; ++round) {
    FlatRelation flat = RandomFlatRelation(&rng, 3, 3, 20);
    NfrRelation nested = CanonicalForm(flat, {1, 2, 0});
    RelationStats stats = ComputeRelationStats(nested);

    BufferWriter materialized;
    EncodeSchema(nested.schema(), &materialized);
    const FlatRelation expanded = nested.Expand();
    for (const FlatTuple& t : expanded.tuples()) {
      EncodeFlatTuple(t, &materialized);
    }
    EXPECT_EQ(stats.flat_bytes, materialized.size());
    EXPECT_EQ(stats.flat_tuples, nested.ExpandedSize());
  }
}

TEST(StatisticsTest, EmptyRelation) {
  NfrRelation empty(Schema::OfStrings({"A"}));
  RelationStats stats = ComputeRelationStats(empty);
  EXPECT_EQ(stats.nfr_tuples, 0u);
  EXPECT_DOUBLE_EQ(stats.TupleReduction(), 1.0);
}

TEST(UpdateStatsTest, SubtractionAndReset) {
  UpdateStats a;
  a.compositions = 10;
  a.decompositions = 6;
  a.recons_calls = 20;
  a.candidate_scans = 100;
  UpdateStats b;
  b.compositions = 4;
  b.decompositions = 2;
  b.recons_calls = 5;
  b.candidate_scans = 40;
  UpdateStats d = a - b;
  EXPECT_EQ(d.compositions, 6u);
  EXPECT_EQ(d.decompositions, 4u);
  EXPECT_EQ(d.recons_calls, 15u);
  EXPECT_EQ(d.candidate_scans, 60u);
  d.Reset();
  EXPECT_EQ(d.compositions, 0u);
}

TEST(FormatTest, EmptyRelationRenders) {
  NfrRelation empty(Schema::OfStrings({"OnlyColumn"}));
  std::string table = RenderTable(empty, "empty");
  EXPECT_NE(table.find("OnlyColumn"), std::string::npos);
  EXPECT_NE(table.find("empty"), std::string::npos);
}

TEST(FormatTest, WideValuesAlign) {
  NfrRelation rel(Schema::OfStrings({"A", "B"}));
  rel.Add(NfrTuple{ValueSet(V("a-very-long-value")), ValueSet(V("b"))});
  rel.Add(NfrTuple{ValueSet(V("x")), ValueSet(V("y"))});
  std::string table = RenderTable(rel);
  // All data lines have equal width.
  std::vector<std::string> lines = Split(table, '\n');
  size_t width = 0;
  for (const std::string& line : lines) {
    if (line.empty()) continue;
    if (width == 0) width = line.size();
    EXPECT_EQ(line.size(), width) << table;
  }
}

TEST(WalTest, OpTypeNames) {
  EXPECT_STREQ(WalOpTypeToString(WalOpType::kInsert), "INSERT");
  EXPECT_STREQ(WalOpTypeToString(WalOpType::kDelete), "DELETE");
  EXPECT_STREQ(WalOpTypeToString(WalOpType::kCreateRelation), "CREATE");
  EXPECT_STREQ(WalOpTypeToString(WalOpType::kDropRelation), "DROP");
  EXPECT_STREQ(WalOpTypeToString(WalOpType::kCheckpoint), "CHECKPOINT");
  EXPECT_STREQ(WalOpTypeToString(WalOpType::kTxnBegin), "TXN_BEGIN");
  EXPECT_STREQ(WalOpTypeToString(WalOpType::kTxnCommit), "TXN_COMMIT");
  EXPECT_STREQ(WalOpTypeToString(WalOpType::kTxnAbort), "TXN_ABORT");
}

TEST(LoggingTest, ThresholdControlsEmission) {
  LogLevel old_threshold = GetLogThreshold();
  SetLogThreshold(LogLevel::kError);
  // These must not crash; visual output is suppressed below threshold.
  NF2_LOG(Debug) << "hidden";
  NF2_LOG(Info) << "hidden";
  NF2_LOG(Warning) << "hidden";
  SetLogThreshold(old_threshold);
}

TEST(LoggingDeathTest, CheckFailureAborts) {
  EXPECT_DEATH(NF2_CHECK(1 == 2) << "boom", "Check failed: 1 == 2 boom");
}

TEST(PredicateTest, MaxAttr) {
  Predicate p = Predicate::And(Predicate::Eq(1, V("x")),
                               Predicate::Not(Predicate::Lt(4, V("y"))));
  EXPECT_EQ(p.MaxAttr(), 4u);
  EXPECT_EQ(Predicate::True().MaxAttr(), 0u);
}

TEST(CanonicalRelationTest, SearchModeAccessor) {
  CanonicalRelation scan(Schema::OfStrings({"A"}), {0},
                         CanonicalRelation::SearchMode::kScan);
  EXPECT_EQ(scan.search_mode(), CanonicalRelation::SearchMode::kScan);
  CanonicalRelation indexed(Schema::OfStrings({"A"}), {0});
  EXPECT_EQ(indexed.search_mode(),
            CanonicalRelation::SearchMode::kIndexed);
}

TEST(CanonicalRelationTest, ContainsRejectsWrongDegree) {
  CanonicalRelation rel(Schema::OfStrings({"A", "B"}), {0, 1});
  EXPECT_FALSE(rel.Contains(FlatTuple{V("x")}));
  EXPECT_FALSE(rel.Contains(FlatTuple{V("x"), V("y"), V("z")}));
}

}  // namespace
}  // namespace nf2
