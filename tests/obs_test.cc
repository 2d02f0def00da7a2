// Observability layer: metrics registry semantics (counters, gauges,
// power-of-two latency histograms), snapshot lookups, text renderers,
// trace span trees, and the §4 mirror invariant (registry counters stay
// bit-identical to CanonicalRelation's UpdateStats).

#include <gtest/gtest.h>

#include <filesystem>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "core/update.h"
#include "engine/database.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tests/test_util.h"

namespace nf2 {
namespace {

TEST(CounterTest, IncrementAndValue) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Increment();
  c.Increment(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(GaugeTest, SetAndAdd) {
  Gauge g;
  g.Set(10);
  g.Add(-3);
  EXPECT_EQ(g.value(), 7);
  g.Set(-5);
  EXPECT_EQ(g.value(), -5);
}

TEST(HistogramTest, BucketIndexIsPowerOfTwo) {
  // Bucket 0 absorbs [0, 2); bucket i holds [2^i, 2^(i+1)).
  EXPECT_EQ(Histogram::BucketIndex(0), 0u);
  EXPECT_EQ(Histogram::BucketIndex(1), 0u);
  EXPECT_EQ(Histogram::BucketIndex(2), 1u);
  EXPECT_EQ(Histogram::BucketIndex(3), 1u);
  EXPECT_EQ(Histogram::BucketIndex(4), 2u);
  EXPECT_EQ(Histogram::BucketIndex(1023), 9u);
  EXPECT_EQ(Histogram::BucketIndex(1024), 10u);
  // Everything past the last boundary lands in the final bucket.
  EXPECT_EQ(Histogram::BucketIndex(std::numeric_limits<uint64_t>::max()),
            Histogram::kBuckets - 1);
}

TEST(HistogramTest, BucketUpperBounds) {
  EXPECT_EQ(Histogram::BucketUpperBound(0), 2u);
  EXPECT_EQ(Histogram::BucketUpperBound(1), 4u);
  EXPECT_EQ(Histogram::BucketUpperBound(10), 2048u);
  EXPECT_EQ(Histogram::BucketUpperBound(Histogram::kBuckets - 1),
            std::numeric_limits<uint64_t>::max());
}

TEST(HistogramTest, ObserveCountSumBuckets) {
  Histogram h;
  h.Observe(1);
  h.Observe(3);
  h.Observe(3);
  h.Observe(1000);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 1007u);
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(1), 2u);
  EXPECT_EQ(h.bucket(9), 1u);
}

TEST(RegistryTest, HandlesAreStableAndShared) {
  MetricsRegistry reg;
  Counter* a = reg.GetCounter("nf2_test_total", "help once");
  Counter* b = reg.GetCounter("nf2_test_total", "ignored second help");
  EXPECT_EQ(a, b);
  a->Increment(5);
  EXPECT_EQ(reg.Snapshot().counter("nf2_test_total"), 5u);
  // Distinct kinds under distinct names never alias.
  EXPECT_NE(static_cast<void*>(reg.GetGauge("nf2_test_gauge")),
            static_cast<void*>(a));
}

TEST(RegistryTest, SnapshotLookups) {
  MetricsRegistry reg;
  reg.GetCounter("c")->Increment(3);
  reg.GetGauge("g")->Set(-7);
  reg.GetHistogram("h")->Observe(100);
  MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.counter("c"), 3u);
  EXPECT_EQ(snap.gauge("g"), -7);
  ASSERT_NE(snap.histogram("h"), nullptr);
  EXPECT_EQ(snap.histogram("h")->count, 1u);
  EXPECT_EQ(snap.histogram("h")->sum, 100u);
  // Absent names are well-defined, not fatal.
  EXPECT_EQ(snap.counter("absent"), 0u);
  EXPECT_EQ(snap.gauge("absent"), 0);
  EXPECT_EQ(snap.histogram("absent"), nullptr);
}

TEST(RegistryTest, HistogramSnapshotStats) {
  MetricsRegistry reg;
  Histogram* h = reg.GetHistogram("lat_ns");
  for (uint64_t i = 0; i < 100; ++i) h->Observe(10);  // Bucket [8,16).
  h->Observe(1 << 20);  // One outlier.
  MetricsSnapshot snap = reg.Snapshot();
  const MetricsSnapshot::HistogramValue* v = snap.histogram("lat_ns");
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->count, 101u);
  EXPECT_NEAR(v->Mean(), (100 * 10 + (1 << 20)) / 101.0, 1e-9);
  // p50 falls in the dense bucket, p99.9 in the outlier's.
  EXPECT_EQ(v->ApproxQuantile(0.5), 16u);
  EXPECT_EQ(v->ApproxQuantile(0.999), uint64_t{1} << 21);
}

TEST(RegistryTest, ConcurrentIncrementsAreExact) {
  MetricsRegistry reg;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&reg] {
      // Registration from all threads concurrently must converge on one
      // counter; the hot-path adds must not lose updates.
      Counter* c = reg.GetCounter("nf2_contended_total");
      Histogram* h = reg.GetHistogram("nf2_contended_ns");
      for (int i = 0; i < kPerThread; ++i) {
        c->Increment();
        h->Observe(static_cast<uint64_t>(i % 64));
      }
    });
  }
  for (std::thread& w : workers) w.join();
  MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.counter("nf2_contended_total"),
            uint64_t{kThreads} * kPerThread);
  EXPECT_EQ(snap.histogram("nf2_contended_ns")->count,
            uint64_t{kThreads} * kPerThread);
}

TEST(RegistryTest, ToStringRendersUnitsByName) {
  MetricsRegistry reg;
  reg.GetCounter("nf2_things_total")->Increment(7);
  reg.GetHistogram("nf2_batch")->Observe(4);
  reg.GetHistogram("nf2_lat_ns")->Observe(2'500'000);  // 2.5 ms.
  std::string text = reg.ToString();
  EXPECT_NE(text.find("nf2_things_total 7"), std::string::npos);
  // Only *_ns histograms render as durations.
  EXPECT_NE(text.find("nf2_batch count=1 mean=4"), std::string::npos);
  EXPECT_NE(text.find("nf2_lat_ns count=1 mean=2.50ms"), std::string::npos);
}

TEST(RegistryTest, PrometheusTextFormat) {
  MetricsRegistry reg;
  reg.GetCounter("nf2_ops_total", "operations")->Increment(9);
  reg.GetGauge("nf2_depth")->Set(3);
  Histogram* h = reg.GetHistogram("nf2_wait_ns", "wait time");
  h->Observe(1);
  h->Observe(5);
  std::string text = reg.ToPrometheusText();
  EXPECT_NE(text.find("# HELP nf2_ops_total operations"), std::string::npos);
  EXPECT_NE(text.find("# TYPE nf2_ops_total counter"), std::string::npos);
  EXPECT_NE(text.find("nf2_ops_total 9"), std::string::npos);
  EXPECT_NE(text.find("# TYPE nf2_depth gauge"), std::string::npos);
  EXPECT_NE(text.find("nf2_depth 3"), std::string::npos);
  EXPECT_NE(text.find("# TYPE nf2_wait_ns histogram"), std::string::npos);
  // Cumulative ladder: the le="2" bucket holds 1, le="8" holds both,
  // and the mandatory +Inf equals the total count.
  EXPECT_NE(text.find("nf2_wait_ns_bucket{le=\"2\"} 1"), std::string::npos);
  EXPECT_NE(text.find("nf2_wait_ns_bucket{le=\"8\"} 2"), std::string::npos);
  EXPECT_NE(text.find("nf2_wait_ns_bucket{le=\"+Inf\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("nf2_wait_ns_sum 6"), std::string::npos);
  EXPECT_NE(text.find("nf2_wait_ns_count 2"), std::string::npos);
}

TEST(MetricHandlesTest, NullRegistryYieldsNoopHandles) {
  GateMetrics gate = GateMetrics::ForRegistry(nullptr);
  EXPECT_EQ(gate.write_acquires, nullptr);
  EXPECT_EQ(gate.write_wait_ns, nullptr);
  UpdatePathMetrics upd = UpdatePathMetrics::ForRegistry(nullptr);
  EXPECT_EQ(upd.compositions, nullptr);
  EXPECT_EQ(upd.recons_ns, nullptr);
}

TEST(MetricHandlesTest, ForRegistryBindsCanonicalNames) {
  MetricsRegistry reg;
  GateMetrics gate = GateMetrics::ForRegistry(&reg);
  ASSERT_NE(gate.write_acquires, nullptr);
  gate.write_acquires->Increment(2);
  UpdatePathMetrics upd = UpdatePathMetrics::ForRegistry(&reg);
  ASSERT_NE(upd.compositions, nullptr);
  upd.compositions->Increment(3);
  MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.counter("nf2_gate_write_acquires_total"), 2u);
  EXPECT_EQ(snap.counter("nf2_compo_total"), 3u);
}

TEST(TraceTest, SpansNestInStackOrder) {
  Trace trace;
  {
    TraceSpan outer(&trace, "outer");
    outer.AddAttr("rows_in", 2);
    {
      TraceSpan inner(&trace, "inner");
      inner.AddAttr("rows_out", 1);
    }
    { TraceSpan sibling(&trace, "sibling"); }
  }
  const SpanNode& root = trace.root();
  ASSERT_EQ(root.children.size(), 1u);
  const SpanNode& outer = *root.children[0];
  EXPECT_EQ(outer.name, "outer");
  ASSERT_EQ(outer.attrs.size(), 1u);
  EXPECT_EQ(outer.attrs[0].first, "rows_in");
  EXPECT_EQ(outer.attrs[0].second, 2);
  ASSERT_EQ(outer.children.size(), 2u);
  EXPECT_EQ(outer.children[0]->name, "inner");
  EXPECT_EQ(outer.children[1]->name, "sibling");
}

TEST(TraceTest, PlanOnlyRenderIsDeterministic) {
  Trace trace;
  {
    TraceSpan op(&trace, "select(r)");
    op.AddAttr("rows_out", 3);
    { TraceSpan scan(&trace, "scan"); }
    { TraceSpan project(&trace, "project"); }
  }
  // kPlanOnly suppresses wall times, so the text is stable.
  EXPECT_EQ(trace.Render(TraceRender::kPlanOnly),
            "select(r) rows_out=3\n"
            "├─ scan\n"
            "└─ project\n");
  // The timed render carries the same shape plus bracketed durations.
  std::string timed = trace.Render(TraceRender::kWithTimes);
  EXPECT_NE(timed.find("select(r) ["), std::string::npos);
  EXPECT_NE(timed.find("rows_out=3"), std::string::npos);
}

TEST(TraceTest, NullTraceSpanIsHistogramProbe) {
  MetricsRegistry reg;
  Histogram* h = reg.GetHistogram("probe_ns");
  {
    TraceSpan span(nullptr, "untraced", h);
    span.AddAttr("ignored", 1);  // Must be a harmless no-op.
    EXPECT_GE(span.ElapsedNs(), 0u);
  }
  EXPECT_EQ(h->count(), 1u);
  // Fully null spans cost nothing and crash nothing.
  { TraceSpan span(nullptr, "noop"); }
}

// The engine invariant the EXPLAIN/PROFILE surface relies on: every
// ++stats_ in the §4 update path also bumps its registry mirror, so the
// database-wide counters are bit-identical to the per-relation
// UpdateStats — not merely close.
TEST(UpdateMirrorTest, RegistryCountersMatchUpdateStatsExactly) {
  MetricsRegistry reg;
  CanonicalRelation rel(Schema::OfStrings({"E1", "E2", "E3"}), {0, 1, 2});
  rel.set_metrics(UpdatePathMetrics::ForRegistry(&reg));

  Rng rng(7);
  FlatRelation flat = RandomFlatRelation(&rng, 3, 4, 60);
  for (const FlatTuple& t : flat.tuples()) {
    ASSERT_TRUE(rel.Insert(t).ok());
  }
  // Delete every third tuple to drive the unnest/recons paths too.
  for (size_t i = 0; i < flat.size(); i += 3) {
    ASSERT_TRUE(rel.Delete(flat.tuple(i)).ok());
  }

  const UpdateStats& stats = rel.stats();
  EXPECT_GT(stats.compositions, 0u);
  EXPECT_GT(stats.decompositions, 0u);
  MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.counter("nf2_compo_total"), stats.compositions);
  EXPECT_EQ(snap.counter("nf2_unnest_total"), stats.decompositions);
  EXPECT_EQ(snap.counter("nf2_recons_total"), stats.recons_calls);
  EXPECT_EQ(snap.counter("nf2_candt_scans_total"), stats.candidate_scans);
  EXPECT_EQ(snap.counter("nf2_candt_ns_total"), stats.find_candidate_ns);
  EXPECT_EQ(snap.counter("nf2_recons_ns_total"), stats.recons_ns);
}

// nf2_snapshot_publish_ns times Database::PublishSnapshot: exactly one
// observation per commit boundary (autocommit write, COMMIT, ROLLBACK),
// none per write inside a transaction.
TEST(PublishHistogramTest, OneObservationPerCommitBoundary) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "nf2_obs_publish_test")
          .string();
  std::filesystem::remove_all(dir);
  {
    Database::Options options;
    options.sync_wal = false;
    auto db = Database::Open(dir, options);
    ASSERT_TRUE(db.ok()) << db.status();
    ASSERT_TRUE((*db)->CreateRelation("r", Schema::OfStrings({"A", "B"}),
                                      {0, 1})
                    .ok());
    auto publishes = [&] {
      const MetricsSnapshot snap = (*db)->MetricsSnapshot();
      const MetricsSnapshot::HistogramValue* h =
          snap.histogram("nf2_snapshot_publish_ns");
      return h == nullptr ? uint64_t{0} : h->count;
    };
    const uint64_t start = publishes();
    EXPECT_GE(start, 1u);  // Recovery and CREATE each published.
    ASSERT_TRUE((*db)->Insert("r", FlatTuple{V("a1"), V("b1")}).ok());
    ASSERT_TRUE((*db)->Insert("r", FlatTuple{V("a2"), V("b1")}).ok());
    ASSERT_TRUE((*db)->Delete("r", FlatTuple{V("a1"), V("b1")}).ok());
    EXPECT_EQ(publishes(), start + 3);

    ASSERT_TRUE((*db)->Begin().ok());
    ASSERT_TRUE((*db)->Insert("r", FlatTuple{V("a3"), V("b2")}).ok());
    ASSERT_TRUE((*db)->Insert("r", FlatTuple{V("a4"), V("b2")}).ok());
    EXPECT_EQ(publishes(), start + 3);
    ASSERT_TRUE((*db)->Commit().ok());
    EXPECT_EQ(publishes(), start + 4);

    ASSERT_TRUE((*db)->Begin().ok());
    ASSERT_TRUE((*db)->Insert("r", FlatTuple{V("a5"), V("b3")}).ok());
    EXPECT_EQ(publishes(), start + 4);
    ASSERT_TRUE((*db)->Rollback().ok());
    EXPECT_EQ(publishes(), start + 5);

    // The shell's and the server's `\metrics prom` render this text.
    const std::string prom = (*db)->MetricsText(/*prometheus=*/true);
    EXPECT_NE(prom.find("nf2_snapshot_publish_ns"), std::string::npos);
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace nf2
