// Percentile, summary and self-time arithmetic of the benchmark reporter.
#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "stats.hpp"
#include "trace.hpp"

namespace livebench {
namespace {

TEST(Percentile, InterpolatesBetweenClosestRanks) {
  const std::vector<double> values{4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(percentile(values, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(values, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(percentile(values, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(percentile(values, 0.25), 1.75);
}

TEST(Percentile, EdgeCases) {
  EXPECT_DOUBLE_EQ(percentile({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(percentile({7.0}, 0.99), 7.0);
  EXPECT_DOUBLE_EQ(percentile({1.0, 2.0}, 2.0), 2.0);  // q clamps to 1
}

TEST(Summary, CountsSamplesBeyondP99) {
  std::vector<double> values;
  for (int i = 1; i <= 1000; ++i) values.push_back(i);
  const Summary summary = summarize(values);
  EXPECT_EQ(summary.count, 1000u);
  EXPECT_DOUBLE_EQ(summary.p50, 500.5);
  EXPECT_DOUBLE_EQ(summary.p99, 990.01);
  EXPECT_EQ(summary.beyond_p99, 10u);  // 991..1000
}

TEST(Summary, SmallSampleHasFewBeyond) {
  std::vector<double> values;
  for (int i = 0; i < 100; ++i) values.push_back(i);
  EXPECT_EQ(summarize(values).beyond_p99, 1u);
}

TEST(SelfTime, NoChildren) { EXPECT_EQ(self_time({10, 50}, {}), 40); }

TEST(SelfTime, DisjointChildren) {
  EXPECT_EQ(self_time({0, 100}, {{10, 20}, {30, 60}}), 60);
}

TEST(SelfTime, OverlappingChildrenCountOnce) {
  EXPECT_EQ(self_time({0, 100}, {{10, 40}, {30, 60}, {35, 50}}), 50);
}

TEST(SelfTime, ChildrenClippedToParent) {
  EXPECT_EQ(self_time({10, 20}, {{0, 15}, {18, 30}}), 3);
  EXPECT_EQ(self_time({10, 20}, {{0, 5}, {25, 30}}), 10);
  EXPECT_EQ(self_time({10, 20}, {{0, 30}}), 0);
}

TEST(SelfTime, EmptyParent) { EXPECT_EQ(self_time({5, 5}, {{0, 10}}), 0); }

// The recorder computes self time online from its span stack; it must
// agree with the interval arithmetic applied to the spans it logged.
TEST(SpanRecorder, OnlineSelfTimeMatchesIntervalArithmetic) {
  SpanRecorder recorder;
  std::mt19937 rng(7);
  int open = 0;
  for (int i = 0; i < 2000; ++i) {
    const bool can_close = open > 0;
    const bool can_open = open < 6;
    if (can_open && (!can_close || rng() % 2 == 0)) {
      recorder.begin(static_cast<SpanKind>(rng() % 3), 0);
      ++open;
    } else {
      recorder.end(rng() % 5);
      --open;
    }
  }
  while (open-- > 0) recorder.end();

  std::int64_t expected[3] = {0, 0, 0};
  std::int64_t total[3] = {0, 0, 0};
  const std::vector<Span>& log = recorder.log();
  for (const Span& span : log) {
    std::vector<Interval> children;
    for (const Span& other : log) {
      if (other.parent == span.id) children.push_back({other.start_ns, other.end_ns});
    }
    const auto kind = static_cast<std::size_t>(span.kind);
    expected[kind] += self_time({span.start_ns, span.end_ns}, children);
    total[kind] += span.end_ns - span.start_ns;
  }
  for (std::size_t kind = 0; kind < 3; ++kind) {
    const SpanTotals& totals = recorder.totals(static_cast<SpanKind>(kind));
    EXPECT_EQ(totals.self_ns, expected[kind]);
    EXPECT_EQ(totals.total_ns, total[kind]);
  }
  EXPECT_EQ(recorder.depth(), 0u);
  EXPECT_EQ(recorder.dropped(), 0u);
}

TEST(SpanRecorder, ParentsNest) {
  SpanRecorder recorder;
  recorder.begin(SpanKind::kPoll, 1);
  recorder.begin(SpanKind::kDrain, 1);
  recorder.end(42);
  recorder.begin(SpanKind::kSend, 1);
  recorder.end();
  recorder.end();
  const std::vector<Span>& log = recorder.log();
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log[0].kind, SpanKind::kDrain);
  EXPECT_EQ(log[0].parent, log[2].id);
  EXPECT_EQ(log[0].update, 42u);
  EXPECT_EQ(log[1].parent, log[2].id);
  EXPECT_EQ(log[2].parent, 0u);
}

}  // namespace
}  // namespace livebench
