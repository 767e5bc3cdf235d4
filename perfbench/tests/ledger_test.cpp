// Self-test of the benchmark's arithmetic (perfbench/src/ledger.hpp).
// Run with: python3 perfbench/run.py --selftest
#include "ledger.hpp"

#include <gtest/gtest.h>

namespace perfbench {
namespace {

TEST(Quantile, NearestRank) {
  EXPECT_EQ(quantile({}, 0.5), 0.0);
  EXPECT_EQ(quantile({3, 1, 2}, 0.5), 2.0);
  EXPECT_EQ(quantile({1, 2, 3, 4}, 0.5), 2.0);
  EXPECT_EQ(quantile({1, 2, 3, 4}, 1.0), 4.0);
  EXPECT_EQ(quantile({5, 6}, 0.0), 5.0);
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  EXPECT_EQ(quantile(hundred, 0.99), 99.0);
}

TEST(PerIndexQuantile, ColumnWiseOverRepetitions) {
  EXPECT_TRUE(per_index_quantile({}, 0.9).empty());
  const std::vector<std::vector<double>> reps = {
      {1, 10, 5}, {3, 30, 4}, {2, 20, 6, 99}};
  EXPECT_EQ(per_index_quantile(reps, 1.0), (std::vector<double>{3, 30, 6}));
  EXPECT_EQ(per_index_quantile(reps, 0.5), (std::vector<double>{2, 20, 5}));
  EXPECT_EQ(per_index_quantile({{7, 8}}, 0.9), (std::vector<double>{7, 8}));
}

TEST(EpisodeQuantile, NinetiethButNeverTheSlowest) {
  const auto pick = [](std::size_t n) {
    std::vector<double> xs;
    for (std::size_t i = 1; i <= n; ++i) xs.push_back(static_cast<double>(i));
    return quantile(xs, episode_quantile(n));
  };
  EXPECT_EQ(pick(1), 1.0);
  EXPECT_EQ(pick(2), 1.0);   // second-largest of 2
  EXPECT_EQ(pick(8), 7.0);   // second-largest
  EXPECT_EQ(pick(20), 18.0);  // p90 leaves two above
  EXPECT_EQ(pick(30), 27.0);
}

TEST(ResolvablePercentile, NeedsTenSamplesBeyond) {
  EXPECT_EQ(resolvable_percentile(0), 0.0);
  EXPECT_EQ(resolvable_percentile(19), 0.0);   // median leaves 9 above
  EXPECT_EQ(resolvable_percentile(20), 0.5);   // median leaves 10 above
  EXPECT_EQ(resolvable_percentile(99), 0.5);   // p90 leaves 9 above
  EXPECT_EQ(resolvable_percentile(100), 0.9);
  EXPECT_EQ(resolvable_percentile(999), 0.9);
  EXPECT_EQ(resolvable_percentile(1000), 0.99);
  EXPECT_EQ(resolvable_percentile(10'000), 0.999);
  EXPECT_EQ(resolvable_percentile(100'000), 0.9999);
  EXPECT_EQ(resolvable_percentile(1000, 20), 0.9);
}

TEST(SelfTimes, SubtractsUnionOfChildren) {
  // root [0,100); children [10,30) and [20,50) overlap -> cover 40;
  // grandchild [12,14) belongs to child 1 only.
  std::vector<Span> s = {
      {0, Span::kNoParent, 1, 0, 100},
      {1, 0, 1, 10, 30},
      {1, 0, 1, 20, 50},
      {2, 1, 1, 12, 14},
  };
  const std::vector<std::int64_t> self = self_times(s);
  ASSERT_EQ(self.size(), 4u);
  EXPECT_EQ(self[0], 60);
  EXPECT_EQ(self[1], 18);
  EXPECT_EQ(self[2], 30);
  EXPECT_EQ(self[3], 2);
}

TEST(SelfTimes, ClipsChildrenToParent) {
  std::vector<Span> s = {
      {0, Span::kNoParent, 0, 100, 200},
      {1, 0, 0, 90, 120},   // starts before the parent
      {1, 0, 0, 190, 250},  // ends after it
      {1, 0, 0, 300, 400},  // entirely outside
  };
  EXPECT_EQ(self_times(s)[0], 100 - 20 - 10);
}

TEST(FailedFrac, CountsAgainstAttempted) {
  EXPECT_EQ(failed_frac(0, 0), 0.0);
  EXPECT_EQ(failed_frac(1000, 0), 0.0);
  EXPECT_DOUBLE_EQ(failed_frac(1000, 25), 0.025);
  EXPECT_DOUBLE_EQ(failed_frac(4, 4), 1.0);
}

TEST(Ledger, SumsCostTimesCalls) {
  const std::vector<LedgerEntry> e = {
      {"a", 100.0, 10.0},  // 1000 ns
      {"b", 2.5, 400.0},   // 1000 ns
      {"c", 0.0, 1e9},     // free
  };
  EXPECT_DOUBLE_EQ(e[0].total_ns(), 1000.0);
  EXPECT_DOUBLE_EQ(attributed_frac(e, 4000.0), 0.5);
  EXPECT_DOUBLE_EQ(attributed_frac(e, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(attributed_frac({}, 10.0), 0.0);
}

}  // namespace
}  // namespace perfbench
