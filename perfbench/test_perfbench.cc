/**
 * @file
 * Tests of the benchmark's own logic: seeded schedules, percentiles
 * over failed tasks, the deepest supported percentile, the knee rule
 * and the metric catalogue.
 */
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "metrics.hh"
#include "schedule.hh"
#include "stats.hh"

using namespace perfbench;

namespace {

const Mix kMix{40'000, 3000, 0.005, 2'000'000};

} // namespace

TEST(Schedule, SameSeedSameArrivalsAndServices)
{
    auto a = makeSchedule(7, 2, kMix, 500'000'000);
    auto b = makeSchedule(7, 2, kMix, 500'000'000);
    ASSERT_FALSE(a.empty());
    EXPECT_EQ(a, b);
}

TEST(Schedule, SeedAndStreamChangeTheSchedule)
{
    auto a = makeSchedule(7, 2, kMix, 100'000'000);
    EXPECT_NE(a, makeSchedule(8, 2, kMix, 100'000'000));
    EXPECT_NE(a, makeSchedule(7, 3, kMix, 100'000'000));
}

TEST(Schedule, MatchesTheOfferedMix)
{
    auto s = makeSchedule(3, 1, kMix, 2'000'000'000);
    double lcService = 0;
    std::size_t lc = 0, be = 0;
    std::uint64_t prev = 0;
    for (const Arrival &a : s) {
        EXPECT_GE(a.dueNs, prev);
        EXPECT_LT(a.dueNs, 2'000'000'000u);
        prev = a.dueNs;
        if (a.cls == 1) {
            ++be;
            EXPECT_EQ(a.serviceNs, 2'000'000u);
        } else {
            ++lc;
            EXPECT_GE(a.serviceNs, 100u);
            lcService += static_cast<double>(a.serviceNs);
        }
    }
    EXPECT_NEAR(static_cast<double>(s.size()), 80'000, 1'500); // 40k/s x 2 s
    EXPECT_NEAR(static_cast<double>(be) / static_cast<double>(s.size()), 0.005, 0.0015);
    EXPECT_NEAR(lcService / static_cast<double>(lc), 3000, 100);
}

TEST(Percentiles, NearestRank)
{
    std::vector<double> v;
    for (int i = 1; i <= 100; ++i)
        v.push_back(i);
    EXPECT_EQ(percentile(v, 50), 50);
    EXPECT_EQ(percentile(v, 99), 99);
    EXPECT_EQ(percentile(v, 100), 100);
    EXPECT_EQ(percentile({}, 99), 0);
}

TEST(Percentiles, FailedTasksCountAsInfiniteLatency)
{
    // 98 fast tasks and 2 dropped: p99 must not be a fast latency,
    // so dropping work can never lower the tail.
    std::vector<double> v(98, 10.0);
    v.push_back(kFailed);
    v.push_back(kFailed);
    EXPECT_EQ(percentile(v, 50), 10.0);
    EXPECT_EQ(percentile(v, 99), kFailed);
    // With one drop in 200 the p99 is still finite.
    std::vector<double> w(199, 10.0);
    w.push_back(kFailed);
    EXPECT_EQ(percentile(w, 99), 10.0);
    EXPECT_EQ(percentile(w, 100), kFailed);
}

TEST(Percentiles, ChunkPercentilesIsolateAStalledInterval)
{
    // Five intervals of 100 tasks; the third stalled at 1000 us.
    std::vector<double> v;
    for (int c = 0; c < 5; ++c)
        for (int i = 0; i < 100; ++i)
            v.push_back(c == 2 ? 1000.0 : 10.0 + i % 10);
    EXPECT_EQ(percentile(v, 99), 1000.0);
    std::vector<double> p99 = chunkPercentiles(v, 99, 100);
    ASSERT_EQ(p99.size(), 5u);
    EXPECT_EQ(p99[2], 1000.0);
    EXPECT_EQ(median(p99), 19.0);
    EXPECT_EQ(quietQuartile(p99), 19.0);
    EXPECT_EQ(quietQuartile({5, 1, 4, 2, 3, 6, 8, 7}), 2.0);
    // A short tail joins the last full chunk; a short sample is one.
    EXPECT_EQ(chunkPercentiles(std::vector<double>(250, 1.0), 50, 100).size(), 2u);
    EXPECT_EQ(chunkPercentiles(std::vector<double>(30, 1.0), 50, 100).size(), 1u);
    EXPECT_TRUE(chunkPercentiles({}, 99, 100).empty());
    // Failed tasks still count inside their chunk.
    std::vector<double> lost(100, 10.0);
    lost[50] = kFailed;
    lost[51] = kFailed;
    EXPECT_EQ(chunkPercentiles(lost, 99, 100)[0], kFailed);
}

TEST(Percentiles, DeepestSupportedTail)
{
    auto sample = [](std::size_t n) {
        std::vector<double> v;
        for (std::size_t i = 0; i < n; ++i)
            v.push_back(static_cast<double>(i));
        return v;
    };
    Tail t = deepestTail(sample(100'000));
    EXPECT_EQ(t.pct, 99.99);
    EXPECT_EQ(t.beyond, 10u);
    EXPECT_EQ(t.samples, 100'000u);
    EXPECT_EQ(t.value, 99'989);

    t = deepestTail(sample(99'999)); // 9.9999 past p99.99: too few
    EXPECT_EQ(t.pct, 99.9);
    EXPECT_EQ(t.beyond, 99u);

    t = deepestTail(sample(1000));
    EXPECT_EQ(t.pct, 99.0);
    EXPECT_EQ(t.beyond, 10u);

    t = deepestTail(sample(20));
    EXPECT_EQ(t.pct, 50.0);
    EXPECT_EQ(t.beyond, 10u);

    t = deepestTail(sample(10));
    EXPECT_EQ(t.pct, 0.0);
    EXPECT_EQ(t.beyond, 0u);
}

TEST(Knee, InterpolatesToTheFirstFailingRungAboveTheHighestPass)
{
    std::vector<Rung> rungs{{100, 200, true}, {200, 400, true}, {300, 800, true}};
    // 600 lies halfway between 400 (at 200) and 800 (at 300).
    EXPECT_DOUBLE_EQ(kneeRate(rungs, 600), 250);
}

TEST(Knee, HighestPassingRungCountsAfterANoisyOne)
{
    std::vector<Rung> rungs{{100, 200, true}, {200, 700, true}, {300, 300, true},
                            {400, 5000, true}};
    EXPECT_DOUBLE_EQ(kneeRate(rungs, 600), 300 + 100 * 300.0 / 4700.0);
}

TEST(Knee, BacklogOrLostTasksFailARungWithoutInterpolation)
{
    std::vector<Rung> rungs{{100, 200, true}, {200, 300, false}};
    EXPECT_DOUBLE_EQ(kneeRate(rungs, 600), 100);
    std::vector<Rung> lost{{100, 200, true}, {200, kFailed, true}};
    EXPECT_DOUBLE_EQ(kneeRate(lost, 600), 100);
    EXPECT_DOUBLE_EQ(kneeRate({{100, 500, true}}, 600), 100);
}

TEST(Knee, ZeroWhenNoRungPasses)
{
    EXPECT_EQ(kneeRate({{100, 700, true}, {200, 900, true}}, 600), 0);
    EXPECT_EQ(kneeRate({}, 600), 0);
}

TEST(Metrics, NamesAreValidAndUnique)
{
    std::set<std::string> seen;
    auto checkAll = [&](const auto &defs) {
        for (const MetricDef &d : defs) {
            EXPECT_TRUE(validMetricName(d.name)) << d.name;
            EXPECT_TRUE(seen.insert(d.name).second) << "duplicate " << d.name;
            EXPECT_NE(std::string(d.unit), "");
            EXPECT_NE(std::string(d.shouldMove), "");
        }
    };
    checkAll(kEndToEnd);
    checkAll(kPerLayer);
    EXPECT_FALSE(validMetricName("lc p99"));
    EXPECT_FALSE(validMetricName(".hidden"));
    EXPECT_FALSE(validMetricName(""));
    EXPECT_TRUE(validMetricName("lc_p99_us.idle"));
}
