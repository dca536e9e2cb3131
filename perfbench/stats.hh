/**
 * @file
 * The benchmark's own statistics: nearest-rank percentiles in which a
 * failed task counts as an infinite latency, the deepest percentile a
 * sample supports, the load-ladder knee, and metric reporting.
 */
#ifndef PERFBENCH_STATS_HH
#define PERFBENCH_STATS_HH

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

namespace perfbench {

/** Latency of a task that was rejected or dropped. */
constexpr double kFailed = std::numeric_limits<double>::infinity();

/** Nearest-rank percentile of an ascending sample (0 when empty). */
inline double
percentileSorted(const std::vector<double> &sorted, double pct)
{
    if (sorted.empty())
        return 0;
    double rank = std::ceil(pct / 100.0 * static_cast<double>(sorted.size()));
    std::size_t i = rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
    return sorted[std::min(i, sorted.size() - 1)];
}

/** Percentile of an unsorted sample (sorts a copy). */
inline double
percentile(std::vector<double> v, double pct)
{
    std::sort(v.begin(), v.end());
    return percentileSorted(v, pct);
}

inline double
median(std::vector<double> v)
{
    return percentile(std::move(v), 50);
}

/**
 * The percentile of each consecutive `chunk`-sized slice of an
 * arrival-ordered sample (a short final slice joins the one before).
 * A metric taken as a quantile of these (quietQuartile) reads the tail
 * within short intervals: a host stall that spoils some intervals does
 * not move it, while a slowdown of every task does. A failed task
 * (kFailed) still counts within its slice.
 */
inline std::vector<double>
chunkPercentiles(const std::vector<double> &inOrder, double pct, std::size_t chunk)
{
    std::vector<double> out;
    const std::size_t n = inOrder.size();
    if (n == 0 || chunk == 0)
        return out;
    const std::size_t chunks = std::max<std::size_t>(1, n / chunk);
    for (std::size_t c = 0; c < chunks; ++c) {
        auto first = inOrder.begin() + static_cast<std::ptrdiff_t>(c * chunk);
        auto last = c + 1 == chunks ? inOrder.end() : first + static_cast<std::ptrdiff_t>(chunk);
        out.push_back(percentile(std::vector<double>(first, last), pct));
    }
    return out;
}

/** Lower quartile of per-interval values (see chunkPercentiles): the
 *  level that a quarter of the intervals stay at or below. */
inline double
quietQuartile(std::vector<double> perInterval)
{
    return percentile(std::move(perInterval), 25);
}

/** The deepest percentile with at least kMinBeyond samples past it. */
struct Tail
{
    double pct = 0;          ///< e.g. 99.9
    double value = 0;        ///< the percentile's value
    std::size_t samples = 0; ///< sample count
    std::size_t beyond = 0;  ///< samples ranked past the percentile
};

constexpr std::size_t kMinBeyond = 10;

inline Tail
deepestTail(const std::vector<double> &sorted)
{
    static const double kLadder[] = {99.999, 99.99, 99.9, 99.0, 90.0, 50.0};
    Tail t;
    t.samples = sorted.size();
    for (double pct : kLadder) {
        double rank = std::ceil(pct / 100.0 * static_cast<double>(t.samples));
        std::size_t beyond = t.samples - static_cast<std::size_t>(rank);
        if (beyond >= kMinBeyond) {
            t.pct = pct;
            t.value = percentileSorted(sorted, pct);
            t.beyond = beyond;
            return t;
        }
    }
    return t; // fewer than kMinBeyond+1 samples: no percentile supported
}

/** One rung of a load ladder. */
struct Rung
{
    double rate = 0;     ///< offered rate (any unit; the knee keeps it)
    double p99 = 0;      ///< LC p99 at that rate (failed = kFailed)
    bool keptUp = true;  ///< no growing backlog at the end of the rung
};

/**
 * Fig. 8's knee: the highest rung whose p99 meets `limit` without a
 * growing backlog. When the rung above it failed on p99 alone, the
 * knee is interpolated between the two at the point where p99 crosses
 * the limit, so the value moves smoothly instead of in rung steps.
 * Rungs are ascending. Returns 0 when no rung passes.
 */
inline double
kneeRate(const std::vector<Rung> &rungs, double limit)
{
    std::size_t h = rungs.size();
    for (std::size_t i = 0; i < rungs.size(); ++i) {
        if (rungs[i].keptUp && rungs[i].p99 <= limit)
            h = i;
    }
    if (h == rungs.size())
        return 0;
    const Rung &pass = rungs[h];
    if (h + 1 == rungs.size())
        return pass.rate;
    const Rung &next = rungs[h + 1];
    if (!next.keptUp || !std::isfinite(next.p99) || next.p99 <= pass.p99)
        return pass.rate;
    double f = (limit - pass.p99) / (next.p99 - pass.p99);
    return pass.rate + (next.rate - pass.rate) * std::clamp(f, 0.0, 1.0);
}

/** A named metric with its unit, as printed in the result line. */
struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

/** True when a name is made of [A-Za-z0-9_.-] and starts with a
 *  letter or a digit. */
inline bool
validMetricName(const std::string &name)
{
    if (name.empty() || name.size() > 64 || !std::isalnum(static_cast<unsigned char>(name[0])))
        return false;
    for (char c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' && c != '.' && c != '-')
            return false;
    }
    return true;
}

} // namespace perfbench

#endif // PERFBENCH_STATS_HH
