/**
 * @file
 * Seeded open-loop input schedules for the benchmark's real-runtime
 * workloads. The generator is the benchmark's own (splitmix64), not
 * the library's RNG, so a change to the library never changes the
 * inputs it is measured on.
 */
#ifndef PERFBENCH_SCHEDULE_HH
#define PERFBENCH_SCHEDULE_HH

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

namespace perfbench {

/** splitmix64: one 64-bit state, full period, fast to seed. */
class SplitMix
{
  public:
    SplitMix(std::uint64_t seed, std::uint64_t stream)
        : state_(seed * 0x9e3779b97f4a7c15ULL ^ (stream + 1) * 0xbf58476d1ce4e5b9ULL)
    {
    }

    std::uint64_t
    next()
    {
        std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

    /** Uniform in (0, 1]. */
    double
    unit()
    {
        return (static_cast<double>(next() >> 11) + 1.0) * 0x1.0p-53;
    }

    /** Exponential with the given mean. */
    double exponential(double mean) { return -std::log(unit()) * mean; }

  private:
    std::uint64_t state_;
};

/** One arrival: when it is due (ns from phase start), its service
 *  demand (ns of CPU) and its class (0 = LC, 1 = BE). */
struct Arrival
{
    std::uint64_t dueNs = 0;
    std::uint64_t serviceNs = 0;
    int cls = 0;

    bool operator==(const Arrival &) const = default;
};

/** What one open-loop phase offers. */
struct Mix
{
    double rateRps = 0;          ///< total Poisson arrival rate
    double lcMeanNs = 3000;      ///< LC service: exponential mean
    double beShare = 0;          ///< probability an arrival is BE
    std::uint64_t beServiceNs = 0; ///< BE service (fixed)
};

/**
 * Poisson arrivals over [0, durationNs) for one phase. `stream` names
 * the phase, so two phases of one run draw independent schedules.
 */
inline std::vector<Arrival>
makeSchedule(std::uint64_t seed, std::uint64_t stream, const Mix &mix,
             std::uint64_t durationNs)
{
    SplitMix rng(seed, stream);
    std::vector<Arrival> out;
    out.reserve(static_cast<std::size_t>(
        mix.rateRps * static_cast<double>(durationNs) * 1.1e-9 + 16));
    const double meanGapNs = 1e9 / mix.rateRps;
    double t = rng.exponential(meanGapNs);
    while (t < static_cast<double>(durationNs)) {
        Arrival a;
        a.dueNs = static_cast<std::uint64_t>(t);
        if (mix.beShare > 0 && rng.unit() <= mix.beShare) {
            a.cls = 1;
            a.serviceNs = mix.beServiceNs;
        } else {
            // Floor at 100 ns: a zero-length body would make the
            // sojourn >= service check vacuous.
            a.serviceNs = static_cast<std::uint64_t>(
                std::max(100.0, rng.exponential(mix.lcMeanNs)));
        }
        out.push_back(a);
        t += rng.exponential(meanGapNs);
    }
    return out;
}

} // namespace perfbench

#endif // PERFBENCH_SCHEDULE_HH
