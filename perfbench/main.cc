/**
 * @file
 * Benchmark entry point:
 *   perfbench --workload <rt_short|rt_lc_be|sim_fig08> --seed <n>
 *             --seconds <s> --trace <0|1>
 * Prints information lines, then one JSON result line: the end-to-end
 * metrics (untraced run) or the per-layer metrics (traced run).
 */
#include <sched.h>
#include <sys/resource.h>

#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "common.hh"
#include "metrics.hh"

namespace perfbench {

void
RunResult::check(bool ok, const std::string &what)
{
    if (!ok) {
        correct = false;
        std::printf("CHECK FAILED: %s\n", what.c_str());
    }
}

void
RunResult::e2e(const std::string &name, double value, const std::string &unit)
{
    endToEnd.push_back({name, value, unit});
    info(name, value, unit);
}

void
RunResult::layer(const std::string &name, double value, const std::string &unit)
{
    perLayer.push_back({name, value, unit});
    info(name, value, unit);
}

void
info(const std::string &name, double value, const std::string &unit,
     const std::string &note)
{
    std::printf("  %-36s %14.4f %-6s%s%s\n", name.c_str(), value, unit.c_str(),
                note.empty() ? "" : "  ", note.c_str());
}

int
hostCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0)
        return static_cast<int>(std::thread::hardware_concurrency());
    return CPU_COUNT(&set);
}

double
wallSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

namespace {

/** A fixed amount of dependent integer work (~20 ms on one core). */
std::uint64_t
spinWork(std::uint64_t seed)
{
    std::uint64_t x = seed | 1;
    for (int i = 0; i < 20'000'000; ++i)
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    return x;
}

} // namespace

void
warmUp(int threads, double seconds)
{
    // The calling thread is one of the spinners, so the process never
    // runs more than `threads` threads.
    const double until = wallSeconds() + seconds;
    std::atomic<std::uint64_t> sink{0};
    auto spin = [&](std::uint64_t seed) {
        std::uint64_t x = seed | 1;
        while (wallSeconds() < until) {
            for (int k = 0; k < 100'000; ++k)
                x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        }
        sink += x;
    };
    std::vector<std::thread> pool;
    for (int i = 1; i < threads; ++i)
        pool.emplace_back(spin, static_cast<std::uint64_t>(i));
    spin(0);
    for (auto &t : pool)
        t.join();
}

double
parallelCapacity(int threads)
{
    std::atomic<std::uint64_t> sink{0};
    auto timed = [&](int n) {
        double t0 = wallSeconds();
        std::vector<std::thread> pool;
        for (int i = 1; i < n; ++i)
            pool.emplace_back([&, i] { sink += spinWork(static_cast<std::uint64_t>(i)); });
        sink += spinWork(0);
        for (auto &t : pool)
            t.join();
        return wallSeconds() - t0;
    };
    // Median of three of each, alternating, to damp one-off stalls.
    std::vector<double> one, many;
    for (int r = 0; r < 3; ++r) {
        one.push_back(timed(1));
        many.push_back(timed(threads));
    }
    return threads * median(one) / median(many);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB -> MiB
}

namespace {

void
printMetrics(const std::vector<Metric> &metrics)
{
    std::printf("\"metrics\": {");
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const Metric &m = metrics[i];
        // %.17g keeps every digit; JSON has no inf/nan, so a
        // non-finite value (a percentile over failed tasks) is capped.
        double v = std::isfinite(m.value) ? m.value : 1e300;
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", m.name.c_str(), v, m.unit.c_str());
    }
    std::printf("}");
}

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload <rt_short|"
                 "rt_lc_be|sim_fig08> --seed <n> --seconds <s> --trace <0|1>\n",
                 why);
    return 2;
}

} // namespace

} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    RunOptions opt;
    for (int i = 1; i + 1 < argc; i += 2) {
        const char *k = argv[i], *v = argv[i + 1];
        if (!std::strcmp(k, "--workload"))
            opt.workload = v;
        else if (!std::strcmp(k, "--seed"))
            opt.seed = std::strtoull(v, nullptr, 10);
        else if (!std::strcmp(k, "--seconds"))
            opt.seconds = std::strtod(v, nullptr);
        else if (!std::strcmp(k, "--trace"))
            opt.trace = std::strcmp(v, "0") != 0;
        else
            return usage("unknown flag");
    }
    if (argc % 2 != 1)
        return usage("every flag takes a value");
    if (!(opt.seconds >= 1 && opt.seconds <= 600))
        return usage("--seconds must be in [1, 600]");

    std::printf("perfbench workload=%s seed=%" PRIu64 " seconds=%g trace=%d\n",
                opt.workload.c_str(), opt.seed, opt.seconds, opt.trace ? 1 : 0);
    RunResult r;
    if (opt.workload == "rt_short" || opt.workload == "rt_lc_be")
        r = runRealtime(opt);
    else if (opt.workload == "sim_fig08")
        r = runSimFig08(opt);
    else
        return usage("unknown workload");

    // Print by the catalogue: an end-to-end metric must have been
    // measured; a per-layer one the workload does not exercise is 0.
    std::vector<Metric> out;
    auto select = [&](const auto &defs, const std::vector<Metric> &got, bool required) {
        for (const MetricDef &d : defs) {
            Metric m{d.name, 0, d.unit};
            bool found = false;
            for (const Metric &g : got) {
                if (g.name == d.name) {
                    found = true;
                    m.value = g.value;
                    r.check(g.unit == d.unit, "unit of " + g.name);
                }
            }
            r.check(found || !required, std::string("measured ") + d.name);
            r.check(validMetricName(m.name), "metric name " + m.name);
            out.push_back(m);
        }
        for (const Metric &g : got) {
            bool known = false;
            for (const MetricDef &d : defs)
                known |= g.name == d.name;
            r.check(known, "catalogued " + g.name);
        }
    };
    if (opt.trace) {
        select(kPerLayer, r.perLayer, false);
        std::printf("per-layer metric -> layer; the end-to-end metric@workload it should move\n");
        for (const MetricDef &d : kPerLayer)
            std::printf("  %-32s %-16s %s\n", d.name, d.layer, d.shouldMove);
    } else {
        select(kEndToEnd, r.endToEnd, true);
    }
    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64 ", ",
                r.correct ? "true" : "false", r.attempted, r.failed);
    printMetrics(out);
    std::printf("}\n");
    return 0;
}
