/**
 * @file
 * Golden renderings of the obs plane: renderTelemetryJson (checksum
 * included, so the checksum's field order is pinned too) of a fixed,
 * hand-built TelemetrySnapshot, MetricsRegistry::toJson() of a fixed
 * registry, and the Prometheus exposition of the same snapshot.
 *
 * The JSON goldens are byte-for-byte. The Prometheus golden pins the
 * multiset of sample lines; the exposition grouping (one TYPE line per
 * family, a family's samples contiguous) is checked structurally, so
 * the sample set and the family layout are pinned separately. (The
 * golden text predates the grouping: it repeats TYPE lines per series,
 * which is why only its sample lines are compared.)
 *
 * On a mismatch the rendered text is written to <name>.actual in the
 * working directory, for diffing against tests/golden/<name>.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "obs/metrics.hh"
#include "obs/telemetry.hh"

namespace preempt {
namespace {

std::string
readGolden(const std::string &name)
{
    std::ifstream in(std::string(PREEMPT_GOLDEN_DIR) + "/" + name);
    EXPECT_TRUE(in) << "missing golden file " << name;
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

/** Compare against a golden file; dump the actual text on mismatch. */
void
expectGolden(const std::string &name, const std::string &actual)
{
    std::string expected = readGolden(name);
    if (actual != expected) {
        std::ofstream(name + ".actual") << actual;
        ADD_FAILURE() << name << " differs from its golden; wrote "
                      << name << ".actual";
    }
}

#ifndef PREEMPT_OBS_DISABLED

using obs::TelemetrySnapshot;

TelemetrySnapshot::TimerStats
stats(std::uint64_t count, std::uint64_t base, double mean)
{
    TelemetrySnapshot::TimerStats s;
    s.count = count;
    s.min = base;
    s.max = base * 9;
    s.mean = mean;
    s.p50 = base * 2;
    s.p90 = base * 4;
    s.p99 = base * 7;
    s.p999 = base * 8;
    return s;
}

TelemetrySnapshot::TimerSample
timer(const std::string &name, std::uint64_t count, std::uint64_t base,
      double mean, bool windowed)
{
    TelemetrySnapshot::TimerSample t;
    static_cast<TelemetrySnapshot::TimerStats &>(t) =
        stats(count, base, mean);
    t.name = name;
    t.windowed = windowed;
    if (windowed)
        t.window = stats(count / 4, base + 1, mean / 3);
    return t;
}

TelemetrySnapshot::CounterSample
counter(const std::string &name, std::uint64_t value, double rate,
        double windowRate, std::uint64_t resets)
{
    TelemetrySnapshot::CounterSample c;
    c.name = name;
    c.value = value;
    c.ratePerSec = rate;
    c.windowRatePerSec = windowRate;
    c.resets = resets;
    return c;
}

TelemetrySnapshot::GaugeSample
gauge(const std::string &name, std::int64_t value, std::int64_t wm,
      std::int64_t windowWm)
{
    TelemetrySnapshot::GaugeSample g;
    g.name = name;
    g.value = value;
    g.watermark = wm;
    g.windowWatermark = windowWm;
    return g;
}

TelemetrySnapshot::TenantSpans
tenant(std::uint32_t id, std::uint64_t base)
{
    TelemetrySnapshot::TenantSpans t;
    t.tenant = id;
    t.completed = 100 * base;
    t.cancelled = base;
    t.violations = 2 * base;
    t.queued = timer("queued", t.completed, base * 10, 31.25, false);
    t.running = timer("running", t.completed, base * 100, 402.5, false);
    t.preempted = timer("preempted", t.completed, base * 3, 7.0, false);
    t.timerLag = timer("timer_lag", t.completed, base, 1.5, false);
    t.total = timer("total", t.completed, base * 120, 442.25, false);
    t.window.completed = 10 * base;
    t.window.cancelled = base / 2;
    t.window.violations = base;
    t.window.queued = stats(10 * base, base * 11, 33.0);
    t.window.running = stats(10 * base, base * 101, 404.0);
    t.window.preempted = stats(10 * base, base * 4, 8.5);
    t.window.timerLag = stats(10 * base, base + 1, 2.0);
    t.window.total = stats(10 * base, base * 121, 447.75);
    return t;
}

/**
 * Two tenants, windowed timers, per-worker gauges, per-core timers, a
 * counter with resets, a non-finite rate and a name needing escapes.
 */
TelemetrySnapshot
fixtureSnapshot()
{
    TelemetrySnapshot snap;
    snap.seq = 42;
    snap.wallNs = 1700000000123456789ULL;
    snap.monoNs = 987654321012ULL;
    snap.uptimeSec = 12.5;
    snap.intervalSec = 0.05;
    snap.windowSec = 0.5;
    snap.windowEpochs = 10;
    snap.counters = {
        counter("control.admitted.lc/t1", 900, 180.0, 175.5, 0),
        counter("control.admitted.lc/t2", 40, 8.0, 7.25, 0),
        counter("runtime.completed", 12345, 2469.0, 2400.125, 2),
        counter("runtime/t1.submitted", 777, 155.4, 150.0, 1),
        counter("runtime/t2.submitted", 333, 66.6,
                std::numeric_limits<double>::infinity(), 0),
        counter("odd\"name\\x", 1, 0.0, 0.0, 0),
    };
    snap.gauges = {
        gauge("runtime.in_flight", 3, 17, 9),
        gauge("runtime.worker.deque_depth/t1.w0", 4, 12, 6),
        gauge("runtime.worker.deque_depth/t1.w1", 0, 8, 2),
        gauge("runtime.worker.deque_depth/t2.w0", 1, 5, 5),
        gauge("runtime.worker.last_preempt_age_ns/w0", -1, 250000, -1),
        gauge("runtime.worker.last_preempt_age_ns/w1", 1200, 90000,
              4000),
    };
    snap.timers = {
        timer("runtime.sojourn_ns/core0", 5000, 900, 2750.5, true),
        timer("runtime.sojourn_ns/core1", 4000, 800, 2500.25, true),
        timer("utimer.delivery_ns", 300, 50, 120.0, false),
        timer("wheel.fire_lag_ns/shard0", 64, 7, 15.125, true),
    };
    snap.spans = {tenant(1, 3), tenant(2, 5)};
    snap.spanInvariantViolations = 1;
    snap.spanAnomalies = 4;
    snap.checksum = snap.computeChecksum();
    return snap;
}

/** Sample lines (everything but comments), sorted. */
std::vector<std::string>
sampleLines(const std::string &text)
{
    std::vector<std::string> out;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line))
        if (!line.empty() && line[0] != '#')
            out.push_back(line);
    std::sort(out.begin(), out.end());
    return out;
}

TEST(RenderGolden, TelemetryJsonIsByteIdentical)
{
    expectGolden("telemetry_snapshot.json",
                 obs::renderTelemetryJson(fixtureSnapshot()));
}

TEST(RenderGolden, ChecksumIsPinned)
{
    TelemetrySnapshot snap = fixtureSnapshot();
    EXPECT_EQ(snap.checksum, snap.computeChecksum());
    // The JSON golden carries the checksum; changing any field must
    // change it (a part skipped by the hash would leave it unchanged).
    snap.spans[1].window.timerLag.p999 += 1;
    EXPECT_NE(snap.checksum, snap.computeChecksum());
}

TEST(RenderGolden, PrometheusSamplesMatchGolden)
{
    std::string text = obs::renderPrometheus(fixtureSnapshot());
    std::string golden = readGolden("telemetry_snapshot.prom");
    if (sampleLines(text) != sampleLines(golden)) {
        std::ofstream("telemetry_snapshot.prom.actual") << text;
        ADD_FAILURE() << "sample lines differ from the golden's; wrote "
                         "telemetry_snapshot.prom.actual";
    }
}

/**
 * Exposition-format grouping: each family has exactly one TYPE line,
 * it precedes the family's samples, and those samples are contiguous
 * (every sample belongs to the family of the latest TYPE line).
 */
TEST(RenderGolden, PrometheusFamiliesAreGrouped)
{
    std::istringstream in(obs::renderPrometheus(fixtureSnapshot()));
    std::set<std::string> seen;
    std::string family, type, line;
    std::size_t samples = 0;
    while (std::getline(in, line)) {
        if (line.rfind("# TYPE ", 0) == 0) {
            std::istringstream ls(line.substr(7));
            ls >> family >> type;
            EXPECT_TRUE(seen.insert(family).second)
                << "second TYPE line for " << family;
            continue;
        }
        ASSERT_FALSE(family.empty()) << "sample before any TYPE: " << line;
        std::string name = line.substr(0, line.find_first_of("{ "));
        bool ok = name == family;
        if (type == "summary")
            ok |= name == family + "_sum" || name == family + "_count";
        EXPECT_TRUE(ok) << "sample " << line << " outside family "
                        << family;
        ++samples;
    }
    EXPECT_GT(samples, 100u);
}

#endif // PREEMPT_OBS_DISABLED

TEST(RenderGolden, MetricsRegistryJsonIsByteIdentical)
{
    obs::MetricsRegistry reg;
    reg.counter("runtime.steal.attempt").add(1234);
    reg.counter("runtime.preemptions").add(56);
    reg.counter("odd\"name\\x").add(7);
    reg.gauge("runtime.long_queue.depth").set(-3);
    reg.gauge("utimer.threads").set(4);
    for (std::uint64_t i = 1; i <= 200; ++i) {
        reg.timerPerCore("runtime.sojourn_ns", 0).record(i * 37);
        reg.timerPerCore("runtime.sojourn_ns", 1).record(i * i * 11);
        if (i % 3 == 0)
            reg.timer("utimer.delivery_ns").record(500 + i);
    }
    reg.timer("empty_ns"); // registered, never recorded
    expectGolden("metrics_registry.json", reg.toJson());
}

} // namespace
} // namespace preempt
