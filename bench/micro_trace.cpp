/**
 * @file
 * Microbenchmark of the obs:: emission fast paths.
 *
 * Measures what every instrumentation site in the repo pays:
 *
 *   disabled   obs::emit() with no tracer installed — the cost added
 *              to un-traced runs (one relaxed load + predicted branch).
 *   enabled    obs::emit() into an installed per-core ring — the cost
 *              of actually recording (ISSUE target: <= 20 ns/record).
 *   counter    Counter::add() on a resolved handle with an installed
 *              registry (what hot paths such as PreemptibleRuntime's
 *              workers pay per event).
 *   counter_by_name
 *              obs::addCount("name") with an installed registry, on 1
 *              and on 4 threads at once: the std::string build,
 *              registry-wide mutex and map lookup every by-name call
 *              pays, and how it degrades under contention.
 *   publisher  obs::emit() into a ring while a TelemetryPublisher
 *              snapshots in the background — proves an idle telemetry
 *              plane leaves the emit fast path unchanged (the live-
 *              telemetry ISSUE pins this within ±1% of `enabled`).
 *   span_live  obs::emitSpan() lifecycle triplets folding into an
 *              installed SpanCollector — what the per-task lifecycle
 *              sites (submit/launch/complete) pay when spans are live.
 *   window_rotate_aggregate
 *              one WindowedLatencyHistogram rotate() + aggregate()
 *              pair (K = 8) — what the publisher tick pays per
 *              windowed metric, amortised over zero record-path cost.
 *
 * Emits BENCH_trace.json (ns per operation, best of reps) so later PRs
 * can regress the overhead claims in DESIGN.md section 8. The file
 * records the CPUs the process may run on and their measured parallel
 * capacity (4-thread spin vs 1-thread spin), since the 4-thread row
 * means little on a host that cannot run 4 threads at once.
 */

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <sched.h>
#include <string>
#include <thread>
#include <vector>

#include "common/cli.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "common/windowed_histogram.hh"
#include "obs/metrics.hh"
#include "obs/session.hh"
#include "obs/spans.hh"
#include "obs/telemetry.hh"
#include "obs/trace.hh"
#include "preemptible/hosttime.hh"

using namespace preempt;

namespace {

/** ns per emit with no tracer installed (the fast path everyone pays). */
double
runDisabled(int ops)
{
    panic_if(obs::tracer() != nullptr, "tracer unexpectedly installed");
    TimeNs t0 = runtime::hostNowNs();
    for (int i = 0; i < ops; ++i) {
        obs::emit(obs::EventKind::Dispatch, 0,
                  static_cast<std::uint64_t>(i), 1, 2, 3);
    }
    TimeNs t1 = runtime::hostNowNs();
    return static_cast<double>(t1 - t0) / ops;
}

/** ns per emit into an installed ring (wrap-around steady state). */
double
runEnabled(int ops)
{
    obs::Tracer::Options opt;
    opt.cores = 4;
    opt.perCoreCapacity = std::size_t{1} << 14;
    obs::Tracer tracer(opt);
    obs::setTracer(&tracer);
    TimeNs t0 = runtime::hostNowNs();
    for (int i = 0; i < ops; ++i) {
        obs::emit(obs::EventKind::Dispatch,
                  static_cast<std::uint32_t>(i & 3),
                  static_cast<std::uint64_t>(i), 1, 2, 3);
    }
    TimeNs t1 = runtime::hostNowNs();
    obs::setTracer(nullptr);
    panic_if(tracer.totalWritten() != static_cast<std::uint64_t>(ops),
             "ring lost records");
    return static_cast<double>(t1 - t0) / ops;
}

/** ns per increment of a pre-resolved Counter handle. */
double
runCounter(int ops)
{
    obs::MetricsRegistry reg;
    obs::setMetricsRegistry(&reg);
    obs::Counter &c = reg.counter("bench.ops"); // pre-register the name
    TimeNs t0 = runtime::hostNowNs();
    for (int i = 0; i < ops; ++i)
        c.add();
    TimeNs t1 = runtime::hostNowNs();
    obs::setMetricsRegistry(nullptr);
    panic_if(reg.counter("bench.ops").value() !=
                 static_cast<std::uint64_t>(ops),
             "counter lost increments");
    return static_cast<double>(t1 - t0) / ops;
}

/**
 * ns per by-name obs::addCount() with a registry installed, each of
 * `threads` threads making `ops` calls at once (wall time / ops: the
 * latency one caller sees while the others contend).
 */
double
runCounterByName(int ops, int threads)
{
    obs::MetricsRegistry reg;
    obs::setMetricsRegistry(&reg);
    reg.counter("bench.by_name"); // pre-register: time the lookup only
    std::atomic<int> ready{0};
    std::atomic<bool> go{false};
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) {
        pool.emplace_back([&] {
            ready.fetch_add(1);
            while (!go.load(std::memory_order_acquire)) {
            }
            for (int i = 0; i < ops; ++i)
                obs::addCount("bench.by_name");
        });
    }
    while (ready.load() != threads) {
    }
    TimeNs t0 = runtime::hostNowNs();
    go.store(true, std::memory_order_release);
    for (auto &th : pool)
        th.join();
    TimeNs t1 = runtime::hostNowNs();
    obs::setMetricsRegistry(nullptr);
    panic_if(reg.counter("bench.by_name").value() !=
                 static_cast<std::uint64_t>(ops) *
                     static_cast<std::uint64_t>(threads),
             "by-name counter lost increments");
    return static_cast<double>(t1 - t0) / ops;
}

/** CPUs this process may run on (its affinity mask). */
int
hostCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0)
        return static_cast<int>(std::thread::hardware_concurrency());
    return CPU_COUNT(&set);
}

/** Measured parallel capacity: `threads` x (1-thread wall time of a
 *  fixed spin) / (wall time of `threads` running it at once). */
double
parallelCapacity(int threads)
{
    std::atomic<std::uint64_t> sink{0};
    auto spin = [&sink](std::uint64_t seed) {
        std::uint64_t x = seed | 1;
        for (int i = 0; i < 20'000'000; ++i)
            x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        sink += x;
    };
    auto timed = [&](int n) {
        TimeNs t0 = runtime::hostNowNs();
        std::vector<std::thread> pool;
        for (int i = 1; i < n; ++i)
            pool.emplace_back(spin, static_cast<std::uint64_t>(i));
        spin(0);
        for (auto &th : pool)
            th.join();
        return static_cast<double>(runtime::hostNowNs() - t0);
    };
    double one = 1e300, many = 1e300;
    for (int r = 0; r < 3; ++r) { // best of three: damp one-off stalls
        one = std::min(one, timed(1));
        many = std::min(many, timed(threads));
    }
    return threads * one / many;
}

/**
 * ns per emit into a ring while an idle TelemetryPublisher snapshots
 * every 10 ms. The publisher reads the registry/span collector, never
 * the rings, so this should match runEnabled() within noise — the
 * live-telemetry acceptance criterion.
 */
double
runWithPublisher(int ops)
{
#ifndef PREEMPT_OBS_DISABLED
    obs::Tracer::Options opt;
    opt.cores = 4;
    opt.perCoreCapacity = std::size_t{1} << 14;
    obs::Tracer tracer(opt);
    obs::setTracer(&tracer);
    obs::MetricsRegistry reg;
    obs::TelemetryPublisher::Options popt;
    popt.interval = msToNs(10);
    obs::TelemetryPublisher pub(&reg, nullptr, popt);
    pub.start();
    TimeNs t0 = runtime::hostNowNs();
    for (int i = 0; i < ops; ++i) {
        obs::emit(obs::EventKind::Dispatch,
                  static_cast<std::uint32_t>(i & 3),
                  static_cast<std::uint64_t>(i), 1, 2, 3);
    }
    TimeNs t1 = runtime::hostNowNs();
    pub.stop();
    obs::setTracer(nullptr);
    panic_if(tracer.totalWritten() != static_cast<std::uint64_t>(ops),
             "ring lost records");
    return static_cast<double>(t1 - t0) / ops;
#else
    // Telemetry is compiled out: measure the bare disabled emit so the
    // JSON key set stays stable across build flavours.
    return runDisabled(ops);
#endif
}

/** ns per emitSpan() across a submit/launch/complete lifecycle with a
 *  live SpanCollector installed (the per-task instrumentation cost). */
double
runSpanLive(int ops)
{
#ifndef PREEMPT_OBS_DISABLED
    int tasks = ops / 3;
    obs::SpanCollector collector;
    obs::setSpanCollector(&collector);
    TimeNs t0 = runtime::hostNowNs();
    for (int i = 0; i < tasks; ++i) {
        std::uint64_t id = static_cast<std::uint64_t>(i);
        std::uint64_t ts = id * 10;
        obs::emitSpan(obs::EventKind::TaskSubmit, 0, ts, id, 0, 0);
        obs::emitSpan(obs::EventKind::Launch, 0, ts + 2, id, 0, 100);
        obs::emitSpan(obs::EventKind::Complete, 0, ts + 5, id, 3, 0);
    }
    TimeNs t1 = runtime::hostNowNs();
    obs::setSpanCollector(nullptr);
    panic_if(collector.finished() != static_cast<std::uint64_t>(tasks),
             "span collector lost lifecycles");
    panic_if(collector.invariantViolations() != 0,
             "span invariant violated in microbench");
    return static_cast<double>(t1 - t0) / (3.0 * tasks);
#else
    return runDisabled(ops);
#endif
}

/** ns per publisher-tick window maintenance step: rotate the K = 8
 *  epoch ring and rebuild the O(K) aggregate of a populated windowed
 *  histogram. Runs entirely off the record path. */
double
runWindowRotateAggregate(int ops)
{
    // Rotation + aggregation cost is independent of the record count;
    // populate the ring so every epoch merge walks real buckets.
    WindowedLatencyHistogram w(8);
    for (int i = 0; i < 4096; ++i) {
        w.record(static_cast<std::uint64_t>(100 + i * 37));
        if ((i & 511) == 511)
            w.rotate();
    }
    int steps = ops / 4096;
    if (steps < 1)
        steps = 1;
    std::uint64_t sink = 0;
    TimeNs t0 = runtime::hostNowNs();
    for (int i = 0; i < steps; ++i) {
        w.rotate();
        w.record(static_cast<std::uint64_t>(100 + i));
        sink += w.aggregate().count();
    }
    TimeNs t1 = runtime::hostNowNs();
    panic_if(sink == 0, "window aggregate lost all samples");
    return static_cast<double>(t1 - t0) / steps;
}

} // namespace

int
main(int argc, char **argv)
{
    CommandLine cli(argc, argv);
    obs::Session obsSession(cli);
    int ops = static_cast<int>(cli.getInt("ops", 20000000));
    int reps = static_cast<int>(cli.getInt("reps", 5));
    std::string out = cli.getString("out", "BENCH_trace.json");
    cli.rejectUnknown();

    double disabled = 1e9, enabled = 1e9, counter = 1e9;
    double publisher = 1e9, spanLive = 1e9, windowTick = 1e9;
    double byName = 1e9, byName4 = 1e9;
    // By-name calls cost ~10x a handle add: fewer ops keep the run short.
    const int byNameOps = std::max(1, ops / 10);
    for (int r = 0; r < reps; ++r) {
        disabled = std::min(disabled, runDisabled(ops));
        enabled = std::min(enabled, runEnabled(ops));
        counter = std::min(counter, runCounter(ops));
        byName = std::min(byName, runCounterByName(byNameOps, 1));
        byName4 = std::min(byName4,
                           runCounterByName(std::max(1, byNameOps / 4), 4));
        publisher = std::min(publisher, runWithPublisher(ops));
        spanLive = std::min(spanLive, runSpanLive(ops));
        windowTick = std::min(windowTick, runWindowRotateAggregate(ops));
    }

    ConsoleTable table("obs:: emission cost (ns/op, best of " +
                       std::to_string(reps) + ")");
    table.header({"path", "ns/op"});
    auto row = [&](const char *name, double ns) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.2f", ns);
        table.row({name, buf});
    };
    row("emit disabled", disabled);
    row("emit enabled", enabled);
    row("counter add (handle)", counter);
    row("counter add by name, 1 thread", byName);
    row("counter add by name, 4 threads", byName4);
    row("emit + live publisher", publisher);
    row("emitSpan live fold", spanLive);
    row("window rotate+aggregate", windowTick);
    table.print();
    if (enabled > 0) {
        std::printf("publisher overhead vs enabled: %+.2f%%\n",
                    (publisher / enabled - 1.0) * 100.0);
    }
    const int cpus = hostCpus();
    const double capacity = parallelCapacity(4);
    std::printf("host cpus %d, parallel capacity %.2f of 4 threads\n",
                cpus, capacity);

    FILE *f = std::fopen(out.c_str(), "w");
    fatal_if(!f, "cannot open %s for writing", out.c_str());
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"bench\": \"trace\",\n");
    std::fprintf(f, "  \"unit\": \"ns_per_op\",\n");
    std::fprintf(f, "  \"ops\": %d,\n", ops);
    std::fprintf(f, "  \"reps\": %d,\n", reps);
    std::fprintf(f, "  \"host_cpus\": %d,\n", cpus);
    std::fprintf(f, "  \"parallel_capacity\": %.3f,\n", capacity);
    std::fprintf(f, "  \"emit_disabled\": %.3f,\n", disabled);
    std::fprintf(f, "  \"emit_enabled\": %.3f,\n", enabled);
    std::fprintf(f, "  \"counter_add\": %.3f,\n", counter);
    std::fprintf(f, "  \"counter_add_by_name\": %.3f,\n", byName);
    std::fprintf(f, "  \"counter_add_by_name_4t\": %.3f,\n", byName4);
    std::fprintf(f, "  \"emit_publisher\": %.3f,\n", publisher);
    std::fprintf(f, "  \"emitspan_live\": %.3f,\n", spanLive);
    std::fprintf(f, "  \"window_rotate_aggregate\": %.3f\n", windowTick);
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("\nwrote %s\n", out.c_str());
    return 0;
}
