/**
 * @file
 * The sim_fig08 workload: a fixed Fig. 8 grid run in one thread on
 * the discrete-event reproduction (sim, runtime_sim, baselines, hw,
 * core). LibPreemptible (adaptive), Shinjuku, Libinger and the
 * no-UINTR fallback serve Table V workloads A1 and C at fixed loads,
 * plus a load sweep of LibPreemptible on A1 for Fig. 8's knee. The
 * real runtime is not involved.
 */
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <vector>

#include "baselines/libinger_sim.hh"
#include "baselines/shinjuku_sim.hh"
#include "common.hh"
#include "hw/latency_config.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "runtime_sim/libpreemptible_sim.hh"
#include "sim/simulator.hh"
#include "stats.hh"
#include "workload/generator.hh"
#include "workload/spec.hh"

namespace perfbench {
namespace {

using preempt::TimeNs;
using preempt::usToNs;

struct SimSystem
{
    const char *key;
    TimeNs quantum;
    bool adaptive;
};

/** Fig. 8's four systems with its quanta. */
const SimSystem kSystems[] = {
    {"libpreemptible", usToNs(5), true},
    {"shinjuku", usToNs(5), false},
    {"libinger", usToNs(60), false},
    {"nouintr", usToNs(5), false},
};
constexpr int kNumSystems = 4;

/** Simulated arrival horizon of every cell, and the drain after it. */
constexpr TimeNs kCellDuration = preempt::msToNs(20);
constexpr TimeNs kDrain = preempt::msToNs(200);
/** Fig. 8's knee rule on A1 (mean service 3 us). */
constexpr double kP99LimitUs = 600;
/** Fixed loads of workload C whose LibPreemptible LC latencies (over
 *  C's exponential second half) are the workload's latency metrics.
 *  On A1 the median is the constant 0.5 us service plus a fixed
 *  dispatch cost, the same for every seed. */
constexpr double kIdleKrps = 200, kNominalKrps = 600;
const double kSweepKrps[] = {1600, 2000, 2400, 2800, 3200};

struct Cell
{
    int system;
    const char *workload;
    double krps;
};

/** The fixed grid: fixed loads for every system, then the A1 sweep. */
std::vector<Cell>
makeGrid()
{
    std::vector<Cell> grid;
    for (double krps : {300.0, 900.0, 1300.0})
        for (int s = 0; s < kNumSystems; ++s)
            grid.push_back({s, "A1", krps});
    for (double krps : {kIdleKrps, kNominalKrps, 900.0})
        for (int s = 0; s < kNumSystems; ++s)
            grid.push_back({s, "C", krps});
    for (double krps : kSweepKrps)
        grid.push_back({0, "A1", krps});
    return grid;
}

/** What one cell produced; equal outcomes compare equal. */
struct Outcome
{
    std::uint64_t generated = 0, arrived = 0, completed = 0;
    std::uint64_t cancelled = 0, rejected = 0, events = 0;
    /** LC percentiles (us) from every completion's exact latency;
     *  LibPreemptible cells only (the server's histogram buckets would
     *  read the same value for most seeds). */
    double p50Us = 0, p99Us = 0;
    double achievedRps = 0;

    bool operator==(const Outcome &) const = default;
};

/** A constructed, not yet run, cell. */
struct CellSim
{
    preempt::sim::Simulator sim;
    std::unique_ptr<preempt::runtime_sim::ServerModel> server;
    std::unique_ptr<preempt::workload::OpenLoopGenerator> gen;
    std::vector<double> lcUs;

    CellSim(const CellSim &) = delete;
    CellSim &operator=(const CellSim &) = delete;

    CellSim(const Cell &c, std::uint64_t seed) : sim(seed)
    {
        static const preempt::hw::LatencyConfig cfg =
            preempt::hw::LatencyConfig::paperCalibrated();
        const SimSystem &s = kSystems[c.system];
        constexpr int kWorkers = 4; // +1 for systems without a timer core
        std::string key = s.key;
        if (key == "shinjuku") {
            preempt::baselines::ShinjukuConfig sc;
            sc.nWorkers = kWorkers + 1;
            sc.quantum = s.quantum;
            server = std::make_unique<preempt::baselines::ShinjukuSim>(sim, cfg, sc);
        } else if (key == "libinger") {
            preempt::baselines::LibingerConfig lc;
            lc.nWorkers = kWorkers + 1;
            lc.quantum = s.quantum;
            server = std::make_unique<preempt::baselines::LibingerSim>(sim, cfg, lc);
        } else {
            preempt::runtime_sim::LibPreemptibleConfig rc;
            rc.nWorkers = kWorkers;
            rc.quantum = s.quantum;
            rc.adaptive = s.adaptive;
            rc.controllerParams.period = preempt::msToNs(50);
            rc.statsHorizon = preempt::msToNs(50);
            if (key == "nouintr")
                rc.delivery = preempt::runtime_sim::TimerDelivery::KernelSignal;
            if (s.adaptive) { // only cells whose latencies are reported
                // On C, only the exponential (B) half: the median of
                // the whole cell straddles the A1 -> B switch.
                TimeNs from = std::string(c.workload) == "C" ? kCellDuration / 2 : 0;
                rc.completionHook = [this, from](TimeNs now, const preempt::workload::Request &r) {
                    if (r.cls == preempt::workload::RequestClass::LatencyCritical && r.arrival >= from)
                        lcUs.push_back(static_cast<double>(now - r.arrival) / 1e3);
                };
            }
            server = std::make_unique<preempt::runtime_sim::LibPreemptibleSim>(sim, cfg, rc);
        }
        preempt::workload::WorkloadSpec wl{
            preempt::workload::makeServiceLaw(c.workload, kCellDuration),
            preempt::workload::RateLaw::constant(c.krps * 1e3), kCellDuration};
        gen = std::make_unique<preempt::workload::OpenLoopGenerator>(
            sim, std::move(wl), [this](preempt::workload::Request &r) { server->onArrival(r); });
    }

    Outcome
    run()
    {
        gen->start();
        sim.runUntil(kCellDuration + kDrain);
        const auto &m = server->metrics();
        Outcome o;
        o.generated = gen->generated();
        o.arrived = m.arrived();
        o.completed = m.completed();
        o.cancelled = m.cancelled();
        o.rejected = m.rejected();
        o.events = sim.eventsRun();
        o.p50Us = percentile(lcUs, 50);
        o.p99Us = percentile(lcUs, 99);
        o.achievedRps = m.throughputRps(kCellDuration);
        return o;
    }
};

/** One pass over the grid: outcomes plus host seconds per cell. */
struct GridPass
{
    std::vector<Outcome> outcomes;
    std::vector<double> cellSeconds;
    double seconds = 0;
};

GridPass
runGrid(const std::vector<Cell> &grid, std::uint64_t seed)
{
    GridPass pass;
    double t0 = wallSeconds();
    for (const Cell &c : grid) {
        double c0 = wallSeconds();
        CellSim cell(c, seed);
        pass.outcomes.push_back(cell.run());
        pass.cellSeconds.push_back(wallSeconds() - c0);
    }
    pass.seconds = wallSeconds() - t0;
    return pass;
}

/** Construction of every cell of the grid (none is run). */
double
setupSeconds(const std::vector<Cell> &grid, std::uint64_t seed)
{
    double total = 0;
    for (const Cell &c : grid) {
        double t0 = wallSeconds();
        CellSim cell(c, seed);
        total += wallSeconds() - t0;
    }
    return total;
}

/**
 * Seconds for a fixed single-thread binary-heap loop (400k pop/push on
 * 4096 keys), the shape of a discrete-event simulator's work. On a
 * shared VM the host's single-thread speed drifted by a third over
 * minutes, and the grid's host time with it. task_cost_ns is therefore
 * scaled by kHeapReferenceNominalS / this reference, timed right after
 * each grid pass; that cut the spread of ten runs from 0.11-0.22 to
 * 0.03-0.04 of the median. The scaled figure still moves one for one
 * with the simulator's own cost.
 */
double
heapReferenceSeconds()
{
    const double t0 = wallSeconds();
    std::priority_queue<std::uint64_t, std::vector<std::uint64_t>, std::greater<>> q;
    std::uint64_t r = 12345, sum = 0;
    for (int i = 0; i < 4096; ++i) {
        r = r * 6364136223846793005ULL + 1;
        q.push(r >> 20);
    }
    for (int i = 0; i < 400'000; ++i) {
        sum += q.top();
        q.pop();
        r = r * 6364136223846793005ULL + 1;
        q.push(sum + (r >> 40));
    }
    const double s = wallSeconds() - t0;
    static std::atomic<std::uint64_t> sink{0};
    sink.fetch_add(sum, std::memory_order_relaxed);
    return s;
}

/** The reference's median on the 4-vCPU cloud VM the bounds were set on. */
constexpr double kHeapReferenceNominalS = 0.018;

std::size_t
cellIndex(const std::vector<Cell> &grid, int system, const char *wl, double krps)
{
    for (std::size_t i = 0; i < grid.size(); ++i) {
        if (grid[i].system == system && std::string(grid[i].workload) == wl && grid[i].krps == krps)
            return i;
    }
    return 0;
}

} // namespace

RunResult
runSimFig08(const RunOptions &opt)
{
    RunResult res;
    const std::vector<Cell> grid = makeGrid();
    int cpus = hostCpus();
    double capacity = parallelCapacity(1);
    info("host.cpus", cpus, "count");
    info("host.parallel_capacity", capacity, "ratio", "of 1 thread");

    std::vector<double> setups;
    for (int i = 0; i < 31; ++i)
        setups.push_back(setupSeconds(grid, opt.seed));

    // Plain passes until the time is up (at least three), each on its
    // own seed so the simulated latencies are medians over passes. The
    // traced run adds passes with the metrics registry and with the
    // trace ring installed, on the same seeds, to price each.
    preempt::obs::MetricsRegistry registry;
    preempt::obs::Tracer::Options to;
    to.lazyRings = true; // thread-confined cells only
    to.perCoreCapacity = std::size_t{1} << 14;
    preempt::obs::Tracer tracer(to);
    std::vector<GridPass> plain;
    std::vector<double> withMetrics, withTrace, heapRef;
    const double deadline = wallSeconds() + opt.seconds;
    while (plain.size() < 3 || wallSeconds() < deadline) {
        const std::uint64_t seed = opt.seed * 1000 + plain.size();
        plain.push_back(runGrid(grid, seed));
        heapRef.push_back(heapReferenceSeconds());
        if (!opt.trace)
            continue;
        preempt::obs::setMetricsRegistry(&registry);
        withMetrics.push_back(runGrid(grid, seed).seconds);
        preempt::obs::setMetricsRegistry(nullptr);
        preempt::obs::setTracer(&tracer);
        withTrace.push_back(runGrid(grid, seed).seconds);
        preempt::obs::setTracer(nullptr);
    }

    // Outputs: every cell of every pass conserves requests, and a
    // cell run again in this process reproduces its outcome exactly.
    std::uint64_t arrived = 0, failed = 0, events = 0;
    bool conserved = true;
    std::vector<double> costs, rawCosts, walls, knees, p50, p99, p50Idle, p99Idle;
    const std::size_t nominalCell = cellIndex(grid, 0, "C", kNominalKrps);
    const std::size_t idleCell = cellIndex(grid, 0, "C", kIdleKrps);
    for (std::size_t i = 0; i < plain.size(); ++i) {
        const GridPass &p = plain[i];
        std::uint64_t passArrived = 0;
        for (const Outcome &o : p.outcomes) {
            conserved &= o.generated == o.arrived &&
                         o.arrived == o.completed + o.cancelled + o.rejected && o.completed > 0;
            passArrived += o.arrived;
            failed += o.cancelled + o.rejected;
        }
        arrived += passArrived;
        walls.push_back(p.seconds);
        rawCosts.push_back(p.seconds * 1e9 / static_cast<double>(passArrived));
        // Scaled by the heap reference timed right after this pass.
        costs.push_back(rawCosts.back() * kHeapReferenceNominalS / heapRef[i]);
        std::vector<Rung> rungs;
        for (double krps : kSweepKrps) {
            const Outcome &o = p.outcomes[cellIndex(grid, 0, "A1", krps)];
            rungs.push_back({krps, o.p99Us, o.achievedRps >= 0.95 * krps * 1e3});
        }
        knees.push_back(kneeRate(rungs, kP99LimitUs));
        p50.push_back(p.outcomes[nominalCell].p50Us);
        p99.push_back(p.outcomes[nominalCell].p99Us);
        p50Idle.push_back(p.outcomes[idleCell].p50Us);
        p99Idle.push_back(p.outcomes[idleCell].p99Us);
    }
    for (const Outcome &o : plain.front().outcomes)
        events += o.events;
    res.check(conserved, "every cell conserves requests");
    Outcome again = CellSim(grid[nominalCell], opt.seed * 1000).run();
    res.check(again == plain.front().outcomes[nominalCell],
              "a cell run twice in one process gives identical outcomes");
    res.check(*std::min_element(knees.begin(), knees.end()) > 0,
              "some sweep point meets the p99 limit");
    res.attempted = arrived;
    res.failed = failed;
    const double wall = median(walls);

    res.e2e("setup_s", median(setups), "s");
    res.e2e("lc_p50_us", median(p50), "us");
    res.e2e("lc_p99_us", median(p99), "us");
    res.e2e("lc_p50_us.idle", median(p50Idle), "us");
    res.e2e("lc_p99_us.idle", median(p99Idle), "us");
    res.e2e("max_lc_rate_krps", median(knees), "krps");
    res.e2e("task_cost_ns", median(costs), "ns");
    res.e2e("peak_rss_mb", peakRssMb(), "MiB");
    info("sim_wall_s", wall, "s", "median of " + std::to_string(plain.size()) + " passes");
    info("task_cost_ns.raw", median(rawCosts), "ns", "unscaled: host ns per simulated request");
    info("host.heap_reference_s", median(heapRef), "s", "reference for task_cost_ns");
    info("grid.cells", static_cast<double>(grid.size()), "count");

    if (!opt.trace)
        return res;

    res.layer("host.cpus", cpus, "count");
    res.layer("host.parallel_capacity", capacity, "ratio");
    res.layer("sim.events_run", static_cast<double>(events), "count");
    res.layer("sim.events_per_s", static_cast<double>(events) / wall, "1/s");
    for (int s = 0; s < kNumSystems; ++s) {
        std::vector<double> perPass;
        for (const GridPass &p : plain) {
            double sum = 0;
            for (std::size_t i = 0; i < grid.size(); ++i)
                sum += grid[i].system == s ? p.cellSeconds[i] : 0;
            perPass.push_back(sum);
        }
        res.layer(std::string("sim.host_s.") + kSystems[s].key, median(perPass), "s");
    }
    res.layer("obs.sim_metrics_overhead", median(withMetrics) / wall, "ratio");
    res.layer("obs.sim_trace_overhead", median(withTrace) / wall, "ratio");
    return res;
}

} // namespace perfbench
