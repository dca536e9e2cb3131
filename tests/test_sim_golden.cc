/**
 * @file
 * Byte-level goldens for the simulated segment servers.
 *
 * Each test runs one short seeded configuration of LibPreemptibleSim,
 * ShinjukuSim, LibingerSim or RpcServerSim and reduces it to a
 * fingerprint: the request counts, the events run, the summed
 * latencies, the preemption and CPU-time totals, and an FNV-1a hash of
 * every trace record. The property tests elsewhere check what must
 * hold; these pin what the servers produce, so a change meant to be
 * invisible (a refactor of the segment lifecycle) is checked bit for
 * bit. On a mismatch the test prints the fingerprint it measured.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <ostream>
#include <string>

#include "apps/rpc_model.hh"
#include "baselines/libinger_sim.hh"
#include "baselines/shinjuku_sim.hh"
#include "fault/fault.hh"
#include "obs/trace.hh"
#include "runtime_sim/libpreemptible_sim.hh"
#include "workload/generator.hh"

namespace preempt {
namespace {

struct Fingerprint
{
    std::uint64_t arrived = 0;
    std::uint64_t completed = 0;
    std::uint64_t cancelled = 0;
    std::uint64_t rejected = 0;
    std::uint64_t events = 0;
    TimeNs latencySum = 0;
    std::uint64_t preemptions = 0;
    TimeNs execution = 0;
    TimeNs overhead = 0;
    /** Machine busy total; servers without a Machine report 0. */
    TimeNs busy = 0;
    std::uint64_t traceRecords = 0;
    std::uint64_t traceHash = 0;
};

std::ostream &
operator<<(std::ostream &os, const Fingerprint &f)
{
    return os << "{" << f.arrived << ", " << f.completed << ", "
              << f.cancelled << ", " << f.rejected << ", " << f.events
              << ", " << f.latencySum << ", " << f.preemptions << ", "
              << f.execution << ", " << f.overhead << ", " << f.busy
              << ", " << f.traceRecords << ", " << f.traceHash << "ull}";
}

constexpr std::uint64_t kFnvOffset = 14695981039346656037ull;

void
fnv(std::uint64_t &h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 1099511628211ull;
    }
}

/** FNV-1a over every retained record, core by core, field by field. */
std::uint64_t
traceHash(const obs::Tracer &tracer)
{
    std::uint64_t h = kFnvOffset;
    for (std::uint32_t c = 0; c < tracer.cores(); ++c) {
        if (!tracer.hasRing(c))
            continue;
        for (const obs::TraceRecord &r : tracer.ring(c).snapshot()) {
            fnv(h, r.ts);
            fnv(h, r.kind);
            fnv(h, r.core);
            fnv(h, r.epoch);
            fnv(h, r.id);
            fnv(h, r.a0);
            fnv(h, r.a1);
        }
    }
    return h;
}

/** Does Server expose its Machine (for the busy-time check)? */
template <typename Server>
constexpr bool kHasMachine =
    requires(const Server &s) { s.machine().totalBusy(); };

/** Run one configuration under a private tracer and fingerprint it. */
template <typename Server, typename Config>
Fingerprint
run(Config config, workload::WorkloadSpec spec, TimeNs until,
    std::uint64_t seed = 42)
{
    obs::Tracer::Options topt;
    topt.lazyRings = true;
    obs::Tracer tracer(topt);
    obs::setTracer(&tracer);

    sim::Simulator sim(seed);
    hw::LatencyConfig hwcfg;
    Fingerprint f;
    {
        Server server(sim, hwcfg, std::move(config));
        workload::OpenLoopGenerator gen(
            sim, std::move(spec),
            [&server](workload::Request &r) { server.onArrival(r); });
        gen.start();
        sim.runUntil(until);

        const workload::RunMetrics &m = server.metrics();
        f.arrived = m.arrived();
        f.completed = m.completed();
        f.cancelled = m.cancelled();
        f.rejected = m.rejected();
        f.events = sim.eventsRun();
        for (const workload::Request &r : gen.pool())
            if (r.done())
                f.latencySum += r.latency();
        f.preemptions = m.totalPreemptions();
        f.execution = m.executionNs();
        f.overhead = m.preemptionOverheadNs();
        if constexpr (kHasMachine<Server>)
            f.busy = server.machine().totalBusy();
    }
    obs::setTracer(nullptr);
    EXPECT_EQ(tracer.totalDropped(), 0u) << "trace ring too small";
    EXPECT_EQ(tracer.droppedOutOfRange(), 0u);
    f.traceRecords = tracer.totalWritten();
    f.traceHash = traceHash(tracer);
    return f;
}

template <typename Server>
void
expectGolden(const Fingerprint &got, const Fingerprint &want)
{
    EXPECT_EQ(got.arrived, want.arrived);
    EXPECT_EQ(got.completed, want.completed);
    EXPECT_EQ(got.cancelled, want.cancelled);
    EXPECT_EQ(got.rejected, want.rejected);
    EXPECT_EQ(got.events, want.events);
    EXPECT_EQ(got.latencySum, want.latencySum);
    EXPECT_EQ(got.preemptions, want.preemptions);
    EXPECT_EQ(got.execution, want.execution);
    EXPECT_EQ(got.overhead, want.overhead);
    if constexpr (kHasMachine<Server>) {
        EXPECT_EQ(got.busy, want.busy);
    }
#ifndef PREEMPT_OBS_DISABLED
    EXPECT_EQ(got.traceRecords, want.traceRecords);
    EXPECT_EQ(got.traceHash, want.traceHash);
#else
    // Instrumentation compiled out: nothing reaches the tracer.
    EXPECT_EQ(got.traceRecords, 0u);
    EXPECT_EQ(got.traceHash, kFnvOffset);
#endif
    if (::testing::Test::HasFailure())
        ADD_FAILURE() << "measured fingerprint: " << got;
}

workload::WorkloadSpec
spec(const std::string &law, double rps, TimeNs duration,
     double beFraction = 0)
{
    workload::WorkloadSpec s{workload::makeServiceLaw(law, duration),
                             workload::RateLaw::constant(rps), duration};
    if (beFraction > 0) {
        s.beFraction = beFraction;
        s.beService = std::make_shared<workload::ServiceLaw>(
            workload::makeServiceLaw("A1", duration));
    }
    return s;
}

constexpr TimeNs kRun = msToNs(5);
constexpr TimeNs kUntil = msToNs(40);

using runtime_sim::LibPreemptibleConfig;
using runtime_sim::LibPreemptibleSim;
using runtime_sim::SchedPolicy;
using runtime_sim::TimerDelivery;

Fingerprint
runLp(LibPreemptibleConfig cfg, double rps = 900e3,
      const std::string &law = "A1")
{
    return run<LibPreemptibleSim>(std::move(cfg), spec(law, rps, kRun),
                                  kUntil);
}

LibPreemptibleConfig
lpConfig(SchedPolicy policy = SchedPolicy::RoundRobin,
         TimerDelivery delivery = TimerDelivery::Uintr)
{
    LibPreemptibleConfig c;
    c.nWorkers = 4;
    c.quantum = usToNs(5);
    c.policy = policy;
    c.delivery = delivery;
    return c;
}

TEST(SimGolden, LibPreemptibleRoundRobinUintr)
{
    expectGolden<LibPreemptibleSim>(
        runLp(lpConfig()),
        {4574, 4574, 0, 0, 25350, 23533476, 1786, 12776500, 1139790, 14465170,
         38184, 6781019846134716308ull});
}

TEST(SimGolden, LibPreemptibleRoundRobinKernelSignal)
{
    expectGolden<LibPreemptibleSim>(
        runLp(lpConfig(SchedPolicy::RoundRobin,
                       TimerDelivery::KernelSignal)),
        {4574, 4574, 0, 0, 21360, 89486400, 126, 12776500, 881720, 14207100,
         27968, 12216044301216909656ull});
}

TEST(SimGolden, LibPreemptibleNewFirstUintr)
{
    expectGolden<LibPreemptibleSim>(
        runLp(lpConfig(SchedPolicy::NewFirst)),
        {4574, 4574, 0, 0, 25310, 20500764, 1780, 12776500, 1138650, 14464030,
         38148, 10228989658632055169ull});
}

TEST(SimGolden, LibPreemptibleNewFirstKernelSignal)
{
    expectGolden<LibPreemptibleSim>(
        runLp(lpConfig(SchedPolicy::NewFirst, TimerDelivery::KernelSignal)),
        {4574, 4574, 0, 0, 21366, 60174012, 126, 12776500, 881720, 14207100,
         27968, 1343622538238933337ull});
}

TEST(SimGolden, LibPreemptibleQuantumZero)
{
    LibPreemptibleConfig c = lpConfig();
    c.quantum = 0;
    expectGolden<LibPreemptibleSim>(
        runLp(c),
        {4574, 4574, 0, 0, 21169, 280963626, 0, 12776500, 800450, 14125830,
         18316, 12594934167308848564ull});
}

TEST(SimGolden, LibPreemptibleAdaptive)
{
    LibPreemptibleConfig c = lpConfig();
    c.adaptive = true;
    c.controllerParams.period = msToNs(1);
    c.statsHorizon = msToNs(1);
    expectGolden<LibPreemptibleSim>(
        runLp(c, 900e3, "C"),
        {4574, 4574, 0, 0, 26607, 828545745, 3456, 19068367, 1457090, 21074337,
         48245, 5323660165400196093ull});
}

TEST(SimGolden, LibPreemptibleWorkStealing)
{
    LibPreemptibleConfig c = lpConfig();
    c.workStealing = true;
    expectGolden<LibPreemptibleSim>(
        runLp(c, 1200e3),
        {6071, 6071, 0, 0, 31205, 45033821, 2372, 17021500, 1644505, 19394525,
         51564, 16362062842882266911ull});
}

TEST(SimGolden, LibPreemptibleCentralQueue)
{
    LibPreemptibleConfig c = lpConfig();
    c.centralQueue = true;
    expectGolden<LibPreemptibleSim>(
        runLp(c),
        {4574, 4574, 0, 0, 23881, 25467932, 1781, 12776500, 4227175, 17552555,
         38153, 4687231485910150950ull});
}

TEST(SimGolden, LibPreemptibleRequestDeadline)
{
    LibPreemptibleConfig c = lpConfig(SchedPolicy::NewFirst);
    c.nWorkers = 2;
    c.requestDeadline = usToNs(100);
    expectGolden<LibPreemptibleSim>(
        runLp(c, 1200e3),
        {6071, 6043, 28, 0, 28035, 9380704, 0, 4965932, 1122845, 6817297,
         38361, 10469199503834933330ull});
}

TEST(SimGolden, LibPreemptibleAdmission)
{
    LibPreemptibleConfig c = lpConfig();
    c.nWorkers = 1;
    c.admission.enabled = true;
    c.admission.tickPeriod = msToNs(1);
    c.admission.sloNs = usToNs(200);
    c.admission.params.queuedHighNs = usToNs(100);
    c.admission.params.queuedLowNs = usToNs(20);
    c.admission.params.depthHigh = 24;
    c.admission.params.depthLow = 6;
    expectGolden<LibPreemptibleSim>(
        run<LibPreemptibleSim>(std::move(c), spec("A1", 500e3, kRun, 0.2),
                               kUntil),
        {2531, 2493, 0, 38, 11918, 184611371, 929, 6741000, 612785, 7652945,
         20581, 6021991130714886264ull});
}

TEST(SimGolden, LibPreemptibleDroppedAndDuplicatedFires)
{
    // Watchdog path: lost fires, duplicated fires, slow handlers.
    fault::Injector inj(fault::FaultPlan::parse(
                            "drop:utimer@0.2,dup:utimer@0.2,"
                            "slow:handler@0.3:2000"),
                        9);
    fault::setInjector(&inj);
    LibPreemptibleConfig c = lpConfig();
    c.nWorkers = 2;
    Fingerprint f = runLp(c, 400e3);
    fault::setInjector(nullptr);
    expectGolden<LibPreemptibleSim>(
        f,
        {1987, 1987, 0, 0, 9813, 40481187, 523, 6546452, 767095, 7551987,
         16417, 3205836630708957510ull});
}

TEST(SimGolden, Shinjuku)
{
    baselines::ShinjukuConfig c;
    c.nWorkers = 5;
    c.quantum = usToNs(5);
    expectGolden<baselines::ShinjukuSim>(
        run<baselines::ShinjukuSim>(c, spec("A1", 900e3, kRun), kUntil),
        {4574, 4574, 0, 0, 27553, 41353407, 1561, 12776500, 7110840, 19887340,
         18431, 1405970251227528824ull});
}

TEST(SimGolden, ShinjukuQuantumZero)
{
    baselines::ShinjukuConfig c;
    c.nWorkers = 5;
    c.quantum = 0;
    expectGolden<baselines::ShinjukuSim>(
        run<baselines::ShinjukuSim>(c, spec("A1", 900e3, kRun), kUntil),
        {4574, 4574, 0, 0, 22870, 132465196, 0, 12776500, 2927360, 15703860,
         13744, 4928746226286049211ull});
}

TEST(SimGolden, Libinger)
{
    baselines::LibingerConfig c;
    c.nWorkers = 5;
    c.quantum = usToNs(60);
    expectGolden<baselines::LibingerSim>(
        run<baselines::LibingerSim>(c, spec("A1", 600e3, kRun), kUntil),
        {2998, 2998, 0, 0, 16816, 29631272, 101, 10490000, 7619870, 18989294,
         9212, 2312626781265438021ull});
}

TEST(SimGolden, LibingerQuantumZero)
{
    baselines::LibingerConfig c;
    c.nWorkers = 5;
    c.quantum = 0;
    expectGolden<baselines::LibingerSim>(
        run<baselines::LibingerSim>(c, spec("A1", 600e3, kRun), kUntil),
        {2998, 2998, 0, 0, 17801, 12406485, 0, 10490000, 239840, 11664539,
         9011, 15676797422294053426ull});
}

TEST(SimGolden, RpcBlockingPool)
{
    apps::RpcServerConfig c;
    c.nKernelThreads = 4;
    c.userThreadsPerKernel = 1;
    c.quantum = 0;
    expectGolden<apps::RpcServerSim>(
        run<apps::RpcServerSim>(c, spec("A1", 900e3, kRun), kUntil),
        {4574, 4574, 0, 0, 13722, 270938039, 0, 12776500, 182960, 0, 13,
         11499439675119821156ull});
}

TEST(SimGolden, RpcPreemptive)
{
    apps::RpcServerConfig c;
    c.nKernelThreads = 4;
    c.userThreadsPerKernel = 4;
    c.quantum = usToNs(5);
    expectGolden<apps::RpcServerSim>(
        run<apps::RpcServerSim>(c, spec("A1", 900e3, kRun), kUntil),
        {4574, 4574, 0, 0, 13759, 228579343, 37, 12776500, 258600, 0, 2130,
         13604297642130447964ull});
}

} // namespace
} // namespace preempt
