/**
 * @file
 * PreemptibleRuntime's per-worker accounting: stats() merged from the
 * per-worker counter blocks and histograms stays monotonic while the
 * workers run and conserves every task once they drain, and the
 * registry handles each worker caches follow registry changes (a
 * registry rebuilt at a dead one's address included).
 *
 * RuntimeAccounting.* is also a stress target of the sanitizer CI
 * jobs and of the repeat-until-fail multi-core leg.
 */

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <new>
#include <thread>
#include <utility>

#include "obs/metrics.hh"
#include "preemptible/hosttime.hh"
#include "preemptible/runtime.hh"

namespace preempt::runtime {
namespace {

PreemptibleRuntime::Options
accountingOptions(int workers)
{
    PreemptibleRuntime::Options opt;
    opt.nWorkers = workers;
    opt.quantum = usToNs(250);
    opt.timer.idleSleep = usToNs(100);
    opt.idleNap = usToNs(50);
    opt.seed = 0xacc0;
    return opt;
}

void
spinFor(TimeNs dur)
{
    TimeNs end = hostNowNs() + dur;
    while (hostNowNs() < end) {
    }
}

/** Every count stats() reports, in one array for monotonicity checks. */
std::array<std::uint64_t, 14>
countsOf(const RuntimeStats &s)
{
    return {s.submitted,     s.completed,     s.rejectedFull,
            s.rejectedPolicy, s.preemptions,  s.staleSignals,
            s.stealAttempts, s.stealHits,     s.stealAborts,
            s.migrations,    s.deadlineFires, s.expiredDrops,
            s.lcLatency.count(), s.beLatency.count()};
}

/** Sojourn samples across the runtime.sojourn_ns/core<i> family. */
std::uint64_t
sojournSamples(obs::MetricsRegistry &reg, int workers)
{
    std::uint64_t n = 0;
    for (int i = 0; i < workers; ++i)
        n += reg.timerPerCore("runtime.sojourn_ns",
                              static_cast<unsigned>(i))
                 .histogram()
                 .count();
    return n;
}

TEST(RuntimeAccounting, ConcurrentStatsStayMonotonicAndConserveTasks)
{
    auto opt = accountingOptions(4);
    opt.dropExpired = true;
    PreemptibleRuntime rt(opt);

    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> polls{0}, regressions{0};
    std::thread poller([&] {
        auto last = countsOf(rt.stats());
        while (!stop.load(std::memory_order_relaxed)) {
            auto now = countsOf(rt.stats());
            for (std::size_t k = 0; k < now.size(); ++k)
                regressions += now[k] < last[k];
            last = now;
            polls.fetch_add(1, std::memory_order_relaxed);
        }
    });

    // Skewed placement (three of four tasks on worker 0) makes the
    // others steal; ms-long bodies outlast the 250 us quantum; a
    // deadline of 1 us is always past by launch, so those tasks drop.
    constexpr int kTasks = 600;
    for (int i = 0; i < kTasks; ++i) {
        int target = (i % 4 == 3) ? i % 3 + 1 : 0;
        TimeNs work = (i % 10 == 0) ? msToNs(2) : usToNs(30);
        TimeNs deadline = (i % 7 == 0)   ? usToNs(1)
                          : (i % 7 == 1) ? msToNs(500)
                                         : 0;
        while (!rt.submitTo(target, [work] { spinFor(work); }, i % 2,
                            deadline)) {
            std::this_thread::yield(); // inbox backpressure
        }
    }
    rt.quiesce();
    stop.store(true);
    poller.join();

    auto s = rt.stats();
    EXPECT_EQ(regressions.load(), 0u)
        << "a per-worker count went backwards between two stats()";
    EXPECT_GT(polls.load(), 10u);
    EXPECT_EQ(s.submitted, static_cast<std::uint64_t>(kTasks));
    EXPECT_EQ(s.completed + s.expiredDrops, s.submitted);
    EXPECT_EQ(s.lcLatency.count() + s.beLatency.count(), s.completed);
    EXPECT_GT(s.expiredDrops, 0u);
    EXPECT_GT(s.preemptions, 0u);
    EXPECT_GT(s.stealHits, 0u);
    EXPECT_GE(s.stealAttempts, s.stealAborts);
    rt.shutdown();
}

TEST(RuntimeAccounting, RegistryAgreesWithStats)
{
    obs::MetricsRegistry reg;
    obs::setMetricsRegistry(&reg);
    auto opt = accountingOptions(3);
    opt.dropExpired = true;
    PreemptibleRuntime rt(opt);
    constexpr int kTasks = 400;
    for (int i = 0; i < kTasks; ++i) {
        TimeNs work = (i % 20 == 0) ? msToNs(1) : usToNs(20);
        TimeNs deadline = (i % 9 == 0) ? usToNs(1) : 0;
        while (!rt.submitTo(0, [work] { spinFor(work); }, i % 2,
                            deadline)) {
            std::this_thread::yield();
        }
    }
    rt.quiesce();
    // Idle workers keep counting steal attempts until they exit.
    rt.shutdown();
    obs::setMetricsRegistry(nullptr);

    auto s = rt.stats();
    EXPECT_EQ(sojournSamples(reg, rt.nWorkers()), s.completed);
    EXPECT_EQ(reg.counter("runtime.steal.attempt").value(),
              s.stealAttempts);
    EXPECT_EQ(reg.counter("runtime.steal.hit").value(), s.stealHits);
    EXPECT_EQ(reg.counter("runtime.steal.abort").value(), s.stealAborts);
    EXPECT_EQ(reg.counter("runtime.migrations").value(), s.migrations);
    EXPECT_EQ(reg.counter("runtime.preemptions").value(), s.preemptions);
    EXPECT_EQ(reg.counter("runtime.expired_drops").value(),
              s.expiredDrops);
    EXPECT_GT(s.stealHits, 0u);
    EXPECT_GT(s.expiredDrops, 0u);
}

/**
 * Uninstall the metrics registry and wait until no runtime thread can
 * still be recording into it: workers are idle once quiesced (with
 * stealing off they touch no registry while idle), and the LibUtimer
 * thread, which sets the wheel-depth gauges by name, has finished the
 * scan pass that may have looked the old registry up.
 */
void
uninstallRegistry(const PreemptibleRuntime &rt)
{
    obs::setMetricsRegistry(nullptr);
    std::uint64_t scans = rt.timer().scans();
    while (rt.timer().scans() < scans + 2)
        std::this_thread::yield();
}

/**
 * Registry A, then none, then B built in A's storage after A died,
 * then C built in B's storage with no task run in between: a worker
 * whose handles were keyed on the registry's address would keep
 * recording into B's freed metrics once C is installed. Stealing is
 * off so that, once quiesced, no worker touches a registry and each
 * can be destroyed safely.
 */
TEST(RuntimeAccounting, HandlesFollowRegistryChanges)
{
    auto opt = accountingOptions(2);
    opt.stealing = false;
    PreemptibleRuntime rt(opt);

    auto runPhase = [&rt](int tasks) {
        RuntimeStats before = rt.stats();
        for (int i = 0; i < tasks; ++i) {
            // A BE body longer than the quantum now and then, so
            // preemption counts cross the registry changes too.
            bool longOne = i % 25 == 0;
            while (!rt.submit(
                [longOne] { spinFor(longOne ? msToNs(1) : usToNs(5)); },
                longOne ? 1 : 0)) {
                std::this_thread::yield();
            }
        }
        rt.quiesce();
        RuntimeStats after = rt.stats();
        EXPECT_EQ(after.completed - before.completed,
                  static_cast<std::uint64_t>(tasks));
        return std::make_pair(after.completed - before.completed,
                              after.preemptions - before.preemptions);
    };

    alignas(obs::MetricsRegistry) unsigned char
        storage[sizeof(obs::MetricsRegistry)];
    auto *a = new (storage) obs::MetricsRegistry();
    obs::setMetricsRegistry(a);
    auto [doneA, preemptA] = runPhase(150);
    EXPECT_EQ(sojournSamples(*a, 2), doneA);
    EXPECT_EQ(a->counter("runtime.preemptions").value(), preemptA);

    uninstallRegistry(rt);
    a->~MetricsRegistry();
    runPhase(100); // recorded nowhere

    auto *b = new (storage) obs::MetricsRegistry(); // A's address
    obs::setMetricsRegistry(b);
    auto [doneB, preemptB] = runPhase(120);
    EXPECT_EQ(sojournSamples(*b, 2), doneB)
        << "samples of the unregistered phase or of A leaked into B";
    EXPECT_EQ(b->counter("runtime.preemptions").value(), preemptB);

    uninstallRegistry(rt);
    b->~MetricsRegistry();
    auto *c = new (storage) obs::MetricsRegistry();
    obs::setMetricsRegistry(c);
    auto [doneC, preemptC] = runPhase(80);
    rt.shutdown();
    obs::setMetricsRegistry(nullptr);
    EXPECT_EQ(sojournSamples(*c, 2), doneC)
        << "workers kept handles into the registry C replaced";
    EXPECT_EQ(c->counter("runtime.preemptions").value(), preemptC);
    c->~MetricsRegistry();
}

} // namespace
} // namespace preempt::runtime
