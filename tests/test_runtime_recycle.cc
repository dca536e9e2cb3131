/**
 * @file
 * Task-record recycling and per-worker stack magazines in
 * PreemptibleRuntime: the steady-state task path allocates nothing,
 * every return path gives records and stacks back exactly once, a
 * record is reused only after its deadline was revoked, and a task's
 * captured state dies when the task retires.
 *
 * This binary replaces the global operator new so it can count heap
 * allocations; the counter runs only while a test arms it.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "preemptible/hosttime.hh"
#include "preemptible/preemptible_fn.hh"
#include "preemptible/runtime.hh"
#include "preemptible/stack_pool.hh"

namespace {

std::atomic<bool> g_countNew{false};
std::atomic<std::uint64_t> g_news{0};

void *
countedAlloc(std::size_t n, std::size_t align)
{
    if (g_countNew.load(std::memory_order_relaxed))
        g_news.fetch_add(1, std::memory_order_relaxed);
    if (n == 0)
        n = 1;
    void *p = align <= alignof(std::max_align_t)
                  ? std::malloc(n)
                  : std::aligned_alloc(align, (n + align - 1) / align * align);
    if (!p)
        throw std::bad_alloc();
    return p;
}

} // namespace

void *operator new(std::size_t n) { return countedAlloc(n, 0); }
void *operator new[](std::size_t n) { return countedAlloc(n, 0); }
void *
operator new(std::size_t n, std::align_val_t a)
{
    return countedAlloc(n, static_cast<std::size_t>(a));
}
void *
operator new[](std::size_t n, std::align_val_t a)
{
    return countedAlloc(n, static_cast<std::size_t>(a));
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept { std::free(p); }
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace preempt::runtime {
namespace {

void
spinFor(TimeNs ns)
{
    TimeNs end = hostNowNs() + ns;
    while (hostNowNs() < end) {
    }
}

PreemptibleRuntime::Options
recycleOptions(int workers, TimeNs quantum)
{
    PreemptibleRuntime::Options opt;
    opt.nWorkers = workers;
    opt.quantum = quantum; // 0 = never preempt
    opt.idleNap = usToNs(20);
    opt.timer.idleSleep = usToNs(50);
    return opt;
}

/** Every record the runtime created is pooled, exactly once. */
void
expectRecordsPooled(const PreemptibleRuntime &rt)
{
    PreemptibleRuntime::RecordCounts c = rt.recordCounts();
    EXPECT_GT(c.created, 0u);
    EXPECT_EQ(c.pooled, c.created) << "a record is missing or pooled twice";
    EXPECT_EQ(c.distinct, c.created) << "a record is pooled twice";
}

/** With no function alive, every stack ever mapped is back in the
 *  process-wide pool: the workers' magazines were flushed on exit. */
void
expectStacksPooled()
{
    EXPECT_EQ(fnStackPool().freeCount(), fnStackPool().totalAllocated());
}

TEST(StackCache, TouchesThePoolOnlyPerBatch)
{
    StackPool pool(16 * 1024);
    {
        StackCache cache(pool);
        // Empty cache and pool: one stack is mapped, nothing batched.
        Stack s = cache.acquire();
        EXPECT_EQ(pool.totalAllocated(), 1u);
        // Release-then-acquire cycles stay inside the magazine.
        for (int i = 0; i < 100; ++i) {
            cache.release(s);
            s = cache.acquire();
        }
        EXPECT_EQ(pool.totalAllocated(), 1u);
        EXPECT_EQ(pool.freeCount(), 0u);
        cache.release(s);

        // Fill past capacity: the older half spills as one batch.
        std::vector<Stack> held;
        for (std::size_t i = 0; i < 2 * StackCache::kBatch; ++i)
            held.push_back(cache.acquire());
        for (const Stack &h : held)
            cache.release(h);
        EXPECT_EQ(cache.size(), 2 * StackCache::kBatch);
        EXPECT_EQ(pool.freeCount(), 0u);
        cache.release(pool.acquire()); // maps one more: 17 in hand
        EXPECT_EQ(pool.freeCount(), StackCache::kBatch);
        EXPECT_EQ(cache.size(), StackCache::kBatch + 1);

        // Drained magazine: one refill takes a whole batch.
        for (std::size_t i = 0; i < StackCache::kBatch + 2; ++i)
            held[i] = cache.acquire();
        EXPECT_EQ(pool.freeCount(), 0u);
        EXPECT_EQ(cache.size(), StackCache::kBatch - 1);
        for (std::size_t i = 0; i < StackCache::kBatch + 2; ++i)
            cache.release(held[i]);
    }
    // The destructor flushed every stack back.
    EXPECT_EQ(pool.freeCount(), pool.totalAllocated());
    EXPECT_EQ(pool.totalAllocated(), 2 * StackCache::kBatch + 1);
}

TEST(RuntimeRecycle, SteadyStateTaskPathAllocatesNothing)
{
    PreemptibleRuntime rt(recycleOptions(2, 0));
    std::atomic<int> done{0};
    // One pointer of capture: fits std::function's inline buffer.
    auto body = [&done] { done.fetch_add(1, std::memory_order_relaxed); };
    constexpr int kBatch = 256;
    auto cycle = [&] {
        for (int i = 0; i < kBatch; ++i) {
            while (!rt.submit(body)) {
            }
        }
        rt.quiesce();
    };
    // Warm-up: with both workers held, one batch is in flight at once,
    // which grows each worker's record pool to the deepest backlog a
    // batch can leave (submit() alternates, so 128 per worker).
    std::atomic<bool> hold{true};
    for (int w = 0; w < 2; ++w) {
        rt.submitTo(w, [&hold] {
            while (hold.load()) {
            }
        });
    }
    for (int i = 0; i < kBatch; ++i) {
        while (!rt.submit(body)) {
        }
    }
    hold.store(false);
    rt.quiesce();
    for (int i = 0; i < 4; ++i)
        cycle(); // and the stack magazines and pool vectors

    const std::uint64_t created = rt.recordCounts().created;
    g_news.store(0);
    g_countNew.store(true);
    for (int i = 0; i < 20; ++i)
        cycle();
    g_countNew.store(false);

    EXPECT_EQ(g_news.load(), 0u)
        << "operator new ran on the steady-state submit/complete path";
    EXPECT_EQ(done.load(), 25 * kBatch);
    EXPECT_EQ(rt.recordCounts().created, created)
        << "steady state must reuse records, not create them";
    expectRecordsPooled(rt);
    rt.shutdown();
    expectStacksPooled();
}

TEST(RuntimeRecycle, ConservedAcrossStealsAndLongQueueAdoption)
{
    // Everything is submitted to worker 0: worker 1 gets work only by
    // stealing from its deque or adopting preempted tasks from the
    // long queue, and retires those records back to worker 0.
    PreemptibleRuntime rt(recycleOptions(2, msToNs(1)));
    std::atomic<int> done{0};
    int submitted = 0;
    RuntimeStats s;
    for (int round = 0; round < 50; ++round) {
        for (int i = 0; i < 4; ++i, ++submitted) {
            while (!rt.submitTo(0, [&done] {
                spinFor(msToNs(4));
                done.fetch_add(1);
            })) {
            }
        }
        for (int i = 0; i < 200; ++i, ++submitted) {
            while (!rt.submitTo(0, [&done] {
                spinFor(usToNs(20));
                done.fetch_add(1);
            })) {
            }
        }
        rt.quiesce();
        expectRecordsPooled(rt);
        s = rt.stats();
        if (s.stealHits > 0 && s.preemptions > 0 && s.migrations > 0)
            break;
    }
    EXPECT_GT(s.stealHits, 0u);
    EXPECT_GT(s.preemptions, 0u) << "no task went through the long queue";
    EXPECT_GT(s.migrations, 0u);
    EXPECT_EQ(done.load(), submitted);
    EXPECT_EQ(s.completed, static_cast<std::uint64_t>(submitted));
    rt.shutdown();
    expectRecordsPooled(rt);
    expectStacksPooled();
}

TEST(RuntimeRecycle, ConservedWhenExpiredTasksAreDroppedOrCancelled)
{
    PreemptibleRuntime::Options opt = recycleOptions(1, msToNs(1));
    opt.dropExpired = true;
    PreemptibleRuntime rt(opt);
    auto token = std::make_shared<int>(7);
    std::atomic<int> ran{0};

    // Dropped before launch: a 1 ns deadline is hopeless by the time
    // the worker reaches the task.
    for (int i = 0; i < 32; ++i) {
        while (!rt.submitTo(0, [token, &ran] { ran.fetch_add(1); }, 0, 1)) {
        }
    }
    rt.quiesce();
    EXPECT_EQ(ran.load(), 0);
    EXPECT_EQ(rt.stats().expiredDrops, 32u);

    // Cancelled mid-run: preempted every 1 ms, hopeless after 100 ms
    // (long enough that a busy host still launches them first), so
    // fn_cancel discards them long before the 5 s bodies are done.
    for (int i = 0; i < 4; ++i) {
        while (!rt.submitTo(0, [token, &ran] {
            spinFor(secToNs(5));
            ran.fetch_add(1);
        }, 0, msToNs(100))) {
        }
    }
    rt.quiesce();
    RuntimeStats s = rt.stats();
    EXPECT_EQ(ran.load(), 0);
    EXPECT_EQ(s.expiredDrops, 36u);
    EXPECT_GT(s.preemptions, 0u);
    EXPECT_EQ(token.use_count(), 1)
        << "dropped and cancelled tasks must release their captures";
    expectRecordsPooled(rt);
    rt.shutdown();
    expectStacksPooled();
}

TEST(RuntimeRecycle, FullInboxRefusalTakesNoRecord)
{
    PreemptibleRuntime::Options opt = recycleOptions(1, 0);
    opt.queueCapacity = 8;
    PreemptibleRuntime rt(opt);
    std::atomic<bool> release{false};
    std::atomic<bool> started{false};
    rt.submit([&] {
        started.store(true);
        while (!release.load()) {
        }
    });
    while (!started.load()) {
    }
    int accepted = 0;
    while (rt.submit([] {}))
        ++accepted;
    const std::uint64_t created = rt.recordCounts().created;
    EXPECT_EQ(created, static_cast<std::uint64_t>(accepted) + 1);
    for (int i = 0; i < 16; ++i)
        EXPECT_FALSE(rt.submit([] {}));
    EXPECT_EQ(rt.recordCounts().created, created)
        << "a refused submit must not take a record";
    EXPECT_EQ(rt.stats().rejectedFull, 17u);
    release.store(true);
    rt.quiesce();
    expectRecordsPooled(rt);
    rt.shutdown();
    expectStacksPooled();
}

TEST(RuntimeRecycle, RecordIsReusedOnlyAfterItsDeadlineIsRevoked)
{
    // Empty tasks with a 500 us deadline, each followed by a 20 us
    // deadline-free task, in a stream paced so that few tasks are in
    // flight: records then return to the submitter and are reused
    // within about 200 us, while their last deadline would still be
    // pending. The wheel's fire callback writes the expired flag
    // through the raw record pointer, so a record reused before its
    // deadline was revoked would see the stale fire mark the
    // deadline-free task now in it expired, and the runtime would drop
    // that task. retire() also refuses an armed record outright.
    PreemptibleRuntime::Options opt = recycleOptions(2, 0);
    opt.dropExpired = true;
    PreemptibleRuntime rt(opt);
    std::atomic<int> freeRuns{0}, deadlineRuns{0};
    constexpr int kPairs = 3000;
    for (int i = 0; i < kPairs; ++i) {
        for (;;) {
            RuntimeStats s = rt.stats();
            if (s.submitted - s.completed - s.expiredDrops < 16)
                break;
        }
        const int worker = i % 2;
        while (!rt.submitTo(worker, [&deadlineRuns] {
            deadlineRuns.fetch_add(1);
        }, 0, usToNs(500))) {
        }
        while (!rt.submitTo(worker, [&freeRuns] {
            spinFor(usToNs(20));
            freeRuns.fetch_add(1);
        })) {
        }
    }
    rt.quiesce();
    RuntimeStats s = rt.stats();
    EXPECT_EQ(freeRuns.load(), kPairs)
        << "a deadline-free task was dropped: a stale deadline fired "
           "into its recycled record";
    EXPECT_EQ(static_cast<std::uint64_t>(deadlineRuns.load()) +
                  s.expiredDrops,
              static_cast<std::uint64_t>(kPairs));
    EXPECT_LT(rt.recordCounts().created, 64u) << "records were not reused";
    expectRecordsPooled(rt);
    rt.shutdown();
    expectStacksPooled();
}

TEST(RuntimeRecycle, CapturedStateDiesWhenTheTaskRetires)
{
    PreemptibleRuntime rt(recycleOptions(2, 0));
    auto token = std::make_shared<int>(1);
    std::weak_ptr<int> watch = token;
    // Two pointers of capture (a shared_ptr): still stored inline.
    for (int i = 0; i < 64; ++i) {
        while (!rt.submit([token] { (void)*token; })) {
        }
    }
    token.reset();
    rt.quiesce();
    // Nothing was submitted after these tasks, so their records sit
    // unused in the pools; the captures must be gone all the same.
    EXPECT_TRUE(watch.expired())
        << "a retired task's captured state outlived the task";
    rt.shutdown();
}

} // namespace
} // namespace preempt::runtime
