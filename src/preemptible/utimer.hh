/**
 * @file
 * LibUtimer: the real user-space preemption timer (section IV-A).
 *
 * utimer_init creates a pool of timer threads (normally one). Each
 * application thread registers a 64-byte-aligned deadline slot with
 * utimer_register; utimer_arm_deadline is a single store of the
 * absolute time of the next wanted preemption. The timer thread scans
 * the slots and, when a deadline passes, delivers a preemption
 * notification to that thread.
 *
 * Delivery uses UINTR (SENDUIPI) on supporting hardware/kernels and
 * falls back to a directed signal (pthread_kill) elsewhere — the
 * paper's documented fallback path for pre-SPR CPUs.
 */

#ifndef PREEMPT_PREEMPTIBLE_UTIMER_HH
#define PREEMPT_PREEMPTIBLE_UTIMER_HH

#include <atomic>
#include <csignal>
#include <cstdint>
#include <functional>
#include <mutex>
#include <pthread.h>
#include <string>
#include <thread>
#include <vector>

#include "common/time.hh"
#include "core/timing_wheel.hh"

namespace preempt::runtime {

/** Per-thread deadline location; naturally aligned to a cache line to
 *  avoid false sharing between the worker store and the timer scan. */
struct alignas(64) DeadlineSlot
{
    /** Absolute CLOCK_MONOTONIC ns of the next wanted preemption;
     *  kTimeNever disarms. */
    std::atomic<TimeNs> deadline{kTimeNever};

    /** Thread to notify. Atomic: a reused slot's tid store must not
     *  race the timer thread's read from the prior registration. */
    std::atomic<pthread_t> tid{};

    /** Slot lifecycle. */
    std::atomic<bool> inUse{false};

    /** Preemption notifications delivered through this slot. */
    std::atomic<std::uint64_t> fires{0};

    /** UITT index for SENDUIPI delivery; -1 = use signals. Set by the
     *  preemption layer after uintr_register_sender succeeds. */
    std::atomic<long> uipiIndex{-1};
};

/**
 * A per-worker timing-wheel shard serviced by the LibUtimer thread.
 *
 * Each runtime worker owns one shard for its tasks' pending deadlines
 * (SLO timeouts), so arming a deadline contends only on the owner's
 * shard instead of funneling every deadline through one central wheel.
 * The timer thread advances every registered shard on each scan pass.
 *
 * Ownership rules (see DESIGN.md section 11): the wheel is guarded by
 * the shard mutex; schedule/cancel may be called from any thread
 * holding it, and the fire callback runs on the timer thread with the
 * same mutex held, so cancel-vs-fire is race-free — after cancel()
 * returns false the fire has fully completed, never "in flight".
 */
class WheelShard
{
  public:
    /** Invoked under the shard mutex for each expired deadline with
     *  (cookie, deadline, fire time). Must not take other shard
     *  mutexes or block. */
    using FireFn =
        std::function<void(std::uint64_t, TimeNs, TimeNs)>;

    WheelShard(TimeNs tick, std::size_t slots, int levels, FireFn fire)
        : wheel_(tick, slots, levels), onFire_(std::move(fire))
    {
    }

    /** Arm a deadline. Thread-safe. @return wheel timer id. */
    std::uint64_t
    schedule(TimeNs when, std::uint64_t cookie)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        std::uint64_t id = wheel_.schedule(when, cookie);
        TimeNs hint = earliestHint_.load(std::memory_order_relaxed);
        while (when < hint &&
               !earliestHint_.compare_exchange_weak(
                   hint, when, std::memory_order_relaxed)) {
        }
        return id;
    }

    /** Revoke a deadline. Thread-safe. False = already fired (fully —
     *  the fire callback ran to completion) or already cancelled. */
    bool
    cancel(std::uint64_t id)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return wheel_.cancel(id);
    }

    /**
     * Set the wheel's epoch before the first schedule(). Without this
     * a wheel armed with absolute host timestamps would replay every
     * tick from zero on its first advance — hours of virtual time
     * under the shard mutex.
     */
    void
    primeTo(TimeNs now)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        // Same wall-clock clamp as advance(): the timer thread may
        // have carried the wheel past our pre-lock timestamp already.
        if (now > wheel_.now())
            wheel_.advance(now, [](std::uint64_t, TimeNs) {});
    }

    /** Pending deadlines (racy snapshot). */
    std::size_t
    depth() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return wheel_.size();
    }

    /** Deadlines fired through this shard. */
    std::uint64_t fires() const
    {
        return fires_.load(std::memory_order_relaxed);
    }

    /** Lower bound on the next fire (lock-free; for nap sizing). */
    TimeNs earliestHint() const
    {
        return earliestHint_.load(std::memory_order_relaxed);
    }

    /** Metrics gauge periodically updated with the shard's depth by
     *  the timer thread; "" = not published. Set before registering. */
    std::string depthGauge;

  private:
    friend class UTimer;

    /** Timer thread: fire everything due at `now`. */
    void
    advance(TimeNs now)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        // `now` was sampled before taking the mutex; a concurrent
        // primeTo/advance with a fresher timestamp may already have
        // moved the wheel past it. The wheel itself treats a backwards
        // advance as a hard bug (in the deterministic simulator it is
        // one), so clamp the wall-clock race here instead.
        if (now < wheel_.now())
            now = wheel_.now();
        wheel_.advance(now, [&](std::uint64_t cookie, TimeNs when) {
            fires_.fetch_add(1, std::memory_order_relaxed);
            if (onFire_)
                onFire_(cookie, when, now);
        });
        earliestHint_.store(wheel_.earliest(),
                            std::memory_order_relaxed);
    }

    mutable std::mutex mutex_;
    core::TimingWheel wheel_;
    FireFn onFire_;
    std::atomic<TimeNs> earliestHint_{kTimeNever};
    std::atomic<std::uint64_t> fires_{0};
};

/** The timer-thread pool (normally a single thread). */
class UTimer
{
  public:
    struct Options
    {
        /** Signal used for the fallback delivery path. */
        int signo = SIGURG;

        /**
         * Sleep between scan passes when no deadline is imminent.
         * 0 = busy-poll like the paper's dedicated timer core; a
         * small sleep keeps single-CPU hosts usable.
         */
        TimeNs idleSleep = usToNs(200);
    };

    UTimer() = default;
    ~UTimer();

    UTimer(const UTimer &) = delete;
    UTimer &operator=(const UTimer &) = delete;

    /** utimer_init: start the timer thread. */
    void init(Options options);

    /** utimer_init with default options. */
    void init() { init(Options{}); }

    /** Stop the timer thread and drop all slots. */
    void shutdown();

    bool running() const { return running_.load(); }

    /**
     * utimer_register: allocate a deadline slot for the calling
     * thread. The slot stays valid until unregisterThread().
     */
    DeadlineSlot *registerThread();

    /** Release a slot (call from the owning thread). */
    void unregisterThread(DeadlineSlot *slot);

    /** utimer_arm_deadline: one store of the absolute deadline. */
    static void
    armDeadline(DeadlineSlot *slot, TimeNs absolute_ns)
    {
        slot->deadline.store(absolute_ns, std::memory_order_release);
    }

    /** Disarm (deadline to never). */
    static void
    disarm(DeadlineSlot *slot)
    {
        slot->deadline.store(kTimeNever, std::memory_order_release);
    }

    /**
     * Attach a timing-wheel shard: the timer thread advances it on
     * every scan pass and sizes naps from its earliest hint. The shard
     * must outlive its registration (unregister before destroying it,
     * or shut the timer down first).
     */
    void registerWheel(WheelShard *shard);

    /** Detach a shard; after return the timer thread no longer
     *  touches it. */
    void unregisterWheel(WheelShard *shard);

    /** Deadlines fired through registered wheel shards. */
    std::uint64_t wheelFiresTotal() const
    {
        return wheelFiresTotal_.load();
    }

    /** Total preemption notifications delivered. */
    std::uint64_t firesTotal() const { return firesTotal_.load(); }

    /** CLOCK_MONOTONIC ns of the most recent preemption delivery
     *  (0 = none yet); telemetry derives last-fire age from this. */
    TimeNs lastFireNs() const
    {
        return lastFireNs_.load(std::memory_order_relaxed);
    }

    /**
     * Scan passes completed (for poll-rate diagnostics). A pass counts
     * only once it is over, with release order: a caller that sees
     * this advance by two after uninstalling a metrics registry knows
     * the pass that may have looked the old one up has finished.
     */
    std::uint64_t scans() const { return scans_.load(); }

    int signo() const { return options_.signo; }

    /** True when delivery uses UINTR rather than signals. */
    bool usingUintr() const { return usingUintr_; }

  private:
    void timerLoop();

    Options options_;
    std::vector<DeadlineSlot> slots_;
    std::thread thread_;
    std::atomic<bool> running_{false};
    std::atomic<std::uint64_t> firesTotal_{0};
    std::atomic<std::uint64_t> wheelFiresTotal_{0};
    std::atomic<std::uint64_t> scans_{0};
    std::atomic<TimeNs> lastFireNs_{0};
    bool usingUintr_ = false;

    /** Registered wheel shards; the timer thread iterates under the
     *  mutex, so unregisterWheel() synchronises with advancing. */
    mutable std::mutex wheelsMutex_;
    std::vector<WheelShard *> wheels_;
};

/** Process-wide default timer instance (utimer_init convenience). */
UTimer &globalUTimer();

} // namespace preempt::runtime

#endif // PREEMPT_PREEMPTIBLE_UTIMER_HH
