/**
 * @file
 * The paper's adaptive user-controlled API (section IV-C):
 *
 *   fn_launch    create a preemptible function and run it immediately;
 *                control returns when it completes or its time slice
 *                expires.
 *   fn_resume    continue a preempted function under a new time slice.
 *   fn_completed check whether a function finished before its timeout.
 *
 * A preemptible function runs on its own pooled stack via fcontext.
 * Preemption is delivered by LibUtimer: the worker arms its deadline
 * slot before switching into the function; when the deadline passes,
 * the timer thread interrupts the worker, whose handler
 * context-switches back to the scheduler, exactly as a UINTR handler
 * would on Sapphire Rapids.
 *
 * Worker threads must call workerInit() once (after utimer_init) and
 * workerShutdown() before exiting.
 */

#ifndef PREEMPT_PREEMPTIBLE_PREEMPTIBLE_FN_HH
#define PREEMPT_PREEMPTIBLE_PREEMPTIBLE_FN_HH

#include <atomic>
#include <csignal>
#include <cstdint>
#include <functional>

#include "common/time.hh"
#include "preemptible/fcontext.hh"
#include "preemptible/stack_pool.hh"
#include "preemptible/utimer.hh"

namespace preempt::runtime {

class PreemptibleFn;

/** Outcome of fn_launch / fn_resume. */
enum class FnStatus
{
    Completed, ///< the function ran to completion
    Preempted, ///< the time slice expired; resume later
    Yielded,   ///< the function yielded voluntarily
};

/** State of a preemptible function (the paper's Fn = Context +
 *  Deadline). */
enum class FnState
{
    Fresh,     ///< never started
    Running,   ///< currently on some worker
    Preempted, ///< suspended with saved context
    Completed, ///< finished; context returned to the pool
    Cancelled, ///< discarded before completion (fn_cancel)
};

namespace detail {
/** Internal: shared implementation of fn_launch/fn_resume. */
FnStatus runFn(PreemptibleFn &fn, TimeNs timeout, bool fresh);
/** Internal: context entry point. */
void fnEntry(fcontext::Transfer t);
} // namespace detail

/** A request running as a lightweight preemptible function. */
class PreemptibleFn
{
  public:
    /** @param body the request work. */
    explicit PreemptibleFn(std::function<void()> body);
    ~PreemptibleFn();

    PreemptibleFn(const PreemptibleFn &) = delete;
    PreemptibleFn &operator=(const PreemptibleFn &) = delete;

    FnState state() const { return state_; }

    /** Times this function was preempted. */
    int preemptions() const { return preemptions_; }

    /** True once the body returned and the completion path owns the
     *  context. The preemption handler declines to context-switch a
     *  finishing function: the completion sequence reads thread-local
     *  worker state, and a migration between those reads would leave
     *  it operating on the old worker — including jumping into that
     *  worker's live scheduler context. Declining is also the right
     *  semantics: the function completes within nanoseconds, so the
     *  slice expiry is moot. */
    bool finishing() const
    {
        return finishing_.load(std::memory_order_relaxed);
    }

    /** Rebind a completed/cancelled function to new work. */
    void reset(std::function<void()> body);

  private:
    friend FnStatus detail::runFn(PreemptibleFn &fn, TimeNs timeout,
                                  bool fresh);
    friend void detail::fnEntry(fcontext::Transfer t);
    friend void fn_cancel(PreemptibleFn &fn);

    std::function<void()> body_;

    /** Set by fnEntry the moment body_ returns, before any
     *  thread-local access on the completion path (the PreemptibleFn
     *  address is stable across migration, unlike worker TLS). Read
     *  only from the preemption handler on the thread currently
     *  running the function, hence relaxed. */
    std::atomic<bool> finishing_{false};

    fcontext::Context ctx_ = nullptr;
    Stack stack_;
    FnState state_ = FnState::Fresh;
    int preemptions_ = 0;

    /** TSan fiber handle for this context (null outside TSan builds).
     *  Keeps the sanitizer's per-context shadow state migrating with
     *  the function across workers. */
    void *tsanFiber_ = nullptr;
};

/** Per-worker state shared with the preemption handler. */
class WorkerContext
{
  public:
    /** Scheduler-side context while a function runs. Only the owning
     *  OS thread ever touches it (it lives in that thread's TLS), but
     *  writes come from different execution contexts — fnEntry, the
     *  preemption handler, fn_yield — which TSan models as distinct
     *  fiber threads; relaxed atomic accesses tell it the serialization
     *  is intentional without adding fences. */
    std::atomic<fcontext::Context> schedulerCtx{nullptr};

    /** Function currently executing on this worker. */
    PreemptibleFn *current = nullptr;

    /** True while the worker executes a preemptible region; the
     *  handler ignores signals outside it. Relaxed atomic rather than
     *  volatile sig_atomic_t: equally async-signal-safe, and race-free
     *  under TSan's fiber model (same rationale as schedulerCtx). */
    std::atomic<sig_atomic_t> inRegion{0};

    /** This worker's LibUtimer deadline slot. */
    DeadlineSlot *slot = nullptr;

    /** Stack magazine in front of fnStackPool() that fn_launch,
     *  completion, fn_cancel and ~PreemptibleFn use on this thread
     *  (null = the pool itself). Set by the owner of the magazine,
     *  which must reset it before the magazine goes away. */
    StackCache *stacks = nullptr;

    /** TSC cycles spent taking and returning stacks on this thread
     *  (task_ledger.hh; stays 0 unless the ledger is compiled in). */
    std::uint64_t stackCycles = 0;

    /** Timer the slot was registered with. */
    UTimer *timer = nullptr;

    /** Diagnostics. */
    std::uint64_t preemptions = 0;
    std::uint64_t completions = 0;
    std::uint64_t staleSignals = 0;

    /** TSan fiber handle of the scheduler context (null outside TSan
     *  builds). */
    void *tsanFiber = nullptr;
};

/**
 * Initialise the calling thread as a worker: registers the LibUtimer
 * deadline slot and installs the preemption signal handler (once per
 * process).
 *
 * @param timer the timer instance to register with.
 * @return the worker context (thread-local storage).
 */
WorkerContext &workerInit(UTimer &timer);

/** Tear down the calling worker thread. */
void workerShutdown();

/** The calling thread's worker context (null when not a worker). */
WorkerContext *currentWorker();

/**
 * fn_launch: start a preemptible function with the given time slice.
 * Must be called from a worker thread.
 *
 * @param fn      a Fresh (or reset) function
 * @param timeout time slice; kTimeNever or 0 disables preemption
 */
FnStatus fn_launch(PreemptibleFn &fn, TimeNs timeout);

/** fn_resume: continue a Preempted/Yielded function. */
FnStatus fn_resume(PreemptibleFn &fn, TimeNs timeout);

/** fn_completed: true when the function finished. */
inline bool
fn_completed(const PreemptibleFn &fn)
{
    return fn.state() == FnState::Completed;
}

/** Cooperative yield from inside a preemptible function. */
void fn_yield();

/**
 * fn_cancel: discard a Preempted function without running it further
 * (the section III-B deadline abstraction: release resources when the
 * SLO is already violated). The saved stack is recycled WITHOUT
 * unwinding — objects alive on the function's stack are abandoned, so
 * cancellable request bodies must keep owning state off-stack (as the
 * paper's request contexts do).
 */
void fn_cancel(PreemptibleFn &fn);

/** The stack pool backing all preemptible functions. */
StackPool &fnStackPool();

} // namespace preempt::runtime

#endif // PREEMPT_PREEMPTIBLE_PREEMPTIBLE_FN_HH
