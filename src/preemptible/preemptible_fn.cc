#include "preemptible/preemptible_fn.hh"

#include <sys/syscall.h>
#include <ucontext.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <type_traits>

#include "common/logging.hh"
#include "obs/trace.hh"
#include "preemptible/hosttime.hh"
#include "preemptible/task_ledger.hh"

// TSan cannot follow fcontext stack switches on its own: without help
// its shadow stack corrupts, stack-local accesses are misattributed
// across workers, and the in-signal/interceptor state of a preempted
// function leaks onto the scheduler. The fiber API gives every
// preemptible function its own sanitizer thread state that we switch
// alongside the real context switch.
#if defined(__SANITIZE_THREAD__)
#define PREEMPT_TSAN_FIBERS 1
extern "C" {
void *__tsan_get_current_fiber(void);
void *__tsan_create_fiber(unsigned flags);
void __tsan_destroy_fiber(void *fiber);
void __tsan_switch_to_fiber(void *fiber, unsigned flags);
}
#endif

namespace preempt::runtime {

using fcontext::preempt_jump_fcontext;
using fcontext::preempt_make_fcontext;

namespace {

#ifdef PREEMPT_TSAN_FIBERS
// Debug-only: PREEMPT_FIBER_TRACE=1 logs every fiber transition to
// stderr so a wiring violation can be reconstructed post-mortem.
inline void
fiberTrace(const char *op, const void *fiber)
{
    static const bool on = ::getenv("PREEMPT_FIBER_TRACE") != nullptr;
    if (!on)
        return;
    char buf[96];
    int n = ::snprintf(buf, sizeof(buf), "FT %s %p tid=%ld\n", op, fiber,
                       static_cast<long>(::syscall(SYS_gettid)));
    if (n > 0)
        (void)!::write(2, buf, static_cast<std::size_t>(n));
}
#else
inline void
fiberTrace(const char *, const void *)
{
}
#endif

inline void
tsanSwitchFiber(void *fiber, const char *site)
{
#ifdef PREEMPT_TSAN_FIBERS
    if (fiber) {
        fiberTrace(site, fiber);
        __tsan_switch_to_fiber(fiber, 0);
    }
#else
    (void)fiber;
    (void)site;
#endif
}

inline void *
tsanNewFiber()
{
#ifdef PREEMPT_TSAN_FIBERS
    void *f = __tsan_create_fiber(0);
    fiberTrace("new", f);
    return f;
#else
    return nullptr;
#endif
}

inline void
tsanFreeFiber(void *&fiber)
{
#ifdef PREEMPT_TSAN_FIBERS
    if (fiber) {
        fiberTrace("del", fiber);
        __tsan_destroy_fiber(fiber);
    }
#endif
    fiber = nullptr;
}

// Markers passed through context switches back to the scheduler.
constexpr std::uintptr_t kMarkCompleted = 1;
constexpr std::uintptr_t kMarkPreempted = 2;
constexpr std::uintptr_t kMarkYielded = 3;

std::once_flag handler_once;
int handler_signo = 0;

// Adjust the calling OS thread's mask for the preemption signal. The
// mask is kernel-side per-thread state, which makes this the one
// preemption-disabling primitive that is migration-safe by
// construction: if a preemption moves the function to another worker
// mid-call, the syscall simply executes (or restarts) on the thread
// the function landed on, and everything after it runs migration-free
// on that thread. fn_yield relies on this; see the comment there.
inline void
maskPreemptSignal(int how)
{
    if (handler_signo != 0) {
        sigset_t set;
        sigemptyset(&set);
        sigaddset(&set, handler_signo);
        ::pthread_sigmask(how, &set, nullptr);
    }
}

// Under TSan the fiber bookkeeping (__tsan_create/switch/destroy) is
// not async-signal-safe, and TSan's deferred signal delivery can run
// the preemption handler at interceptor boundaries inside those
// windows, corrupting the fiber<->proc wiring ("thr->proc1 == nullptr"
// CHECK). TSan builds therefore keep the preemption signal blocked
// outside the preemptible region: the scheduler side blocks it for the
// whole of runFn, and the fiber side unblocks it only once the region
// is entered (inRegion set, schedulerCtx live). Production builds skip
// this — the fcontext switch needs no bookkeeping, and two
// rt_sigprocmask calls per slice would tax the µs-scale hot path.
inline void
tsanMaskPreemptSignal(int how)
{
#ifdef PREEMPT_TSAN_FIBERS
    maskPreemptSignal(how);
#else
    (void)how;
#endif
}

inline void
tsanBlockPreemptSignal()
{
    tsanMaskPreemptSignal(SIG_BLOCK);
}

inline void
tsanUnblockPreemptSignal()
{
    tsanMaskPreemptSignal(SIG_UNBLOCK);
}

// The worker context must be constant-initialised: the signal handler
// reads it and must never trigger a TLS init guard.
static_assert(std::is_trivially_destructible_v<WorkerContext>);
constinit thread_local WorkerContext tl_worker;
constinit thread_local bool tl_worker_active = false;

/**
 * Re-derive the calling thread's worker context. Compilers compute a
 * thread_local's address once per function and reuse it across calls —
 * valid for ordinary code, wrong on a preemptible stack: the code after
 * a context switch may run on a *different* OS thread (preempt on
 * worker A, steal, resume on worker B), and a cached TLS address from
 * before the switch is faithfully restored with the callee-saved
 * registers, silently aliasing the old thread's state. Every TLS
 * access that follows a potential migration point must go through this
 * noinline call so the address is recomputed on the current thread.
 */
__attribute__((noinline)) WorkerContext &
workerTls()
{
    // The empty asm keeps interprocedural analysis from concluding the
    // returned address is invariant and folding repeated calls.
    asm volatile("");
    return tl_worker;
}

/**
 * Preemption signal handler (the UINTR-handler analogue). Runs on the
 * preemptible function's stack, saves it by context-switching back to
 * the worker's scheduler context, and — when the function is later
 * resumed — returns through sigreturn into the interrupted code.
 */
void
preemptionHandler(int, siginfo_t *, void *uctx)
{
    int saved_errno = errno;
    // Claim the preemption with a single exchange: SA_NODEFER means a
    // second fire (a resend, or a migrated stale deadline) can nest
    // inside this handler, and exactly one instance may perform the
    // context switch. The loser must return without touching the
    // context-switch state at all.
    if (!tl_worker_active ||
        tl_worker.inRegion.exchange(0, std::memory_order_relaxed) == 0) {
        // Late fire: the function already completed and the worker is
        // back in scheduler code, or another handler instance owns the
        // preemption. Ignore.
        if (tl_worker_active)
            ++tl_worker.staleSignals;
        errno = saved_errno;
        return;
    }
    // Decline the preemption when the function's body has already
    // returned: the completion path in fnEntry is executing, and a
    // context switch here would park it mid-sequence. Resumed on a
    // *different* worker after a steal, it would continue with the old
    // worker's TLS addresses held in restored callee-saved registers —
    // and jump into that worker's live scheduler context. The claim
    // above already cleared inRegion, which is exactly the state the
    // completion path is about to establish anyway, and the slice
    // expiry is moot: the function completes within nanoseconds.
    if (tl_worker.current != nullptr && tl_worker.current->finishing()) {
        ++tl_worker.staleSignals;
        errno = saved_errno;
        return;
    }
    // obs::emit is async-signal-safe: one relaxed load plus wait-free
    // ring stores (a1 distinguishes the signal path from UINTR).
    obs::emit(obs::EventKind::HandlerEnter, 0, hostNowNs(),
              tl_worker.preemptions, 0, 1);
    // The context switch below abandons this thread's sigreturn: the
    // kernel signal frame is unwound later on whichever worker resumes
    // the function. Restore the pre-delivery signal mask here, or this
    // thread would keep the during-handler mask forever (harmless with
    // our empty sa_mask, fatal under sanitizers that intercept
    // sigaction and run handlers with all signals blocked).
    if (uctx) {
        sigset_t mask = static_cast<ucontext_t *>(uctx)->uc_sigmask;
#ifdef PREEMPT_TSAN_FIBERS
        // The thread is headed into scheduler code, which TSan builds
        // keep signal-free (see tsanMaskPreemptSignal).
        if (handler_signo != 0)
            sigaddset(&mask, handler_signo);
#endif
        ::pthread_sigmask(SIG_SETMASK, &mask, nullptr);
    }
    // Read the jump target before the TSan fiber switch: an argument
    // evaluated after it would be attributed to the scheduler fiber
    // even though this side still owns the state.
    fcontext::Context sched =
        tl_worker.schedulerCtx.load(std::memory_order_relaxed);
    tsanSwitchFiber(tl_worker.tsanFiber, "sw-h");
    fcontext::Transfer t = preempt_jump_fcontext(
        sched, reinterpret_cast<void *>(kMarkPreempted));

    // Resumed via fn_resume — possibly on a different worker thread,
    // so the TLS address must be recomputed (errno re-resolves itself:
    // it expands to a fresh __errno_location() call).
    WorkerContext &w = workerTls();
    w.schedulerCtx.store(t.fctx, std::memory_order_relaxed);
    w.inRegion.store(1, std::memory_order_relaxed);
    // Back in the preemptible region. A real sigreturn restores the
    // task-time mask from the signal frame; TSan's deferred delivery
    // calls the handler as a plain function, so the unblock must be
    // explicit there.
    tsanUnblockPreemptSignal();
    errno = saved_errno;
    // Normal return unwinds the kernel signal frame (sigreturn) and
    // resumes the interrupted request code.
}

void
installHandler(int signo)
{
    std::call_once(handler_once, [signo] {
        struct sigaction sa = {};
        sa.sa_sigaction = &preemptionHandler;
        // SA_NODEFER: the handler context-switches away instead of
        // returning, so the signal must not stay blocked. SA_SIGINFO
        // exposes the ucontext so the handler can restore the signal
        // mask before abandoning the frame.
        sa.sa_flags = SA_NODEFER | SA_SIGINFO;
        sigemptyset(&sa.sa_mask);
        int rc = ::sigaction(signo, &sa, nullptr);
        fatal_if(rc != 0, "sigaction(%d) failed", signo);
        handler_signo = signo;
    });
    fatal_if(handler_signo != signo,
             "preemption handler already installed for signal %d",
             handler_signo);
}

// Stacks go through the calling worker's magazine when it has one, so
// a runtime worker takes the pool's mutex only per batch; bare
// fn_launch users (and any non-worker thread) use the pool directly.
Stack
acquireStack()
{
    const std::uint64_t t0 = ledgerStamp();
    StackCache *cache = tl_worker_active ? tl_worker.stacks : nullptr;
    Stack s = cache ? cache->acquire() : fnStackPool().acquire();
    if constexpr (kTaskLedger) {
        if (tl_worker_active)
            tl_worker.stackCycles += ledgerStamp() - t0;
    }
    return s;
}

void
releaseStack(Stack s)
{
    const std::uint64_t t0 = ledgerStamp();
    StackCache *cache = tl_worker_active ? tl_worker.stacks : nullptr;
    if (cache)
        cache->release(s);
    else
        fnStackPool().release(s);
    if constexpr (kTaskLedger) {
        if (tl_worker_active)
            tl_worker.stackCycles += ledgerStamp() - t0;
    }
}

} // namespace

namespace detail {

/** Entry point of every preemptible function context. */
void
fnEntry(fcontext::Transfer t)
{
    auto *fn = static_cast<PreemptibleFn *>(t.data);
    tl_worker.schedulerCtx.store(t.fctx, std::memory_order_relaxed);
    tl_worker.inRegion.store(1, std::memory_order_relaxed);
    tsanUnblockPreemptSignal();
    fn->body_();

    // Completion. The sequence below reads thread-local worker state,
    // and a preemption landing inside it would park the context
    // mid-sequence; after a steal it would resume on a different OS
    // thread whose restored callee-saved registers still hold the old
    // worker's TLS addresses — storing into the old worker and jumping
    // into its live scheduler context. Close that window first:
    // finishing_ lives in the PreemptibleFn, whose address is
    // migration-invariant, so the store lands on the right object no
    // matter which thread executes it, and from the moment it commits
    // the handler declines to context-switch this function. A signal
    // that fires before the store commits is an ordinary preemption —
    // the store then simply completes on whichever worker resumes us,
    // before any worker state is read.
    fn->finishing_.store(true, std::memory_order_relaxed);

    // No migration is possible past this point, so the recomputed TLS
    // address stays valid through the jump. (It must still be
    // recomputed: the body may have been preempted and resumed on a
    // different worker thread.)
    WorkerContext &w = workerTls();
    w.inRegion.store(0, std::memory_order_relaxed);
    tsanBlockPreemptSignal();
    fcontext::Context sched =
        w.schedulerCtx.load(std::memory_order_relaxed);
    tsanSwitchFiber(w.tsanFiber, "sw-e");
    preempt_jump_fcontext(sched,
                          reinterpret_cast<void *>(kMarkCompleted));
    panic("completed preemptible function was resumed");
}

} // namespace detail

PreemptibleFn::PreemptibleFn(std::function<void()> body)
    : body_(std::move(body))
{
    fatal_if(!body_, "preemptible function needs a body");
}

PreemptibleFn::~PreemptibleFn()
{
    panic_if(state_ == FnState::Running,
             "destroying a running preemptible function");
    tsanFreeFiber(tsanFiber_);
    if (stack_.valid())
        releaseStack(stack_);
}

void
PreemptibleFn::reset(std::function<void()> body)
{
    fatal_if(state_ == FnState::Running || state_ == FnState::Preempted,
             "reset requires a Fresh, Completed, or Cancelled function");
    body_ = std::move(body);
    fatal_if(!body_, "preemptible function needs a body");
    ctx_ = nullptr;
    state_ = FnState::Fresh;
    preemptions_ = 0;
    finishing_.store(false, std::memory_order_relaxed);
}

StackPool &
fnStackPool()
{
    static StackPool pool(256 * 1024);
    return pool;
}

WorkerContext &
workerInit(UTimer &timer)
{
    fatal_if(tl_worker_active, "workerInit called twice on this thread");
    fatal_if(!fcontext::haveFastContext(),
             "this platform lacks the fcontext implementation");
    installHandler(timer.signo());
    tl_worker.slot = timer.registerThread();
    tl_worker.timer = &timer;
#ifdef PREEMPT_TSAN_FIBERS
    tl_worker.tsanFiber = __tsan_get_current_fiber();
    fiberTrace("base", tl_worker.tsanFiber);
#endif
    tl_worker_active = true;
    return tl_worker;
}

void
workerShutdown()
{
    if (!tl_worker_active)
        return;
    panic_if(tl_worker.inRegion.load(std::memory_order_relaxed),
             "workerShutdown inside a function");
    if (tl_worker.slot && tl_worker.timer) {
        tl_worker.timer->unregisterThread(tl_worker.slot);
        tl_worker.slot = nullptr;
        tl_worker.timer = nullptr;
    }
    tl_worker.stacks = nullptr;
    tl_worker_active = false;
}

WorkerContext *
currentWorker()
{
    return tl_worker_active ? &tl_worker : nullptr;
}

namespace detail {

FnStatus
runFn(PreemptibleFn &fn, TimeNs timeout, bool fresh)
{
    fatal_if(!tl_worker_active,
             "fn_launch/fn_resume require workerInit() first");
    WorkerContext &w = tl_worker;
    fatal_if(w.current != nullptr,
             "nested fn_launch/fn_resume on a worker");
    if (fresh) {
        fatal_if(fn.state() != FnState::Fresh,
                 "fn_launch requires a Fresh function (use fn_resume)");
        if (!fn.stack_.valid())
            fn.stack_ = acquireStack();
        fn.ctx_ = preempt_make_fcontext(fn.stack_.top(),
                                            fn.stack_.usable(),
                                            &fnEntry);
        fn.tsanFiber_ = tsanNewFiber();
    } else {
        fatal_if(fn.state() != FnState::Preempted,
                 "fn_resume requires a Preempted function");
    }

    fn.state_ = FnState::Running;
    w.current = &fn;

    // TSan builds keep the scheduler section signal-free; the fiber
    // side unblocks once the preemptible region is entered.
    tsanBlockPreemptSignal();

    bool preemptible =
        timeout != 0 && timeout != kTimeNever && w.slot != nullptr;
    if (preemptible)
        UTimer::armDeadline(w.slot, hostNowNs() + timeout);

    // inRegion is set inside the function context (fnEntry, the
    // handler tail, fn_yield's tail), never here: those sites run
    // after schedulerCtx holds a live jump target. Setting it before
    // the jump would open a window where an early deadline fire sends
    // the handler through a stale context.
    // Read fn.ctx_ before the TSan fiber switch: evaluated after it,
    // the load would be attributed to the function's fiber and race
    // with the scheduler-side fn.ctx_ = t.fctx below.
    fcontext::Context target = fn.ctx_;
    void *arg = fresh ? &fn : nullptr;
    tsanSwitchFiber(fn.tsanFiber_, "sw-r");
    fcontext::Transfer t = preempt_jump_fcontext(target, arg);
    w.inRegion.store(0, std::memory_order_relaxed);
    if (preemptible)
        UTimer::disarm(w.slot);
    w.current = nullptr;

    auto marker = reinterpret_cast<std::uintptr_t>(t.data);
    switch (marker) {
      case kMarkCompleted:
        fn.state_ = FnState::Completed;
        fn.ctx_ = nullptr;
        tsanFreeFiber(fn.tsanFiber_);
        // Recycle the stack immediately.
        releaseStack(fn.stack_);
        fn.stack_ = Stack{};
        ++w.completions;
        tsanUnblockPreemptSignal();
        return FnStatus::Completed;
      case kMarkPreempted:
        fn.ctx_ = t.fctx;
        fn.state_ = FnState::Preempted;
        ++fn.preemptions_;
        ++w.preemptions;
        tsanUnblockPreemptSignal();
        return FnStatus::Preempted;
      case kMarkYielded:
        fn.ctx_ = t.fctx;
        fn.state_ = FnState::Preempted;
        // Unconditional (not TSan-only): fn_yield blocked the signal
        // on this thread before switching here, and leaving it blocked
        // would silently disable preemption for every later slice.
        maskPreemptSignal(SIG_UNBLOCK);
        return FnStatus::Yielded;
      default:
        panic("unknown context-switch marker %llu",
              static_cast<unsigned long long>(marker));
    }
}

} // namespace detail

FnStatus
fn_launch(PreemptibleFn &fn, TimeNs timeout)
{
    return detail::runFn(fn, timeout, true);
}

FnStatus
fn_resume(PreemptibleFn &fn, TimeNs timeout)
{
    return detail::runFn(fn, timeout, false);
}

void
fn_cancel(PreemptibleFn &fn)
{
    fatal_if(fn.state() != FnState::Preempted,
             "fn_cancel requires a Preempted function");
    // The context's stack frames are abandoned, not unwound.
    fn.ctx_ = nullptr;
    tsanFreeFiber(fn.tsanFiber_);
    releaseStack(fn.stack_);
    fn.stack_ = Stack{};
    fn.state_ = FnState::Cancelled;
}

void
fn_yield()
{
    // Block the preemption signal before touching any thread-local
    // state: a preemption landing between the TLS reads below and the
    // jump could migrate this function to another worker, leaving the
    // rest of the sequence operating on — and finally jumping into the
    // live scheduler context of — the old worker. The mask is
    // per-OS-thread kernel state, so the block is migration-safe (see
    // maskPreemptSignal); once it returns, everything up to the jump
    // runs on one thread. The completion path avoids the syscall cost
    // with PreemptibleFn::finishing_, but fn_yield has no
    // migration-stable handle on its own PreemptibleFn (it would have
    // to read it from worker TLS, which is the very thing that can go
    // stale); a cooperative yield is off the preemption hot path, so
    // the syscall is acceptable here. The matching unblock happens on
    // runFn's Yielded return, on this same thread.
    maskPreemptSignal(SIG_BLOCK);
    WorkerContext &w = workerTls();
    fatal_if(!tl_worker_active ||
                 !w.inRegion.load(std::memory_order_relaxed),
             "fn_yield outside a preemptible function");
    w.inRegion.store(0, std::memory_order_relaxed);
    fcontext::Context sched =
        w.schedulerCtx.load(std::memory_order_relaxed);
    tsanSwitchFiber(w.tsanFiber, "sw-y");
    fcontext::Transfer t = preempt_jump_fcontext(
        sched, reinterpret_cast<void *>(kMarkYielded));
    // Resumed — possibly on a different worker thread, so the TLS
    // address must be recomputed; the pre-yield `w` is stale here.
    WorkerContext &wr = workerTls();
    wr.schedulerCtx.store(t.fctx, std::memory_order_relaxed);
    wr.inRegion.store(1, std::memory_order_relaxed);
    // The resuming thread's mask does not have the signal blocked (the
    // yielding thread unblocked at runFn's Yielded return); only TSan
    // builds, which keep scheduler sections signal-free, need the
    // explicit unblock on region entry.
    tsanUnblockPreemptSignal();
}

} // namespace preempt::runtime
