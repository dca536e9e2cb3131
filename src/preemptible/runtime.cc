#include "preemptible/runtime.hh"

#include <algorithm>
#include <array>
#include <ctime>
#include <string>

#include "common/logging.hh"
#include "control/admission.hh"
#include "obs/metrics.hh"
#include "obs/spans.hh"
#include "obs/telemetry.hh"
#include "obs/trace.hh"
#include "preemptible/hosttime.hh"

namespace preempt::runtime {

namespace {

/** Max tasks taken per steal round (oldest first). */
constexpr std::size_t kStealBatch = 8;

/** Two-choice victim rounds before giving up and napping. */
constexpr int kStealRounds = 2;

/** Per-worker deadline wheel shard geometry. */
constexpr TimeNs kWheelTick = usToNs(100);
constexpr std::size_t kWheelSlots = 256;
constexpr int kWheelLevels = 3;

/** Inbox arrivals moved onto the deque per drain. */
constexpr std::size_t kDrainBatch = 64;

/** Process-wide task id counter: colocated runtimes (one per tenant)
 *  share one id space so a span collector keyed by (epoch, id) never
 *  sees two tenants' tasks collide. */
std::atomic<std::uint64_t> g_nextTaskId{0};

/** Bump a single-writer count: a relaxed load+store, no locked RMW.
 *  Only the owning thread may call this on a given count. */
inline void
bump(std::atomic<std::uint64_t> &count, std::uint64_t n = 1)
{
    count.store(count.load(std::memory_order_relaxed) + n,
                std::memory_order_relaxed);
}

/** Add `n` to counter `name` of `registry` (none: no-op) through the
 *  cached handle `slot`, looked up by name at its first use. */
void
addTo(obs::MetricsRegistry *registry, obs::Counter *&slot,
      const char *name, std::uint64_t n = 1)
{
    if (!registry)
        return;
    if (!slot)
        slot = &registry->counter(name);
    slot->add(n);
}

} // namespace

PreemptibleRuntime::PreemptibleRuntime(Options options)
    : options_(std::move(options)), quantum_(options_.quantum)
{
    fatal_if(options_.nWorkers <= 0, "runtime needs at least one worker");
    timer_.init(options_.timer);
    startedAt_ = hostNowNs();

    // The shard fire path touches only the task's atomic flag and
    // counters: the task stays alive because every deletion first
    // cancels the pending deadline under the same shard mutex the
    // fire callback runs under.
    auto onFire = [this](std::uint64_t cookie, TimeNs when,
                         TimeNs now) {
        (void)when;
        (void)now;
        auto *task = reinterpret_cast<TaskRecord *>(cookie);
        task->deadlineExpired.store(true, std::memory_order_release);
        deadlineFires_.fetch_add(1, std::memory_order_relaxed);
        obs::addCount("runtime.deadline.fires");
    };
    for (int i = 0; i < options_.nWorkers; ++i) {
        workers_.push_back(std::make_unique<WorkerState>(
            options_.queueCapacity, options_.seed,
            static_cast<std::uint64_t>(i)));
        WorkerState &w = *workers_.back();
        w.shard = std::make_unique<WheelShard>(kWheelTick, kWheelSlots,
                                               kWheelLevels, onFire);
        w.shard->primeTo(hostNowNs());
        w.shard->depthGauge =
            "runtime.wheel.depth/shard" + std::to_string(i);
        timer_.registerWheel(w.shard.get());
    }
    for (int i = 0; i < options_.nWorkers; ++i)
        workers_[static_cast<std::size_t>(i)]->thread =
            std::thread([this, i] { workerMain(i); });

    samplerId_ = obs::registerTelemetrySampler(
        [this](obs::MetricsRegistry &r) { sampleTelemetry(r); });
}

PreemptibleRuntime::~PreemptibleRuntime()
{
    shutdown();
    // Every task retired before the workers exited, so every record
    // is back in its home worker's lists.
    for (auto &w : workers_) {
        for (TaskRecord *lists : {w->freeRecords, w->returned.load()}) {
            while (TaskRecord *r = lists) {
                lists = r->nextFree;
                delete r;
            }
        }
    }
}

bool
PreemptibleRuntime::submit(std::function<void()> body, int cls)
{
    std::uint64_t slot = rrNext_.fetch_add(1, std::memory_order_relaxed);
    return submitTo(static_cast<int>(slot % workers_.size()),
                    std::move(body), cls, 0);
}

bool
PreemptibleRuntime::submitTo(int worker, std::function<void()> body,
                             int cls, TimeNs deadlineIn)
{
    const std::uint64_t t0 = ledgerStamp();
    fatal_if(!body, "submitting an empty task");
    fatal_if(stopping_.load(), "submit after shutdown");
    fatal_if(worker < 0 || worker >= options_.nWorkers,
             "submitTo target out of range");
    const std::uint64_t id =
        g_nextTaskId.fetch_add(1, std::memory_order_relaxed);
    if (options_.admission &&
        !options_.admission->decide(options_.tenant, cls)) {
        // Policy rejection: first-class and before any task state
        // exists — no TaskSubmit span is opened, so span accounting
        // only ever sees admitted work.
        rejectedPolicy_.fetch_add(1, std::memory_order_relaxed);
        obs::emit(obs::EventKind::TaskReject,
                  static_cast<std::uint32_t>(worker), hostNowNs(), id,
                  static_cast<std::uint64_t>(cls), options_.tenant);
        return false;
    }
    WorkerState &w = *workers_[static_cast<std::size_t>(worker)];
    const TimeNs now = hostNowNs();
    const std::uint64_t t1 = ledgerStamp();

    // SpscRing is single-producer; serialise submitters per worker.
    // Under the mutex the producer side is exact: space seen here is
    // still there at the push, since the worker only frees slots.
    std::lock_guard<std::mutex> lock(w.submitMutex);
    if (w.inbox.size() >= w.inbox.capacity()) {
        // Full-inbox backpressure, refused before any task state
        // exists, and observable, never silent: a first-class reject
        // record plus a counter callers can poll.
        rejectedFull_.fetch_add(1, std::memory_order_relaxed);
        countRejectedFull(w);
        obs::emit(obs::EventKind::TaskReject,
                  static_cast<std::uint32_t>(worker), now, id,
                  static_cast<std::uint64_t>(cls), options_.tenant);
        return false;
    }
    TaskRecord *task = takeRecord(w, worker);
    task->fn.emplace(std::move(body));
    task->cls = cls;
    task->id = id;
    task->submitNs = now;
    task->owner = static_cast<std::uint32_t>(worker);
    task->deadlineAt = 0;
    task->deadlineExpired.store(false, std::memory_order_relaxed);
    if (deadlineIn != 0) {
        // Arm before publishing: once the task is in the inbox another
        // worker may complete it (and cancel the deadline) right away.
        task->deadlineAt = now + deadlineIn;
        task->deadlineId = w.shard->schedule(
            task->deadlineAt, reinterpret_cast<std::uint64_t>(task));
    }
    const std::uint64_t t2 = ledgerStamp();
    // Span anchor: end-to-end latency is measured from this record,
    // so span total == the sojourn payload on Complete, exactly.
    obs::emitSpan(obs::EventKind::TaskSubmit,
                  static_cast<std::uint32_t>(worker), now, id,
                  static_cast<std::uint64_t>(cls), options_.tenant);
    if (deadlineIn != 0) {
        obs::emit(obs::EventKind::TimerArm,
                  static_cast<std::uint32_t>(worker), now, id,
                  task->deadlineAt);
    }
    obs::emit(obs::EventKind::Dispatch, static_cast<std::uint32_t>(worker),
              now, id, static_cast<std::uint64_t>(cls));
    const std::uint64_t t3 = ledgerStamp();
    bool pushed = w.inbox.push(task);
    panic_if(!pushed, "inbox full after its space was checked");
    inFlight_.fetch_add(1, std::memory_order_relaxed);
    submitted_.fetch_add(1, std::memory_order_relaxed);
    if constexpr (kTaskLedger) {
        w.submitLedger.add(Layer::Admit, t1 - t0);
        w.submitLedger.add(Layer::Record, t2 - t1);
        w.submitLedger.add(Layer::Emit, t3 - t2);
        w.submitLedger.add(Layer::Inbox, ledgerStamp() - t3);
    }
    return true;
}

TaskRecord *
PreemptibleRuntime::takeRecord(WorkerState &w, int worker)
{
    if (!w.freeRecords)
        w.freeRecords = w.returned.exchange(nullptr, std::memory_order_acquire);
    TaskRecord *task = w.freeRecords;
    if (task) {
        w.freeRecords = task->nextFree;
        return task;
    }
    // Warm-up or a deeper backlog than ever before: the pools grow
    // lazily and keep every record until the runtime is destroyed.
    task = new TaskRecord;
    task->home = static_cast<std::uint32_t>(worker);
    ++w.recordsCreated;
    return task;
}

void
PreemptibleRuntime::retire(TaskRecord *task)
{
    // The wheel's fire callback writes through the raw record pointer;
    // only a deadline revoked under the shard mutex (or one that
    // already fired) guarantees it never will again.
    panic_if(task->deadlineId != 0,
             "recycling a task record whose deadline is still armed");
    // The task's captured state dies with the task, not when the
    // record is next used.
    task->fn.reset();
    std::atomic<TaskRecord *> &list = workers_[task->home]->returned;
    TaskRecord *head = list.load(std::memory_order_relaxed);
    do {
        task->nextFree = head;
    } while (!list.compare_exchange_weak(head, task,
                                         std::memory_order_release,
                                         std::memory_order_relaxed));
    inFlight_.fetch_sub(1, std::memory_order_release);
}

void
PreemptibleRuntime::countRejectedFull(WorkerState &w)
{
    SubmitHandles &h = w.submitMetrics;
    std::uint64_t gen = obs::metricsGeneration();
    obs::MetricsRegistry *registry = obs::metricsRegistry();
    if (gen != h.generation || registry != h.registry)
        h = SubmitHandles{gen, registry, nullptr};
    addTo(h.registry, h.rejectedFull, "runtime.submit.rejected_full");
}

std::size_t
PreemptibleRuntime::drainInbox(int index, WorkerState &w)
{
    // FCFS: take the oldest arrivals and push them newest-first. The
    // deque is empty here (we drain only once our pops found nothing),
    // so the owner's LIFO pops serve them oldest-first while thieves'
    // FIFO steals take the newest.
    std::array<TaskRecord *, kDrainBatch> batch;
    std::size_t moved = 0;
    while (moved < batch.size() && w.inbox.pop(batch[moved]))
        ++moved;
    for (std::size_t i = moved; i > 0; --i) {
        if (!w.ready.push(batch[i - 1])) {
            // Deque full (stolen backlog): run it right now rather
            // than lose it.
            runTask(index, batch[i - 1]);
        }
    }
    return moved;
}

TaskRecord *
PreemptibleRuntime::trySteal(int self)
{
    const int n = options_.nWorkers;
    if (!options_.stealing || n < 2)
        return nullptr;
    WorkerState &me = *workers_[static_cast<std::size_t>(self)];
    MetricHandles &m = metrics(self);

    // Draw a worker index other than self from this worker's stream.
    auto pick = [&]() {
        std::uint32_t r =
            me.rng.next() % static_cast<std::uint32_t>(n - 1);
        int v = static_cast<int>(r);
        return v >= self ? v + 1 : v;
    };

    std::array<TaskRecord *, kStealBatch> spoils;
    TaskRecord *taken = nullptr;
    int rounds = 0;
    while (!taken && rounds < kStealRounds) {
        ++rounds;

        // Two-choice: probe two distinct victims, raid the longer one.
        int v1 = pick();
        int victim = v1;
        if (n > 2) {
            std::uint32_t r =
                me.rng.next() % static_cast<std::uint32_t>(n - 2);
            int v2 = v1;
            for (int i = 0, seen = 0; i < n; ++i) {
                if (i == self || i == v1)
                    continue;
                if (seen++ == static_cast<int>(r)) {
                    v2 = i;
                    break;
                }
            }
            std::size_t s1 =
                workers_[static_cast<std::size_t>(v1)]->ready.size();
            std::size_t s2 =
                workers_[static_cast<std::size_t>(v2)]->ready.size();
            victim = s1 >= s2 ? v1 : v2;
        }

        StealResult last = StealResult::Empty;
        std::size_t got =
            workers_[static_cast<std::size_t>(victim)]->ready.stealBatch(
                spoils.data(), kStealBatch, &last);
        if (last == StealResult::Abort) {
            bump(me.counters.stealAborts);
            addTo(m.registry, m.stealAbort, "runtime.steal.abort");
        }
        if (got == 0)
            continue;
        bump(me.counters.stealHits, got);
        addTo(m.registry, m.stealHit, "runtime.steal.hit", got);
        obs::emit(obs::EventKind::Steal,
                  static_cast<std::uint32_t>(self), hostNowNs(), got,
                  static_cast<std::uint64_t>(victim));
        for (std::size_t i = 0; i < got; ++i)
            migrateTask(spoils[i], self);
        // Keep the oldest (spoils[0]) to run now; stage the rest so
        // LIFO pops still see them oldest-first.
        for (std::size_t i = got; i > 1; --i) {
            if (!me.ready.push(spoils[i - 1]))
                runTask(self, spoils[i - 1]);
        }
        taken = spoils[0];
    }
    // Count the rounds once per call: idle workers call this in a
    // tight loop, and the registry counter is shared between them.
    bump(me.counters.stealAttempts, static_cast<std::uint64_t>(rounds));
    addTo(m.registry, m.stealAttempt, "runtime.steal.attempt",
          static_cast<std::uint64_t>(rounds));
    return taken;
}

void
PreemptibleRuntime::migrateTask(TaskRecord *task, int to)
{
    int from = static_cast<int>(task->owner);
    if (from == to)
        return;
    bump(workers_[static_cast<std::size_t>(to)]->counters.migrations);
    MetricHandles &m = metrics(to);
    addTo(m.registry, m.migrations, "runtime.migrations");
    obs::emitSpan(obs::EventKind::TaskMigrate,
                  static_cast<std::uint32_t>(to), hostNowNs(), task->id,
                  static_cast<std::uint64_t>(from),
                  static_cast<std::uint64_t>(to));
    if (task->deadlineId != 0) {
        // Move the pending deadline to the adopting worker's shard.
        // cancel() false means the fire callback already ran (fully,
        // under the shard mutex) — nothing left to move.
        WheelShard &fromShard =
            *workers_[static_cast<std::size_t>(from)]->shard;
        if (fromShard.cancel(task->deadlineId)) {
            task->deadlineId =
                workers_[static_cast<std::size_t>(to)]->shard->schedule(
                    task->deadlineAt,
                    reinterpret_cast<std::uint64_t>(task));
        } else {
            task->deadlineId = 0;
        }
    }
    task->owner = static_cast<std::uint32_t>(to);
}

void
PreemptibleRuntime::cancelDeadline(TaskRecord *task)
{
    if (task->deadlineId == 0)
        return;
    workers_[task->owner]->shard->cancel(task->deadlineId);
    task->deadlineId = 0;
}

bool
PreemptibleRuntime::deadlineHopeless(const TaskRecord *task) const
{
    // Trust the wheel's verdict, but also consult the wall clock
    // directly: on an oversubscribed host the timer thread may be
    // starved past a deadline it has not yet marked.
    if (task->deadlineExpired.load(std::memory_order_acquire))
        return true;
    return task->deadlineAt != 0 && hostNowNs() >= task->deadlineAt;
}

void
PreemptibleRuntime::dropTask(int worker, TaskRecord *task)
{
    cancelDeadline(task);
    bump(workers_[static_cast<std::size_t>(worker)]->counters.expiredDrops);
    MetricHandles &m = metrics(worker);
    addTo(m.registry, m.expiredDrops, "runtime.expired_drops");
    TimeNs now = hostNowNs();
    obs::emitSpan(obs::EventKind::CancelRequest,
                  static_cast<std::uint32_t>(worker), now, task->id,
                  now - task->submitNs);
    retire(task);
}

PreemptibleRuntime::MetricHandles &
PreemptibleRuntime::metrics(int index)
{
    MetricHandles &h = workers_[static_cast<std::size_t>(index)]->metrics;
    std::uint64_t gen = obs::metricsGeneration();
    if (gen == h.generation) [[likely]]
        return h;
    // The registry changed (or this is the first use): drop every
    // handle. Read the registry on this worker's thread, so a
    // thread-confined one would count like the by-name helpers do.
    h = MetricHandles{};
    h.generation = gen;
    h.registry = obs::metricsRegistry();
    return h;
}

void
PreemptibleRuntime::workerMain(int index)
{
    WorkerContext &ctx = workerInit(timer_);
    WorkerState &w = *workers_[static_cast<std::size_t>(index)];
    // This worker's stack magazine: launches and completions take the
    // process-wide pool's mutex only per batch. Flushed back to the
    // pool when the worker exits.
    StackCache stacks(fnStackPool());
    ctx.stacks = &stacks;

    for (;;) {
        if constexpr (kTaskLedger)
            w.passStart = ledgerStamp();
        // Policy #1: new tasks take priority over preempted ones.
        TaskRecord *task = nullptr;
        if (w.ready.pop(task)) {
            runTask(index, task);
            continue;
        }
        if (drainInbox(index, w) > 0)
            continue;
        TaskRecord *parked = nullptr;
        if (longLen_.load(std::memory_order_acquire) != 0) {
            std::lock_guard<std::mutex> lock(longMutex_);
            if (!longQueue_.empty()) {
                parked = longQueue_.front();
                longQueue_.pop_front();
                longLen_.store(longQueue_.size(),
                               std::memory_order_release);
            }
        }
        if (parked) {
            migrateTask(parked, index);
            runTask(index, parked);
            continue;
        }
        // Steal before napping: placement skew must not idle us while
        // a peer drowns.
        if (TaskRecord *stolen = trySteal(index)) {
            runTask(index, stolen);
            continue;
        }
        if (stopping_.load(std::memory_order_acquire) &&
            inFlight_.load(std::memory_order_acquire) == 0) {
            break;
        }
        if (options_.idleNap) {
            timespec ts{0, static_cast<long>(options_.idleNap)};
            ::nanosleep(&ts, nullptr);
        }
    }

    w.counters.staleSignals.store(ctx.staleSignals,
                                  std::memory_order_relaxed);
    ctx.stacks = nullptr;
    workerShutdown();
}

void
PreemptibleRuntime::runTask(int worker, TaskRecord *task)
{
    FnStatus status;
    TimeNs slice = quantum_.load(std::memory_order_relaxed);
    std::uint32_t track = static_cast<std::uint32_t>(worker);
    WorkerState &w = *workers_[static_cast<std::size_t>(worker)];
    const std::uint64_t t0 = ledgerStamp();
    w.ledger.add(Layer::Drain, t0 - w.passStart);
    bool fresh = task->fn->state() == FnState::Fresh;
    if (options_.dropExpired && fresh && deadlineHopeless(task)) {
        // SLO already hopeless: never launch (section III-B).
        dropTask(worker, task);
        w.ledger.add(Layer::Retire, ledgerStamp() - t0);
        return;
    }
    std::uint64_t stack0 = 0;
    if constexpr (kTaskLedger)
        stack0 = currentWorker()->stackCycles;
    // a1 = the armed quantum: span builders attribute segment time
    // past it to timer-fire lag rather than running time.
    obs::emitSpan(fresh ? obs::EventKind::Launch
                        : obs::EventKind::Resume,
                  track, hostNowNs(), task->id, 0, slice);
    w.currentTask.store(static_cast<std::int64_t>(task->id),
                        std::memory_order_relaxed);
    status = fresh ? fn_launch(*task->fn, slice)
                   : fn_resume(*task->fn, slice);
    w.currentTask.store(-1, std::memory_order_relaxed);
    const std::uint64_t t1 = ledgerStamp();
    if constexpr (kTaskLedger) {
        std::uint64_t stack = currentWorker()->stackCycles - stack0;
        w.ledger.add(Layer::Stack, stack);
        w.ledger.add(Layer::Switch, t1 - t0 - stack);
    }

    if (status == FnStatus::Completed) {
        cancelDeadline(task);
        TimeNs finishNs = hostNowNs();
        TimeNs sojourn = finishNs - task->submitNs;
        obs::emitSpan(obs::EventKind::Complete, track, finishNs,
                      task->id, sojourn,
                      static_cast<std::uint64_t>(task->cls));
        MetricHandles &m = metrics(worker);
        if (m.registry) {
            if (!m.sojourn)
                m.sojourn = &m.registry->timerPerCore(
                    "runtime.sojourn_ns", static_cast<unsigned>(worker));
            m.sojourn->record(sojourn);
        }
        {
            std::lock_guard<std::mutex> lock(w.latency.mutex);
            (task->cls == 0 ? w.latency.lc : w.latency.be).record(sojourn);
        }
        bump(w.counters.completed);
        const std::uint64_t t2 = ledgerStamp();
        w.ledger.add(Layer::Complete, t2 - t1);
        retire(task);
        w.ledger.add(Layer::Retire, ledgerStamp() - t2);
        return;
    }

    // Preempted or yielded.
    bump(w.counters.preemptions);
    TimeNs preemptNs = hostNowNs();
    w.lastPreemptNs.store(preemptNs, std::memory_order_relaxed);
    obs::emitSpan(obs::EventKind::Preempt, track, preemptNs, task->id,
                  slice);
    MetricHandles &m = metrics(worker);
    addTo(m.registry, m.preemptions, "runtime.preemptions");
    if (options_.dropExpired && deadlineHopeless(task)) {
        // Expired mid-run: release the stack instead of finishing.
        fn_cancel(*task->fn);
        const std::uint64_t t2 = ledgerStamp();
        w.ledger.add(Layer::Complete, t2 - t1);
        dropTask(worker, task);
        w.ledger.add(Layer::Retire, ledgerStamp() - t2);
        return;
    }
    // Park on the shared long queue.
    {
        std::lock_guard<std::mutex> lock(longMutex_);
        longQueue_.push_back(task);
        longLen_.store(longQueue_.size(), std::memory_order_release);
    }
    w.ledger.add(Layer::Complete, ledgerStamp() - t1);
}

void
PreemptibleRuntime::quiesce()
{
    while (inFlight_.load(std::memory_order_acquire) != 0) {
        timespec ts{0, 100000};
        ::nanosleep(&ts, nullptr);
    }
}

void
PreemptibleRuntime::shutdown()
{
    bool expected = false;
    if (!stopping_.compare_exchange_strong(expected, true))
        return;
    // Unregister first: returns only after any in-flight sampler pass
    // finished, so teardown never races a telemetry read.
    obs::unregisterTelemetrySampler(samplerId_);
    samplerId_ = 0;
    for (auto &w : workers_) {
        if (w->thread.joinable())
            w->thread.join();
    }
    // Detach the wheel shards before stopping the timer so nothing
    // advances them once the runtime starts tearing down.
    for (auto &w : workers_)
        timer_.unregisterWheel(w->shard.get());
    timer_.shutdown();
}

std::uint64_t
PreemptibleRuntime::sumCounters(
    std::atomic<std::uint64_t> WorkerCounters::*field) const
{
    std::uint64_t sum = 0;
    for (const auto &w : workers_)
        sum += (w->counters.*field).load(std::memory_order_relaxed);
    return sum;
}

PreemptibleRuntime::RecordCounts
PreemptibleRuntime::recordCounts() const
{
    RecordCounts c;
    std::vector<const TaskRecord *> seen;
    for (const auto &w : workers_) {
        // Holding submitMutex stops the only thread that takes from
        // either list; retiring workers only prepend to `returned`, so
        // the walk below sees a stable suffix of it.
        std::lock_guard<std::mutex> lock(w->submitMutex);
        c.created += w->recordsCreated;
        // A record pushed twice would close a cycle: stop one past
        // the most records these lists can hold.
        std::uint64_t budget = w->recordsCreated + 1;
        for (const TaskRecord *lists :
             {w->freeRecords, w->returned.load(std::memory_order_acquire)}) {
            for (const TaskRecord *r = lists; r && budget; r = r->nextFree) {
                seen.push_back(r);
                --budget;
            }
        }
    }
    c.pooled = seen.size();
    std::sort(seen.begin(), seen.end());
    c.distinct = static_cast<std::uint64_t>(
        std::unique(seen.begin(), seen.end()) - seen.begin());
    return c;
}

TaskLedger
PreemptibleRuntime::ledger() const
{
    TaskLedger l;
    for (const auto &w : workers_) {
        w->submitLedger.sumInto(l);
        w->ledger.sumInto(l);
    }
    return l;
}

RuntimeStats
PreemptibleRuntime::stats() const
{
    RuntimeStats s;
    s.submitted = submitted_.load();
    s.rejectedFull = rejectedFull_.load();
    s.rejectedPolicy = rejectedPolicy_.load();
    s.deadlineFires = deadlineFires_.load();
    s.completed = sumCounters(&WorkerCounters::completed);
    s.preemptions = sumCounters(&WorkerCounters::preemptions);
    s.stealAttempts = sumCounters(&WorkerCounters::stealAttempts);
    s.stealHits = sumCounters(&WorkerCounters::stealHits);
    s.stealAborts = sumCounters(&WorkerCounters::stealAborts);
    s.migrations = sumCounters(&WorkerCounters::migrations);
    s.expiredDrops = sumCounters(&WorkerCounters::expiredDrops);
    s.staleSignals = sumCounters(&WorkerCounters::staleSignals);
    for (const auto &w : workers_) {
        std::lock_guard<std::mutex> lock(w->latency.mutex);
        s.lcLatency.merge(w->latency.lc);
        s.beLatency.merge(w->latency.be);
    }
    return s;
}

double
PreemptibleRuntime::throughputRps() const
{
    TimeNs elapsed = hostNowNs() - startedAt_;
    if (elapsed == 0)
        return 0;
    return static_cast<double>(sumCounters(&WorkerCounters::completed)) /
           nsToSec(elapsed);
}

std::size_t
PreemptibleRuntime::longQueueLen() const
{
    return longLen_.load(std::memory_order_acquire);
}

void
PreemptibleRuntime::sampleTelemetry(obs::MetricsRegistry &r)
{
    TimeNs now = hostNowNs();
    std::string prefix = "runtime";
    if (options_.tenant != 0)
        prefix += "/t" + std::to_string(options_.tenant);

    for (int i = 0; i < options_.nWorkers; ++i) {
        WorkerState &w = *workers_[static_cast<std::size_t>(i)];
        std::string suffix =
            (options_.tenant != 0
                 ? "/t" + std::to_string(options_.tenant) + ".w"
                 : "/w") +
            std::to_string(i);
        r.gauge("runtime.worker.current_task" + suffix)
            .set(w.currentTask.load(std::memory_order_relaxed));
        r.gauge("runtime.worker.deque_depth" + suffix)
            .set(static_cast<std::int64_t>(w.ready.size()));
        r.gauge("runtime.worker.inbox_depth" + suffix)
            .set(static_cast<std::int64_t>(w.inbox.size()));
        r.gauge("runtime.worker.shard_depth" + suffix)
            .set(static_cast<std::int64_t>(w.shard->depth()));
        TimeNs lp = w.lastPreemptNs.load(std::memory_order_relaxed);
        r.gauge("runtime.worker.last_preempt_age_ns" + suffix)
            .set(lp != 0 && now > lp
                     ? static_cast<std::int64_t>(now - lp)
                     : -1);
    }

    r.gauge(prefix + ".long_queue.depth")
        .set(static_cast<std::int64_t>(longQueueLen()));
    r.gauge(prefix + ".quantum_ns")
        .set(static_cast<std::int64_t>(quantum()));
    r.gauge(prefix + ".in_flight")
        .set(static_cast<std::int64_t>(
            inFlight_.load(std::memory_order_relaxed)));
    TimeNs lf = timer_.lastFireNs();
    r.gauge(prefix + ".timer.last_fire_age_ns")
        .set(lf != 0 && now > lf ? static_cast<std::int64_t>(now - lf)
                                 : -1);

    // Cumulative counts as true counters (single publisher thread).
    totals_.push(r, prefix + ".submitted", submitted_.load());
    totals_.push(r, prefix + ".completed",
                 sumCounters(&WorkerCounters::completed));
    totals_.push(r, prefix + ".rejected_full", rejectedFull_.load());
    totals_.push(r, prefix + ".rejected_policy", rejectedPolicy_.load());
    totals_.push(r, prefix + ".preempted",
                 sumCounters(&WorkerCounters::preemptions));
    totals_.push(r, prefix + ".timer.fires", timer_.firesTotal());
    totals_.push(r, prefix + ".timer.wheel_fires", timer_.wheelFiresTotal());
    totals_.push(r, prefix + ".timer.scans", timer_.scans());
}

} // namespace preempt::runtime
