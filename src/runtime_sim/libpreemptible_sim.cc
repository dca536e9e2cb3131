#include "runtime_sim/libpreemptible_sim.hh"

#include <algorithm>
#include <limits>

#include "common/logging.hh"
#include "fault/fault.hh"
#include "obs/metrics.hh"
#include "obs/spans.hh"
#include "obs/trace.hh"

namespace preempt::runtime_sim {

using workload::Request;
using workload::RequestClass;

namespace {

/** Fire-watchdog grace past the expected handler entry: long enough
 *  that a healthy (even jittered) fire always lands first, short
 *  enough to bound how far a segment can overrun after a drop. */
constexpr TimeNs kFireWatchdogGraceNs = 25000;

} // namespace

LibPreemptibleSim::LibPreemptibleSim(sim::Simulator &sim,
                                     const hw::LatencyConfig &cfg,
                                     LibPreemptibleConfig config)
    : SegmentServer(sim, cfg, config.nWorkers, config.nWorkers + 2,
                    std::move(config.completionHook)),
      config_(std::move(config)), utimer_(sim, cfg, config_.delivery),
      controller_(config_.controllerParams,
                  config_.quantum ? config_.quantum
                                  : config_.controllerParams.tMax),
      statsWindow_(config_.statsHorizon)
{
    machine_.setRole(config_.nWorkers + 1, hw::CoreRole::Timer);
    utimer_.setTraceCore(static_cast<unsigned>(config_.nWorkers + 1));

    quantum_ = config_.adaptive ? controller_.quantum() : config_.quantum;

    if (config_.adaptive) {
        cancelController_ = sim_.every(
            config_.controllerParams.period,
            [this](TimeNs now) { controllerStep(now); });
    }

    if (config_.admission.enabled) {
        fatal_if(config_.admission.tickPeriod <= 0,
                 "admission tick period must be positive");
        admission_ = std::make_unique<control::AdmissionController>(
            config_.admission.params);
        // The simulated publisher tick: the only event source the
        // policy adds. With admission off nothing is scheduled, so
        // the off leg's event schedule is untouched.
        cancelAdmissionTick_ = sim_.every(
            config_.admission.tickPeriod,
            [this](TimeNs now) { admissionTick(now); });
    }
}

LibPreemptibleSim::~LibPreemptibleSim()
{
    if (cancelController_)
        cancelController_();
    if (cancelAdmissionTick_)
        cancelAdmissionTick_();
}

std::string
LibPreemptibleSim::name() const
{
    std::string base = config_.delivery == TimerDelivery::Uintr
                           ? "LibPreemptible"
                           : "LibPreemptible(no-UINTR)";
    if (config_.adaptive)
        base += "+adaptive";
    return base;
}

void
LibPreemptibleSim::onArrival(Request &req)
{
    metrics_.onArrival(req);
    TimeNs now = sim_.now();
    if (admission_ &&
        !admission_->decide(config_.tenant,
                            req.cls == RequestClass::BestEffort ? 1
                                                                : 0)) {
        // Rejected before dispatch: no span opens, no event is
        // scheduled — the request simply never enters the system.
        metrics_.onRejection(req);
        obs::emit(obs::EventKind::TaskReject, 0, now, req.id,
                  static_cast<std::uint64_t>(req.cls), config_.tenant);
        return;
    }
    ++admitted_;
    // Span anchor at the arrival instant: span total == req.latency()
    // exactly (both measure completion - arrival on the sim clock).
    obs::emitSpan(obs::EventKind::TaskSubmit, 0, now, req.id,
                  static_cast<std::uint64_t>(req.cls), config_.tenant);
    // The dispatcher is a single network thread: arrivals serialize
    // behind its per-request handling cost.
    sim_.at(networkOp(cfg_.dispatchCost),
            [this, &req](TimeNs t) { enqueue(req, t); });
}

void
LibPreemptibleSim::enqueue(Request &req, TimeNs now)
{
    req.readyAt = now;
    // a0 = instantaneous dispatcher backlog (requests not yet running).
    obs::emitSpan(obs::EventKind::Dispatch, 0, now, req.id,
                  admitted_ - finished_);
    if (config_.centralQueue) {
        central_.pushBack(&req);
        wakeIdle();
        return;
    }
    // Join-shortest-queue across local worker queues.
    Worker *best = nullptr;
    std::size_t best_len = std::numeric_limits<std::size_t>::max();
    for (std::size_t k = 0; k < workers_.size(); ++k) {
        Worker &w = workers_[(static_cast<std::size_t>(rrCursor_) + k) %
                             workers_.size()];
        std::size_t len = w.local.size() + (w.current ? 1 : 0);
        if (len < best_len) {
            best_len = len;
            best = &w;
        }
    }
    rrCursor_ = (rrCursor_ + 1) % static_cast<int>(workers_.size());
    panic_if(!best, "no workers configured");
    best->local.pushBack(&req);
    pollWake(*best);
}

void
LibPreemptibleSim::pickNext(Worker &w, TimeNs now)
{
    panic_if(w.current != nullptr, "worker picking while running");
    // Two-level policy: fresh local work first, then preempted
    // functions from the global running list. Local, central and
    // stolen requests have never run; the global list holds only
    // preempted ones.
    Request *req = nullptr;
    if (config_.centralQueue) {
        // Central single queue: popping serialises on its lock.
        req = central_.popFront();
        if (req) {
            TimeNs start = std::max(now, centralLockFreeAt_);
            centralLockFreeAt_ = start + cfg_.centralQueueLockHold;
            chargeOverhead(w, centralLockFreeAt_ - now);
            now = centralLockFreeAt_;
        }
    } else if (config_.policy == SchedPolicy::RoundRobin) {
        // Centralized-FCFS order: oldest runnable first across the
        // local queue and the global preempted list (popped below).
        Request *local_head = w.local.front();
        Request *global_head = globalRunning_.front();
        if (local_head &&
            (!global_head || local_head->readyAt <= global_head->readyAt))
            req = w.local.popFront();
    } else {
        req = w.local.popFront();
    }
    if (!req)
        req = globalRunning_.popFront();
    if (!req && config_.workStealing) {
        // Steal the head of the longest peer queue (pays the peer-
        // queue synchronisation cost).
        Worker *victim = nullptr;
        for (auto &peer : workers_) {
            if (peer.id != w.id && !peer.local.empty() &&
                (!victim || peer.local.size() > victim->local.size())) {
                victim = &peer;
            }
        }
        if (victim) {
            req = victim->local.popFront();
            obs::emit(obs::EventKind::Steal,
                      static_cast<std::uint32_t>(w.id + 1), now, req->id,
                      static_cast<std::uint64_t>(victim->id));
            obs::addCount("libpreemptible.steals");
            TimeNs cost = cfg_.libingerLockHold;
            chargeOverhead(w, cost);
            now += cost;
        }
    }
    if (!req) {
        w.idle = true;
        return;
    }
    // Section III-B: cancel requests whose SLO is already hopeless
    // instead of burning cycles on them (iterative, not recursive:
    // overload can queue thousands of expired requests).
    if (config_.requestDeadline != 0 &&
        now - req->arrival > config_.requestDeadline) {
        while (req != nullptr &&
               now - req->arrival > config_.requestDeadline) {
            ++finished_;
            obs::emitSpan(obs::EventKind::CancelRequest,
                          static_cast<std::uint32_t>(w.id + 1), now,
                          req->id, now - req->arrival);
            obs::addCount("libpreemptible.cancellations");
            metrics_.onCancellation(*req);
            if (admission_) {
                // A cancelled request is a finished SLO violation for
                // the pressure signal.
                ++tickFinished_;
                ++tickViolations_;
            }
            if (config_.centralQueue)
                req = central_.popFront();
            else if ((req = w.local.popFront()) == nullptr)
                req = globalRunning_.popFront();
        }
        if (!req) {
            w.idle = true;
            return;
        }
    }
    w.idle = false;
    startSegment(w, *req, now);
}

void
LibPreemptibleSim::startSegment(Worker &w, Request &req, TimeNs now)
{
    ++w.segGen;
    if (admission_ && req.firstStart == kTimeNever)
        tickQueued_.record(now >= req.arrival ? now - req.arrival : 0);

    // fn_launch allocates a context from the free list; fn_resume just
    // switches to the saved one. Both pay the user context switch and
    // the deadline store.
    TimeNs overhead = cfg_.userCtxSwitch + utimer_.armCost();
    if (req.preemptions == 0) {
        overhead += cfg_.fnLaunchCost;
        if (freeContexts_ > 0)
            --freeContexts_; // reuse a pooled context
    }
    TimeNs seg_start = beginSegment(w, req, now, overhead);

    if (quantum_ == 0) {
        // Run to completion (the "0 us quantum" configuration).
        scheduleSegmentEnd(w);
        return;
    }

    FirePlan plan = utimer_.planFire(seg_start +
                                     utimer_.effectiveQuantum(quantum_));
    w.fireNoticed = plan.noticed;
    if (plan.dropped && seg_start + req.remaining > plan.handlerEntry) {
        // The fire was lost in transit: no preemption event will ever
        // end this segment. The watchdog recovers it.
        armFireWatchdog(w, plan);
    } else if (scheduleSegmentEnd(w, plan.handlerEntry,
                                  plan.workerOverhead)) {
        // The function finishes before the interrupt would land; the
        // completion path re-arms the deadline so the timer never
        // sends.
        utimer_.cancel(plan);
    } else if (plan.duplicated) {
        // A duplicated fire lands after the segment ended (the
        // primary fire preempts it): always a counted no-op.
        int id = w.id;
        std::uint64_t gen = w.segGen;
        sim_.at(plan.handlerEntry + plan.duplicateDelay,
                [this, id, gen](TimeNs t) {
            Worker &ww = worker(id);
            panic_if(ww.segGen == gen && ww.current != nullptr,
                     "duplicated fire outlived its own preemption");
            utimer_.noteRedundantFire(t);
        });
    }
}

void
LibPreemptibleSim::armFireWatchdog(Worker &w, const FirePlan &plan)
{
    int id = w.id;
    std::uint64_t gen = w.segGen;
    TimeNs worker_ovh = plan.workerOverhead;
    sim_.at(plan.handlerEntry + kFireWatchdogGraceNs,
            [this, id, gen, worker_ovh](TimeNs t) {
        Worker &ww = worker(id);
        if (ww.segGen != gen || ww.current == nullptr)
            return; // the segment ended some other way
        ++watchdogRecoveries_;
        obs::addCount("fault.recovered.utimer_watchdog");
        obs::emit(obs::EventKind::FaultRecover,
                  static_cast<std::uint32_t>(ww.id + 1), t,
                  static_cast<std::uint64_t>(fault::Site::Utimer), 0);
        // If the function's service ran out while we waited, this is a
        // (late) completion; otherwise preempt it as the lost fire
        // would have.
        TimeNs executed = t - ww.segStart;
        if (ww.current->remaining <= executed)
            onCompletion(ww, t);
        else
            onPreemption(ww, t, worker_ovh);
    });
}

void
LibPreemptibleSim::onCompletion(Worker &w, TimeNs now)
{
    Request &req = completeSegment(w, now);
    ++freeContexts_; // context returns to the global free list
    obs::recordTimerPerCore("libpreemptible.latency_ns",
                            static_cast<unsigned>(w.id + 1),
                            req.latency());
    statsWindow_.onCompletion(now, req.latency(), req.service);
    if (admission_) {
        ++tickFinished_;
        if (config_.admission.sloNs != 0 &&
            req.latency() > config_.admission.sloNs)
            ++tickViolations_;
    }

    // Return to the scheduler loop and pick the next function.
    reschedule(w, cfg_.userCtxSwitch);
}

void
LibPreemptibleSim::onPreemption(Worker &w, TimeNs now,
                                TimeNs worker_overhead)
{
    // Fault injection: a slow handler burns extra worker time before
    // control returns to the scheduler.
    worker_overhead += fault::onHandler(
        now, static_cast<std::uint32_t>(w.id + 1));

    // The quantum expired: the timer core's deadline scan fired and
    // the worker's handler just gained control.
    obs::emit(obs::EventKind::TimerFire, utimer_.traceCore(), now,
              w.current->id, worker_overhead);
    obs::addCount("utimer.fires");
    if (config_.delivery == TimerDelivery::Uintr) {
        // The fire plan models SENDUIPI at the notice time and handler
        // entry after the sampled delivery latency; surface that
        // pipeline on the uintr tracks (a0 = send-to-entry latency).
        obs::emit(obs::EventKind::UintrSend, utimer_.traceCore(),
                  w.fireNoticed, static_cast<std::uint64_t>(w.id));
        obs::emit(obs::EventKind::UintrDeliverRunning,
                  static_cast<std::uint32_t>(w.id + 1), now,
                  static_cast<std::uint64_t>(w.id),
                  now - std::min(w.fireNoticed, now));
        obs::recordTimer("uintr.delivery_running_ns",
                         now - std::min(w.fireNoticed, now));
    }

    Request &req = preemptSegment(w, now);
    obs::addCount("libpreemptible.preemptions");

    // The preempted context parks on the global running list; idle
    // peers poll the list, so wake one if any.
    req.readyAt = now;
    globalRunning_.pushBack(&req);
    wakeIdle(w.id);
    reschedule(w, worker_overhead);
}

std::size_t
LibPreemptibleSim::maxLocalQueueLen() const
{
    std::size_t m = 0;
    for (const auto &w : workers_)
        m = std::max(m, w.local.size());
    return m;
}

void
LibPreemptibleSim::controllerStep(TimeNs now)
{
    statsWindow_.expire(now);
    ControlInputs in;
    in.loadRps = statsWindow_.throughputRps(now);
    if (config_.maxLoadRps > 0) {
        in.maxLoadRps = config_.maxLoadRps;
    } else {
        double mean_service = statsWindow_.meanServiceNs();
        in.maxLoadRps =
            mean_service > 0
                ? static_cast<double>(config_.nWorkers) * 1e9 / mean_service
                : 0;
    }
    in.maxQueueLen = std::max(maxLocalQueueLen(), globalRunning_.size());
    in.tailIndex = statsWindow_.tailIndex();
    quantum_ = controller_.step(in);
    // One record per control decision, with its inputs: id = measured
    // load (rps), a0 = the new quantum, a1 = (decision bits << 32) |
    // max queue length.
    obs::emit(obs::EventKind::QuantumDecision, 0, now,
              static_cast<std::uint64_t>(in.loadRps), quantum_,
              (static_cast<std::uint64_t>(controller_.lastDecision())
               << 32) |
                  static_cast<std::uint64_t>(
                      std::min<std::size_t>(in.maxQueueLen, 0xffffffff)));
    obs::addCount("controller.steps");
    obs::setGauge("controller.quantum_ns",
                  static_cast<std::int64_t>(quantum_));
    if (config_.quantumHook)
        config_.quantumHook(now, quantum_);
}

void
LibPreemptibleSim::admissionTick(TimeNs now)
{
    (void)now;
    // Signals from simulator state only (no clocks, no RNG): the
    // deterministic analogue of the real runtime's snapshot poll.
    control::AdmissionSignals s;
    s.fresh = true;
    s.queuedP99Ns = tickQueued_.count() != 0 ? tickQueued_.p99() : 0;
    s.violationRatio =
        tickFinished_ == 0
            ? 0.0
            : static_cast<double>(tickViolations_) /
                  static_cast<double>(tickFinished_);
    s.depth = static_cast<std::int64_t>(inFlight());
    admission_->onTick(config_.tenant, s);
    if (obs::MetricsRegistry *m = obs::metricsRegistry())
        admission_->exportMetrics(*m);
    tickQueued_.reset();
    tickFinished_ = 0;
    tickViolations_ = 0;
}

} // namespace preempt::runtime_sim
