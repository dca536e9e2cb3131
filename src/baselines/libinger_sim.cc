#include "baselines/libinger_sim.hh"

#include <algorithm>

#include "common/logging.hh"
#include "obs/trace.hh"

namespace preempt::baselines {

using workload::Request;

LibingerSim::LibingerSim(sim::Simulator &sim, const hw::LatencyConfig &cfg,
                         LibingerConfig config)
    : SegmentServer(sim, cfg, config.nWorkers, config.nWorkers + 1,
                    std::move(config.completionHook)),
      signals_(sim, cfg), rng_(sim.rng().fork(0x6c696267))
{
    quantum_ = config.quantum == 0
                   ? 0
                   : std::max(config.quantum, cfg_.kernelTimerFloor);
    switchCost_ = cfg_.userCtxSwitch;
    if (quantum_ != 0)
        switchCost_ += cfg_.timerProgramCost + cfg_.syscallCost;
}

TimeNs
LibingerSim::lockedOp(TimeNs from)
{
    TimeNs start = std::max(from, lockFreeAt_);
    lockFreeAt_ = start + cfg_.libingerLockHold;
    return lockFreeAt_;
}

void
LibingerSim::onArrival(Request &req)
{
    metrics_.onArrival(req);
    ++admitted_;
    // Network thread enqueues into the shared run queue.
    TimeNs ready = lockedOp(networkOp(cfg_.dispatchCost));
    sim_.at(ready, [this, &req](TimeNs t) {
        obs::emit(obs::EventKind::Dispatch, 0, t, req.id, queue_.size());
        queue_.pushBack(&req);
        wakeIdle();
    });
}

void
LibingerSim::pickNext(Worker &w, TimeNs now)
{
    panic_if(w.current != nullptr, "worker picking while running");
    if (queue_.empty()) {
        w.idle = true;
        return;
    }
    // Popping the shared queue serializes on its lock.
    TimeNs ready = lockedOp(now);
    machine_.addBusy(w.id + 1, ready - now);
    Request *req = queue_.popFront();
    w.idle = false;
    sim_.at(ready, [this, &w, req](TimeNs t) { startSegment(w, *req, t); });
}

void
LibingerSim::startSegment(Worker &w, Request &req, TimeNs now)
{
    // Arm the per-thread kernel timer (timer_settime) and switch into
    // the green thread.
    TimeNs seg_start = beginSegment(w, req, now, switchCost_);
    if (quantum_ == 0) {
        scheduleSegmentEnd(w);
        return;
    }

    // Kernel timer expiry: granularity-clamped interval, expiry
    // jitter, then the kernel signal path to the worker. The
    // preempted worker then saves the context and requeues it.
    TimeNs jitter = cfg_.kernelTimerJitter.sample(rng_);
    TimeNs signal_path = cfg_.signalDelivery.sample(rng_) +
                         cfg_.signalHandlerCost;
    scheduleSegmentEnd(w, seg_start + quantum_ + jitter + signal_path,
                       cfg_.userCtxSwitch);
}

void
LibingerSim::onCompletion(Worker &w, TimeNs now)
{
    completeSegment(w, now);
    // Disarm the timer and return to the scheduler loop.
    reschedule(w, switchCost_);
}

void
LibingerSim::onPreemption(Worker &w, TimeNs now, TimeNs overhead)
{
    Request &req = preemptSegment(w, now);
    // The signal handler ran inside handler_entry (charged as overhead,
    // not as worker busy time); the context save + requeue happen
    // under the shared lock.
    chargeOverhead(w, overhead);
    metrics_.addPreemptionOverhead(cfg_.signalHandlerCost);
    TimeNs ready = lockedOp(now + overhead);
    sim_.at(ready, [this, &req, &w](TimeNs t) {
        queue_.pushBack(&req);
        pickNext(w, t);
    });
}

} // namespace preempt::baselines
