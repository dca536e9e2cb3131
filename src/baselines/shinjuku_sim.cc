#include "baselines/shinjuku_sim.hh"

#include <algorithm>

#include "common/logging.hh"
#include "obs/trace.hh"

namespace preempt::baselines {

using workload::Request;

ShinjukuSim::ShinjukuSim(sim::Simulator &sim, const hw::LatencyConfig &cfg,
                         ShinjukuConfig config)
    : SegmentServer(sim, cfg, config.nWorkers, config.nWorkers + 1,
                    std::move(config.completionHook)),
      rng_(sim.rng().fork(0x73686a6b))
{
    fatal_if(config.nWorkers > cfg_.apicMaxTargets,
             "Shinjuku's APIC mapping supports at most %d targets",
             cfg_.apicMaxTargets);
    quantum_ = config.quantum == 0
                   ? 0
                   : std::max(config.quantum, cfg_.shinjukuMinQuantum);
}

TimeNs
ShinjukuSim::dispatcherOp()
{
    // Centralized scheduling is pure overhead relative to lean
    // execution (Fig. 1 right counts it against Shinjuku).
    metrics_.addPreemptionOverhead(cfg_.shinjukuDispatchCost);
    return networkOp(cfg_.shinjukuDispatchCost);
}

void
ShinjukuSim::onArrival(Request &req)
{
    metrics_.onArrival(req);
    ++admitted_;
    // Admission is a dispatcher operation (network poll + enqueue).
    TimeNs ready = dispatcherOp();
    sim_.at(ready, [this, &req](TimeNs t) {
        queue_.pushBack(&req);
        tryAssign(t);
    });
}

ShinjukuSim::Worker *
ShinjukuSim::idleWorker()
{
    for (Worker &w : workers_)
        if (w.idle)
            return &w;
    return nullptr;
}

void
ShinjukuSim::tryAssign(TimeNs now)
{
    (void)now; // decisions are timestamped by the dispatcher-op event
    if (assignPending_ || !idleWorker() || queue_.empty())
        return;

    // One assignment per dispatcher operation; chained until either
    // the queue or the idle set drains.
    assignPending_ = true;
    TimeNs ready = dispatcherOp();
    sim_.at(ready, [this](TimeNs t) {
        assignPending_ = false;
        Worker *victim = idleWorker();
        Request *req = victim ? queue_.popFront() : nullptr;
        if (victim && req) {
            victim->idle = false;
            obs::emit(obs::EventKind::Dispatch, 0, t, req->id,
                      static_cast<std::uint64_t>(victim->id),
                      queue_.size());
            startSegment(*victim, *req, t);
        }
        tryAssign(t);
    });
}

void
ShinjukuSim::startSegment(Worker &w, Request &req, TimeNs now)
{
    // Worker-side context switch into the request.
    TimeNs seg_start = beginSegment(w, req, now, cfg_.userCtxSwitch);
    if (quantum_ == 0) {
        scheduleSegmentEnd(w);
        return;
    }

    // The dispatcher notices the expired quantum on its poll grid,
    // then initiates a posted IPI; the request keeps executing until
    // the interrupt lands. The worker-side preemption cost is the ring
    // transition + interrupt frame + runtime trampoline, then the
    // context save/switch; the worker makes no request progress
    // during any of it.
    TimeNs expiry = seg_start + quantum_;
    TimeNs grid = cfg_.shinjukuPollNs;
    TimeNs noticed = grid ? ((expiry + grid - 1) / grid) * grid : expiry;
    TimeNs handler_entry = noticed + cfg_.postedIpiSend +
                           cfg_.postedIpiDelivery.sample(rng_);
    scheduleSegmentEnd(w, handler_entry,
                       cfg_.shinjukuTrapCost + cfg_.userCtxSwitch);
}

void
ShinjukuSim::onCompletion(Worker &w, TimeNs now)
{
    completeSegment(w, now);
    // The dispatcher notices the idle worker on its poll grid.
    TimeNs grid = cfg_.shinjukuPollNs;
    sim_.after(grid, [this, &w](TimeNs t) {
        w.idle = true;
        tryAssign(t);
    });
}

void
ShinjukuSim::onPreemption(Worker &w, TimeNs now, TimeNs overhead)
{
    Request &req = preemptSegment(w, now);
    chargeOverhead(w, overhead);

    // Requeue at the tail via a dispatcher operation (centralized
    // preemptive FCFS).
    TimeNs ready = dispatcherOp();
    sim_.at(std::max(ready, now + overhead), [this, &req, &w](TimeNs t) {
        queue_.pushBack(&req);
        w.idle = true;
        tryAssign(t);
    });
}

} // namespace preempt::baselines
