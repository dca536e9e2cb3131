#include "apps/rpc_model.hh"

#include <algorithm>

#include "common/logging.hh"

namespace preempt::apps {

using workload::Request;

RpcServerSim::RpcServerSim(sim::Simulator &sim,
                           const hw::LatencyConfig &cfg,
                           RpcServerConfig config)
    : sim_(sim), cfg_(cfg), config_(config),
      utimer_(sim, cfg, runtime_sim::TimerDelivery::Uintr), netFreeAt_(0),
      admitted_(0), finished_(0), rr_(0)
{
    fatal_if(config_.nKernelThreads <= 0, "need at least one thread");
    fatal_if(config_.userThreadsPerKernel <= 0, "T_n must be >= 1");
    kthreads_.resize(static_cast<std::size_t>(config_.nKernelThreads));
    for (int i = 0; i < config_.nKernelThreads; ++i)
        kthreads_[static_cast<std::size_t>(i)].id = i;
}

std::string
RpcServerSim::name() const
{
    return config_.quantum == 0
               ? "rpc-blocking-pool"
               : "rpc-libpreemptible(Tn=" +
                     std::to_string(config_.userThreadsPerKernel) + ")";
}

void
RpcServerSim::onArrival(Request &req)
{
    metrics_.onArrival(req);
    ++admitted_;
    // Accept path: network poll serialised on the acceptor.
    TimeNs start = std::max(sim_.now(), netFreeAt_);
    netFreeAt_ = start + cfg_.dispatchCost;
    sim_.at(netFreeAt_, [this, &req](TimeNs t) {
        // Join the shortest (active + backlog) kernel thread.
        KThread *best = nullptr;
        std::size_t best_len = ~std::size_t{0};
        for (std::size_t k = 0; k < kthreads_.size(); ++k) {
            KThread &kt = kthreads_[(static_cast<std::size_t>(rr_) + k) %
                                    kthreads_.size()];
            std::size_t len = kt.active.size() + kt.backlog.size() +
                              (kt.current ? 1 : 0);
            if (len < best_len) {
                best_len = len;
                best = &kt;
            }
        }
        rr_ = (rr_ + 1) % static_cast<int>(kthreads_.size());
        best->backlog.push_back(&req);
        refill(*best, t);
    });
}

void
RpcServerSim::refill(KThread &k, TimeNs now)
{
    std::size_t tn = static_cast<std::size_t>(config_.userThreadsPerKernel);
    while (!k.backlog.empty() &&
           k.active.size() + (k.current ? 1 : 0) < tn) {
        k.active.push_back(k.backlog.front());
        k.backlog.pop_front();
    }
    if (!k.running && (k.current || !k.active.empty()))
        runNext(k, now);
}

void
RpcServerSim::runNext(KThread &k, TimeNs now)
{
    if (!k.current) {
        if (k.active.empty())
            return;
        k.current = k.active.front();
        k.active.pop_front();
    }
    k.running = true;
    Request &req = *k.current;
    if (req.firstStart == kTimeNever)
        req.firstStart = now;

    bool preemptive = config_.quantum != 0 &&
                      (k.active.size() + k.backlog.size()) > 0;
    TimeNs overhead = cfg_.userCtxSwitch;
    if (config_.quantum != 0)
        overhead += utimer_.armCost();
    metrics_.addPreemptionOverhead(overhead);
    TimeNs seg_start = now + overhead;
    k.segStart = seg_start;

    TimeNs done = seg_start + req.remaining;
    runtime_sim::FirePlan plan;
    plan.handlerEntry = kTimeNever; // no fire armed
    if (preemptive) {
        TimeNs tq = utimer_.effectiveQuantum(config_.quantum);
        plan = utimer_.planFire(seg_start + tq);
        // A function that finishes first re-arms the deadline, so the
        // timer never sends.
        if (done <= plan.handlerEntry)
            utimer_.cancel(plan);
    }
    int id = k.id;
    TimeNs ovh = plan.workerOverhead;
    runtime_sim::raceSegment(
        sim_, done, plan.handlerEntry,
        [this, id](TimeNs t) {
            segmentEnd(kthreads_[static_cast<std::size_t>(id)], t, true);
        },
        [this, id, ovh](TimeNs t) {
            metrics_.addPreemptionOverhead(ovh);
            segmentEnd(kthreads_[static_cast<std::size_t>(id)], t, false);
        });
}

void
RpcServerSim::segmentEnd(KThread &k, TimeNs now, bool completed)
{
    Request *req = k.current;
    panic_if(!req, "segment end without a request");
    k.running = false;
    k.current = nullptr;
    TimeNs executed = now - k.segStart;
    metrics_.addExecution(std::min<TimeNs>(executed, req->remaining));

    if (completed) {
        req->remaining = 0;
        req->completion = now;
        ++finished_;
        metrics_.onCompletion(*req);
    } else {
        panic_if(executed >= req->remaining,
                 "preempted a finished request");
        req->remaining -= executed;
        ++req->preemptions;
        k.active.push_back(req); // round-robin to the ring's tail
    }
    refill(k, now);
}

} // namespace preempt::apps
