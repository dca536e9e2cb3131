/**
 * @file
 * Simulated Shinjuku (Kaffes et al., NSDI'19): the prior
 * state-of-the-art preemptive scheduling system the paper compares
 * against.
 *
 * Shinjuku runs a *centralized* dispatcher on a dedicated core that
 * makes every scheduling decision: it admits arrivals into a single
 * queue, assigns requests to idle workers, tracks per-worker elapsed
 * time, and preempts overrunning workers by writing to the
 * ring-3-mapped APIC (posted IPIs). Preempted requests return to the
 * tail of the central queue (preemptive centralized FCFS).
 *
 * Modelled costs: every dispatcher operation serializes on the
 * dispatcher core; preemption pays the posted-IPI send + delivery +
 * receiver trap; the practical minimum quantum is ~5 us; the APIC
 * approach only scales to a bounded number of logical cores.
 */

#ifndef PREEMPT_BASELINES_SHINJUKU_SIM_HH
#define PREEMPT_BASELINES_SHINJUKU_SIM_HH

#include <functional>
#include <string>

#include "hw/latency_config.hh"
#include "runtime_sim/server.hh"
#include "sim/simulator.hh"

namespace preempt::baselines {

/** Configuration of a simulated Shinjuku instance. */
struct ShinjukuConfig
{
    /** Worker threads (Fig. 8 uses 5, plus the dispatcher core). */
    int nWorkers = 5;

    /** Time quantum; 0 disables preemption. Clamped from below to the
     *  practical Shinjuku minimum. */
    TimeNs quantum = usToNs(5);

    /** Optional per-completion hook (time-series benches). */
    std::function<void(TimeNs, const workload::Request &)> completionHook;
};

/** The simulated Shinjuku server. */
class ShinjukuSim : public runtime_sim::SegmentServer<ShinjukuSim>
{
  public:
    ShinjukuSim(sim::Simulator &sim, const hw::LatencyConfig &cfg,
                ShinjukuConfig config);

    void onArrival(workload::Request &req) override;
    std::string name() const override { return "Shinjuku"; }

    /** Central queue length right now. */
    std::size_t queueLen() const { return queue_.size(); }

    /** Effective quantum after the practicality clamp. */
    TimeNs effectiveQuantum() const { return quantum_; }

  private:
    friend SegmentServer;

    /** Serialize an operation on the dispatcher core.
     *  @return the completion time of the operation. */
    TimeNs dispatcherOp();

    /** The first idle worker, or nullptr. */
    Worker *idleWorker();

    /** Assign queued requests to idle workers. */
    void tryAssign(TimeNs now);

    /** Begin one execution segment on a worker. */
    void startSegment(Worker &w, workload::Request &req, TimeNs now);

    void onCompletion(Worker &w, TimeNs now);
    void onPreemption(Worker &w, TimeNs now, TimeNs overhead);

    Rng rng_;
    workload::RequestQueue queue_;
    bool assignPending_ = false;
};

} // namespace preempt::baselines

#endif // PREEMPT_BASELINES_SHINJUKU_SIM_HH
