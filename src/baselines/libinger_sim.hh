/**
 * @file
 * Simulated Libinger / libturquoise (Boucher et al., ATC'20): a
 * preemptive user-level threading library driven by per-thread kernel
 * timers and POSIX signals — the second baseline of Fig. 8.
 *
 * Workers pull from a shared run queue guarded by a lock, self-arm a
 * kernel timer for the quantum, and are preempted through the kernel
 * signal path. The quantum is bounded from below by the kernel-timer
 * granularity floor, and every preemption pays the full signal
 * delivery cost, both of which dominate at microsecond scale.
 */

#ifndef PREEMPT_BASELINES_LIBINGER_SIM_HH
#define PREEMPT_BASELINES_LIBINGER_SIM_HH

#include <functional>
#include <string>

#include "hw/kernel.hh"
#include "hw/latency_config.hh"
#include "runtime_sim/server.hh"
#include "sim/simulator.hh"

namespace preempt::baselines {

/** Configuration of a simulated Libinger instance. */
struct LibingerConfig
{
    /** Worker threads (Fig. 8 uses 5, plus the network core). */
    int nWorkers = 5;

    /** Requested quantum; clamped to the kernel-timer floor. */
    TimeNs quantum = usToNs(60);

    /** Optional per-completion hook. */
    std::function<void(TimeNs, const workload::Request &)> completionHook;
};

/** The simulated Libinger server. */
class LibingerSim : public runtime_sim::SegmentServer<LibingerSim>
{
  public:
    LibingerSim(sim::Simulator &sim, const hw::LatencyConfig &cfg,
                LibingerConfig config);

    void onArrival(workload::Request &req) override;
    std::string name() const override { return "Libinger"; }

    /** Effective quantum after the kernel-timer floor. */
    TimeNs effectiveQuantum() const { return quantum_; }

  private:
    friend SegmentServer;

    /** Acquire the shared run-queue lock (serialized resource).
     *  @return time the lock section completes. */
    TimeNs lockedOp(TimeNs from);

    void pickNext(Worker &w, TimeNs now);
    void startSegment(Worker &w, workload::Request &req, TimeNs now);
    void onCompletion(Worker &w, TimeNs now);
    void onPreemption(Worker &w, TimeNs now, TimeNs overhead);

    hw::SignalPath signals_;
    Rng rng_;

    workload::RequestQueue queue_;
    TimeNs lockFreeAt_ = 0;
    /** Worker cost of switching a green thread in or out: the context
     *  switch, plus re-arming the kernel timer when preempting. */
    TimeNs switchCost_ = 0;
};

} // namespace preempt::baselines

#endif // PREEMPT_BASELINES_LIBINGER_SIM_HH
