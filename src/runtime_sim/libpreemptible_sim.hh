/**
 * @file
 * Simulated LibPreemptible runtime (the paper's primary contribution).
 *
 * Topology mirrors the evaluation setup: one network/dispatch thread,
 * N worker threads with local FIFO queues, one dedicated LibUtimer
 * timer core, a global running list for preempted function contexts
 * and a global free list for finished ones (Figs. 5 and 6).
 *
 * Scheduling follows the paper's two-level scheme: the dispatcher
 * load-balances new requests across local queues
 * (join-shortest-queue); each worker runs its local queue in FIFO
 * order with preemption after the current time quantum; preempted
 * requests park on the global running list, which workers drain when
 * their local queues are empty. The time quantum is either static or
 * driven by the Algorithm 1 adaptive controller.
 */

#ifndef PREEMPT_RUNTIME_SIM_LIBPREEMPTIBLE_SIM_HH
#define PREEMPT_RUNTIME_SIM_LIBPREEMPTIBLE_SIM_HH

#include <functional>
#include <memory>
#include <string>

#include "common/stats.hh"
#include "control/admission.hh"
#include "hw/latency_config.hh"
#include "core/quantum_controller.hh"
#include "runtime_sim/server.hh"
#include "runtime_sim/utimer_model.hh"
#include "sim/simulator.hh"

namespace preempt::runtime_sim {

// Algorithm 1 lives in core/ and is shared with the real host runtime.
using core::ControlInputs;
using core::QuantumController;
using core::QuantumControllerParams;

/** How workers order fresh vs. preempted work. */
enum class SchedPolicy
{
    /**
     * Centralized-FCFS semantics: pick whichever of (local queue head,
     * global running-list head) became runnable first; preempted
     * requests requeue at the tail (round-robin). Starvation-free —
     * the configuration behind the Fig. 2/8 comparisons.
     */
    RoundRobin,
    /**
     * Section V-C policy #1: new requests always run first; preempted
     * long requests resume only when the local queue is empty
     * (preemptive priority to short jobs; longs can starve under
     * overload).
     */
    NewFirst,
};

/** Configuration of a LibPreemptible server instance. */
struct LibPreemptibleConfig
{
    /** Worker threads (the paper's Fig. 8 uses 4 + 1 timer core). */
    int nWorkers = 4;

    /** Time quantum; 0 disables preemption ("0 us" in Fig. 2). */
    TimeNs quantum = usToNs(10);

    /** Enable the Algorithm 1 adaptive controller. */
    bool adaptive = false;
    QuantumControllerParams controllerParams;

    /** Preemption delivery (Uintr, or KernelSignal for the no-UINTR
     *  ablation of Fig. 8). */
    TimerDelivery delivery = TimerDelivery::Uintr;

    /** Horizon of the request-statistics window feeding the
     *  controller. */
    TimeNs statsHorizon = secToNs(1);

    /** Capacity estimate for the controller's L_high/L_low
     *  thresholds; 0 derives it from measured mean service time. */
    double maxLoadRps = 0;

    /** Fresh-vs-preempted ordering. */
    SchedPolicy policy = SchedPolicy::RoundRobin;

    /** Idle workers steal from the longest peer local queue (ZygOS-
     *  style; off by default to match the paper's two-level design). */
    bool workStealing = false;

    /**
     * Per-request total deadline (section III-B: the abstraction lets
     * the scheduler cancel long requests that would otherwise violate
     * the SLO). A request older than this at a scheduling point is
     * dropped and counted in metrics().cancelled(). 0 disables.
     */
    TimeNs requestDeadline = 0;

    /** Ablation: use one central queue instead of per-worker local
     *  queues + JSQ (DESIGN.md section 5, queue-topology ablation).
     *  The central queue serialises on a lock. */
    bool centralQueue = false;

    /** Tenant id stamped on TaskSubmit trace records, so span
     *  builders attribute per-tenant scheduler delay when several
     *  sim instances share one trace (bench/scalability_tenants). */
    std::uint32_t tenant = 0;

    /**
     * Span-driven admission control (src/control/). When enabled the
     * sim owns an AdmissionController and steps it on simulated
     * publisher ticks: the tick signals (per-tick queued-time p99,
     * violation ratio, in-flight depth) come from simulator state
     * only — zero clock reads, zero RNG draws — so same-seed runs
     * stay byte-identical, and disabling it schedules no events at
     * all (the off leg is byte-identical to a build without it).
     */
    struct Admission
    {
        bool enabled = false;
        control::AdmissionParams params;

        /** Simulated publisher tick period (policy step cadence). */
        TimeNs tickPeriod = msToNs(5);

        /** Completion latency above this counts toward the
         *  violation-ratio signal (0 = signal disabled). */
        TimeNs sloNs = 0;
    };
    Admission admission;

    /** Optional per-completion hook (time-series benches). */
    std::function<void(TimeNs, const workload::Request &)> completionHook;

    /** Optional hook observing every quantum-controller decision. */
    std::function<void(TimeNs, TimeNs)> quantumHook;
};

/** A LibPreemptible worker: the shared segment state plus its local
 *  queue and the fire bookkeeping of its running segment. */
struct LibPreemptibleWorker : SegmentWorker
{
    workload::RequestQueue local;
    /** When the timer core noticed the running segment's expired
     *  deadline (FirePlan::noticed); traces the SENDUIPI time. */
    TimeNs fireNoticed = 0;
    /** Bumped on every startSegment; guards the fire watchdog and
     *  duplicated-fire events against acting on a later segment. */
    std::uint64_t segGen = 0;
};

/** The simulated LibPreemptible server. */
class LibPreemptibleSim
    : public SegmentServer<LibPreemptibleSim, LibPreemptibleWorker,
                           /*Spans=*/true>
{
  public:
    LibPreemptibleSim(sim::Simulator &sim, const hw::LatencyConfig &cfg,
                      LibPreemptibleConfig config);
    ~LibPreemptibleSim() override;

    void onArrival(workload::Request &req) override;
    std::string name() const override;

    /** Current (possibly adapted) time quantum. */
    TimeNs currentQuantum() const { return quantum_; }

    /** Override the time quantum (user-expressed policies, e.g. the
     *  QPS-driven controller of section V-C policy #2). */
    void setQuantum(TimeNs q) { quantum_ = q; }

    /** The timer-core model (for fire/overhead accounting). */
    const UTimerModel &utimer() const { return utimer_; }

    /** Length of the global preempted-context list. */
    std::size_t globalRunningLen() const { return globalRunning_.size(); }

    /** Reusable contexts on the global free list. */
    std::size_t freeContexts() const { return freeContexts_; }

    /** Largest local queue length right now. */
    std::size_t maxLocalQueueLen() const;

    /** Segments rescued by the fire watchdog after a dropped fire. */
    std::uint64_t watchdogRecoveries() const
    {
        return watchdogRecoveries_;
    }

    /** The admission controller, or nullptr when disabled. */
    const control::AdmissionController *admissionController() const
    {
        return admission_.get();
    }

  private:
    friend SegmentServer;

    /** Enqueue to the shortest local queue; wake the worker if idle. */
    void enqueue(workload::Request &req, TimeNs now);

    /** Worker scheduler loop entry: pick the next function. */
    void pickNext(Worker &w, TimeNs now);

    /** Run one segment of a request (fn_launch / fn_resume). */
    void startSegment(Worker &w, workload::Request &req, TimeNs now);

    /** Segment ended by completion. */
    void onCompletion(Worker &w, TimeNs now);

    /** Segment ended by a LibUtimer preemption. */
    void onPreemption(Worker &w, TimeNs now, TimeNs worker_overhead);

    /**
     * Mitigation: when a planned fire is lost (fault injection), no
     * event would ever end the running segment. The watchdog checks in
     * shortly after the expected handler entry and finishes the
     * segment itself — as a (late) completion if the function ran to
     * its end in the meantime, as a preemption otherwise. Armed only
     * for dropped plans, so the zero-fault schedule is untouched.
     */
    void armFireWatchdog(Worker &w, const FirePlan &plan);

    /** One Algorithm 1 control step. */
    void controllerStep(TimeNs now);

    /** One simulated-publisher admission tick: derive this tick's
     *  signals from sim state, step the policy, reset accumulators. */
    void admissionTick(TimeNs now);

    LibPreemptibleConfig config_;
    UTimerModel utimer_;
    QuantumController controller_;
    RequestStatsWindow statsWindow_;
    std::function<void()> cancelController_;

    workload::RequestQueue globalRunning_;
    workload::RequestQueue central_;
    TimeNs centralLockFreeAt_ = 0;
    std::size_t freeContexts_ = 0;
    std::uint64_t watchdogRecoveries_ = 0;
    int rrCursor_ = 0;

    // Admission control (config_.admission.enabled): controller plus
    // per-tick signal accumulators, reset on every admission tick.
    std::unique_ptr<control::AdmissionController> admission_;
    std::function<void()> cancelAdmissionTick_;
    LatencyHistogram tickQueued_;       ///< queued time of first starts
    std::uint64_t tickFinished_ = 0;    ///< completions + cancellations
    std::uint64_t tickViolations_ = 0;  ///< finishes past admission.sloNs
};

} // namespace preempt::runtime_sim

#endif // PREEMPT_RUNTIME_SIM_LIBPREEMPTIBLE_SIM_HH
