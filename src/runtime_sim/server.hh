/**
 * @file
 * Common interface of all simulated request-serving runtimes
 * (LibPreemptible, Shinjuku, Libinger, non-preemptive baselines), and
 * the segment lifecycle the preemptive ones share.
 *
 * A ServerModel consumes the arrival stream of an OpenLoopGenerator,
 * schedules requests across its simulated cores, and accumulates
 * RunMetrics. Core layout conventions follow the paper's evaluation:
 * core 0 is the network/dispatch thread, the last core may be a
 * dedicated timer core, and the cores in between are workers.
 */

#ifndef PREEMPT_RUNTIME_SIM_SERVER_HH
#define PREEMPT_RUNTIME_SIM_SERVER_HH

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "hw/latency_config.hh"
#include "hw/machine.hh"
#include "obs/spans.hh"
#include "obs/trace.hh"
#include "sim/simulator.hh"
#include "workload/metrics.hh"
#include "workload/request.hh"

namespace preempt::runtime_sim {

/** Abstract simulated runtime. */
class ServerModel
{
  public:
    virtual ~ServerModel() = default;

    /** Deliver a new request to the runtime (network thread). */
    virtual void onArrival(workload::Request &req) = 0;

    /** Identifier used in bench output. */
    virtual std::string name() const = 0;

    /** Run metrics accumulated so far. */
    workload::RunMetrics &metrics() { return metrics_; }
    const workload::RunMetrics &metrics() const { return metrics_; }

  protected:
    workload::RunMetrics metrics_;
};

/**
 * The completion-vs-fire race of one segment: the request finishes at
 * `done` unless the preemption handler gains control first, at
 * `handlerEntry`. Schedules whichever wins.
 * @return true when the completion wins.
 */
template <typename Complete, typename Preempt>
bool
raceSegment(sim::Simulator &sim, TimeNs done, TimeNs handlerEntry,
            Complete &&complete, Preempt &&preempt)
{
    if (done <= handlerEntry) {
        sim.at(done, std::forward<Complete>(complete));
        return true;
    }
    sim.at(handlerEntry, std::forward<Preempt>(preempt));
    return false;
}

/** Per-worker state of a segment server; servers that keep more per
 *  worker derive from it. */
struct SegmentWorker
{
    int id = 0;
    workload::Request *current = nullptr;
    /** When the running segment began executing the request (after
     *  its switch-in overhead). */
    TimeNs segStart = 0;
    bool idle = true;
    /** A poll wake is already on its way (pollWake). */
    bool wakePending = false;
};

/**
 * The segment lifecycle of the servers that run requests in
 * preemptible segments on worker cores (LibPreemptibleSim, ShinjukuSim,
 * LibingerSim): begin a segment, race its completion against the
 * preemption fire, and account the completion or the preemption the
 * same way for every system. Worker i runs on core i + 1 of the
 * Machine; core 0 is the dispatcher.
 *
 * A server keeps only what makes it different: its queueing policy,
 * when its preemption handler gains control, and what it charges for
 * switching in and out. It derives as
 * SegmentServer<Server, Worker, Spans> (no virtual call per segment;
 * Spans: lifecycle records go through obs::emitSpan rather than plain
 * obs::emit) and provides, to this base:
 *  - void onCompletion(Worker &, TimeNs now): a segment completed;
 *  - void onPreemption(Worker &, TimeNs now, TimeNs fireOverhead): a
 *    fire preempted the segment;
 *  - void pickNext(Worker &, TimeNs now), if it uses pollWake,
 *    wakeIdle or reschedule.
 */
template <typename Derived, typename W = SegmentWorker, bool Spans = false>
class SegmentServer : public ServerModel
{
  public:
    using Worker = W;
    using CompletionHook =
        std::function<void(TimeNs, const workload::Request &)>;

    /** Requests admitted but not yet finished. */
    std::uint64_t inFlight() const { return admitted_ - finished_; }

    /** Core accounting (the dispatcher is core 0). */
    const hw::Machine &machine() const { return machine_; }

  protected:
    /**
     * @param n_workers worker threads (cores 1..n_workers)
     * @param n_cores   machine cores, dispatcher and timer included
     * @param hook      called with every completed request
     */
    SegmentServer(sim::Simulator &sim, const hw::LatencyConfig &cfg,
                  int n_workers, int n_cores, CompletionHook hook)
        : sim_(sim), cfg_(cfg), machine_(sim, cfg, n_cores),
          workers_(workerCount(n_workers)),
          completionHook_(std::move(hook))
    {
        machine_.setRole(0, hw::CoreRole::Dispatcher);
        for (int i = 0; i < n_workers; ++i) {
            worker(i).id = i;
            machine_.setRole(i + 1, hw::CoreRole::Worker);
        }
    }

    Worker &worker(int id) { return workers_[static_cast<std::size_t>(id)]; }

    /** Charge worker-side overhead: CPU time on w's core that makes no
     *  request progress. */
    void
    chargeOverhead(const Worker &w, TimeNs t)
    {
        metrics_.addPreemptionOverhead(t);
        machine_.addBusy(w.id + 1, t);
    }

    /**
     * Begin a segment of req on w (fn_launch for a request that never
     * ran, fn_resume otherwise), paying `overhead` to switch in.
     * @return when the request starts executing.
     */
    TimeNs
    beginSegment(Worker &w, workload::Request &req, TimeNs now,
                 TimeNs overhead)
    {
        w.current = &req;
        if (req.firstStart == kTimeNever)
            req.firstStart = now;
        record(req.preemptions == 0 ? obs::EventKind::Launch
                                    : obs::EventKind::Resume,
               w, now, req.id, req.remaining, quantum_);
        chargeOverhead(w, overhead);
        w.segStart = now + overhead;
        return w.segStart;
    }

    /**
     * Schedule the end of w's running segment: the race against a fire
     * whose handler gains control at handlerEntry (kTimeNever: none is
     * armed and the segment runs to completion). The preemption pays
     * fireOverhead of worker-side cost.
     * @return true when the completion wins.
     */
    bool
    scheduleSegmentEnd(Worker &w, TimeNs handlerEntry = kTimeNever,
                       TimeNs fireOverhead = 0)
    {
        int id = w.id;
        return raceSegment(
            sim_, w.segStart + w.current->remaining, handlerEntry,
            [this, id](TimeNs t) { self().onCompletion(worker(id), t); },
            [this, id, fireOverhead](TimeNs t) {
                self().onPreemption(worker(id), t, fireOverhead);
            });
    }

    /** Completion bookkeeping: w's request ran to its end at now. */
    workload::Request &
    completeSegment(Worker &w, TimeNs now)
    {
        workload::Request *req = w.current;
        panic_if(!req, "completion with no running request");
        w.current = nullptr;

        TimeNs executed = now - w.segStart;
        metrics_.addExecution(executed);
        machine_.addBusy(w.id + 1, executed);
        req->remaining = 0;
        req->completion = now;
        ++finished_;
        record(obs::EventKind::Complete, w, now, req->id, req->latency(),
               static_cast<std::uint64_t>(req->preemptions));
        metrics_.onCompletion(*req);
        if (completionHook_)
            completionHook_(now, *req);
        return *req;
    }

    /** Preemption bookkeeping: w's request ran until now and goes back
     *  with the rest of its demand. */
    workload::Request &
    preemptSegment(Worker &w, TimeNs now)
    {
        workload::Request *req = w.current;
        panic_if(!req, "preemption with no running request");
        w.current = nullptr;

        TimeNs executed = now - w.segStart;
        panic_if(executed >= req->remaining,
                 "preempted a request that should have completed");
        req->remaining -= executed;
        ++req->preemptions;
        record(obs::EventKind::Preempt, w, now, req->id, executed,
               req->remaining);
        metrics_.addExecution(executed);
        machine_.addBusy(w.id + 1, executed);
        return *req;
    }

    /**
     * Serialize an operation of `cost` on the network/dispatch thread
     * (core 0).
     * @return when the operation completes.
     */
    TimeNs
    networkOp(TimeNs cost)
    {
        networkFreeAt_ = std::max(sim_.now(), networkFreeAt_) + cost;
        machine_.addBusy(0, cost);
        return networkFreeAt_;
    }

    /** Return w to its scheduler loop once `overhead` (charged here)
     *  has passed. */
    void
    reschedule(Worker &w, TimeNs overhead)
    {
        chargeOverhead(w, overhead);
        int id = w.id;
        sim_.after(overhead,
                   [this, id](TimeNs t) { self().pickNext(worker(id), t); });
    }

    /**
     * An idle worker notices new work on its next queue poll.
     * @return false when w is busy or a wake is already pending.
     */
    bool
    pollWake(Worker &w)
    {
        if (!w.idle || w.wakePending)
            return false;
        w.wakePending = true;
        int id = w.id;
        sim_.after(cfg_.workerQueuePoll, [this, id](TimeNs t) {
            Worker &ww = worker(id);
            ww.wakePending = false;
            if (ww.idle)
                self().pickNext(ww, t);
        });
        return true;
    }

    /** Poll-wake the first idle worker other than `except`. */
    void
    wakeIdle(int except = -1)
    {
        for (Worker &w : workers_)
            if (w.id != except && pollWake(w))
                return;
    }

    sim::Simulator &sim_;
    hw::LatencyConfig cfg_;
    hw::Machine machine_;
    std::vector<Worker> workers_;
    /** Time quantum stamped on Launch/Resume records (0 = none). */
    TimeNs quantum_ = 0;
    std::uint64_t admitted_ = 0;
    std::uint64_t finished_ = 0;

  private:
    static std::size_t
    workerCount(int n)
    {
        fatal_if(n <= 0, "need at least one worker");
        return static_cast<std::size_t>(n);
    }

    Derived &self() { return static_cast<Derived &>(*this); }

    /** A lifecycle trace record on w's core. */
    static void
    record(obs::EventKind kind, const Worker &w, TimeNs now,
           std::uint64_t id, std::uint64_t a0, std::uint64_t a1)
    {
        auto core = static_cast<std::uint32_t>(w.id + 1);
        if constexpr (Spans)
            obs::emitSpan(kind, core, now, id, a0, a1);
        else
            obs::emit(kind, core, now, id, a0, a1);
    }

    CompletionHook completionHook_;
    TimeNs networkFreeAt_ = 0;
};

} // namespace preempt::runtime_sim

#endif // PREEMPT_RUNTIME_SIM_SERVER_HH
