/**
 * @file
 * Thread-pool RPC server model for the deployment-overhead experiment
 * (section V-B): a gRPC-style server whose kernel threads each
 * multiplex T_n user-level threads under LibPreemptible, compared
 * against the blocking no-preemption thread pool it ships with.
 *
 * Each kernel thread owns a FIFO backlog and up to T_n resident
 * user-level request contexts, scheduled round-robin with the
 * configured quantum; T_n = 1 with quantum 0 reproduces the plain
 * blocking pool baseline.
 */

#ifndef PREEMPT_APPS_RPC_MODEL_HH
#define PREEMPT_APPS_RPC_MODEL_HH

#include <deque>
#include <string>
#include <vector>

#include "hw/latency_config.hh"
#include "runtime_sim/server.hh"
#include "runtime_sim/utimer_model.hh"
#include "sim/simulator.hh"

namespace preempt::apps {

/** Configuration of the modelled RPC server. */
struct RpcServerConfig
{
    /** Kernel threads in the pool. */
    int nKernelThreads = 4;

    /** User-level threads multiplexed per kernel thread (T_n). */
    int userThreadsPerKernel = 1;

    /** Round-robin quantum among resident contexts; 0 = blocking
     *  thread pool without preemption (the gRPC baseline). */
    TimeNs quantum = 0;
};

/** The simulated RPC server. */
class RpcServerSim : public runtime_sim::ServerModel
{
  public:
    RpcServerSim(sim::Simulator &sim, const hw::LatencyConfig &cfg,
                 RpcServerConfig config);

    void onArrival(workload::Request &req) override;
    std::string name() const override;

    std::uint64_t inFlight() const { return admitted_ - finished_; }

  private:
    struct KThread
    {
        int id = 0;
        /** Resident user-level contexts (round-robin ring). */
        std::deque<workload::Request *> active;
        /** Waiting requests beyond T_n. */
        std::deque<workload::Request *> backlog;
        workload::Request *current = nullptr;
        TimeNs segStart = 0;
        bool running = false; ///< a segment event is outstanding
    };

    /** Pull from backlog into the active set, start if idle. */
    void refill(KThread &k, TimeNs now);

    /** Run the next segment of the round-robin ring. */
    void runNext(KThread &k, TimeNs now);

    void segmentEnd(KThread &k, TimeNs now, bool completed);

    sim::Simulator &sim_;
    hw::LatencyConfig cfg_;
    RpcServerConfig config_;
    runtime_sim::UTimerModel utimer_;
    std::vector<KThread> kthreads_;
    TimeNs netFreeAt_;
    std::uint64_t admitted_;
    std::uint64_t finished_;
    int rr_;
};

} // namespace preempt::apps

#endif // PREEMPT_APPS_RPC_MODEL_HH
