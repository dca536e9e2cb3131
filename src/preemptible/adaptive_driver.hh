/**
 * @file
 * Algorithm 1 on the real runtime: a control thread that samples the
 * PreemptibleRuntime's request statistics every period and adjusts its
 * time quantum through the shared core::QuantumController — the
 * host-side counterpart of the simulated adaptive mode, demonstrating
 * that the library's API is sufficient to express the paper's dynamic
 * policies ("the analysis ... is off the critical path").
 */

#ifndef PREEMPT_PREEMPTIBLE_ADAPTIVE_DRIVER_HH
#define PREEMPT_PREEMPTIBLE_ADAPTIVE_DRIVER_HH

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <thread>

#include "core/quantum_controller.hh"
#include "preemptible/runtime.hh"

namespace preempt::runtime {

/** Periodic controller thread bound to one runtime. */
class AdaptiveQuantumDriver
{
  public:
    struct Options
    {
        /** Algorithm 1 hyperparameters; host-scale defaults. */
        core::QuantumControllerParams params;

        /** Control period (paper: 10 s; scaled for tests). */
        TimeNs period = msToNs(200);

        /**
         * Capacity estimate for L_high/L_low. 0 = derive from the
         * highest completion rate observed so far (conservative
         * bootstrap).
         */
        double maxLoadRps = 0;
    };

    AdaptiveQuantumDriver(PreemptibleRuntime &runtime, Options options);
    ~AdaptiveQuantumDriver();

    AdaptiveQuantumDriver(const AdaptiveQuantumDriver &) = delete;
    AdaptiveQuantumDriver &operator=(const AdaptiveQuantumDriver &) =
        delete;

    /** Feed a completed-task latency sample (hook this to the
     *  runtime's completion callback or call from application code). */
    void addLatencySample(TimeNs latency_ns);

    /** Stop the control thread (also done by the destructor). */
    void stop();

    /** Control decisions taken so far. */
    std::uint64_t decisions() const { return decisions_.load(); }

    /** The controller's current quantum. */
    TimeNs quantum() const { return runtime_.quantum(); }

  private:
    void controlLoop();
    void step();

    PreemptibleRuntime &runtime_;
    Options options_;
    core::QuantumController controller_;
    std::thread thread_;
    std::atomic<bool> running_{true};
    std::atomic<std::uint64_t> decisions_{0};

    std::mutex samplesMutex_;
    std::deque<double> samples_;

    std::uint64_t lastCompleted_ = 0;
    double peakRps_ = 0;
};

} // namespace preempt::runtime

#endif // PREEMPT_PREEMPTIBLE_ADAPTIVE_DRIVER_HH
