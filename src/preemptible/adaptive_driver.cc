#include "preemptible/adaptive_driver.hh"

#include <algorithm>
#include <vector>

#include "common/stats.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "preemptible/hosttime.hh"

namespace preempt::runtime {

namespace {

/** Latency samples retained for the tail-index fit. */
constexpr std::size_t kSampleWindow = 4096;

} // namespace

AdaptiveQuantumDriver::AdaptiveQuantumDriver(PreemptibleRuntime &runtime,
                                             Options options)
    : runtime_(runtime), options_(options),
      controller_(options.params, runtime.quantum())
{
    lastCompleted_ = runtime_.stats().completed;
    thread_ = std::thread([this] { controlLoop(); });
}

AdaptiveQuantumDriver::~AdaptiveQuantumDriver()
{
    stop();
}

void
AdaptiveQuantumDriver::stop()
{
    if (!running_.exchange(false))
        return;
    if (thread_.joinable())
        thread_.join();
}

void
AdaptiveQuantumDriver::addLatencySample(TimeNs latency_ns)
{
    std::lock_guard<std::mutex> lock(samplesMutex_);
    samples_.push_back(static_cast<double>(latency_ns));
    while (samples_.size() > kSampleWindow)
        samples_.pop_front();
}

void
AdaptiveQuantumDriver::controlLoop()
{
    while (running_.load(std::memory_order_relaxed)) {
        timespec ts{
            static_cast<time_t>(options_.period / 1000000000ULL),
            static_cast<long>(options_.period % 1000000000ULL)};
        ::nanosleep(&ts, nullptr);
        if (!running_.load(std::memory_order_relaxed))
            break;
        step();
    }
}

void
AdaptiveQuantumDriver::step()
{
    RuntimeStats s = runtime_.stats();
    std::uint64_t completed = s.completed;
    double load = static_cast<double>(completed - lastCompleted_) /
                  nsToSec(options_.period);
    lastCompleted_ = completed;
    peakRps_ = std::max(peakRps_, load);

    core::ControlInputs in;
    in.loadRps = load;
    in.maxLoadRps =
        options_.maxLoadRps > 0 ? options_.maxLoadRps : peakRps_;
    in.maxQueueLen = runtime_.longQueueLen();
    {
        std::lock_guard<std::mutex> lock(samplesMutex_);
        std::vector<double> copy(samples_.begin(), samples_.end());
        in.tailIndex = hillTailIndex(copy);
    }

    TimeNs q = controller_.step(in);
    obs::emit(obs::EventKind::QuantumDecision, 0, hostNowNs(),
              static_cast<std::uint64_t>(in.loadRps), q,
              (static_cast<std::uint64_t>(controller_.lastDecision())
               << 32) |
                  static_cast<std::uint64_t>(std::min<std::size_t>(
                      in.maxQueueLen, 0xffffffff)));
    obs::addCount("adaptive_driver.steps");
    obs::setGauge("adaptive_driver.quantum_ns",
                  static_cast<std::int64_t>(q));
    runtime_.setQuantum(q);
    decisions_.fetch_add(1, std::memory_order_relaxed);
}

} // namespace preempt::runtime
