#include "obs/metrics.hh"

#include <locale>
#include <sstream>
#include <vector>

#include "obs/json.hh"

namespace preempt::obs {

namespace detail {
std::atomic<std::uint64_t> g_metricsGeneration{1};
} // namespace detail

namespace {

std::atomic<MetricsRegistry *> g_metrics{nullptr};

/** Per-thread shadow (parallel harness cells); plain — thread-owned. */
thread_local MetricsRegistry *t_threadMetrics = nullptr;

} // namespace

Counter &
MetricsRegistry::counter(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto &slot = counters_[name];
    if (!slot)
        slot = std::make_unique<Counter>();
    return *slot;
}

Gauge &
MetricsRegistry::gauge(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto &slot = gauges_[name];
    if (!slot)
        slot = std::make_unique<Gauge>();
    return *slot;
}

TimerMetric &
MetricsRegistry::timer(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto &slot = timers_[name];
    if (!slot) {
        slot = std::make_unique<TimerMetric>();
        if (windowEpochs_ != 0)
            slot->enableWindow(windowEpochs_);
    }
    return *slot;
}

TimerMetric &
MetricsRegistry::timerPerCore(const std::string &name, unsigned core)
{
    return timer(name + "/core" + std::to_string(core));
}

std::string
MetricsRegistry::toJson() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::ostringstream os;
    os.imbue(std::locale::classic()); // no digit grouping, ever
    os << "{\n";
    bool first = true;
    auto sep = [&] {
        if (!first)
            os << ",\n";
        first = false;
    };

    for (const auto &[name, c] : counters_) {
        sep();
        os << "  \"" << jsonEscape(name) << "\": " << c->value();
    }
    for (const auto &[name, g] : gauges_) {
        sep();
        os << "  \"" << jsonEscape(name) << "\": " << g->value();
    }

    // Per-core families ("x/coreN") merge into a machine-wide "x".
    std::map<std::string, LatencyHistogram> families;
    for (const auto &[name, t] : timers_) {
        sep();
        LatencyHistogram h = t->histogram();
        os << "  \"" << jsonEscape(name) << "\": ";
        writeSummary(os, HistogramSummary::of(h));
        auto slash = name.rfind("/core");
        if (slash != std::string::npos)
            families[name.substr(0, slash)].merge(h);
    }
    for (const auto &[name, merged] : families) {
        sep();
        os << "  \"" << jsonEscape(name) << "\": ";
        writeSummary(os, HistogramSummary::of(merged));
    }

    os << "\n}\n";
    return os.str();
}

MetricsSnapshot
MetricsRegistry::snapshotValues() const
{
    MetricsSnapshot out;
    std::lock_guard<std::mutex> lock(mutex_);
    out.counters.reserve(counters_.size());
    for (const auto &[name, c] : counters_)
        out.counters.emplace_back(name, c->value());
    out.gauges.reserve(gauges_.size());
    for (const auto &[name, g] : gauges_)
        out.gauges.emplace_back(name, g->value());
    out.timers.reserve(timers_.size());
    for (const auto &[name, t] : timers_) {
        MetricsSnapshot::TimerValues v;
        v.name = name;
        v.hist = t->histogram();
        v.windowed = t->windowed();
        if (v.windowed)
            v.window = t->windowHistogram();
        out.timers.push_back(std::move(v));
    }
    return out;
}

void
MetricsRegistry::absorb(const MetricsRegistry &donor)
{
    std::scoped_lock lock(mutex_, donor.mutex_);
    for (const auto &[name, c] : donor.counters_) {
        auto &slot = counters_[name];
        if (!slot)
            slot = std::make_unique<Counter>();
        slot->add(c->value());
    }
    for (const auto &[name, g] : donor.gauges_) {
        auto &slot = gauges_[name];
        if (!slot)
            slot = std::make_unique<Gauge>();
        slot->set(g->value());
    }
    for (const auto &[name, t] : donor.timers_) {
        auto &slot = timers_[name];
        if (!slot) {
            slot = std::make_unique<TimerMetric>();
            // Absorbed samples are freshly completed work: they fold
            // into the live window epoch like direct records would.
            if (windowEpochs_ != 0)
                slot->enableWindow(windowEpochs_);
        }
        slot->merge(t->histogram());
    }
}

void
MetricsRegistry::enableWindows(std::size_t epochs)
{
    std::lock_guard<std::mutex> lock(mutex_);
    windowEpochs_ = epochs;
    if (epochs != 0)
        for (const auto &[name, t] : timers_)
            t->enableWindow(epochs);
}

void
MetricsRegistry::rotateWindows()
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &[name, t] : timers_)
        t->rotateWindow();
}

std::size_t
MetricsRegistry::windowEpochs() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return windowEpochs_;
}

MetricsRegistry *
metricsRegistry() noexcept
{
    if (t_threadMetrics)
        return t_threadMetrics;
    return g_metrics.load(std::memory_order_acquire);
}

void
setMetricsRegistry(MetricsRegistry *registry) noexcept
{
    g_metrics.store(registry, std::memory_order_release);
    detail::g_metricsGeneration.fetch_add(1, std::memory_order_acq_rel);
}

void
setThreadMetricsRegistry(MetricsRegistry *registry) noexcept
{
    t_threadMetrics = registry;
    detail::g_metricsGeneration.fetch_add(1, std::memory_order_acq_rel);
}

MetricsRegistry *
threadMetricsRegistry() noexcept
{
    return t_threadMetrics;
}

void
addCount(const char *name, std::uint64_t n)
{
    if (MetricsRegistry *m = metricsRegistry())
        m->counter(name).add(n);
}

void
setGauge(const char *name, std::int64_t v)
{
    if (MetricsRegistry *m = metricsRegistry())
        m->gauge(name).set(v);
}

void
recordTimer(const char *name, std::uint64_t ns)
{
    if (MetricsRegistry *m = metricsRegistry())
        m->timer(name).record(ns);
}

void
recordTimerPerCore(const char *name, unsigned core, std::uint64_t ns)
{
    if (MetricsRegistry *m = metricsRegistry())
        m->timerPerCore(name, core).record(ns);
}

} // namespace preempt::obs
