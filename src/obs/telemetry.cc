#include "obs/telemetry.hh"

#ifndef PREEMPT_OBS_DISABLED

#include <algorithm>
#include <arpa/inet.h>
#include <cctype>
#include <chrono>
#include <csignal>
#include <cstring>
#include <ctime>
#include <fstream>
#include <locale>
#include <netinet/in.h>
#include <poll.h>
#include <sstream>
#include <sys/socket.h>
#include <unistd.h>

#include "common/logging.hh"

namespace preempt::obs {

namespace {

// ----- live sampler registry ----------------------------------------

struct SamplerEntry
{
    std::uint64_t id;
    std::function<void(MetricsRegistry &)> fn;
};

std::mutex g_samplerMutex;
std::vector<SamplerEntry> g_samplers;
std::uint64_t g_nextSamplerId = 1;

/** Invoke every registered sampler (publisher thread, under the
 *  registry mutex so unregister() can synchronise with running). */
void
runSamplers(MetricsRegistry &registry)
{
    std::lock_guard<std::mutex> lock(g_samplerMutex);
    for (const SamplerEntry &s : g_samplers)
        s.fn(registry);
}

// ----- SIGUSR2 dump request -----------------------------------------

/** Async-signal-safe flag the publisher thread polls each tick. */
std::atomic<bool> g_sigDumpRequested{false};

void
sigusr2Handler(int)
{
    g_sigDumpRequested.store(true, std::memory_order_relaxed);
}

// ----- time helpers -------------------------------------------------

std::uint64_t
clockNs(clockid_t clock)
{
    timespec ts;
    ::clock_gettime(clock, &ts);
    return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ULL +
           static_cast<std::uint64_t>(ts.tv_nsec);
}

// ----- checksum -----------------------------------------------------

/** Incremental FNV-1a64. */
class Fnv
{
  public:
    void
    bytes(const void *data, std::size_t n)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < n; ++i) {
            hash_ ^= p[i];
            hash_ *= 0x100000001b3ULL;
        }
    }

    void u64(std::uint64_t v) { bytes(&v, sizeof(v)); }
    void i64(std::int64_t v) { bytes(&v, sizeof(v)); }
    void f64(double v) { bytes(&v, sizeof(v)); }
    void str(const std::string &s) { u64(s.size()); bytes(s.data(), s.size()); }

    std::uint64_t value() const { return hash_; }

  private:
    std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

void
hashStats(Fnv &h, const TelemetrySnapshot::TimerStats &t)
{
    h.u64(t.count);
    h.u64(t.min);
    h.u64(t.max);
    h.f64(t.mean);
    h.u64(t.p50);
    h.u64(t.p90);
    h.u64(t.p99);
    h.u64(t.p999);
}

void
hashTimer(Fnv &h, const TelemetrySnapshot::TimerSample &t)
{
    h.str(t.name);
    hashStats(h, t);
    hashStats(h, t.window);
    h.u64(t.windowed ? 1 : 0);
}

// ----- rendering helpers --------------------------------------------

/**
 * Split a metric name into a Prometheus-safe base name and labels.
 * The part before the first '/' becomes the base ('.' -> '_'); the
 * suffix is '.'-separated segments, each "word<digits>" becoming a
 * label (t -> tenant, w -> worker; core/shard keep their names), any
 * other segment landing in a generic sub="..." label.
 */
struct PromName
{
    std::string base;
    std::string labels; ///< rendered "{a=\"1\",b=\"2\"}" or ""
};

std::string
sanitize(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                  (c >= '0' && c <= '9') || c == '_' || c == ':';
        out.push_back(ok ? c : '_');
    }
    if (!out.empty() && out[0] >= '0' && out[0] <= '9')
        out.insert(out.begin(), '_');
    return out;
}

PromName
promName(const std::string &name)
{
    PromName out;
    auto slash = name.find('/');
    out.base = "preempt_" + sanitize(name.substr(0, slash));
    if (slash == std::string::npos)
        return out;

    std::string labels;
    std::string suffix = name.substr(slash + 1);
    std::size_t pos = 0;
    while (pos <= suffix.size()) {
        auto dot = suffix.find('.', pos);
        std::string seg = suffix.substr(
            pos, dot == std::string::npos ? std::string::npos
                                          : dot - pos);
        pos = dot == std::string::npos ? suffix.size() + 1 : dot + 1;
        if (seg.empty())
            continue;
        std::size_t d = seg.size();
        while (d > 0 &&
               std::isdigit(static_cast<unsigned char>(seg[d - 1])))
            --d;
        std::string key = seg.substr(0, d);
        std::string val = seg.substr(d);
        if (key.empty() || val.empty()) {
            key = "sub";
            val = seg;
        } else if (key == "t") {
            key = "tenant";
        } else if (key == "w") {
            key = "worker";
        }
        if (!labels.empty())
            labels += ",";
        labels += sanitize(key) + "=\"" + jsonEscape(val) + "\"";
    }
    if (!labels.empty())
        out.labels = "{" + labels + "}";
    return out;
}

/**
 * Exposition text grouped by family: each family's TYPE line once,
 * then every sample of it, families in order of first use. The text
 * format allows one TYPE line per family and requires a family's
 * samples to be contiguous; per-worker, per-core and per-tenant series
 * of one family arrive interleaved with other families.
 */
class PromFamilies
{
  public:
    /** Stream for one more sample line of `family`. */
    std::ostream &
    sample(const std::string &family, const char *type)
    {
        auto [it, fresh] = index_.try_emplace(family, bodies_.size());
        if (fresh) {
            bodies_.emplace_back();
            bodies_.back().imbue(std::locale::classic());
            bodies_.back() << "# TYPE " << family << ' ' << type << '\n';
        }
        return bodies_[it->second];
    }

    std::string
    str() const
    {
        std::string out;
        for (const auto &body : bodies_)
            out += body.str();
        return out;
    }

  private:
    std::map<std::string, std::size_t> index_;
    std::vector<std::ostringstream> bodies_;
};

void
promSummary(PromFamilies &out, const std::string &base,
            const std::string &extraLabel,
            const TelemetrySnapshot::TimerStats &t)
{
    std::ostream &os = out.sample(base, "summary");
    auto line = [&](const char *q, std::uint64_t v) {
        os << base << '{';
        if (!extraLabel.empty())
            os << extraLabel << ',';
        os << "quantile=\"" << q << "\"} " << v << '\n';
    };
    line("0.5", t.p50);
    line("0.9", t.p90);
    line("0.99", t.p99);
    line("0.999", t.p999);
    std::string curly =
        extraLabel.empty() ? "" : "{" + extraLabel + "}";
    os << base << "_sum" << curly << ' '
       << jsonNumber(t.mean * static_cast<double>(t.count)) << '\n';
    os << base << "_count" << curly << ' ' << t.count << '\n';
}

/** Lifetime stats plus, when windowing is on, a nested "window"
 *  object with the last-W aggregate. */
void
jsonTimer(std::ostream &os, const TelemetrySnapshot::TimerSample &t)
{
    os << "{";
    writeSummaryFields(os, t);
    if (t.windowed) {
        os << ", \"window\": ";
        writeSummary(os, t.window);
    }
    os << "}";
}

} // namespace

// ----- snapshot checksum --------------------------------------------

std::uint64_t
TelemetrySnapshot::computeChecksum() const
{
    Fnv h;
    h.u64(seq);
    h.u64(wallNs);
    h.u64(monoNs);
    h.f64(uptimeSec);
    h.f64(intervalSec);
    h.f64(windowSec);
    h.u64(windowEpochs);
    h.u64(counters.size());
    for (const CounterSample &c : counters) {
        h.str(c.name);
        h.u64(c.value);
        h.f64(c.ratePerSec);
        h.f64(c.windowRatePerSec);
        h.u64(c.resets);
    }
    h.u64(gauges.size());
    for (const GaugeSample &g : gauges) {
        h.str(g.name);
        h.i64(g.value);
        h.i64(g.watermark);
        h.i64(g.windowWatermark);
    }
    h.u64(timers.size());
    for (const TimerSample &t : timers)
        hashTimer(h, t);
    h.u64(spans.size());
    for (const TenantSpans &t : spans) {
        h.u64(t.tenant);
        h.u64(t.completed);
        h.u64(t.cancelled);
        h.u64(t.violations);
        for (std::size_t i = 0; i < TenantSpans::kCount; ++i)
            hashTimer(h, t.part(i));
        h.u64(t.window.completed);
        h.u64(t.window.cancelled);
        h.u64(t.window.violations);
        for (std::size_t i = 0; i < TenantSpans::kCount; ++i)
            hashStats(h, t.window.part(i));
    }
    h.u64(spanInvariantViolations);
    h.u64(spanAnomalies);
    return h.value();
}

// ----- renderers ----------------------------------------------------

std::string
renderPrometheus(const TelemetrySnapshot &snap)
{
    PromFamilies out;
    // One sample of family `base + suffix`, labelled `labels`.
    auto put = [&out](const std::string &base, const char *suffix,
                      const char *type, const std::string &labels)
        -> std::ostream & {
        std::string family = base + suffix;
        return out.sample(family, type) << family << labels << ' ';
    };
    const std::string telemetry = "preempt_telemetry_";
    put("preempt_up", "", "gauge", "") << "1\n";
    put(telemetry, "snapshots_total", "counter", "") << snap.seq << '\n';
    put(telemetry, "uptime_seconds", "gauge", "")
        << jsonNumber(snap.uptimeSec) << '\n';
    put(telemetry, "window_seconds", "gauge", "")
        << jsonNumber(snap.windowSec) << '\n';
    put(telemetry, "window_epochs", "gauge", "")
        << snap.windowEpochs << '\n';

    for (const auto &c : snap.counters) {
        PromName p = promName(c.name);
        bool totalSuffix = p.base.size() >= 6 &&
                           p.base.compare(p.base.size() - 6, 6,
                                          "_total") == 0;
        put(p.base, totalSuffix ? "" : "_total", "counter", p.labels)
            << c.value << '\n';
        put(p.base, "_rate", "gauge", p.labels)
            << jsonNumber(c.ratePerSec) << '\n';
        put(p.base, "_rate_window", "gauge", p.labels)
            << jsonNumber(c.windowRatePerSec) << '\n';
        put(p.base, "_resets_total", "counter", p.labels)
            << c.resets << '\n';
    }
    for (const auto &g : snap.gauges) {
        PromName p = promName(g.name);
        put(p.base, "", "gauge", p.labels) << g.value << '\n';
        put(p.base, "_watermark", "gauge", p.labels)
            << g.watermark << '\n';
        put(p.base, "_watermark_window", "gauge", p.labels)
            << g.windowWatermark << '\n';
    }
    for (const auto &t : snap.timers) {
        PromName p = promName(t.name);
        std::string label = p.labels.empty()
                                ? ""
                                : p.labels.substr(1, p.labels.size() - 2);
        promSummary(out, p.base, label, t);
        if (t.windowed)
            promSummary(out, p.base + "_window", label, t.window);
    }

    const std::string spans = "preempt_spans_";
    for (const auto &t : snap.spans) {
        std::string tenant = "tenant=\"" + std::to_string(t.tenant) + "\"";
        std::string curly = "{" + tenant + "}";
        put(spans, "completed_total", "counter", curly)
            << t.completed << '\n';
        put(spans, "cancelled_total", "counter", curly)
            << t.cancelled << '\n';
        put(spans, "slo_violations_total", "counter", curly)
            << t.violations << '\n';
        for (std::size_t i = 0; i < t.kCount; ++i)
            promSummary(out, spans + t.kNames[i] + "_ns", tenant,
                        t.part(i));
        put(spans, "completed_window", "gauge", curly)
            << t.window.completed << '\n';
        put(spans, "cancelled_window", "gauge", curly)
            << t.window.cancelled << '\n';
        put(spans, "slo_violations_window", "gauge", curly)
            << t.window.violations << '\n';
        for (std::size_t i = 0; i < t.kCount; ++i)
            promSummary(out, spans + t.kNames[i] + "_ns_window", tenant,
                        t.window.part(i));
    }
    if (!snap.spans.empty()) {
        put(spans, "invariant_violations_total", "counter", "")
            << snap.spanInvariantViolations << '\n';
        put(spans, "anomalies_total", "counter", "")
            << snap.spanAnomalies << '\n';
    }
    return out.str();
}

std::string
renderTelemetryJson(const TelemetrySnapshot &snap)
{
    std::ostringstream os;
    os.imbue(std::locale::classic());
    os << "{\n";
    os << "  \"schema\": \"preempt.telemetry.v1\",\n";
    os << "  \"seq\": " << snap.seq << ",\n";
    os << "  \"wall_ns\": " << snap.wallNs << ",\n";
    os << "  \"mono_ns\": " << snap.monoNs << ",\n";
    os << "  \"uptime_sec\": " << jsonNumber(snap.uptimeSec) << ",\n";
    os << "  \"interval_sec\": " << jsonNumber(snap.intervalSec) << ",\n";
    os << "  \"window_sec\": " << jsonNumber(snap.windowSec) << ",\n";
    os << "  \"window_epochs\": " << snap.windowEpochs << ",\n";
    os << "  \"checksum\": \"" << std::hex << snap.checksum << std::dec
       << "\",\n";

    os << "  \"counters\": {";
    bool first = true;
    for (const auto &c : snap.counters) {
        os << (first ? "\n" : ",\n") << "    \"" << jsonEscape(c.name)
           << "\": {\"value\": " << c.value << ", \"rate_per_sec\": "
           << jsonNumber(c.ratePerSec) << ", \"window_rate_per_sec\": "
           << jsonNumber(c.windowRatePerSec) << ", \"resets\": " << c.resets
           << "}";
        first = false;
    }
    os << (first ? "},\n" : "\n  },\n");

    os << "  \"gauges\": {";
    first = true;
    for (const auto &g : snap.gauges) {
        os << (first ? "\n" : ",\n") << "    \"" << jsonEscape(g.name)
           << "\": {\"value\": " << g.value << ", \"watermark\": "
           << g.watermark << ", \"window_watermark\": "
           << g.windowWatermark << "}";
        first = false;
    }
    os << (first ? "},\n" : "\n  },\n");

    os << "  \"timers\": {";
    first = true;
    for (const auto &t : snap.timers) {
        os << (first ? "\n" : ",\n") << "    \"" << jsonEscape(t.name)
           << "\": ";
        jsonTimer(os, t);
        first = false;
    }
    os << (first ? "},\n" : "\n  },\n");

    os << "  \"spans\": {\n";
    os << "    \"invariant_violations\": " << snap.spanInvariantViolations
       << ",\n";
    os << "    \"anomalies\": " << snap.spanAnomalies << ",\n";
    os << "    \"tenants\": {";
    first = true;
    for (const auto &t : snap.spans) {
        os << (first ? "\n" : ",\n") << "      \"" << t.tenant << "\": ";
        writeTenantSpansJson(os, t);
        first = false;
    }
    os << (first ? "}\n" : "\n    }\n");
    os << "  }\n";
    os << "}\n";
    return os.str();
}

TelemetrySnapshot::TenantSpans
TelemetrySnapshot::TenantSpans::from(
    std::uint32_t tenant, const SpanCollector::TenantStats &lifetime,
    const SpanCollector::TenantStats *window)
{
    TenantSpans t;
    t.tenant = tenant;
    t.completed = lifetime.completed;
    t.cancelled = lifetime.cancelled;
    t.violations = lifetime.violations;
    for (std::size_t i = 0; i < kCount; ++i)
        t.part(i) = {HistogramSummary::of(lifetime.part(i)), kNames[i],
                     {}, false};
    if (window) {
        t.window.completed = window->completed;
        t.window.cancelled = window->cancelled;
        t.window.violations = window->violations;
        for (std::size_t i = 0; i < kCount; ++i)
            t.window.part(i) = HistogramSummary::of(window->part(i));
    }
    return t;
}

void
writeTenantSpansJson(std::ostream &os,
                     const TelemetrySnapshot::TenantSpans &t)
{
    os << "{\"completed\": " << t.completed
       << ", \"cancelled\": " << t.cancelled
       << ", \"violations\": " << t.violations;
    for (std::size_t i = 0; i < t.kCount; ++i) {
        os << ", \"" << t.kNames[i] << "\": ";
        jsonTimer(os, t.part(i));
    }
    os << ", \"window\": {\"completed\": " << t.window.completed
       << ", \"cancelled\": " << t.window.cancelled
       << ", \"violations\": " << t.window.violations;
    for (std::size_t i = 0; i < t.kCount; ++i) {
        os << ", \"" << t.kNames[i] << "\": ";
        writeSummary(os, t.window.part(i));
    }
    os << "}}";
}

// ----- sampler registry (public) ------------------------------------

std::uint64_t
registerTelemetrySampler(std::function<void(MetricsRegistry &)> fn)
{
    std::lock_guard<std::mutex> lock(g_samplerMutex);
    std::uint64_t id = g_nextSamplerId++;
    g_samplers.push_back({id, std::move(fn)});
    return id;
}

void
unregisterTelemetrySampler(std::uint64_t id)
{
    if (id == 0)
        return;
    // Taking the mutex also waits out a concurrently running pass, so
    // after return the sampler can never run again.
    std::lock_guard<std::mutex> lock(g_samplerMutex);
    for (auto it = g_samplers.begin(); it != g_samplers.end(); ++it) {
        if (it->id == id) {
            g_samplers.erase(it);
            return;
        }
    }
}

// ----- stat tracker -------------------------------------------------

StatTracker::StatTracker(std::size_t windowEpochs)
    : epochs_(windowEpochs == 0 ? 1 : windowEpochs)
{
}

void
StatTracker::beginTick(std::uint64_t monoNs)
{
    ++tick_;
    monoNs_ = monoNs;
}

StatTracker::CounterStats
StatTracker::counter(const std::string &name, std::uint64_t value)
{
    CounterStats out;
    CounterState &st = counters_[name];
    st.lastTick = tick_;
    if (!st.ring.empty()) {
        std::uint64_t prevVal = st.ring.back().second;
        if (value < prevVal) {
            // The counter went backwards: its source restarted. Wind
            // every retained sample down to zero so both rates cover
            // the post-reset traffic instead of reporting 0 until the
            // window drains.
            ++st.resets;
            for (auto &s : st.ring)
                s.second = 0;
            prevVal = 0;
        }
        std::uint64_t prevNs = st.ring.back().first;
        if (monoNs_ > prevNs)
            out.ratePerSec =
                static_cast<double>(value - prevVal) /
                (static_cast<double>(monoNs_ - prevNs) / 1e9);
        const auto &oldest = st.ring.front();
        if (monoNs_ > oldest.first)
            out.windowRatePerSec =
                static_cast<double>(value - oldest.second) /
                (static_cast<double>(monoNs_ - oldest.first) / 1e9);
    }
    st.ring.emplace_back(monoNs_, value);
    if (st.ring.size() > epochs_ + 1)
        st.ring.erase(st.ring.begin());
    out.resets = st.resets;
    return out;
}

StatTracker::GaugeStats
StatTracker::gauge(const std::string &name, std::int64_t value)
{
    GaugeStats out;
    GaugeState &st = gauges_[name];
    if (st.ring.empty())
        st.watermark = value;
    st.lastTick = tick_;
    if (value > st.watermark)
        st.watermark = value;
    if (st.ring.size() < epochs_) {
        st.ring.push_back(value);
    } else {
        st.ring[st.head] = value;
        st.head = (st.head + 1) % epochs_;
    }
    std::int64_t wm = st.ring.front();
    for (std::int64_t v : st.ring)
        wm = std::max(wm, v);
    out.watermark = st.watermark;
    out.windowWatermark = wm;
    return out;
}

void
StatTracker::endTick()
{
    for (auto it = counters_.begin(); it != counters_.end();) {
        if (it->second.lastTick != tick_)
            it = counters_.erase(it);
        else
            ++it;
    }
    for (auto it = gauges_.begin(); it != gauges_.end();) {
        if (it->second.lastTick != tick_)
            it = gauges_.erase(it);
        else
            ++it;
    }
}

// ----- publisher ----------------------------------------------------

namespace {

/** Ring size K = round(window / interval); 0 = 10 intervals. */
std::size_t
epochsFor(const TelemetryPublisher::Options &o)
{
    if (o.interval <= 0)
        return 1;
    TimeNs window = o.window != 0 ? o.window : 10 * o.interval;
    double k = static_cast<double>(window) /
               static_cast<double>(o.interval);
    auto epochs = static_cast<std::size_t>(k + 0.5);
    if (epochs < 1)
        epochs = 1;
    if (epochs > 512)
        epochs = 512;
    return epochs;
}

} // namespace

TelemetryPublisher::TelemetryPublisher(MetricsRegistry *registry,
                                       SpanCollector *spans,
                                       Options options)
    : registry_(registry), spans_(spans), options_(std::move(options)),
      tracker_(epochsFor(options_)), windowEpochs_(epochsFor(options_))
{
    fatal_if(options_.interval <= 0,
             "telemetry interval must be positive");
    if (registry_)
        registry_->enableWindows(windowEpochs_);
    if (spans_)
        spans_->setWindowEpochs(windowEpochs_);
    // Baseline for uptime even when only tickNow() is used (tests,
    // final flush) and start() never runs.
    startedAt_ = clockNs(CLOCK_MONOTONIC);
    // Empty but valid before the first publish: seq 0, and a checksum
    // that verifies like any published snapshot's.
    auto empty = std::make_shared<TelemetrySnapshot>();
    empty->checksum = empty->computeChecksum();
    current_ = std::move(empty);
}

TelemetryPublisher::~TelemetryPublisher()
{
    stop();
}

void
TelemetryPublisher::start()
{
    if (publisher_.joinable())
        return;
    stop_.store(false, std::memory_order_release);
    if (options_.installSigusr2) {
        struct sigaction sa;
        std::memset(&sa, 0, sizeof(sa));
        sa.sa_handler = sigusr2Handler;
        sa.sa_flags = SA_RESTART;
        ::sigaction(SIGUSR2, &sa, nullptr);
    }
    if (options_.port >= 0 && openListener())
        listener_ = std::thread([this] { listenerLoop(); });
    publisher_ = std::thread([this] { publisherLoop(); });
}

void
TelemetryPublisher::stop()
{
    if (!publisher_.joinable() && !listener_.joinable())
        return;
    {
        std::lock_guard<std::mutex> lock(wakeMutex_);
        stop_.store(true, std::memory_order_release);
    }
    wakeCv_.notify_all();
    if (listenFd_ >= 0)
        ::shutdown(listenFd_, SHUT_RDWR);
    if (publisher_.joinable())
        publisher_.join();
    if (listener_.joinable())
        listener_.join();
    if (listenFd_ >= 0) {
        ::close(listenFd_);
        listenFd_ = -1;
        boundPort_ = -1;
    }
}

void
TelemetryPublisher::dumpNow()
{
    dumpRequested_.store(true, std::memory_order_release);
    wakeCv_.notify_all();
}

void
TelemetryPublisher::publisherLoop()
{
    for (;;) {
        {
            std::unique_lock<std::mutex> lock(wakeMutex_);
            wakeCv_.wait_for(
                lock, std::chrono::nanoseconds(options_.interval),
                [this] {
                    return stop_.load(std::memory_order_acquire) ||
                           dumpRequested_.load(
                               std::memory_order_acquire) ||
                           g_sigDumpRequested.load(
                               std::memory_order_relaxed);
                });
        }
        if (stop_.load(std::memory_order_acquire))
            break;
        tickNow();
        bool wantDump =
            dumpRequested_.exchange(false, std::memory_order_acq_rel);
        wantDump |= g_sigDumpRequested.exchange(
            false, std::memory_order_relaxed);
        if (wantDump && !options_.dumpPath.empty())
            writeDump(snapshot());
    }
    // Final tick so short-lived runs publish at least one snapshot.
    tickNow();
    if (!options_.dumpPath.empty() &&
        (dumpRequested_.load(std::memory_order_acquire) ||
         g_sigDumpRequested.exchange(false, std::memory_order_relaxed)))
        writeDump(snapshot());
}

void
TelemetryPublisher::tickNow()
{
    std::lock_guard<std::mutex> lock(tickMutex_);
    buildAndPublish();
}

void
TelemetryPublisher::buildAndPublish()
{
    // Serialised by tickMutex_ (the only writer path).
    std::uint64_t cur = seq_.load(std::memory_order_relaxed);

    std::uint64_t mono = clockNs(CLOCK_MONOTONIC);

    auto built = std::make_shared<TelemetrySnapshot>();
    TelemetrySnapshot &snap = *built;
    snap.seq = cur + 1;
    snap.wallNs = clockNs(CLOCK_REALTIME);
    snap.monoNs = mono;
    snap.uptimeSec =
        static_cast<double>(mono - startedAt_) / 1e9;
    snap.intervalSec = static_cast<double>(options_.interval) / 1e9;
    snap.windowEpochs = windowEpochs_;
    snap.windowSec =
        snap.intervalSec * static_cast<double>(windowEpochs_);

    if (registry_) {
        runSamplers(*registry_);
        MetricsSnapshot values = registry_->snapshotValues();
        tracker_.beginTick(mono);
        snap.counters.reserve(values.counters.size());
        for (auto &[name, value] : values.counters)
            snap.counters.push_back(
                {tracker_.counter(name, value), name, value});

        snap.gauges.reserve(values.gauges.size());
        for (auto &[name, value] : values.gauges)
            snap.gauges.push_back({tracker_.gauge(name, value), name, value});
        tracker_.endTick();

        snap.timers.reserve(values.timers.size());
        // An unwindowed timer's window histogram is empty: all zeros.
        for (auto &tv : values.timers)
            snap.timers.push_back({HistogramSummary::of(tv.hist), tv.name,
                                   HistogramSummary::of(tv.window),
                                   tv.windowed});
    }

    if (spans_) {
        auto tenants = spans_->tenantStats();
        auto windows = spans_->tenantWindowStats();
        snap.spans.reserve(tenants.size());
        for (const auto &[tenant, stats] : tenants) {
            auto wit = windows.find(tenant);
            snap.spans.push_back(TelemetrySnapshot::TenantSpans::from(
                tenant, stats,
                wit != windows.end() ? &wit->second : nullptr));
        }
        snap.spanInvariantViolations = spans_->invariantViolations();
        snap.spanAnomalies = spans_->anomalies().total();
    }

    snap.checksum = snap.computeChecksum();

    // Retire the live window epochs only after the snapshot captured
    // them: each published window covers the K intervals ending now.
    if (registry_)
        registry_->rotateWindows();
    if (spans_)
        spans_->rotateWindows();

    // Publish: swap the finished snapshot in whole, then advance
    // seq_, so published() never runs ahead of what snapshot() sees.
    {
        std::lock_guard<std::mutex> lock(snapMutex_);
        current_ = std::move(built);
    }
    seq_.store(cur + 1, std::memory_order_release);
}

TelemetrySnapshot
TelemetryPublisher::snapshot() const
{
    std::shared_ptr<const TelemetrySnapshot> cur;
    {
        std::lock_guard<std::mutex> lock(snapMutex_);
        cur = current_;
    }
    return *cur;
}

void
TelemetryPublisher::writeDump(const TelemetrySnapshot &snap)
{
    std::ofstream out(options_.dumpPath);
    if (!out) {
        warn_once("telemetry: cannot open dump path '%s'",
                  options_.dumpPath.c_str());
        return;
    }
    out << renderTelemetryJson(snap);
}

// ----- HTTP listener ------------------------------------------------

bool
TelemetryPublisher::openListener()
{
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
        warn_once("telemetry: socket() failed: %s",
                  std::strerror(errno));
        return false;
    }
    int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port =
        htons(static_cast<std::uint16_t>(options_.port));
    if (::bind(fd, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(fd, 16) != 0) {
        warn_once("telemetry: cannot listen on 127.0.0.1:%d: %s",
                  options_.port, std::strerror(errno));
        ::close(fd);
        return false;
    }
    socklen_t len = sizeof(addr);
    ::getsockname(fd, reinterpret_cast<sockaddr *>(&addr), &len);
    boundPort_ = ntohs(addr.sin_port);
    listenFd_ = fd;
    return true;
}

void
TelemetryPublisher::listenerLoop()
{
    while (!stop_.load(std::memory_order_acquire)) {
        pollfd pfd{listenFd_, POLLIN, 0};
        int r = ::poll(&pfd, 1, 200);
        if (stop_.load(std::memory_order_acquire))
            break;
        if (r <= 0)
            continue;
        int client = ::accept(listenFd_, nullptr, nullptr);
        if (client < 0)
            continue;
        serveClient(client);
        ::close(client);
    }
}

void
TelemetryPublisher::serveClient(int fd)
{
    // One short request per connection; a scrape request line always
    // fits one read on loopback.
    char buf[2048];
    ssize_t n = ::recv(fd, buf, sizeof(buf) - 1, 0);
    if (n <= 0)
        return;
    buf[n] = '\0';
    std::string req(buf);
    std::string path = "/";
    if (req.compare(0, 4, "GET ") == 0) {
        auto end = req.find(' ', 4);
        if (end != std::string::npos)
            path = req.substr(4, end - 4);
    }

    std::string body;
    std::string type = "text/plain; charset=utf-8";
    int code = 200;
    if (path == "/metrics" || path == "/") {
        body = renderPrometheus(snapshot());
        type = "text/plain; version=0.0.4; charset=utf-8";
    } else if (path == "/metrics.json" || path == "/json") {
        body = renderTelemetryJson(snapshot());
        type = "application/json";
    } else if (path == "/healthz") {
        body = "ok\n";
    } else {
        body = "not found\n";
        code = 404;
    }

    std::ostringstream os;
    os.imbue(std::locale::classic());
    os << "HTTP/1.1 " << code << (code == 200 ? " OK" : " Not Found")
       << "\r\nContent-Type: " << type
       << "\r\nContent-Length: " << body.size()
       << "\r\nConnection: close\r\n\r\n"
       << body;
    std::string response = os.str();
    std::size_t sent = 0;
    while (sent < response.size()) {
        ssize_t w = ::send(fd, response.data() + sent,
                           response.size() - sent, MSG_NOSIGNAL);
        if (w <= 0)
            break;
        sent += static_cast<std::size_t>(w);
    }
}

} // namespace preempt::obs

#endif // PREEMPT_OBS_DISABLED
