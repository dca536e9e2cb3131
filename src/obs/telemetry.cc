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

/** Locale-pinned fixed-precision double (byte-stable output). */
std::string
num(double v)
{
    if (!(v == v) || v > 1e300 || v < -1e300) // NaN / inf
        return "0";
    std::ostringstream os;
    os.imbue(std::locale::classic());
    os.precision(6);
    os << std::fixed << v;
    return os.str();
}

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

/** Label VALUES allow any UTF-8; only escape per the exposition
 *  format (backslash, double quote, newline). */
std::string
labelEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        if (c == '\\' || c == '"')
            out.push_back('\\');
        if (c == '\n') {
            out += "\\n";
            continue;
        }
        out.push_back(c);
    }
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
        labels += sanitize(key) + "=\"" + labelEscape(val) + "\"";
    }
    if (!labels.empty())
        out.labels = "{" + labels + "}";
    return out;
}

void
promSummary(std::ostringstream &os, const std::string &base,
            const std::string &extraLabel,
            const TelemetrySnapshot::TimerStats &t)
{
    auto line = [&](const char *q, std::uint64_t v) {
        os << base << '{';
        if (!extraLabel.empty())
            os << extraLabel << ',';
        os << "quantile=\"" << q << "\"} " << v << '\n';
    };
    os << "# TYPE " << base << " summary\n";
    line("0.5", t.p50);
    line("0.9", t.p90);
    line("0.99", t.p99);
    line("0.999", t.p999);
    std::string curly =
        extraLabel.empty() ? "" : "{" + extraLabel + "}";
    os << base << "_sum" << curly << ' '
       << num(t.mean * static_cast<double>(t.count)) << '\n';
    os << base << "_count" << curly << ' ' << t.count << '\n';
}

void
jsonStatsBody(std::ostringstream &os,
              const TelemetrySnapshot::TimerStats &t)
{
    os << "\"count\": " << t.count << ", \"min\": " << t.min
       << ", \"max\": " << t.max << ", \"mean\": " << num(t.mean)
       << ", \"p50\": " << t.p50 << ", \"p90\": " << t.p90
       << ", \"p99\": " << t.p99 << ", \"p999\": " << t.p999;
}

void
jsonStats(std::ostringstream &os,
          const TelemetrySnapshot::TimerStats &t)
{
    os << "{";
    jsonStatsBody(os, t);
    os << "}";
}

/** Lifetime stats plus, when windowing is on, a nested "window"
 *  object with the last-W aggregate. */
void
jsonTimer(std::ostringstream &os,
          const TelemetrySnapshot::TimerSample &t)
{
    os << "{";
    jsonStatsBody(os, t);
    if (t.windowed) {
        os << ", \"window\": ";
        jsonStats(os, t.window);
    }
    os << "}";
}

/** JSON string escaping for metric names (quotes/backslashes). */
std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        if (c == '"' || c == '\\')
            out.push_back('\\');
        out.push_back(c);
    }
    return out;
}

TelemetrySnapshot::TimerStats
sampleStats(const LatencyHistogram &h)
{
    TelemetrySnapshot::TimerStats t;
    t.count = h.count();
    t.min = h.min();
    t.max = h.max();
    t.mean = h.mean();
    t.p50 = h.p50();
    t.p90 = h.p90();
    t.p99 = h.p99();
    t.p999 = h.p999();
    return t;
}

TelemetrySnapshot::TimerSample
sampleTimer(const std::string &name, const LatencyHistogram &h)
{
    TelemetrySnapshot::TimerSample t;
    static_cast<TelemetrySnapshot::TimerStats &>(t) = sampleStats(h);
    t.name = name;
    return t;
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
        hashTimer(h, t.queued);
        hashTimer(h, t.running);
        hashTimer(h, t.preempted);
        hashTimer(h, t.timerLag);
        hashTimer(h, t.total);
        h.u64(t.window.completed);
        h.u64(t.window.cancelled);
        h.u64(t.window.violations);
        hashStats(h, t.window.queued);
        hashStats(h, t.window.running);
        hashStats(h, t.window.preempted);
        hashStats(h, t.window.timerLag);
        hashStats(h, t.window.total);
    }
    h.u64(spanInvariantViolations);
    h.u64(spanAnomalies);
    return h.value();
}

// ----- renderers ----------------------------------------------------

std::string
renderPrometheus(const TelemetrySnapshot &snap)
{
    std::ostringstream os;
    os.imbue(std::locale::classic());

    os << "# TYPE preempt_up gauge\n"
       << "preempt_up 1\n"
       << "# TYPE preempt_telemetry_snapshots_total counter\n"
       << "preempt_telemetry_snapshots_total " << snap.seq << '\n'
       << "# TYPE preempt_telemetry_uptime_seconds gauge\n"
       << "preempt_telemetry_uptime_seconds " << num(snap.uptimeSec)
       << '\n'
       << "# TYPE preempt_telemetry_window_seconds gauge\n"
       << "preempt_telemetry_window_seconds " << num(snap.windowSec)
       << '\n'
       << "# TYPE preempt_telemetry_window_epochs gauge\n"
       << "preempt_telemetry_window_epochs " << snap.windowEpochs
       << '\n';

    for (const auto &c : snap.counters) {
        PromName p = promName(c.name);
        std::string base = p.base;
        if (base.size() < 6 ||
            base.compare(base.size() - 6, 6, "_total") != 0)
            base += "_total";
        os << "# TYPE " << base << " counter\n"
           << base << p.labels << ' ' << c.value << '\n';
        os << "# TYPE " << p.base << "_rate gauge\n"
           << p.base << "_rate" << p.labels << ' ' << num(c.ratePerSec)
           << '\n';
        os << "# TYPE " << p.base << "_rate_window gauge\n"
           << p.base << "_rate_window" << p.labels << ' '
           << num(c.windowRatePerSec) << '\n';
        os << "# TYPE " << p.base << "_resets_total counter\n"
           << p.base << "_resets_total" << p.labels << ' ' << c.resets
           << '\n';
    }
    for (const auto &g : snap.gauges) {
        PromName p = promName(g.name);
        os << "# TYPE " << p.base << " gauge\n"
           << p.base << p.labels << ' ' << g.value << '\n';
        os << "# TYPE " << p.base << "_watermark gauge\n"
           << p.base << "_watermark" << p.labels << ' ' << g.watermark
           << '\n';
        os << "# TYPE " << p.base << "_watermark_window gauge\n"
           << p.base << "_watermark_window" << p.labels << ' '
           << g.windowWatermark << '\n';
    }
    for (const auto &t : snap.timers) {
        PromName p = promName(t.name);
        std::string label = p.labels.empty()
                                ? ""
                                : p.labels.substr(1, p.labels.size() - 2);
        promSummary(os, p.base, label, t);
        if (t.windowed)
            promSummary(os, p.base + "_window", label, t.window);
    }

    if (!snap.spans.empty()) {
        os << "# TYPE preempt_spans_completed_total counter\n";
        for (const auto &t : snap.spans)
            os << "preempt_spans_completed_total{tenant=\"" << t.tenant
               << "\"} " << t.completed << '\n';
        os << "# TYPE preempt_spans_cancelled_total counter\n";
        for (const auto &t : snap.spans)
            os << "preempt_spans_cancelled_total{tenant=\"" << t.tenant
               << "\"} " << t.cancelled << '\n';
        os << "# TYPE preempt_spans_slo_violations_total counter\n";
        for (const auto &t : snap.spans)
            os << "preempt_spans_slo_violations_total{tenant=\""
               << t.tenant << "\"} " << t.violations << '\n';
        for (const auto &t : snap.spans) {
            std::string tenant =
                "tenant=\"" + std::to_string(t.tenant) + "\"";
            promSummary(os, "preempt_spans_queued_ns", tenant, t.queued);
            promSummary(os, "preempt_spans_running_ns", tenant,
                        t.running);
            promSummary(os, "preempt_spans_preempted_ns", tenant,
                        t.preempted);
            promSummary(os, "preempt_spans_timer_lag_ns", tenant,
                        t.timerLag);
            promSummary(os, "preempt_spans_total_ns", tenant, t.total);
        }
        os << "# TYPE preempt_spans_completed_window gauge\n";
        for (const auto &t : snap.spans)
            os << "preempt_spans_completed_window{tenant=\"" << t.tenant
               << "\"} " << t.window.completed << '\n';
        os << "# TYPE preempt_spans_cancelled_window gauge\n";
        for (const auto &t : snap.spans)
            os << "preempt_spans_cancelled_window{tenant=\"" << t.tenant
               << "\"} " << t.window.cancelled << '\n';
        os << "# TYPE preempt_spans_slo_violations_window gauge\n";
        for (const auto &t : snap.spans)
            os << "preempt_spans_slo_violations_window{tenant=\""
               << t.tenant << "\"} " << t.window.violations << '\n';
        for (const auto &t : snap.spans) {
            std::string tenant =
                "tenant=\"" + std::to_string(t.tenant) + "\"";
            promSummary(os, "preempt_spans_queued_ns_window", tenant,
                        t.window.queued);
            promSummary(os, "preempt_spans_running_ns_window", tenant,
                        t.window.running);
            promSummary(os, "preempt_spans_preempted_ns_window", tenant,
                        t.window.preempted);
            promSummary(os, "preempt_spans_timer_lag_ns_window", tenant,
                        t.window.timerLag);
            promSummary(os, "preempt_spans_total_ns_window", tenant,
                        t.window.total);
        }
        os << "# TYPE preempt_spans_invariant_violations_total counter\n"
           << "preempt_spans_invariant_violations_total "
           << snap.spanInvariantViolations << '\n'
           << "# TYPE preempt_spans_anomalies_total counter\n"
           << "preempt_spans_anomalies_total " << snap.spanAnomalies
           << '\n';
    }
    return os.str();
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
    os << "  \"uptime_sec\": " << num(snap.uptimeSec) << ",\n";
    os << "  \"interval_sec\": " << num(snap.intervalSec) << ",\n";
    os << "  \"window_sec\": " << num(snap.windowSec) << ",\n";
    os << "  \"window_epochs\": " << snap.windowEpochs << ",\n";
    os << "  \"checksum\": \"" << std::hex << snap.checksum << std::dec
       << "\",\n";

    os << "  \"counters\": {";
    bool first = true;
    for (const auto &c : snap.counters) {
        os << (first ? "\n" : ",\n") << "    \"" << jsonEscape(c.name)
           << "\": {\"value\": " << c.value << ", \"rate_per_sec\": "
           << num(c.ratePerSec) << ", \"window_rate_per_sec\": "
           << num(c.windowRatePerSec) << ", \"resets\": " << c.resets
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
        os << (first ? "\n" : ",\n") << "      \"" << t.tenant
           << "\": {\"completed\": " << t.completed
           << ", \"cancelled\": " << t.cancelled
           << ", \"violations\": " << t.violations;
        auto field = [&](const char *name,
                         const TelemetrySnapshot::TimerSample &s) {
            os << ", \"" << name << "\": ";
            jsonTimer(os, s);
        };
        field("queued", t.queued);
        field("running", t.running);
        field("preempted", t.preempted);
        field("timer_lag", t.timerLag);
        field("total", t.total);
        os << ", \"window\": {\"completed\": " << t.window.completed
           << ", \"cancelled\": " << t.window.cancelled
           << ", \"violations\": " << t.window.violations;
        auto wfield = [&](const char *name,
                          const TelemetrySnapshot::TimerStats &s) {
            os << ", \"" << name << "\": ";
            jsonStats(os, s);
        };
        wfield("queued", t.window.queued);
        wfield("running", t.window.running);
        wfield("preempted", t.window.preempted);
        wfield("timer_lag", t.window.timerLag);
        wfield("total", t.window.total);
        os << "}}";
        first = false;
    }
    os << (first ? "}\n" : "\n    }\n");
    os << "  }\n";
    os << "}\n";
    return os.str();
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
        for (auto &[name, value] : values.counters) {
            TelemetrySnapshot::CounterSample c;
            c.name = name;
            c.value = value;
            StatTracker::CounterStats s = tracker_.counter(name, value);
            c.ratePerSec = s.ratePerSec;
            c.windowRatePerSec = s.windowRatePerSec;
            c.resets = s.resets;
            snap.counters.push_back(std::move(c));
        }

        snap.gauges.reserve(values.gauges.size());
        for (auto &[name, value] : values.gauges) {
            TelemetrySnapshot::GaugeSample g;
            g.name = name;
            g.value = value;
            StatTracker::GaugeStats s = tracker_.gauge(name, value);
            g.watermark = s.watermark;
            g.windowWatermark = s.windowWatermark;
            snap.gauges.push_back(std::move(g));
        }
        tracker_.endTick();

        snap.timers.reserve(values.timers.size());
        for (auto &tv : values.timers) {
            TelemetrySnapshot::TimerSample t =
                sampleTimer(tv.name, tv.hist);
            t.windowed = tv.windowed;
            if (tv.windowed)
                t.window = sampleStats(tv.window);
            snap.timers.push_back(std::move(t));
        }
    }

    if (spans_) {
        auto tenants = spans_->tenantStats();
        auto windows = spans_->tenantWindowStats();
        snap.spans.reserve(tenants.size());
        for (const auto &[tenant, stats] : tenants) {
            TelemetrySnapshot::TenantSpans t;
            t.tenant = tenant;
            t.completed = stats.completed;
            t.cancelled = stats.cancelled;
            t.violations = stats.violations;
            t.queued = sampleTimer("queued", stats.queued);
            t.running = sampleTimer("running", stats.running);
            t.preempted = sampleTimer("preempted", stats.preempted);
            t.timerLag = sampleTimer("timer_lag", stats.timerLag);
            t.total = sampleTimer("total", stats.total);
            auto wit = windows.find(tenant);
            if (wit != windows.end()) {
                const SpanCollector::TenantStats &w = wit->second;
                t.window.completed = w.completed;
                t.window.cancelled = w.cancelled;
                t.window.violations = w.violations;
                t.window.queued = sampleStats(w.queued);
                t.window.running = sampleStats(w.running);
                t.window.preempted = sampleStats(w.preempted);
                t.window.timerLag = sampleStats(w.timerLag);
                t.window.total = sampleStats(w.total);
            }
            snap.spans.push_back(std::move(t));
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
