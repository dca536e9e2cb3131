/**
 * @file
 * The obs plane's one JSON writer: locale-pinned numbers, name
 * escaping and the histogram summary object. The metrics dump
 * (MetricsRegistry::toJson), the telemetry snapshot
 * (renderTelemetryJson) and span_tool --json all render through it,
 * and all three are part of the byte-identical A/B guarantee.
 */

#ifndef PREEMPT_OBS_JSON_HH
#define PREEMPT_OBS_JSON_HH

#include <cmath>
#include <cstdint>
#include <locale>
#include <ostream>
#include <sstream>
#include <string>

#include "common/histogram.hh"

namespace preempt::obs {

/** Quantile summary of one histogram. */
struct HistogramSummary
{
    std::uint64_t count = 0;
    std::uint64_t min = 0;
    std::uint64_t max = 0;
    double mean = 0;
    std::uint64_t p50 = 0;
    std::uint64_t p90 = 0;
    std::uint64_t p99 = 0;
    std::uint64_t p999 = 0;

    static HistogramSummary
    of(const LatencyHistogram &h)
    {
        return {h.count(), h.min(), h.max(), h.mean(),
                h.p50(),   h.p90(), h.p99(), h.p999()};
    }
};

/**
 * A double in the classic "C" locale at fixed 6-decimal precision;
 * non-finite values render as 0. Default-constructed streams inherit
 * std::locale::global(), which a host application may have set to one
 * with ',' decimal points or digit grouping.
 */
inline std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "0";
    std::ostringstream os;
    os.imbue(std::locale::classic());
    os.precision(6);
    os << std::fixed << v;
    return os.str();
}

/**
 * Escape quotes, backslashes and newlines. Metric names are ASCII
 * identifiers, but be safe; Prometheus label values take the same
 * three escapes.
 */
inline std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        if (c == '\n') {
            out += "\\n";
            continue;
        }
        if (c == '"' || c == '\\')
            out.push_back('\\');
        out.push_back(c);
    }
    return out;
}

/** The summary's members without braces, so callers can append
 *  fields: `"count": N, "min": …, "p999": N`. */
inline void
writeSummaryFields(std::ostream &os, const HistogramSummary &s)
{
    os << "\"count\": " << s.count << ", \"min\": " << s.min
       << ", \"max\": " << s.max << ", \"mean\": " << jsonNumber(s.mean)
       << ", \"p50\": " << s.p50 << ", \"p90\": " << s.p90
       << ", \"p99\": " << s.p99 << ", \"p999\": " << s.p999;
}

/** The summary as one object: `{"count": N, …, "p999": N}`. */
inline void
writeSummary(std::ostream &os, const HistogramSummary &s)
{
    os << '{';
    writeSummaryFields(os, s);
    os << '}';
}

} // namespace preempt::obs

#endif // PREEMPT_OBS_JSON_HH
