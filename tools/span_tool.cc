/**
 * @file
 * Offline task-span inspector: re-reads a --trace-out Chrome trace
 * file, folds the task-lifecycle records back into TaskSpans
 * (obs/spans.hh), verifies the exact scheduler-delay decomposition,
 * and prints a per-tenant delay-attribution table; --json writes the
 * same breakdown as machine-readable JSON ("preempt.spans.v2",
 * validated by tools/check_bench_json.py --spans). --window-us=N
 * additionally restricts a "window" copy of every per-tenant block to
 * the spans that finished in the last N us of the trace (anchored at
 * the latest span end), mirroring the live publisher's sliding-window
 * series; without the flag the window covers the whole trace.
 *
 * The parser targets this repository's own exporter output
 * (obs/export.cc): one event object per line, fixed key order. It is
 * not a general Chrome-trace reader.
 */

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <locale>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/cli.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "common/time.hh"
#include "obs/export.hh"
#include "obs/spans.hh"
#include "obs/telemetry.hh"
#include "obs/trace.hh"

using namespace preempt;

namespace {

/** kindName() reversed; unknown names return kCount. */
obs::EventKind
kindFromName(const std::string &name)
{
    for (std::uint16_t k = 0;
         k < static_cast<std::uint16_t>(obs::EventKind::kCount); ++k) {
        auto kind = static_cast<obs::EventKind>(k);
        if (name == obs::kindName(kind))
            return kind;
    }
    return obs::EventKind::kCount;
}

/** Extract the value following `"key": ` on an event line. */
bool
findValue(const std::string &line, const std::string &key,
          std::string &out)
{
    std::string needle = "\"" + key + "\": ";
    auto pos = line.find(needle);
    if (pos == std::string::npos)
        return false;
    pos += needle.size();
    auto end = pos;
    if (end < line.size() && line[end] == '"') {
        ++pos;
        end = line.find('"', pos);
        if (end == std::string::npos)
            return false;
    } else {
        while (end < line.size() && line[end] != ',' &&
               line[end] != '}')
            ++end;
    }
    out = line.substr(pos, end - pos);
    return true;
}

/** Exporter timestamps are fixed-point microseconds ("123.456"). */
std::uint64_t
parseTsNs(const std::string &us)
{
    auto dot = us.find('.');
    std::uint64_t whole =
        std::stoull(dot == std::string::npos ? us : us.substr(0, dot));
    std::uint64_t frac = 0;
    if (dot != std::string::npos) {
        std::string f = us.substr(dot + 1);
        f.resize(3, '0');
        frac = std::stoull(f);
    }
    return whole * 1000 + frac;
}

/** Parse every event line of an exporter trace into records. */
std::vector<obs::TraceRecord>
parseTrace(const std::string &path)
{
    std::ifstream in(path);
    fatal_if(!in, "cannot open trace file '%s'", path.c_str());
    std::vector<obs::TraceRecord> records;
    std::string line;
    while (std::getline(in, line)) {
        std::string ph;
        if (!findValue(line, "ph", ph) || ph != "i")
            continue;
        std::string name, pid, tid, ts, id, a0, a1;
        if (!findValue(line, "name", name) ||
            !findValue(line, "pid", pid) ||
            !findValue(line, "tid", tid) ||
            !findValue(line, "ts", ts) || !findValue(line, "id", id) ||
            !findValue(line, "a0", a0) || !findValue(line, "a1", a1))
            continue;
        obs::EventKind kind = kindFromName(name);
        if (kind == obs::EventKind::kCount)
            continue;
        obs::TraceRecord rec;
        rec.ts = parseTsNs(ts);
        rec.kind = static_cast<std::uint16_t>(kind);
        rec.core = static_cast<std::uint16_t>(std::stoul(tid));
        rec.epoch = static_cast<std::uint32_t>(std::stoul(pid));
        rec.id = std::stoull(id);
        rec.a0 = std::stoull(a0);
        rec.a1 = std::stoull(a1);
        records.push_back(rec);
    }
    return records;
}

} // namespace

int
main(int argc, char **argv)
{
    CommandLine cli(argc, argv);
    std::string tracePath = cli.getString("trace", "");
    std::string jsonPath = cli.getString("json", "");
    std::int64_t sloUs = cli.getInt("slo-us", 0);
    std::int64_t windowUs = cli.getInt("window-us", 0);
    bool perSpan = cli.getBool("spans", false);
    cli.rejectUnknown();
    fatal_if(tracePath.empty(),
             "usage: span_tool --trace=FILE [--json=OUT] [--slo-us=N] "
             "[--window-us=N] [--spans]");

    std::vector<obs::TraceRecord> records = parseTrace(tracePath);

    obs::SpanCollector::Anomalies anomalies;
    std::vector<obs::TaskSpan> spans =
        obs::buildSpans(records, &anomalies);

    std::uint64_t sloNs =
        sloUs > 0 ? static_cast<std::uint64_t>(
                        usToNs(static_cast<double>(sloUs)))
                  : 0;
    // Window anchor: the latest span end. --window-us=0 keeps every
    // span in the window, so "window" degenerates to the lifetime
    // block (same shape, easy downstream handling).
    std::uint64_t maxEnd = 0;
    for (const obs::TaskSpan &s : spans)
        maxEnd = std::max(maxEnd, s.endTs);
    std::uint64_t windowNs =
        windowUs > 0 ? static_cast<std::uint64_t>(
                           usToNs(static_cast<double>(windowUs)))
                     : 0;
    std::uint64_t windowStart =
        windowNs != 0 && maxEnd > windowNs ? maxEnd - windowNs : 0;

    std::uint64_t violations = 0;
    std::map<std::uint32_t, obs::SpanCollector::TenantStats> tenants;
    std::map<std::uint32_t, obs::SpanCollector::TenantStats> windowed;
    for (const obs::TaskSpan &s : spans) {
        violations += tenants[s.tenant].add(s, sloNs);
        if (s.endTs >= windowStart)
            windowed[s.tenant].add(s, sloNs);
    }
    std::uint64_t invariantViolations = 0;
    for (const obs::TaskSpan &s : spans)
        if (!s.invariantHolds())
            ++invariantViolations;

    std::printf("trace: %zu records, %zu spans "
                "(%llu invariant violations, %llu anomalies)\n",
                records.size(), spans.size(),
                static_cast<unsigned long long>(invariantViolations),
                static_cast<unsigned long long>(anomalies.total()));

    ConsoleTable table("Per-tenant scheduler-delay attribution (mean "
                       "ns over completed spans)");
    table.header({"tenant", "spans", "queued", "running", "preempted",
                  "timer lag", "total p99"});
    for (const auto &[tenant, t] : tenants) {
        table.row({std::to_string(tenant),
                   std::to_string(t.completed),
                   ConsoleTable::num(t.queued.mean(), 0),
                   ConsoleTable::num(t.running.mean(), 0),
                   ConsoleTable::num(t.preempted.mean(), 0),
                   ConsoleTable::num(t.timerLag.mean(), 0),
                   std::to_string(t.total.p99())});
    }
    table.print();

    if (perSpan) {
        std::printf("\n%-8s %-6s %-4s %10s %10s %10s %10s %10s\n",
                    "id", "tenant", "segs", "queued", "running",
                    "preempted", "lag", "total");
        for (const obs::TaskSpan &s : spans) {
            std::printf(
                "%-8llu %-6u %-4u %10llu %10llu %10llu %10llu %10llu%s\n",
                static_cast<unsigned long long>(s.id), s.tenant,
                s.segments,
                static_cast<unsigned long long>(s.breakdown.queuedNs),
                static_cast<unsigned long long>(s.breakdown.runningNs),
                static_cast<unsigned long long>(
                    s.breakdown.preemptedNs),
                static_cast<unsigned long long>(s.breakdown.timerLagNs),
                static_cast<unsigned long long>(s.latencyNs()),
                s.completed ? "" : " (cancelled)");
        }
    }

    if (!jsonPath.empty()) {
        std::ostringstream os;
        os.imbue(std::locale::classic());
        os << "{\n  \"schema\": \"preempt.spans.v2\",\n";
        os << "  \"spans\": " << spans.size() << ",\n";
        os << "  \"window_us\": " << windowUs << ",\n";
        os << "  \"invariant_violations\": " << invariantViolations
           << ",\n";
        os << "  \"slo_violations\": " << violations << ",\n";
        os << "  \"anomalies\": {\"orphan_events\": "
           << anomalies.orphanEvents
           << ", \"clamped_times\": " << anomalies.clampedTimes
           << ", \"reopened_tasks\": " << anomalies.reopenedTasks
           << ", \"dangling_spans\": " << anomalies.danglingSpans
           << "},\n";
        os << "  \"tenants\": {";
        bool first = true;
        for (const auto &[tenant, t] : tenants) {
            os << (first ? "\n" : ",\n") << "    \"" << tenant << "\": ";
            obs::writeTenantSpansJson(
                os, obs::TelemetrySnapshot::TenantSpans::from(
                        tenant, t, &windowed[tenant]));
            first = false;
        }
        os << (first ? "}\n" : "\n  }\n") << "}\n";

        std::string text = os.str();
        std::string err;
        fatal_if(!obs::validateJson(text, &err),
                 "span_tool emitted invalid JSON: %s", err.c_str());
        std::ofstream out(jsonPath);
        fatal_if(!out, "cannot open '%s'", jsonPath.c_str());
        out << text;
    }
    return invariantViolations == 0 ? 0 : 1;
}
