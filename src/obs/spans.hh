/**
 * @file
 * Task-lifecycle spans: fold the flat TaskSubmit / Dispatch / Launch /
 * Resume / Preempt / Complete / CancelRequest / TaskMigrate trace
 * records into one span per task with an exact scheduler-delay
 * decomposition:
 *
 *     queued + running + preempted + timer_lag  ==  end-to-end latency
 *
 * where
 *   queued    = submit -> first launch (dispatcher + ready-queue wait),
 *   preempted = time parked between a Preempt and the next Resume,
 *   timer_lag = per running segment, the part of the segment past the
 *               armed quantum (late timer fire / delivery latency /
 *               handler overhead),
 *   running   = the rest of every running segment.
 *
 * The decomposition is exact by construction (saturating arithmetic is
 * only used to survive host-clock skew across threads, and every
 * clamp is counted in Anomalies), so on a deterministic simulator run
 * the invariant holds to the nanosecond for 100% of completed tasks —
 * tests/test_spans.cc enforces it as a golden invariant.
 *
 * Two consumers:
 *   - offline: buildSpans(records) / buildSpans(Tracer) over a
 *     finished run (tools/span_tool reconstructs records from a
 *     --trace-out file and prints/exports the breakdown);
 *   - live: a SpanCollector installed via setSpanCollector() receives
 *     lifecycle records as they are emitted (obs::emitSpan) and feeds
 *     per-tenant delay-breakdown histograms that the telemetry
 *     publisher (obs/telemetry.hh) snapshots while the runtime serves
 *     traffic.
 *
 * With -DPREEMPT_OBS_DISABLED the whole subsystem compiles away:
 * emitSpan() degrades to nothing and the collector types become empty
 * stubs.
 */

#ifndef PREEMPT_OBS_SPANS_HH
#define PREEMPT_OBS_SPANS_HH

#include <cstdint>
#include <vector>

#include "obs/trace.hh"

#ifndef PREEMPT_OBS_DISABLED

#include <atomic>
#include <cstddef>
#include <map>
#include <memory>
#include <mutex>

#include "common/histogram.hh"
#include "common/windowed_histogram.hh"

namespace preempt::obs {

/** The four-way scheduler-delay decomposition of one task (ns). */
struct SpanBreakdown
{
    std::uint64_t queuedNs = 0;    ///< submit -> first launch
    std::uint64_t runningNs = 0;   ///< on-CPU segment time within quantum
    std::uint64_t preemptedNs = 0; ///< parked between preempt and resume
    std::uint64_t timerLagNs = 0;  ///< segment time past the armed quantum

    std::uint64_t
    total() const
    {
        return queuedNs + runningNs + preemptedNs + timerLagNs;
    }
};

/** One folded task lifecycle. */
struct TaskSpan
{
    std::uint64_t id = 0;          ///< task / request id
    std::uint32_t epoch = 0;       ///< trace epoch the span belongs to
    std::uint32_t tenant = 0;      ///< TaskSubmit a1
    std::uint32_t cls = 0;         ///< TaskSubmit a0 (0 = LC, 1 = BE)
    std::uint64_t submitTs = 0;    ///< TaskSubmit timestamp
    std::uint64_t endTs = 0;       ///< Complete / CancelRequest ts
    std::uint32_t segments = 0;    ///< running segments (1 + resumes)
    std::uint32_t migrations = 0;  ///< TaskMigrate count
    bool completed = false;        ///< Complete (true) vs cancelled
    SpanBreakdown breakdown;

    /** Measured end-to-end latency (submit -> end). */
    std::uint64_t latencyNs() const { return endTs - submitTs; }

    /** Exact-decomposition invariant (see file comment). */
    bool invariantHolds() const
    {
        return breakdown.total() == latencyNs();
    }
};

/**
 * The five span-delay aggregates, one T each: the four parts of the
 * decomposition, then the end-to-end total. kNames is the one ordered
 * name table every rendering uses (JSON keys, Prometheus families,
 * checksum order), and part(i) is the member kNames[i] names.
 */
template <typename T>
struct SpanParts
{
    static constexpr std::size_t kCount = 5;
    static constexpr const char *kNames[kCount] = {
        "queued", "running", "preempted", "timer_lag", "total"};

    T queued;
    T running;
    T preempted;
    T timerLag;
    T total;

    SpanParts() = default;

    /** Construct every part from the same arguments. */
    template <typename... Args>
    explicit SpanParts(const Args &...args)
        : queued(args...), running(args...), preempted(args...),
          timerLag(args...), total(args...)
    {
    }

    T &part(std::size_t i) { return this->*kMembers[i]; }
    const T &part(std::size_t i) const { return this->*kMembers[i]; }

    /** Record a span's breakdown, with its latency as the total. */
    void
    record(const TaskSpan &span)
    {
        queued.record(span.breakdown.queuedNs);
        running.record(span.breakdown.runningNs);
        preempted.record(span.breakdown.preemptedNs);
        timerLag.record(span.breakdown.timerLagNs);
        total.record(span.latencyNs());
    }

  private:
    static constexpr T SpanParts::*kMembers[kCount] = {
        &SpanParts::queued, &SpanParts::running, &SpanParts::preempted,
        &SpanParts::timerLag, &SpanParts::total};
};

/**
 * Streaming span folder. Feed it lifecycle records (any order across
 * tasks, per-task order as emitted); finished spans aggregate into
 * per-tenant delay-breakdown histograms and optionally a bounded list
 * of retained spans for offline inspection.
 *
 * Thread-safe: state is sharded by task id (16 ways), so concurrent
 * workers folding different tasks rarely contend. Not async-signal-
 * safe — lifecycle records are emitted from thread context only
 * (HandlerEnter and friends stay on the wait-free ring path).
 */
class SpanCollector
{
  public:
    struct Options
    {
        /** Retain finished spans (offline tooling); 0 = aggregate
         *  only. Retention is capped, oldest kept. */
        std::size_t keepSpans = 0;

        /** Count spans whose total exceeds this as SLO violations in
         *  the per-tenant aggregate (0 = disabled). */
        std::uint64_t sloNs = 0;

        /** Keep K-epoch sliding-window companions of every per-tenant
         *  histogram (0 = off). Epochs rotate only via
         *  rotateWindows() — the telemetry publisher's tick. */
        std::size_t windowEpochs = 0;
    };

    /** Per-tenant aggregate of finished spans. */
    struct TenantStats : SpanParts<LatencyHistogram>
    {
        std::uint64_t completed = 0;
        std::uint64_t cancelled = 0;
        std::uint64_t violations = 0; ///< totals above Options::sloNs

        /** Fold one finished span; a completed one whose latency
         *  exceeds sloNs (0 = no SLO) is a violation.
         *  @return whether it was. */
        bool
        add(const TaskSpan &span, std::uint64_t sloNs)
        {
            if (!span.completed) {
                ++cancelled;
                return false;
            }
            ++completed;
            record(span);
            bool violated = sloNs != 0 && span.latencyNs() > sloNs;
            violations += violated;
            return violated;
        }
    };

    /** Events that could not be folded cleanly. On a deterministic
     *  sim run every field stays zero; on a real host clock skew
     *  between worker threads may force saturating clamps. */
    struct Anomalies
    {
        std::uint64_t orphanEvents = 0;   ///< lifecycle event, no span
        std::uint64_t clampedTimes = 0;   ///< negative interval clamped
        std::uint64_t reopenedTasks = 0;  ///< submit while still open
        std::uint64_t danglingSpans = 0;  ///< open spans at drain time

        std::uint64_t
        total() const
        {
            return orphanEvents + clampedTimes + reopenedTasks +
                   danglingSpans;
        }
    };

    SpanCollector() : SpanCollector(Options{}) {}
    explicit SpanCollector(Options options);
    ~SpanCollector(); // out of line: Shard is incomplete here

    SpanCollector(const SpanCollector &) = delete;
    SpanCollector &operator=(const SpanCollector &) = delete;

    /** Fold one record. Non-lifecycle kinds are ignored, so a whole
     *  trace can be replayed through unfiltered. */
    void onRecord(const TraceRecord &rec);

    /** Convenience for emitSpan(): fold an event by fields. */
    void
    onEvent(EventKind kind, std::uint32_t core, std::uint64_t ts,
            std::uint64_t id, std::uint64_t a0, std::uint64_t a1,
            std::uint32_t epoch = 0)
    {
        TraceRecord rec;
        rec.ts = ts;
        rec.kind = static_cast<std::uint16_t>(kind);
        rec.core = static_cast<std::uint16_t>(core);
        rec.epoch = epoch;
        rec.id = id;
        rec.a0 = a0;
        rec.a1 = a1;
        onRecord(rec);
    }

    /** Spans finished so far (completed + cancelled). */
    std::uint64_t finished() const
    {
        return finished_.load(std::memory_order_relaxed);
    }

    /** Finished spans whose decomposition failed to sum exactly. */
    std::uint64_t invariantViolations() const
    {
        return invariantViolations_.load(std::memory_order_relaxed);
    }

    /** Copy of the per-tenant aggregates, keyed by tenant id. */
    std::map<std::uint32_t, TenantStats> tenantStats() const;

    /**
     * Per-tenant aggregates over the sliding window only (the last
     * K epochs of finished spans). Empty map when windowing is off.
     * `completed` counts finishes inside the window, and the
     * histograms cover exactly those spans.
     */
    std::map<std::uint32_t, TenantStats> tenantWindowStats() const;

    /** Enable (or resize, discarding window state) K-epoch windows. */
    void setWindowEpochs(std::size_t epochs);

    /** Publisher tick: retire the live epoch of every tenant. */
    void rotateWindows();

    /** Copy of the retained finished spans (Options::keepSpans > 0),
     *  in finish order. */
    std::vector<TaskSpan> retainedSpans() const;

    /** Folding anomaly counters (all zero on a clean sim run). */
    Anomalies anomalies() const;

    /** Count still-open spans as dangling anomalies (end of run). */
    void drainOpen();

  private:
    struct OpenSpan;
    struct Shard;

    /** Sliding-window companion of one tenant's aggregates. */
    struct TenantWindow : SpanParts<WindowedLatencyHistogram>
    {
        explicit TenantWindow(std::size_t epochs)
            : SpanParts(epochs), cancelled(epochs), violations(epochs)
        {
        }

        WindowedCounter cancelled;
        WindowedCounter violations;
    };

    Shard &shardFor(std::uint64_t id, std::uint32_t epoch);
    void finishSpan(Shard &shard, OpenSpan &open, std::uint64_t ts,
                    bool completed);

    static constexpr std::size_t kShards = 16;

    Options options_;
    std::unique_ptr<Shard[]> shards_;
    std::atomic<std::uint64_t> finished_{0};
    std::atomic<std::uint64_t> invariantViolations_{0};

    mutable std::mutex aggMutex_;
    std::map<std::uint32_t, TenantStats> tenants_;
    std::map<std::uint32_t, TenantWindow> windows_;
    std::vector<TaskSpan> retained_;
    Anomalies anomalies_;
};

/** Fold an already-collected record set (offline path). Records may
 *  be in ring order; they are sorted by (epoch, ts) per task as a
 *  by-product of per-task folding, but cross-task order is free. */
std::vector<TaskSpan> buildSpans(const std::vector<TraceRecord> &records,
                                 SpanCollector::Anomalies *anomalies =
                                     nullptr);

/** Fold every retained record of a quiescent tracer. */
std::vector<TaskSpan> buildSpans(const Tracer &tracer,
                                 SpanCollector::Anomalies *anomalies =
                                     nullptr);

/**
 * Install/uninstall the process-wide live collector (caller owns it;
 * uninstall before destroying). Lifecycle emission sites feed it via
 * emitSpan(); when none is installed emitSpan() is exactly emit().
 */
void setSpanCollector(SpanCollector *collector) noexcept;

/** The installed live collector, or nullptr. */
SpanCollector *spanCollector() noexcept;

/**
 * Lifecycle-site emission: the trace record plus, when a live
 * collector is installed, a streaming fold into it. Costs one extra
 * relaxed load over emit() when no collector is installed.
 */
inline void
emitSpan(EventKind kind, std::uint32_t core, std::uint64_t ts,
         std::uint64_t id, std::uint64_t a0 = 0,
         std::uint64_t a1 = 0) noexcept
{
    emit(kind, core, ts, id, a0, a1);
    if (SpanCollector *c = spanCollector()) [[unlikely]]
        c->onEvent(kind, core, ts, id, a0, a1);
}

} // namespace preempt::obs

#else // PREEMPT_OBS_DISABLED

namespace preempt::obs {

/** Disabled stub: lifecycle sites compile to nothing. */
inline void
emitSpan(EventKind, std::uint32_t, std::uint64_t, std::uint64_t,
         std::uint64_t = 0, std::uint64_t = 0) noexcept
{
}

} // namespace preempt::obs

#endif // PREEMPT_OBS_DISABLED

#endif // PREEMPT_OBS_SPANS_HH
