#include "obs/spans.hh"

#ifndef PREEMPT_OBS_DISABLED

#include <algorithm>
#include <utility>

namespace preempt::obs {

namespace {

std::atomic<SpanCollector *> g_spanCollector{nullptr};

/** Lifecycle phase of an open span. */
enum class Phase : std::uint8_t
{
    Queued,  ///< submitted, not yet launched
    Running, ///< a segment is on CPU
    Parked,  ///< preempted out, waiting for a resume
};

/** Equal-timestamp tie-break: the order lifecycle events can occur
 *  within one task at one instant. */
int
lifecycleRank(EventKind kind)
{
    switch (kind) {
      case EventKind::TaskSubmit:    return 0;
      case EventKind::Dispatch:      return 1;
      case EventKind::TaskMigrate:   return 2;
      case EventKind::Launch:
      case EventKind::Resume:        return 3;
      case EventKind::Preempt:       return 4;
      case EventKind::Complete:
      case EventKind::CancelRequest: return 5;
      default:                       return 6;
    }
}

} // namespace

/** In-flight span state. */
struct SpanCollector::OpenSpan
{
    TaskSpan span;
    Phase phase = Phase::Queued;
    std::uint64_t segStart = 0;   ///< current segment start ts
    std::uint64_t segQuantum = 0; ///< armed quantum (0 = unbounded)
    std::uint64_t lastEnd = 0;    ///< ts of the last Preempt
};

/** One lock + open-span map per shard; tasks hash across shards. */
struct SpanCollector::Shard
{
    std::mutex mutex;
    std::map<std::pair<std::uint32_t, std::uint64_t>, OpenSpan> open;
};

SpanCollector::SpanCollector(Options options)
    : options_(options), shards_(new Shard[kShards])
{
}

SpanCollector::~SpanCollector() = default;

SpanCollector::Shard &
SpanCollector::shardFor(std::uint64_t id, std::uint32_t epoch)
{
    std::uint64_t h = id ^ (static_cast<std::uint64_t>(epoch) *
                            0x9e3779b97f4a7c15ULL);
    return shards_[(h ^ (h >> 7)) % kShards];
}

void
SpanCollector::onRecord(const TraceRecord &rec)
{
    auto kind = static_cast<EventKind>(rec.kind);
    switch (kind) {
      case EventKind::TaskSubmit:
      case EventKind::Dispatch:
      case EventKind::Launch:
      case EventKind::Resume:
      case EventKind::Preempt:
      case EventKind::Complete:
      case EventKind::CancelRequest:
      case EventKind::TaskMigrate:
        break;
      default:
        return; // not a lifecycle record
    }

    Shard &shard = shardFor(rec.id, rec.epoch);
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto key = std::make_pair(rec.epoch, rec.id);
    auto it = shard.open.find(key);

    // Saturating interval with an exact anomaly count: on the sim
    // clock `a >= b` always holds; on a real host cross-thread skew
    // may not, and every clamp is visible in anomalies().
    auto since = [this](std::uint64_t now, std::uint64_t then) {
        if (now < then) {
            std::lock_guard<std::mutex> alock(aggMutex_);
            ++anomalies_.clampedTimes;
            return std::uint64_t{0};
        }
        return now - then;
    };

    if (kind == EventKind::TaskSubmit || kind == EventKind::Dispatch) {
        if (it != shard.open.end()) {
            if (kind == EventKind::Dispatch)
                return; // routing record of an already-open span
            // A second submit with the same (epoch, id): ids collided
            // (e.g. two runtimes sharing a collector without unique
            // ids). Drop the stale span and restart.
            std::lock_guard<std::mutex> alock(aggMutex_);
            ++anomalies_.reopenedTasks;
            shard.open.erase(it);
        }
        OpenSpan open;
        open.span.id = rec.id;
        open.span.epoch = rec.epoch;
        open.span.submitTs = rec.ts;
        if (kind == EventKind::TaskSubmit) {
            open.span.cls = static_cast<std::uint32_t>(rec.a0);
            open.span.tenant = static_cast<std::uint32_t>(rec.a1);
        }
        shard.open.emplace(key, open);
        return;
    }

    if (it == shard.open.end()) {
        std::lock_guard<std::mutex> alock(aggMutex_);
        ++anomalies_.orphanEvents;
        return;
    }
    OpenSpan &open = it->second;
    SpanBreakdown &b = open.span.breakdown;

    switch (kind) {
      case EventKind::Launch:
      case EventKind::Resume:
        if (open.phase == Phase::Running) {
            // Missing segment end (dropped record): re-anchor and
            // count it; the lost segment time is unattributable.
            std::lock_guard<std::mutex> alock(aggMutex_);
            ++anomalies_.orphanEvents;
        } else if (open.phase == Phase::Queued) {
            b.queuedNs += since(rec.ts, open.span.submitTs);
        } else {
            b.preemptedNs += since(rec.ts, open.lastEnd);
        }
        open.phase = Phase::Running;
        open.segStart = rec.ts;
        open.segQuantum = rec.a1;
        break;

      case EventKind::Preempt: {
        if (open.phase != Phase::Running) {
            std::lock_guard<std::mutex> alock(aggMutex_);
            ++anomalies_.orphanEvents;
            break;
        }
        std::uint64_t dur = since(rec.ts, open.segStart);
        // The part of the segment past the armed quantum is timer-fire
        // lag: scan latency + delivery latency + handler overhead.
        std::uint64_t lag =
            open.segQuantum != 0 && dur > open.segQuantum
                ? dur - open.segQuantum
                : 0;
        b.runningNs += dur - lag;
        b.timerLagNs += lag;
        ++open.span.segments;
        open.phase = Phase::Parked;
        open.lastEnd = rec.ts;
        break;
      }

      case EventKind::TaskMigrate:
        ++open.span.migrations;
        break;

      case EventKind::Complete:
      case EventKind::CancelRequest:
        // Attribute the trailing gap so the decomposition always sums
        // to the measured latency, whatever phase the end lands in.
        if (open.phase == Phase::Running) {
            b.runningNs += since(rec.ts, open.segStart);
            ++open.span.segments;
        } else if (open.phase == Phase::Parked) {
            b.preemptedNs += since(rec.ts, open.lastEnd);
        } else {
            b.queuedNs += since(rec.ts, open.span.submitTs);
        }
        finishSpan(shard, open, rec.ts,
                   kind == EventKind::Complete);
        shard.open.erase(it);
        break;

      default:
        break;
    }
}

void
SpanCollector::finishSpan(Shard &shard, OpenSpan &open, std::uint64_t ts,
                          bool completed)
{
    (void)shard; // called with shard.mutex held
    TaskSpan span = open.span;
    span.endTs = ts;
    span.completed = completed;
    finished_.fetch_add(1, std::memory_order_relaxed);
    if (!span.invariantHolds())
        invariantViolations_.fetch_add(1, std::memory_order_relaxed);

    std::lock_guard<std::mutex> lock(aggMutex_);
    bool violated = tenants_[span.tenant].add(span, options_.sloNs);
    if (options_.windowEpochs != 0) {
        TenantWindow &w =
            windows_.try_emplace(span.tenant, options_.windowEpochs)
                .first->second;
        if (!completed)
            w.cancelled.add();
        else
            w.record(span);
        if (violated)
            w.violations.add();
    }
    if (options_.keepSpans != 0) {
        if (retained_.size() < options_.keepSpans)
            retained_.push_back(span);
        // At capacity the newest spans win (the tail of the run is the
        // interesting part, matching the rings' drop-oldest policy).
        else
            retained_[finished_.load(std::memory_order_relaxed) %
                      options_.keepSpans] = span;
    }
}

std::map<std::uint32_t, SpanCollector::TenantStats>
SpanCollector::tenantStats() const
{
    std::lock_guard<std::mutex> lock(aggMutex_);
    return tenants_;
}

std::map<std::uint32_t, SpanCollector::TenantStats>
SpanCollector::tenantWindowStats() const
{
    std::lock_guard<std::mutex> lock(aggMutex_);
    std::map<std::uint32_t, TenantStats> out;
    for (const auto &[tenant, w] : windows_) {
        TenantStats t;
        for (std::size_t i = 0; i < TenantWindow::kCount; ++i)
            t.part(i) = w.part(i).aggregate();
        t.completed = t.total.count();
        t.cancelled = w.cancelled.total();
        t.violations = w.violations.total();
        out.emplace(tenant, std::move(t));
    }
    return out;
}

void
SpanCollector::setWindowEpochs(std::size_t epochs)
{
    std::lock_guard<std::mutex> lock(aggMutex_);
    options_.windowEpochs = epochs;
    windows_.clear();
}

void
SpanCollector::rotateWindows()
{
    std::lock_guard<std::mutex> lock(aggMutex_);
    for (auto &[tenant, w] : windows_) {
        for (std::size_t i = 0; i < TenantWindow::kCount; ++i)
            w.part(i).rotate();
        w.cancelled.rotate();
        w.violations.rotate();
    }
}

std::vector<TaskSpan>
SpanCollector::retainedSpans() const
{
    std::lock_guard<std::mutex> lock(aggMutex_);
    return retained_;
}

SpanCollector::Anomalies
SpanCollector::anomalies() const
{
    std::lock_guard<std::mutex> lock(aggMutex_);
    return anomalies_;
}

void
SpanCollector::drainOpen()
{
    std::size_t dangling = 0;
    for (std::size_t s = 0; s < kShards; ++s) {
        std::lock_guard<std::mutex> lock(shards_[s].mutex);
        dangling += shards_[s].open.size();
        shards_[s].open.clear();
    }
    std::lock_guard<std::mutex> lock(aggMutex_);
    anomalies_.danglingSpans += dangling;
}

std::vector<TaskSpan>
buildSpans(const std::vector<TraceRecord> &records,
           SpanCollector::Anomalies *anomalies)
{
    // Per-task event order must match emission order; rings are
    // per-core and one task's lifecycle crosses cores, so order by
    // (epoch, ts) with the lifecycle rank breaking exact ties.
    std::vector<TraceRecord> sorted = records;
    std::stable_sort(sorted.begin(), sorted.end(),
                     [](const TraceRecord &a, const TraceRecord &b) {
                         if (a.epoch != b.epoch)
                             return a.epoch < b.epoch;
                         if (a.ts != b.ts)
                             return a.ts < b.ts;
                         return lifecycleRank(
                                    static_cast<EventKind>(a.kind)) <
                                lifecycleRank(
                                    static_cast<EventKind>(b.kind));
                     });

    SpanCollector::Options opt;
    opt.keepSpans = sorted.size() + 1; // retain everything
    SpanCollector collector(opt);
    for (const TraceRecord &rec : sorted)
        collector.onRecord(rec);
    collector.drainOpen();
    if (anomalies)
        *anomalies = collector.anomalies();
    return collector.retainedSpans();
}

std::vector<TaskSpan>
buildSpans(const Tracer &tracer, SpanCollector::Anomalies *anomalies)
{
    std::vector<TraceRecord> records;
    for (std::uint32_t c = 0; c < tracer.cores(); ++c) {
        if (!tracer.hasRing(c))
            continue;
        for (const TraceRecord &r : tracer.ring(c).snapshot())
            records.push_back(r);
    }
    return buildSpans(records, anomalies);
}

void
setSpanCollector(SpanCollector *collector) noexcept
{
    g_spanCollector.store(collector, std::memory_order_release);
}

SpanCollector *
spanCollector() noexcept
{
    return g_spanCollector.load(std::memory_order_relaxed);
}

} // namespace preempt::obs

#endif // PREEMPT_OBS_DISABLED
