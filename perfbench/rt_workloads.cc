/**
 * @file
 * The real-runtime workloads, rt_short and rt_lc_be: one process with
 * one open-loop generator thread (this one), the LibUtimer thread and
 * two workers, driven only through PreemptibleRuntime's public API.
 *
 * The runtime is deployed as the paper deploys it, one thread per
 * core: the workers and the LibUtimer thread poll instead of napping,
 * and the generator spins to each due time. Four busy threads on four
 * vCPUs keep a shared VM's vCPUs on physical CPUs; with the default
 * naps, a halted vCPU takes up to milliseconds to be scheduled again
 * and the tails measure the hypervisor rather than the runtime.
 *
 * Every task's sojourn is timed from when it was due, not from when
 * the generator got round to sending it, so a late generator charges
 * its stall to the system under test. The body stamps its first and
 * last instruction and a checksum into the task's slot, which is how
 * the run checks that each task ran exactly once and for at least its
 * service time.
 */
#include <atomic>
#include <cmath>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "common.hh"
#include "obs/metrics.hh"
#include "obs/spans.hh"
#include "obs/trace.hh"
#include "preemptible/hosttime.hh"
#include "preemptible/runtime.hh"
#include "schedule.hh"
#include "stats.hh"

namespace perfbench {
namespace {

using preempt::runtime::hostNowNs;
using preempt::runtime::PreemptibleRuntime;
using preempt::runtime::RuntimeStats;

constexpr int kWorkers = 2;
constexpr double kLcMeanNs = 3000; // Table V short mode: 3 us
/** A clock-read gap this long inside a spinning body means the body
 *  was off the CPU (preempted by the runtime or by the host). */
constexpr std::uint64_t kOffCpuGapNs = 15'000;
constexpr std::size_t kMaxStretches = 64;

/** A workload's fixed definition (no knobs: these are the inputs). */
struct RtWorkload
{
    preempt::TimeNs quantum;     ///< runtime time slice
    preempt::TimeNs deadline;    ///< LC relative deadline; 0 = none
    Mix idle;                    ///< light load
    Mix nominal;                 ///< the operating point
};

/** LC rates of the load ladder for the knee, ascending. */
const double kLadderKrps[] = {100, 200, 225, 250, 275, 300, 325, 350,
                              375, 400, 425, 450, 475, 500, 600};

const RtWorkload kShort{
    preempt::msToNs(4), // the runtime's default, far above service
    0,
    {10'000, kLcMeanNs, 0, 0},
    {40'000, kLcMeanNs, 0, 0},
};

/** The LC deadline is far past any sojourn the runtime gives, so a
 *  task is dropped only if the host stalls the process for 200 ms:
 *  every submitTo arms and cancels a wheel entry, and no task fails.
 *  (At 20 ms, host stalls dropped a few hundred tasks in some runs and
 *  none in others.) */
const RtWorkload kLcBe{
    preempt::usToNs(250),
    preempt::msToNs(200),
    {10'000, kLcMeanNs, 0.005, preempt::msToNs(2)},
    {40'000, kLcMeanNs, 0.005, preempt::msToNs(2)},
};

/** Fig. 8's rule for the knee: LC p99 at most 200x the mean service
 *  of the workload's mix (LC and BE). */
double
p99LimitUs(const Mix &mix)
{
    double meanNs = (1 - mix.beShare) * mix.lcMeanNs +
                    mix.beShare * static_cast<double>(mix.beServiceNs);
    return 200 * meanNs / 1000;
}

/** One arrival's record, written by the generator and by the body. */
struct alignas(64) Slot
{
    std::uint64_t due = 0;       ///< absolute ns the arrival was due
    std::uint64_t service = 0;   ///< ns of CPU the body must consume
    std::uint64_t sent = 0;      ///< generator: entering submit
    std::uint64_t submitRet = 0; ///< generator: submit returned
    std::uint64_t start = 0;     ///< body: first instruction
    std::uint64_t end = 0;       ///< body: last instruction
    std::uint32_t checksum = 0;  ///< body: checksumOf(due, service)
    std::uint32_t beIndex = 0;   ///< BeTrace index (BE tasks)
    std::atomic<std::uint32_t> runs{0}; ///< body executions
    std::uint8_t cls = 0;
    std::uint8_t accepted = 0;   ///< submit returned true
};

/** On-CPU stretches of one BE body and the gaps between them. */
struct BeTrace
{
    std::uint32_t stretches = 0;
    std::uint64_t stretchNs[kMaxStretches] = {};
    std::uint64_t gapNs[kMaxStretches] = {};
};

struct Phase
{
    std::unique_ptr<Slot[]> slots;
    std::vector<BeTrace> be;
};

std::uint32_t
checksumOf(std::uint64_t due, std::uint64_t service)
{
    std::uint64_t x = due * 0x9e3779b97f4a7c15ULL ^ service;
    x ^= x >> 29;
    x *= 0xbf58476d1ce4e5b9ULL;
    return static_cast<std::uint32_t>(x ^ (x >> 32));
}

void
finish(Slot *s, std::uint64_t now)
{
    s->end = now;
    s->checksum = checksumOf(s->due, s->service);
    s->runs.fetch_add(1, std::memory_order_release);
}

void
lcBody(Slot *s)
{
    std::uint64_t t0 = hostNowNs();
    s->start = t0;
    std::uint64_t now = t0;
    while (now - t0 < s->service)
        now = hostNowNs();
    finish(s, now);
}

/** Spin until `service` ns of on-CPU time have passed, logging each
 *  stretch between off-CPU gaps. */
void
beBody(Slot *s, BeTrace *bt)
{
    std::uint64_t t0 = hostNowNs();
    s->start = t0;
    std::uint64_t last = t0, stretchStart = t0, cpu = 0;
    while (cpu < s->service) {
        std::uint64_t now = hostNowNs();
        std::uint64_t d = now - last;
        if (d > kOffCpuGapNs) {
            if (bt->stretches < kMaxStretches) {
                bt->stretchNs[bt->stretches] = last - stretchStart;
                bt->gapNs[bt->stretches] = d;
                ++bt->stretches;
            }
            stretchStart = now;
        } else {
            cpu += d;
        }
        last = now;
    }
    if (bt->stretches < kMaxStretches)
        bt->stretchNs[bt->stretches++] = last - stretchStart;
    finish(s, last);
}

/** What one open-loop phase measured. */
struct PhaseStats
{
    std::vector<double> lcUs;  ///< LC sojourn from due; kFailed = lost
    std::uint64_t attempted = 0, failed = 0;
    std::uint64_t beDone = 0;
    std::uint64_t deadlineAttempted = 0, deadlineMissed = 0;
    std::vector<double> lateUs, submitNs, dispatchUs, overrunUs, offcpuUs;
    double drainMs = 0;
    double seconds = 0;
    std::size_t longQueueMax = 0, wheelDepthMax = 0;
    RuntimeStats before, after;
    std::uint64_t firesBefore = 0, firesAfter = 0; ///< LibUtimer fires
};

/**
 * Offer one seeded schedule to the runtime, wait until it drained,
 * then check every task's record against the runtime's counters.
 * `sample` polls longQueueLen() and the wheel depths from the
 * generator every 500 us and keeps each task's submit and dispatch
 * times (traced runs only: the polls take locks).
 */
PhaseStats
runPhase(PreemptibleRuntime &rt, const RtWorkload &wl,
         const std::vector<Arrival> &sched, double seconds, bool sample,
         RunResult &res)
{
    PhaseStats ps;
    ps.seconds = seconds;
    const std::size_t n = sched.size();
    Phase ph;
    ph.slots = std::make_unique<Slot[]>(n);
    std::size_t nBe = 0;
    for (const Arrival &a : sched)
        nBe += a.cls == 1;
    ph.be.resize(nBe);

    ps.before = rt.stats();
    ps.firesBefore = rt.timer().firesTotal();
    const std::uint64_t t0 = hostNowNs() + 1'000'000;
    std::uint64_t nextSample = t0;
    std::uint32_t beNext = 0;
    for (std::size_t i = 0; i < n; ++i) {
        Slot &s = ph.slots[i];
        s.due = t0 + sched[i].dueNs;
        s.service = sched[i].serviceNs;
        s.cls = static_cast<std::uint8_t>(sched[i].cls);
        Slot *sp = &s;
        while (hostNowNs() < s.due) {
        }
        bool ok;
        if (s.cls == 1) {
            s.beIndex = beNext++;
            BeTrace *bt = &ph.be[s.beIndex];
            s.sent = hostNowNs();
            ok = rt.submit([sp, bt] { beBody(sp, bt); }, 1);
        } else if (wl.deadline != 0) {
            s.sent = hostNowNs();
            ok = rt.submitTo(static_cast<int>(i % kWorkers),
                             [sp] { lcBody(sp); }, 0, wl.deadline);
        } else {
            s.sent = hostNowNs();
            ok = rt.submit([sp] { lcBody(sp); }, 0);
        }
        s.submitRet = hostNowNs();
        s.accepted = ok;
        if (sample && s.submitRet >= nextSample) {
            ps.longQueueMax = std::max(ps.longQueueMax, rt.longQueueLen());
            for (int w = 0; w < kWorkers; ++w)
                ps.wheelDepthMax = std::max(ps.wheelDepthMax, rt.wheelShard(w).depth());
            nextSample = s.submitRet + 500'000;
        }
    }
    const std::uint64_t lastDue = n ? ph.slots[n - 1].due : t0;
    rt.quiesce();
    ps.drainMs = static_cast<double>(hostNowNs() - lastDue) / 1e6;
    ps.after = rt.stats();
    ps.firesAfter = rt.timer().firesTotal();

    // Exactly once, or counted as failed; sojourn >= service.
    std::uint64_t ran = 0, rejected = 0, dropped = 0;
    bool onceOk = true, sumOk = true, serviceOk = true;
    for (std::size_t i = 0; i < n; ++i) {
        const Slot &s = ph.slots[i];
        std::uint32_t runs = s.runs.load(std::memory_order_acquire);
        onceOk &= runs <= 1 && (runs == 0 || s.accepted);
        ps.lateUs.push_back(static_cast<double>(s.sent - s.due) / 1e3);
        ++ps.attempted;
        if (!s.accepted)
            ++rejected;
        else if (runs == 0)
            ++dropped;
        bool done = runs == 1;
        if (done) {
            ++ran;
            sumOk &= s.checksum == checksumOf(s.due, s.service);
            serviceOk &= s.end - s.due >= s.service && s.start >= s.sent;
            if (sample) {
                ps.submitNs.push_back(static_cast<double>(s.submitRet - s.sent));
                ps.dispatchUs.push_back(
                    s.start > s.submitRet ? static_cast<double>(s.start - s.submitRet) / 1e3 : 0.0);
            }
        }
        if (s.cls == 1) {
            ps.beDone += done;
            const BeTrace &bt = ph.be[s.beIndex];
            for (std::uint32_t k = 0; k < bt.stretches; ++k) {
                if (k + 1 < bt.stretches) { // ended by going off-CPU
                    ps.overrunUs.push_back(
                        (static_cast<double>(bt.stretchNs[k]) - static_cast<double>(wl.quantum)) / 1e3);
                    ps.offcpuUs.push_back(static_cast<double>(bt.gapNs[k]) / 1e3);
                }
            }
            continue;
        }
        ps.lcUs.push_back(done ? static_cast<double>(s.end - s.due) / 1e3 : kFailed);
        if (wl.deadline != 0) {
            ++ps.deadlineAttempted;
            ps.deadlineMissed += !done || s.end - s.sent > wl.deadline;
        }
    }
    ps.failed = rejected + dropped;
    const RuntimeStats &b = ps.before, &a = ps.after;
    const std::uint64_t completed = a.completed - b.completed;
    const std::uint64_t drops = a.expiredDrops - b.expiredDrops;
    const std::uint64_t refused =
        a.rejectedFull + a.rejectedPolicy - b.rejectedFull - b.rejectedPolicy;
    res.check(onceOk, "every task ran at most once, and only if accepted");
    res.check(sumOk, "every body's checksum matches its arrival");
    res.check(serviceOk, "every sojourn is at least its service time");
    res.check(completed + drops + refused == n,
              "the runtime accounts for every attempted task exactly once");
    res.check(refused == rejected, "runtime rejections match refused submits");
    // A body that returned is a runtime completion, except when the
    // timer preempted it after its last instruction and its deadline
    // had passed: the runtime then cancels it and counts a drop.
    res.check(completed <= ran && drops >= dropped,
              "runtime completions and drops match the bodies that ran");
    return ps;
}

/**
 * The windows of one kind (idle, nominal, traced nominal) gathered
 * across the rounds of a run. A percentile metric is the median over
 * short intervals of the interval's percentile (chunkPercentiles), so
 * a host stall that spoils a few intervals does not move it.
 */
struct Windows
{
    std::vector<double> p50, p99; ///< per interval, failed = infinite
    std::vector<double> lcUs;     ///< pooled, for the deepest tail
    std::vector<double> lateUs, submitNs, dispatchUs, overrunUs, offcpuUs;
    std::uint64_t attempted = 0, failed = 0, beDone = 0;
    std::uint64_t deadlineAttempted = 0, deadlineMissed = 0;
    double seconds = 0;
    std::size_t longQueueMax = 0, wheelDepthMax = 0;
    RuntimeStats delta; ///< counter increments over the windows
    std::uint64_t fires = 0;

    /** LC tasks per percentile interval (a few tens of ms). */
    std::size_t chunk;

    explicit Windows(std::size_t chunk) : chunk(chunk) {}

    /** Room for the per-task samples of `tasks` arrivals up front. The
     *  samples then fill memory as they come instead of in reallocation
     *  steps, which made peak_rss_mb jump by megabytes between seeds. */
    void
    reserve(std::size_t tasks)
    {
        lcUs.reserve(tasks);
        lateUs.reserve(tasks);
    }

    void
    add(const PhaseStats &ps)
    {
        auto append = [](std::vector<double> &to, const std::vector<double> &from) {
            to.insert(to.end(), from.begin(), from.end());
        };
        append(p50, chunkPercentiles(ps.lcUs, 50, chunk));
        append(p99, chunkPercentiles(ps.lcUs, 99, chunk));
        append(lcUs, ps.lcUs);
        append(lateUs, ps.lateUs);
        append(submitNs, ps.submitNs);
        append(dispatchUs, ps.dispatchUs);
        append(overrunUs, ps.overrunUs);
        append(offcpuUs, ps.offcpuUs);
        attempted += ps.attempted;
        failed += ps.failed;
        beDone += ps.beDone;
        deadlineAttempted += ps.deadlineAttempted;
        deadlineMissed += ps.deadlineMissed;
        seconds += ps.seconds;
        longQueueMax = std::max(longQueueMax, ps.longQueueMax);
        wheelDepthMax = std::max(wheelDepthMax, ps.wheelDepthMax);
        const RuntimeStats &a = ps.after, &b = ps.before;
        delta.stealAttempts += a.stealAttempts - b.stealAttempts;
        delta.stealHits += a.stealHits - b.stealHits;
        delta.stealAborts += a.stealAborts - b.stealAborts;
        delta.migrations += a.migrations - b.migrations;
        delta.preemptions += a.preemptions - b.preemptions;
        delta.deadlineFires += a.deadlineFires - b.deadlineFires;
        delta.expiredDrops += a.expiredDrops - b.expiredDrops;
        fires += ps.firesAfter - ps.firesBefore;
    }
};

/**
 * Closed burst: submit `n` empty tasks back to back and wait for the
 * last; wall time / n is the runtime's per-task cost at full
 * pipeline. rt_lc_be's burst carries its workload's deadlines.
 */
double
burstNsPerTask(PreemptibleRuntime &rt, const RtWorkload &wl, int n)
{
    std::atomic<int> done{0};
    const std::uint64_t drops0 = rt.stats().expiredDrops;
    std::uint64_t t0 = hostNowNs();
    for (int i = 0; i < n; ++i) {
        auto body = [&done] { done.fetch_add(1, std::memory_order_release); };
        while (!(wl.deadline ? rt.submitTo(i % kWorkers, body, 0, wl.deadline)
                             : rt.submit(body, 0))) {
        }
    }
    // A task dropped past its deadline never runs its body, so look at
    // the drop count now and then instead of waiting for it forever.
    for (std::uint64_t check = hostNowNs() + 1'000'000;
         done.load(std::memory_order_acquire) != n;) {
        if (hostNowNs() < check)
            continue;
        if (done.load(std::memory_order_acquire) + (rt.stats().expiredDrops - drops0) >=
            static_cast<std::uint64_t>(n))
            break;
        check += 1'000'000;
    }
    double ns = static_cast<double>(hostNowNs() - t0) / n;
    // The runtime counts a completion just after the body returns;
    // settle those counts before the next phase snapshots the stats.
    rt.quiesce();
    return ns;
}

PreemptibleRuntime::Options
runtimeOptions(const RtWorkload &wl)
{
    PreemptibleRuntime::Options o;
    o.nWorkers = kWorkers;
    o.quantum = wl.quantum;
    o.dropExpired = wl.deadline != 0;
    o.idleNap = 0;          // workers poll (see the file comment)
    o.timer.idleSleep = 0;  // a dedicated timer core, as in the paper
    return o;
}

/** Construction until the runtime has run its first task. */
double
setupSeconds(const RtWorkload &wl)
{
    double t0 = wallSeconds();
    PreemptibleRuntime rt(runtimeOptions(wl));
    std::atomic<bool> ran{false};
    rt.submit([&ran] { ran.store(true, std::memory_order_release); });
    while (!ran.load(std::memory_order_acquire)) {
    }
    double s = wallSeconds() - t0;
    rt.shutdown();
    return s;
}

void
reportTail(const char *what, const std::vector<double> &lcUs)
{
    std::vector<double> sorted = lcUs;
    std::sort(sorted.begin(), sorted.end());
    Tail t = deepestTail(sorted);
    char note[96];
    std::snprintf(note, sizeof note, "p%g over %zu LC tasks (%zu beyond)", t.pct,
                  t.samples, t.beyond);
    info(std::string("lc_deepest_us.") + what, t.value, "us", note);
}

double
share(std::uint64_t part, std::uint64_t whole)
{
    return whole ? static_cast<double>(part) / static_cast<double>(whole) : 0.0;
}

/**
 * LC tasks in one percentile interval: 25 ms of arrivals, or the time
 * of five BE arrivals if that is longer. An LC percentile metric is
 * the lower quartile (quietQuartile) over these intervals of each
 * interval's percentile. On a shared VM, stalls of up to
 * milliseconds, when the hypervisor takes a vCPU away, hit many
 * intervals of a run on a busy host and few on a quiet one; on a
 * 4-vCPU cloud VM a p99 pooled over a whole run moved 10x between runs
 * of the same code.
 * A slowdown of the program itself moves every interval, so it moves
 * the quartile too. An interval holds several BE tasks so that each
 * one samples the colocation: at rt_lc_be's idle rate (50 BE/s) a
 * 25 ms interval holds none about a third of the time, the quartile
 * fell on the edge between intervals with and without one, and it
 * moved by a third between runs.
 */
std::size_t
intervalTasks(const Mix &mix)
{
    const double beRps = mix.rateRps * mix.beShare;
    const double seconds = beRps > 0 ? std::max(0.025, 5 / beRps) : 0.025;
    const double lcRps = mix.rateRps - beRps;
    return std::max<std::size_t>(100, static_cast<std::size_t>(lcRps * seconds));
}

constexpr double kWindowSeconds = 0.3;
constexpr double kRungSeconds = 0.2;
constexpr int kBurst = 2000;
/** Closed bursts per round, so the per-task cost is a median over
 *  many host states of the run, not over a few milliseconds. */
constexpr int kBurstsPerRound = 8;

} // namespace

RunResult
runRealtime(const RunOptions &opt)
{
    const RtWorkload &wl = opt.workload == "rt_short" ? kShort : kLcBe;
    RunResult res;
    const double T = opt.seconds;

    int cpus = hostCpus();
    warmUp(2 + kWorkers, 2.0);
    double capacity = parallelCapacity(2 + kWorkers);
    info("host.cpus", cpus, "count");
    info("host.parallel_capacity", capacity, "ratio", "of 4 threads");

    // Deployed as an operator would run it: a process-wide metrics
    // registry installed, the trace ring off, no telemetry publisher.
    preempt::obs::MetricsRegistry registry;
    preempt::obs::setMetricsRegistry(&registry);

    std::vector<double> setups;
    for (int i = 0; i < 101; ++i)
        setups.push_back(setupSeconds(wl));

    PreemptibleRuntime rt(runtimeOptions(wl));
    for (int i = 0; i < 5; ++i)
        burstNsPerTask(rt, wl, kBurst); // warm the stack pool and caches

    // Rounds: an idle window, a nominal window and closed bursts each,
    // so every metric samples the whole run. The traced run adds a
    // nominal window with the trace ring on (same schedule as the
    // round's untraced one) and bursts with the registry off and with
    // the trace ring on.
    std::unique_ptr<preempt::obs::Tracer> burstTracer, spanTracer;
    if (opt.trace) {
        preempt::obs::Tracer::Options to;
        to.cores = kWorkers + 1;
        to.perCoreCapacity = std::size_t{1} << 14;
        burstTracer = std::make_unique<preempt::obs::Tracer>(to);
        to.perCoreCapacity = std::size_t{1} << 18;
        spanTracer = std::make_unique<preempt::obs::Tracer>(to);
    }

    Windows idle(intervalTasks(wl.idle)), nominal(intervalTasks(wl.nominal)),
        traced(intervalTasks(wl.nominal));
    std::vector<double> burstOn, burstOff, burstTrace;
    const int rounds = std::max(3, static_cast<int>(0.6 * T / (2 * kWindowSeconds)));
    const std::uint64_t windowNs = preempt::secToNs(kWindowSeconds);
    auto tasksOf = [&](const Mix &mix) {
        return static_cast<std::size_t>(1.1 * mix.rateRps * kWindowSeconds * rounds) + 1000;
    };
    idle.reserve(tasksOf(wl.idle));
    nominal.reserve(tasksOf(wl.nominal));
    for (int r = 0; r < rounds; ++r) {
        const std::uint64_t stream = 100 + 2 * static_cast<std::uint64_t>(r);
        idle.add(runPhase(rt, wl, makeSchedule(opt.seed, stream, wl.idle, windowNs),
                          kWindowSeconds, false, res));
        auto nominalSchedule = makeSchedule(opt.seed, stream + 1, wl.nominal, windowNs);
        nominal.add(runPhase(rt, wl, nominalSchedule, kWindowSeconds, opt.trace, res));
        for (int b = 0; b < kBurstsPerRound; ++b)
            burstOn.push_back(burstNsPerTask(rt, wl, kBurst));
        if (!opt.trace)
            continue;
        preempt::obs::setTracer(spanTracer.get());
        traced.add(runPhase(rt, wl, nominalSchedule, kWindowSeconds, false, res));
        preempt::obs::setTracer(nullptr);
        preempt::obs::setMetricsRegistry(nullptr);
        for (int b = 0; b < kBurstsPerRound; ++b)
            burstOff.push_back(burstNsPerTask(rt, wl, kBurst));
        preempt::obs::setMetricsRegistry(&registry);
        preempt::obs::setTracer(burstTracer.get());
        for (int b = 0; b < kBurstsPerRound; ++b)
            burstTrace.push_back(burstNsPerTask(rt, wl, kBurst));
        preempt::obs::setTracer(nullptr);
    }

    // Past the knee the ladder piles up queued tasks; the memory
    // figure is the process at the workload's operating points.
    const double rssMb = peakRssMb();

    // The knee: passes over the whole ladder; each rung's p99 is the
    // lower quartile over passes (the best of three), a pass that left
    // a growing backlog counting as infinite, then Fig. 8's rule picks
    // the knee. A host disturbance during the ladder's contiguous
    // seconds spoiled two of three passes near the knee in some runs
    // and moved a median knee by a fifth; a slower program moves every
    // pass. The BE arrival rate stays at its nominal value on every rung.
    const double beRps = wl.nominal.rateRps * wl.nominal.beShare;
    const double passSeconds = kRungSeconds * static_cast<double>(std::size(kLadderKrps));
    const int passes = std::max(1, static_cast<int>(0.3 * T / passSeconds));
    const std::size_t nRungs = std::size(kLadderKrps);
    std::vector<std::vector<double>> rungP99(nRungs);
    for (int pass = 0; pass < passes; ++pass) {
        for (std::size_t k = 0; k < nRungs; ++k) {
            Mix mix = wl.nominal;
            mix.rateRps = kLadderKrps[k] * 1e3 + beRps;
            mix.beShare = beRps / mix.rateRps;
            const std::uint64_t stream = 10'000 + 100 * static_cast<std::uint64_t>(pass) + k;
            PhaseStats rung = runPhase(rt, wl, makeSchedule(opt.seed, stream, mix, preempt::secToNs(kRungSeconds)),
                                       kRungSeconds, false, res);
            rungP99[k].push_back(rung.drainMs <= 50
                                     ? quietQuartile(chunkPercentiles(rung.lcUs, 99, intervalTasks(mix)))
                                     : kFailed);
        }
    }
    std::vector<Rung> rungs;
    std::string line;
    for (std::size_t k = 0; k < nRungs; ++k) {
        rungs.push_back({kLadderKrps[k], quietQuartile(rungP99[k]), true});
        char cell[32];
        std::snprintf(cell, sizeof cell, " %.0f", rungs.back().p99);
        line += cell;
    }
    const double knee = kneeRate(rungs, p99LimitUs(wl.nominal));
    info("ladder.passes", passes, "count", "rung p99 (us):" + line);
    std::vector<preempt::obs::TaskSpan> spans;
    if (opt.trace)
        spans = preempt::obs::buildSpans(*spanTracer);
    rt.shutdown();
    preempt::obs::setMetricsRegistry(nullptr);

    res.attempted = idle.attempted + nominal.attempted;
    res.failed = idle.failed + nominal.failed;

    res.e2e("setup_s", median(setups), "s");
    res.e2e("lc_p50_us", quietQuartile(nominal.p50), "us");
    res.e2e("lc_p99_us", quietQuartile(nominal.p99), "us");
    res.e2e("lc_p50_us.idle", quietQuartile(idle.p50), "us");
    res.e2e("lc_p99_us.idle", quietQuartile(idle.p99), "us");
    res.e2e("max_lc_rate_krps", knee, "krps");
    res.e2e("task_cost_ns", median(burstOn), "ns");
    res.e2e("peak_rss_mb", rssMb, "MiB");

    info("windows", rounds, "count", "idle and nominal windows of 0.3 s each");
    info("lc_p99_us.pooled", percentile(nominal.lcUs, 99), "us", "p99 over every nominal task");
    info("lc_p99_us.idle.pooled", percentile(idle.lcUs, 99), "us", "p99 over every idle task");
    info("intervals.nominal", static_cast<double>(nominal.p99.size()), "count");
    info("intervals.idle", static_cast<double>(idle.p99.size()), "count");
    reportTail("nominal", nominal.lcUs);
    info("be_done_rps", static_cast<double>(nominal.beDone) / nominal.seconds, "1/s");
    info("deadline_miss_share", share(nominal.deadlineMissed, nominal.deadlineAttempted), "ratio");
    info("failed_share", share(res.failed, res.attempted), "ratio", "over idle and nominal windows");
    std::vector<double> late = idle.lateUs;
    late.insert(late.end(), nominal.lateUs.begin(), nominal.lateUs.end());
    info("loadgen.late_us.p99", percentile(late, 99), "us");
    info("loadgen.late_us.max", percentile(late, 100), "us");
    const double emptyNs = median(burstOn);
    info("runtime.empty_task_ns", emptyNs, "ns", "registry on");
    info("empty_task.vs_switch", emptyNs / 40.0, "x", "of the paper's 40 ns fcontext switch");
    info("empty_task.vs_uintr", emptyNs / 730.0, "x", "of the paper's 0.73 us UINTR round trip");

    if (!opt.trace)
        return res;

    const RuntimeStats &d = nominal.delta;
    res.layer("host.cpus", cpus, "count");
    res.layer("host.parallel_capacity", capacity, "ratio");
    res.layer("runtime.submit_ns.p50", percentile(nominal.submitNs, 50), "ns");
    res.layer("runtime.submit_ns.p99", percentile(nominal.submitNs, 99), "ns");
    res.layer("runtime.dispatch_wait_us.p50", percentile(nominal.dispatchUs, 50), "us");
    res.layer("runtime.dispatch_wait_us.p99", percentile(nominal.dispatchUs, 99), "us");
    res.layer("runtime.empty_task_ns", emptyNs, "ns");
    res.layer("runtime.steal.attempts", static_cast<double>(d.stealAttempts), "count");
    res.layer("runtime.steal.hits", static_cast<double>(d.stealHits), "count");
    res.layer("runtime.steal.hit_ratio", share(d.stealHits, d.stealAttempts), "ratio");
    res.layer("runtime.steal.aborts", static_cast<double>(d.stealAborts), "count");
    res.layer("runtime.migrations", static_cast<double>(d.migrations), "count");
    res.layer("runtime.long_queue.max", static_cast<double>(nominal.longQueueMax), "count");
    res.layer("runtime.preemptions", static_cast<double>(d.preemptions), "count");
    // Workers add their stale-signal counts to the stats as they exit,
    // so this one covers the whole run.
    res.layer("runtime.stale_signals", static_cast<double>(rt.stats().staleSignals), "count");
    res.layer("utimer.fires", static_cast<double>(nominal.fires), "count");
    res.layer("utimer.useful_fire_ratio", share(d.preemptions, nominal.fires), "ratio");
    res.layer("preempt.overrun_us.p50", percentile(nominal.overrunUs, 50), "us");
    res.layer("preempt.overrun_us.p99", percentile(nominal.overrunUs, 99), "us");
    res.layer("preempt.offcpu_us.p50", percentile(nominal.offcpuUs, 50), "us");
    res.layer("preempt.offcpu_us.p99", percentile(nominal.offcpuUs, 99), "us");
    res.layer("wheel.fires", static_cast<double>(d.deadlineFires), "count");
    res.layer("wheel.expired_drops", static_cast<double>(d.expiredDrops), "count");
    res.layer("wheel.depth.max", static_cast<double>(nominal.wheelDepthMax), "count");
    res.layer("obs.metrics_cost_ns_per_task", median(burstOn) - median(burstOff), "ns");
    res.layer("obs.trace_cost_ns_per_task", median(burstTrace) - median(burstOn), "ns");
    res.layer("loadgen.late_us.p99", percentile(nominal.lateUs, 99), "us");
    res.layer("loadgen.late_us.max", percentile(nominal.lateUs, 100), "us");

    std::vector<double> queued, running, preempted, lag;
    std::size_t broken = 0;
    for (const auto &s : spans) {
        broken += !s.invariantHolds();
        if (!s.completed)
            continue;
        queued.push_back(static_cast<double>(s.breakdown.queuedNs) / 1e3);
        running.push_back(static_cast<double>(s.breakdown.runningNs) / 1e3);
        if (s.segments > 1) {
            preempted.push_back(static_cast<double>(s.breakdown.preemptedNs) / 1e3);
            lag.push_back(static_cast<double>(s.breakdown.timerLagNs) / 1e3);
        }
    }
    res.check(broken == 0, "every traced span decomposes its latency exactly");
    info("span.completed", static_cast<double>(queued.size()), "count");
    res.layer("span.queued_us.p99", percentile(queued, 99), "us");
    res.layer("span.running_us.p50", percentile(running, 50), "us");
    res.layer("span.preempted_us.p99", percentile(preempted, 99), "us");
    res.layer("span.timer_lag_us.p99", percentile(lag, 99), "us");
    res.layer("tracing.lc_p50_us.delta", quietQuartile(traced.p50) - quietQuartile(nominal.p50), "us");
    res.layer("tracing.lc_p99_us.delta", quietQuartile(traced.p99) - quietQuartile(nominal.p99), "us");
    return res;
}

} // namespace perfbench
