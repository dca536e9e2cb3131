/**
 * @file
 * Span-driven admission control: the feedback layer that closes the
 * loop from the telemetry plane back into the submit path.
 *
 * An AdmissionController keeps one policy state machine per tenant:
 *
 *     ADMIT -> THROTTLE(rate) -> SHED_BE -> SHED_LC
 *
 * Severity moves one step at a time, driven by three pressure signals
 * (windowed queued-time p99, windowed SLO-violation ratio, in-flight
 * depth) with two-sided hysteresis: escalation needs `escalateAfter`
 * consecutive high-pressure ticks, de-escalation `relaxAfter`
 * consecutive low-pressure ticks, and the band between the low and
 * high thresholds holds the current state. That bounds state changes
 * to at most ticks / min(escalateAfter, relaxAfter) + 1 per window —
 * tests/test_admission_fuzz.cc enforces the bound over randomized
 * overload/recovery schedules.
 *
 * Inside THROTTLE, best-effort admission runs at an adaptive duty
 * cycle (duty-in-dutySteps, stepped +-1 per tick), so BE throughput
 * degrades gracefully instead of falling off a cliff; SHED_BE stops
 * BE entirely while still admitting every LC request; SHED_LC (the
 * last resort) rejects BE and admits only a deterministic 1-in-N
 * trickle of LC probes so recovery can be observed. LC is therefore
 * never rejected in a state that still admits BE — the monotone-
 * severity invariant.
 *
 * Decisions are a pure function of (state, duty, per-tenant decision
 * counters): no clock reads, no RNG draws. The simulated runtime steps
 * the policy on simulated publisher ticks, so same-seed runs stay
 * byte-identical; the real runtime steps it from a telemetry sampler
 * on the publisher thread (one-tick-delayed closed loop).
 *
 * Fail-open by construction: a tenant with no snapshot, a stale
 * snapshot (seq unchanged), or a never-started publisher yields zero
 * pressure, which relaxes the machine toward ADMIT — telemetry
 * outages can never wedge the system shut.
 */

#ifndef PREEMPT_CONTROL_ADMISSION_HH
#define PREEMPT_CONTROL_ADMISSION_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "obs/metrics.hh"
#include "obs/telemetry.hh"

namespace preempt::control {

/** Severity ladder; values are ordered and stable (gauge export). */
enum class PolicyState : std::uint8_t
{
    Admit = 0,    ///< everything admitted
    Throttle = 1, ///< LC admitted; BE at a duty-cycle rate
    ShedBe = 2,   ///< LC admitted; BE rejected
    ShedLc = 3,   ///< BE rejected; LC only as a 1-in-N probe trickle
};

/** Stable lowercase name ("admit", "throttle", "shed_be", "shed_lc"). */
const char *stateName(PolicyState state);

/** One tick's worth of pressure inputs for one tenant. */
struct AdmissionSignals
{
    /**
     * False when the inputs could not be trusted this tick (publisher
     * never ticked, snapshot seq unchanged since the last poll): the
     * tick then counts as zero pressure — fail open.
     */
    bool fresh = true;

    /** Windowed queued-time p99 (submit -> first launch), ns. */
    std::uint64_t queuedP99Ns = 0;

    /** Windowed violations / finishes, in [0, 1]. */
    double violationRatio = 0;

    /** Admitted-but-unfinished requests (backlog incl. running). */
    std::int64_t depth = 0;
};

/** Thresholds and hysteresis constants of the state machine. */
struct AdmissionParams
{
    // High/low threshold pairs. Pressure is HIGH when any signal is
    // at/above its high mark, LOW when every signal is at/below its
    // low mark, and in the hysteresis band otherwise (state holds).
    std::uint64_t queuedHighNs = 1000000; ///< 1 ms windowed queued p99
    std::uint64_t queuedLowNs = 200000;
    double violationHigh = 0.5;
    double violationLow = 0.05;
    std::int64_t depthHigh = 64;
    std::int64_t depthLow = 16;

    /** Consecutive HIGH ticks before severity may step up. */
    int escalateAfter = 2;

    /** Consecutive LOW ticks before severity may step down. */
    int relaxAfter = 4;

    /** THROTTLE duty denominator: BE admitted duty-in-dutySteps. */
    std::uint32_t dutySteps = 8;

    /** SHED_LC probe rate: 1-in-lcTrickle LC requests admitted. */
    std::uint32_t lcTrickle = 64;
};

/** Exact per-tenant accounting (submitted == admitted + rejected). */
struct TenantAdmissionStats
{
    PolicyState state = PolicyState::Admit;
    std::uint32_t duty = 0;          ///< BE slots per dutySteps
    std::uint64_t ticks = 0;         ///< onTick calls observed
    std::uint64_t stateChanges = 0;  ///< severity transitions
    std::uint64_t submittedLc = 0;
    std::uint64_t submittedBe = 0;
    std::uint64_t admittedLc = 0;
    std::uint64_t admittedBe = 0;
    std::uint64_t rejectedLc = 0;
    std::uint64_t rejectedBe = 0;

    std::uint64_t submitted() const { return submittedLc + submittedBe; }
    std::uint64_t admitted() const { return admittedLc + admittedBe; }
    std::uint64_t rejected() const { return rejectedLc + rejectedBe; }
};

/**
 * The controller: per-tenant state machines plus the telemetry
 * glue. decide() is safe from any submit thread; onTick()/
 * onSnapshot()/exportMetrics() belong to one stepping thread (the
 * publisher's sampler in the real runtime, the event loop in the sim).
 */
class AdmissionController
{
  public:
    explicit AdmissionController(AdmissionParams params = {});
    ~AdmissionController();

    AdmissionController(const AdmissionController &) = delete;
    AdmissionController &operator=(const AdmissionController &) = delete;

    /**
     * Gate one submission. Counts the decision exactly (conservation:
     * submitted == admitted + rejected per tenant per class).
     * @param cls 0 = latency-critical, nonzero = best-effort
     * @return true to admit, false to reject
     */
    bool decide(std::uint32_t tenant, int cls);

    /** Step one tenant's state machine with this tick's signals. */
    void onTick(std::uint32_t tenant, const AdmissionSignals &signals);

    /** Pressure classification: 0 = low, 1 = band (hold), 2 = high. */
    static int pressure(const AdmissionSignals &signals,
                        const AdmissionParams &params);

    /** Current state (Admit for a tenant never seen). */
    PolicyState state(std::uint32_t tenant) const;

    /** Exact counters snapshot (zeros for a tenant never seen). */
    TenantAdmissionStats tenantStats(std::uint32_t tenant) const;

    /** Tenants with any state (decided or ticked at least once). */
    std::vector<std::uint32_t> tenants() const;

    const AdmissionParams &params() const { return params_; }

    /**
     * Publish per-tenant control series into a metrics registry:
     * `control.state/tN`, `control.duty/tN` gauges and
     * `control.admitted.{lc,be}/tN`, `control.rejected.{lc,be}/tN`
     * counters (delta-fed; single stepping thread).
     */
    void exportMetrics(obs::MetricsRegistry &registry);

#ifndef PREEMPT_OBS_DISABLED
    /**
     * Derive one tenant's signals from a published snapshot: windowed
     * queued p99 and violation ratio from its span entry, depth from
     * its `runtime[/tN].in_flight` gauge. The ratio is computed over
     * windowed finishes only, so counter resets (StatTracker
     * re-basing) cannot spike it.
     */
    static AdmissionSignals
    signalsFromSnapshot(const obs::TelemetrySnapshot &snap,
                        std::uint32_t tenant);

    /**
     * Step every known tenant (plus tenants that appear in the
     * snapshot's span section) from one snapshot. A snapshot with
     * seq 0 (never published) or an unchanged seq (stale) steps all
     * tenants with fresh = false — fail open.
     */
    void onSnapshot(const obs::TelemetrySnapshot &snap);

    /**
     * Close the loop against a live publisher: registers a telemetry
     * sampler that polls the previous published snapshot, steps the
     * policies, and exports the control series into the publisher's
     * registry on every tick. Idempotent per controller; detached by
     * the destructor.
     */
    void attachPublisher(obs::TelemetryPublisher *publisher);

    /** Unregister the sampler (safe when never attached). */
    void detachPublisher();
#endif

  private:
    struct Tenant
    {
        // Read by decide() on submit threads, written by the stepping
        // thread: atomics keep the cross-thread pieces race-free.
        std::atomic<std::uint8_t> state{0};
        std::atomic<std::uint32_t> duty{0}; ///< set on construction
        std::atomic<std::uint64_t> beSeq{0};
        std::atomic<std::uint64_t> lcSeq{0};
        std::atomic<std::uint64_t> submittedLc{0};
        std::atomic<std::uint64_t> submittedBe{0};
        std::atomic<std::uint64_t> admittedLc{0};
        std::atomic<std::uint64_t> admittedBe{0};
        std::atomic<std::uint64_t> rejectedLc{0};
        std::atomic<std::uint64_t> rejectedBe{0};

        // Stepping-thread-only state.
        std::uint64_t ticks = 0;
        std::uint64_t stateChanges = 0;
        int highStreak = 0;
        int lowStreak = 0;
    };

    Tenant &tenantRef(std::uint32_t id);
    void setState(Tenant &t, PolicyState next);

    AdmissionParams params_;
    mutable std::mutex mutex_; ///< guards tenants_ map shape
    std::map<std::uint32_t, std::unique_ptr<Tenant>> tenants_;
    obs::TotalFeed totals_; ///< exportMetrics() counter mirror

#ifndef PREEMPT_OBS_DISABLED
    obs::TelemetryPublisher *publisher_ = nullptr;
    std::uint64_t samplerId_ = 0;
    std::uint64_t lastSeq_ = 0;
#endif
};

} // namespace preempt::control

#endif // PREEMPT_CONTROL_ADMISSION_HH
