/**
 * @file
 * The benchmark's metric catalogue: every end-to-end and per-layer
 * metric with its unit, the layer it measures and the end-to-end
 * metric (on which workload) it should move. BENCHMARK.json lists the
 * same names; run.py checks that the two agree.
 *
 * Every workload prints every metric. A per-layer metric of a layer
 * the workload does not exercise reads 0 (e.g. sim.* on rt_short).
 *
 * Not measured by any workload yet: control (admission), apps, fault
 * and exp.
 */
#ifndef PERFBENCH_METRICS_HH
#define PERFBENCH_METRICS_HH

namespace perfbench {

struct MetricDef
{
    const char *name;
    const char *unit;
    const char *layer;      ///< module measured ("e2e" for end-to-end)
    const char *shouldMove; ///< end-to-end metric @ workload it moves
};

/**
 * End-to-end metrics. On rt_* they are host measurements of the real
 * runtime, the LC percentiles taken as the lower quartile over short
 * intervals of each interval's percentile (rt_workloads.cc,
 * intervalTasks). On sim_fig08 they are the simulated LibPreemptible
 * (adaptive) figures a Fig. 8 reader sees (latencies on C's
 * exponential half at 600 and 200 kRPS, the knee on A1), medians over
 * grid passes, and task_cost_ns is host time per simulated request,
 * scaled to a reference host speed (sim_fig08.cc).
 */
inline constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s", "e2e", "runtime (or every grid cell) constructed until ready"},
    {"lc_p50_us", "us", "e2e", "LC sojourn median at the nominal rate"},
    {"lc_p99_us", "us", "e2e", "LC sojourn p99 at the nominal rate"},
    {"lc_p50_us.idle", "us", "e2e", "LC sojourn median at the idle rate"},
    {"lc_p99_us.idle", "us", "e2e", "LC sojourn p99 at the idle rate"},
    {"max_lc_rate_krps", "krps", "e2e", "highest rate with LC p99 <= 200x mean service"},
    {"task_cost_ns", "ns", "e2e", "host time per task: closed burst (rt_*), grid at reference speed (sim)"},
    {"peak_rss_mb", "MiB", "e2e", "peak resident memory (rt_*: before the load ladder)"},
};

inline constexpr MetricDef kPerLayer[] = {
    {"runtime.submit_ns.p50", "ns", "preemptible", "max_lc_rate_krps@rt_short"},
    {"runtime.submit_ns.p99", "ns", "preemptible", "max_lc_rate_krps@rt_short"},
    {"runtime.dispatch_wait_us.p50", "us", "preemptible", "lc_p50_us.idle,lc_p50_us@rt_short"},
    {"runtime.dispatch_wait_us.p99", "us", "preemptible", "lc_p99_us.idle,lc_p99_us@rt_short"},
    {"runtime.empty_task_ns", "ns", "preemptible", "max_lc_rate_krps@rt_short"},
    {"runtime.steal.attempts", "count", "preemptible", "lc_p99_us@rt_lc_be"},
    {"runtime.steal.hits", "count", "preemptible", "lc_p99_us@rt_lc_be"},
    {"runtime.steal.hit_ratio", "ratio", "preemptible", "lc_p99_us@rt_lc_be"},
    {"runtime.steal.aborts", "count", "preemptible", "lc_p99_us@rt_lc_be"},
    {"runtime.migrations", "count", "preemptible", "lc_p99_us@rt_lc_be"},
    {"runtime.long_queue.max", "count", "preemptible", "lc_p99_us,be_done_rps@rt_lc_be"},
    {"runtime.preemptions", "count", "preemptible", "lc_p99_us@rt_lc_be"},
    {"runtime.stale_signals", "count", "preemptible", "lc_p99_us@rt_lc_be"},
    {"utimer.fires", "count", "preemptible", "lc_p99_us@rt_lc_be"},
    {"utimer.useful_fire_ratio", "ratio", "preemptible", "lc_p99_us@rt_lc_be"},
    {"preempt.overrun_us.p50", "us", "preemptible", "lc_p99_us@rt_lc_be"},
    {"preempt.overrun_us.p99", "us", "preemptible", "lc_p99_us@rt_lc_be"},
    {"preempt.offcpu_us.p50", "us", "preemptible", "be_done_rps@rt_lc_be"},
    {"preempt.offcpu_us.p99", "us", "preemptible", "be_done_rps@rt_lc_be"},
    {"wheel.fires", "count", "preemptible", "deadline_miss_share@rt_lc_be"},
    {"wheel.expired_drops", "count", "preemptible", "deadline_miss_share@rt_lc_be"},
    {"wheel.depth.max", "count", "preemptible", "deadline_miss_share@rt_lc_be"},
    {"obs.metrics_cost_ns_per_task", "ns", "obs", "max_lc_rate_krps@rt_short"},
    {"obs.trace_cost_ns_per_task", "ns", "obs", "max_lc_rate_krps@rt_short"},
    {"obs.sim_metrics_overhead", "ratio", "obs", "none (fig08 --metrics-out cost)"},
    {"obs.sim_trace_overhead", "ratio", "obs", "none (fig08 --trace-out cost)"},
    {"span.queued_us.p99", "us", "preemptible/obs", "cross-checks runtime.dispatch_wait_us"},
    {"span.running_us.p50", "us", "preemptible/obs", "cross-checks preempt.*"},
    {"span.preempted_us.p99", "us", "preemptible/obs", "cross-checks preempt.offcpu_us"},
    {"span.timer_lag_us.p99", "us", "preemptible/obs", "cross-checks preempt.overrun_us"},
    {"sim.events_run", "count", "sim", "task_cost_ns@sim_fig08"},
    {"sim.events_per_s", "1/s", "sim", "task_cost_ns@sim_fig08"},
    {"sim.host_s.libpreemptible", "s", "runtime_sim", "task_cost_ns@sim_fig08"},
    {"sim.host_s.shinjuku", "s", "baselines", "task_cost_ns@sim_fig08"},
    {"sim.host_s.libinger", "s", "baselines", "task_cost_ns@sim_fig08"},
    {"sim.host_s.nouintr", "s", "runtime_sim", "task_cost_ns@sim_fig08"},
    {"loadgen.late_us.p99", "us", "benchmark", "none (context of the run)"},
    {"loadgen.late_us.max", "us", "benchmark", "none (context of the run)"},
    {"host.cpus", "count", "host", "none (context of the run)"},
    {"host.parallel_capacity", "ratio", "host", "none (context of the run)"},
    {"tracing.lc_p50_us.delta", "us", "obs", "none (tracing overhead: traced - untraced)"},
    {"tracing.lc_p99_us.delta", "us", "obs", "none (tracing overhead: traced - untraced)"},
};

} // namespace perfbench

#endif // PERFBENCH_METRICS_HH
