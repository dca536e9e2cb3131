/**
 * @file
 * What a benchmark run is asked to do and what it reports, plus the
 * host probes every run prints.
 */
#ifndef PERFBENCH_COMMON_HH
#define PERFBENCH_COMMON_HH

#include <cstdint>
#include <string>
#include <vector>

#include "stats.hh"

namespace perfbench {

struct RunOptions
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
};

/** Everything one run measured. */
struct RunResult
{
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> endToEnd; ///< untraced figures (always taken)
    std::vector<Metric> perLayer; ///< traced figures (--trace 1 only)

    /** Record one output check; a failure is printed and sticks. */
    void check(bool ok, const std::string &what);
    void e2e(const std::string &name, double value, const std::string &unit);
    void layer(const std::string &name, double value, const std::string &unit);
};

/** Print an information line: `name = value unit`. */
void info(const std::string &name, double value, const std::string &unit,
          const std::string &note = "");

/** CPUs the process may run on. */
int hostCpus();

/**
 * Keep `threads` threads spinning for `seconds`. On a shared VM a
 * vCPU that has been idle is slow to get a physical CPU back; a run
 * that starts cold measures the host's wake-up, not the program.
 */
void warmUp(int threads, double seconds);

/**
 * Measured parallel capacity: N threads each spinning a fixed amount
 * of work, against one thread doing the same work alone
 * (N x T1 / TN). A host that delivers fewer CPUs than it reports
 * reads below N.
 */
double parallelCapacity(int threads);

/** Peak resident set of the process so far, in MiB. */
double peakRssMb();

/** Monotonic wall clock in seconds. */
double wallSeconds();

RunResult runRealtime(const RunOptions &options);
RunResult runSimFig08(const RunOptions &options);

} // namespace perfbench

#endif // PERFBENCH_COMMON_HH
