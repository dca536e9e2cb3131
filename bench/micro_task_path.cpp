/**
 * @file
 * The runtime's per-task cost and where it goes: closed bursts of empty
 * tasks at 1 and 2 workers, wall time per task, and (in a build
 * configured with -DPREEMPT_TASK_LEDGER=ON) the task-path ledger of
 * preemptible/task_ledger.hh, in ns per task per layer.
 *
 * A burst submits `--tasks` empty tasks back to back from this thread
 * and waits for the last, as perfbench's rt_short burst does; workers
 * and the LibUtimer thread poll. The submitting side and the workers
 * run in parallel, so the per-task cost is bound by the slower of the
 * two: the submit layers of one task, or the worker layers of one task
 * divided by the worker count. Each figure is a median over bursts (a
 * layer's too, from each burst's own ledger), so one burst the host
 * stalled does not skew it. `bound_ns` is that maximum and
 * `ledger_ratio` is bound_ns over the cost; near 1 means the ledger
 * accounts for the burst's wall time.
 *
 * Four workers are not run: with the timer thread and the submitter
 * they would oversubscribe a 4-vCPU host and measure its scheduler.
 *
 * Each worker count runs twice: without deadlines, as in perfbench's
 * rt_short burst, and with rt_lc_be's 200 ms deadline on every task,
 * armed in the target worker's wheel shard at submit and cancelled at
 * completion.
 *
 *   micro_task_path [--tasks=20000] [--bursts=15] [--out=FILE]
 */

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <locale>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/cli.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "obs/session.hh"
#include "preemptible/hosttime.hh"
#include "preemptible/runtime.hh"
#include "preemptible/task_ledger.hh"

using namespace preempt;
using runtime::hostNowNs;
using runtime::kLayerNames;
using runtime::kLayers;
using runtime::PreemptibleRuntime;
using runtime::TaskLedger;

namespace {

constexpr std::size_t kSubmitLayers = 4; // admit, record, emit, inbox

/** rt_lc_be's LC deadline: far past any sojourn, so none fires. */
constexpr TimeNs kDeadline = msToNs(200);

struct Result
{
    int workers = 0;
    TimeNs deadline = 0;
    double taskNs = 0; ///< median over bursts
    double layerNs[kLayers] = {};
    double submitNs = 0;
    double workerNs = 0;
    double boundNs = 0;
};

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    return v.empty() ? 0 : v[v.size() / 2];
}

/** TSC cycles per ns, against the monotonic clock. */
double
tscPerNs()
{
    const TimeNs n0 = hostNowNs();
    const std::uint64_t c0 = runtime::rdtsc();
    while (hostNowNs() - n0 < msToNs(50)) {
    }
    const std::uint64_t c1 = runtime::rdtsc();
    return static_cast<double>(c1 - c0) /
           static_cast<double>(hostNowNs() - n0);
}

/** Spin work of one thread, for the capacity probe. */
std::uint64_t
spin(std::uint64_t seed)
{
    std::uint64_t x = seed | 1;
    for (int i = 0; i < 20'000'000; ++i)
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    return x;
}

/** How many of `threads` spinning threads the host runs at once:
 *  threads x (one thread's time) / (all threads' time). */
double
parallelCapacity(int threads)
{
    std::atomic<std::uint64_t> sink{0};
    auto timed = [&](int n) {
        TimeNs t0 = hostNowNs();
        std::vector<std::thread> pool;
        for (int i = 1; i < n; ++i)
            pool.emplace_back([&sink, i] {
                sink += spin(static_cast<std::uint64_t>(i));
            });
        sink += spin(0);
        for (auto &t : pool)
            t.join();
        return static_cast<double>(hostNowNs() - t0);
    };
    std::vector<double> one, many;
    for (int r = 0; r < 3; ++r) {
        one.push_back(timed(1));
        many.push_back(timed(threads));
    }
    return threads * median(one) / median(many);
}

Result
runWorkers(int workers, int tasks, int bursts, TimeNs deadline,
           double cyclesPerNs)
{
    PreemptibleRuntime::Options opt;
    opt.nWorkers = workers;
    opt.idleNap = 0;         // workers poll, as deployed
    opt.timer.idleSleep = 0; // a dedicated timer core
    PreemptibleRuntime rt(opt);

    std::atomic<int> done{0};
    auto burst = [&] {
        done.store(0, std::memory_order_relaxed);
        const TimeNs t0 = hostNowNs();
        for (int i = 0; i < tasks; ++i) {
            auto body = [&done] {
                done.fetch_add(1, std::memory_order_release);
            };
            while (!(deadline ? rt.submitTo(i % workers, body, 0, deadline)
                              : rt.submit(body))) {
            }
        }
        while (done.load(std::memory_order_acquire) != tasks) {
        }
        const TimeNs t1 = hostNowNs();
        rt.quiesce();
        return static_cast<double>(t1 - t0);
    };
    for (int i = 0; i < 3; ++i)
        burst(); // warm the record pools, magazines and caches

    std::vector<double> perTask;
    std::vector<double> layerNs[kLayers];
    for (int b = 0; b < bursts; ++b) {
        const TaskLedger before = rt.ledger();
        perTask.push_back(burst() / tasks);
        const TaskLedger after = rt.ledger();
        for (std::size_t l = 0; l < kLayers; ++l)
            layerNs[l].push_back(
                static_cast<double>(after.cycles[l] - before.cycles[l]) /
                cyclesPerNs / tasks);
    }
    rt.shutdown();

    Result r;
    r.workers = workers;
    r.deadline = deadline;
    r.taskNs = median(perTask);
    for (std::size_t l = 0; l < kLayers; ++l) {
        r.layerNs[l] = median(layerNs[l]);
        (l < kSubmitLayers ? r.submitNs : r.workerNs) += r.layerNs[l];
    }
    r.boundNs = std::max(r.submitNs, r.workerNs / workers);
    return r;
}

std::string
jsonNum(double v)
{
    std::ostringstream os;
    os.imbue(std::locale::classic());
    os.precision(3);
    os << std::fixed << v;
    return os.str();
}

} // namespace

int
main(int argc, char **argv)
{
    CommandLine cli(argc, argv);
    obs::Session obsSession(cli);
    int tasks = static_cast<int>(cli.getInt("tasks", 20000));
    int bursts = static_cast<int>(cli.getInt("bursts", 15));
    std::string out = cli.getString("out", "");
    cli.rejectUnknown();
    fatal_if(tasks <= 0 || bursts <= 0, "--tasks and --bursts must be > 0");
    unsigned hostCpus = std::thread::hardware_concurrency();
    if (hostCpus == 0)
        hostCpus = 1;

    const double capacity = parallelCapacity(4);
    const double cyclesPerNs = tscPerNs();
    std::vector<Result> results;
    for (TimeNs deadline : {TimeNs{0}, kDeadline}) {
        for (int w : {1, 2})
            results.push_back(
                runWorkers(w, tasks, bursts, deadline, cyclesPerNs));
    }
    const double twoVsOne = results[1].taskNs / results[0].taskNs;

    ConsoleTable table("micro_task_path: closed bursts of " +
                       std::to_string(tasks) + " empty tasks (" +
                       std::to_string(hostCpus) + " host cpus, capacity " +
                       ConsoleTable::num(capacity, 2) + ")");
    std::vector<std::string> header = {"workers", "deadline", "ns/task",
                                       "bound"};
    for (const char *name : kLayerNames)
        header.push_back(name);
    table.header(header);
    for (const Result &r : results) {
        std::vector<std::string> row = {std::to_string(r.workers),
                                        r.deadline ? "200 ms" : "none",
                                        ConsoleTable::num(r.taskNs, 0),
                                        ConsoleTable::num(r.boundNs, 0)};
        for (double ns : r.layerNs)
            row.push_back(ConsoleTable::num(ns, 0));
        table.row(row);
    }
    table.print();
    std::printf("\n2-worker / 1-worker cost without deadlines: %.2fx; "
                "ledger %s\n",
                twoVsOne,
                runtime::kTaskLedger
                    ? "compiled in"
                    : "compiled out (configure with "
                      "-DPREEMPT_TASK_LEDGER=ON for the layers)");

    if (!out.empty()) {
        std::ofstream os(out);
        fatal_if(!os, "cannot write %s", out.c_str());
        os.imbue(std::locale::classic());
        os << "{\n"
           << "  \"bench\": \"micro_task_path\",\n"
           << "  \"unit\": \"ns_per_task\",\n"
           << "  \"tasks\": " << tasks << ",\n"
           << "  \"bursts\": " << bursts << ",\n"
           << "  \"host_cpus\": " << hostCpus << ",\n"
           << "  \"parallel_capacity\": " << jsonNum(capacity) << ",\n"
           << "  \"ledger\": " << (runtime::kTaskLedger ? "true" : "false")
           << ",\n"
           << "  \"tsc_ghz\": " << jsonNum(cyclesPerNs) << ",\n"
           << "  \"note\": \"task_ns is the median wall time per task "
              "over bursts; bound_ns = max(submit_ns, worker_ns / "
              "workers), and ledger_ratio = bound_ns / task_ns; each "
              "is a median over bursts. "
              "two_vs_one_ratio compares the runs without deadlines. "
              "Ledger builds pay for their own stamps\",\n"
           << "  \"two_vs_one_ratio\": " << jsonNum(twoVsOne) << ",\n"
           << "  \"results\": [\n";
        for (std::size_t i = 0; i < results.size(); ++i) {
            const Result &r = results[i];
            os << "    {\"workers\": " << r.workers
               << ", \"deadline_us\": " << jsonNum(nsToUs(r.deadline))
               << ", \"task_ns\": " << jsonNum(r.taskNs)
               << ", \"submit_ns\": " << jsonNum(r.submitNs)
               << ", \"worker_ns\": " << jsonNum(r.workerNs)
               << ", \"bound_ns\": " << jsonNum(r.boundNs)
               << ", \"ledger_ratio\": "
               << jsonNum(r.taskNs > 0 ? r.boundNs / r.taskNs : 0)
               << ",\n     \"layers_ns\": {";
            for (std::size_t l = 0; l < kLayers; ++l)
                os << (l ? ", " : "") << "\"" << kLayerNames[l]
                   << "\": " << jsonNum(r.layerNs[l]);
            os << "}}" << (i + 1 < results.size() ? "," : "") << "\n";
        }
        os << "  ]\n"
           << "}\n";
        std::printf("wrote %s\n", out.c_str());
    }
    return 0;
}
