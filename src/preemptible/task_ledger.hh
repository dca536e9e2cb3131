/**
 * @file
 * The task-path ledger: TSC stamps that split the runtime's per-task
 * cost into layers, compiled in only with -DPREEMPT_TASK_LEDGER=ON.
 *
 * The submitting thread's layers partition one accepted submitTo():
 *
 *   admit     entry checks and the admission decision
 *   record    the inbox-space check and taking and filling a record
 *   emit      the TaskSubmit / TimerArm / Dispatch trace records
 *   inbox     the push onto the worker's inbox and the submit counts
 *
 * A worker's layers partition its busy time, one task at a time:
 *
 *   drain     the scheduling pass that found the task (deque pop,
 *             inbox drain, long queue, steal); passes that found
 *             nothing are idle time and are not counted
 *   stack     taking and returning the execution stack
 *   switch    launching or resuming the function and switching back
 *             (the body's own time included)
 *   complete  the bookkeeping after the segment: deadline cancel,
 *             sojourn, counters, or parking a preempted task
 *   retire    destroying the function and returning the record
 *
 * Builds without the flag compile every stamp to a constant 0 and
 * every accumulation away.
 */

#ifndef PREEMPT_PREEMPTIBLE_TASK_LEDGER_HH
#define PREEMPT_PREEMPTIBLE_TASK_LEDGER_HH

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>

#include "preemptible/hosttime.hh"

namespace preempt::runtime {

#ifdef PREEMPT_TASK_LEDGER
inline constexpr bool kTaskLedger = true;
#else
inline constexpr bool kTaskLedger = false;
#endif

/** Task-path layers, in path order. */
enum class Layer : std::size_t
{
    Admit,
    Record,
    Emit,
    Inbox,
    Drain,
    Stack,
    Switch,
    Complete,
    Retire,
};

inline constexpr std::size_t kLayers = 9;

inline constexpr const char *kLayerNames[kLayers] = {
    "admit", "record", "emit",     "inbox",  "drain",
    "stack", "switch", "complete", "retire",
};

/** A TSC stamp, or 0 when the ledger is compiled out. */
inline std::uint64_t
ledgerStamp()
{
    if constexpr (kTaskLedger)
        return rdtsc();
    else
        return 0;
}

/** TSC cycles spent per layer. */
struct TaskLedger
{
    std::array<std::uint64_t, kLayers> cycles{};
};

/**
 * One writer's running ledger. Each writer owns its block (or holds
 * the mutex guarding it), so an add is a relaxed load and store;
 * readers may sum it at any time.
 */
struct LedgerBlock
{
    std::array<std::atomic<std::uint64_t>, kLayers> cycles{};

    void
    add(Layer layer, std::uint64_t n)
    {
        if constexpr (kTaskLedger) {
            auto &c = cycles[static_cast<std::size_t>(layer)];
            c.store(c.load(std::memory_order_relaxed) + n,
                    std::memory_order_relaxed);
        }
    }

    void
    sumInto(TaskLedger &out) const
    {
        for (std::size_t i = 0; i < kLayers; ++i)
            out.cycles[i] += cycles[i].load(std::memory_order_relaxed);
    }
};

} // namespace preempt::runtime

#endif // PREEMPT_PREEMPTIBLE_TASK_LEDGER_HH
