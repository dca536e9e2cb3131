/**
 * @file
 * Pooled execution stacks for preemptible functions.
 *
 * The dispatcher allocates context objects and stack space for each
 * request from a global memory pool (section IV-B); stacks are
 * mmap'ed with a guard page and recycled through a free list so
 * steady-state fn_launch never enters the kernel.
 */

#ifndef PREEMPT_PREEMPTIBLE_STACK_POOL_HH
#define PREEMPT_PREEMPTIBLE_STACK_POOL_HH

#include <array>
#include <cstddef>
#include <mutex>
#include <vector>

namespace preempt::runtime {

/** One mmap'ed stack with an inaccessible guard page at the bottom. */
class Stack
{
  public:
    Stack() = default;

    void *top() const { return top_; }
    void *base() const { return base_; }
    std::size_t usable() const { return usable_; }
    bool valid() const { return base_ != nullptr; }

  private:
    friend class StackPool;
    void *base_ = nullptr;  ///< mapping start (guard page)
    void *top_ = nullptr;   ///< highest usable address
    std::size_t usable_ = 0;
    std::size_t mapped_ = 0;
};

/** Thread-safe pool of equally-sized stacks. */
class StackPool
{
  public:
    /**
     * @param stack_size usable bytes per stack (rounded up to pages)
     * @param guard      add an inaccessible guard page below the stack
     */
    explicit StackPool(std::size_t stack_size = 64 * 1024,
                       bool guard = true);
    ~StackPool();

    StackPool(const StackPool &) = delete;
    StackPool &operator=(const StackPool &) = delete;

    /** Get a stack (recycled or freshly mapped). */
    Stack acquire();

    /** Return a stack to the pool. */
    void release(Stack stack);

    /** Move up to `n` cached stacks into `out` under one lock, mapping
     *  none. @return stacks moved. */
    std::size_t acquireBatch(Stack *out, std::size_t n);

    /** Return `n` stacks to the pool under one lock. */
    void releaseBatch(const Stack *stacks, std::size_t n);

    /** Stacks currently cached in the free list. */
    std::size_t freeCount() const;

    /** Stacks ever mapped. */
    std::size_t totalAllocated() const { return allocated_; }

    std::size_t stackSize() const { return stackSize_; }

  private:
    Stack map();
    static void unmap(Stack &stack);

    std::size_t stackSize_;
    bool guard_;
    mutable std::mutex mutex_;
    std::vector<Stack> free_;
    std::size_t allocated_;
};

/**
 * A magazine of stacks in front of a StackPool, for one thread. Acquire
 * and release work on a small private array and take the pool's mutex
 * only to refill an empty magazine or to spill a full one, a batch at
 * a time, so a worker that releases each stack before acquiring the
 * next never touches the shared pool. Not thread-safe.
 */
class StackCache
{
  public:
    explicit StackCache(StackPool &pool) : pool_(pool) {}
    ~StackCache() { flush(); }

    StackCache(const StackCache &) = delete;
    StackCache &operator=(const StackCache &) = delete;

    /** Get a stack: cached, else a batch from the pool, else mapped. */
    Stack acquire();

    /** Cache a stack, spilling a batch to the pool when full. */
    void release(Stack stack);

    /** Return every cached stack to the pool. */
    void flush();

    /** Stacks currently cached. */
    std::size_t size() const { return count_; }

    /** Stacks moved per refill or spill. */
    static constexpr std::size_t kBatch = 8;

  private:
    StackPool &pool_;
    std::array<Stack, 2 * kBatch> stacks_;
    std::size_t count_ = 0;
};

} // namespace preempt::runtime

#endif // PREEMPT_PREEMPTIBLE_STACK_POOL_HH
