#include "preemptible/stack_pool.hh"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>

#include "common/logging.hh"

namespace preempt::runtime {

namespace {

std::size_t
pageSize()
{
    static const std::size_t page =
        static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
    return page;
}

std::size_t
roundToPages(std::size_t bytes)
{
    std::size_t page = pageSize();
    return (bytes + page - 1) / page * page;
}

} // namespace

StackPool::StackPool(std::size_t stack_size, bool guard)
    : stackSize_(roundToPages(stack_size)), guard_(guard), allocated_(0)
{
    fatal_if(stack_size == 0, "stack size must be > 0");
}

StackPool::~StackPool()
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto &s : free_)
        unmap(s);
    free_.clear();
}

Stack
StackPool::map()
{
    std::size_t guard_bytes = guard_ ? pageSize() : 0;
    std::size_t total = stackSize_ + guard_bytes;
    void *mem = ::mmap(nullptr, total, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS | MAP_STACK, -1, 0);
    fatal_if(mem == MAP_FAILED, "mmap of a %zu-byte stack failed", total);
    if (guard_) {
        int rc = ::mprotect(mem, guard_bytes, PROT_NONE);
        fatal_if(rc != 0, "mprotect of stack guard page failed");
    }
    Stack s;
    s.base_ = mem;
    s.top_ = static_cast<char *>(mem) + total;
    s.usable_ = stackSize_;
    s.mapped_ = total;
    return s;
}

void
StackPool::unmap(Stack &stack)
{
    if (stack.base_) {
        ::munmap(stack.base_, stack.mapped_);
        stack.base_ = nullptr;
    }
}

Stack
StackPool::acquire()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (!free_.empty()) {
            Stack s = free_.back();
            free_.pop_back();
            return s;
        }
        ++allocated_;
    }
    return map();
}

void
StackPool::release(Stack stack)
{
    panic_if(!stack.valid(), "releasing an invalid stack");
    std::lock_guard<std::mutex> lock(mutex_);
    free_.push_back(stack);
}

std::size_t
StackPool::acquireBatch(Stack *out, std::size_t n)
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::size_t got = 0;
    for (; got < n && !free_.empty(); ++got) {
        out[got] = free_.back();
        free_.pop_back();
    }
    return got;
}

void
StackPool::releaseBatch(const Stack *stacks, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        panic_if(!stacks[i].valid(), "releasing an invalid stack");
    std::lock_guard<std::mutex> lock(mutex_);
    free_.insert(free_.end(), stacks, stacks + n);
}

std::size_t
StackPool::freeCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return free_.size();
}

Stack
StackCache::acquire()
{
    if (count_ == 0) {
        count_ = pool_.acquireBatch(stacks_.data(), kBatch);
        if (count_ == 0)
            return pool_.acquire(); // pool empty too: map a fresh one
    }
    return stacks_[--count_];
}

void
StackCache::release(Stack stack)
{
    panic_if(!stack.valid(), "releasing an invalid stack");
    if (count_ == stacks_.size()) {
        // Spill the older half; the newest stacks stay warm here.
        pool_.releaseBatch(stacks_.data(), kBatch);
        std::copy(stacks_.begin() + kBatch, stacks_.end(), stacks_.begin());
        count_ -= kBatch;
    }
    stacks_[count_++] = stack;
}

void
StackCache::flush()
{
    if (count_ == 0)
        return;
    pool_.releaseBatch(stacks_.data(), count_);
    count_ = 0;
}

} // namespace preempt::runtime

