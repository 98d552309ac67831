/**
 * @file
 * Persistent worker-thread pool shared by the parallel subsystems.
 *
 * Two consumers need worker threads: the sweep harness
 * (system/sweep.cc parallelFor, and the benches through it) and the
 * sweep daemon, which dispatches each claimed batch of jobs
 * (service/daemon.cc).  This pool is the single implementation
 * underneath both.
 *
 * Model:
 *
 *  - A pool owns `workers()` long-lived OS threads, parked on a
 *    condition variable between dispatches.  Constructing with 0
 *    workers is valid and cheap: every dispatch then runs inline on
 *    the calling thread.
 *  - dispatch(n, fn) runs fn(0) .. fn(n-1) exactly once each, handing
 *    indices out from a shared counter.  The calling thread
 *    participates as a worker, so a pool of W threads serves a
 *    dispatch with up to W + 1 lanes, and dispatch works (serially)
 *    even on a pool with no threads at all.
 *  - Tasks are pulled from the shared counter one at a time, so long
 *    and short tasks mix freely — the pool does not care.
 *  - If tasks throw, every remaining task still runs and the first
 *    exception (by completion order) is rethrown on the caller.
 *
 * dispatch() is not reentrant and not thread-safe: one dispatch at a
 * time per pool, always from the owning thread.
 */

#ifndef VPC_SIM_THREAD_POOL_HH
#define VPC_SIM_THREAD_POOL_HH

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace vpc
{

/** Reusable fixed-size worker pool (see file comment for the model). */
class ThreadPool
{
  public:
    /**
     * Spawn @p workers parked threads.  0 is valid: dispatch() then
     * runs everything inline on the caller.
     */
    explicit ThreadPool(unsigned workers);

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Wakes and joins all workers. */
    ~ThreadPool();

    /** @return the number of pool threads (excluding the caller). */
    unsigned workers() const { return static_cast<unsigned>(
        threads_.size()); }

    /**
     * Run fn(0) .. fn(n-1), each exactly once, across the pool threads
     * and the calling thread.  Blocks until all tasks finished; the
     * first exception thrown by any task is rethrown here after every
     * task has completed.
     *
     * Under requestCancel() "each exactly once" weakens to "each at
     * most once": tasks not yet started are skipped (see below).
     */
    void dispatch(std::size_t n,
                  const std::function<void(std::size_t)> &fn);

    /**
     * @name Cancellation hook
     *
     * requestCancel() asks the current (and any future) dispatch to
     * stop handing out tasks: indices not yet started are skipped,
     * tasks already running finish normally, and dispatch() returns
     * once the in-flight ones drain.  skippedTasks() counts what was
     * dropped, so a supervisor (the sweep daemon's SIGTERM drain)
     * can tell a completed batch from a truncated one.  The flag is
     * sticky until clearCancel() — cancellation usually precedes
     * teardown, and a new batch must not silently resurrect work.
     * Safe to call from any thread, including signal-handler-adjacent
     * contexts (one relaxed atomic store).
     */
    /// @{
    void requestCancel() { cancel_.store(true,
                                         std::memory_order_relaxed); }
    bool cancelRequested() const { return cancel_.load(
        std::memory_order_relaxed); }
    void clearCancel() { cancel_.store(false,
                                       std::memory_order_relaxed); }
    /** @return tasks skipped by cancellation since construction. */
    std::uint64_t skippedTasks() const { return skipped_.load(
        std::memory_order_relaxed); }
    /// @}

  private:
    /** Body of a parked pool thread. */
    void workerLoop();

    /** Pull and run tasks of the current dispatch until exhausted. */
    void drainTasks();

    std::vector<std::thread> threads_;

    std::mutex mutex_;
    std::condition_variable wake_;   //!< caller -> workers: new batch
    std::condition_variable done_;   //!< workers -> caller: batch done
    const std::function<void(std::size_t)> *fn_ = nullptr;
    std::size_t taskCount_ = 0;
    std::size_t nextTask_ = 0;       //!< guarded by mutex_
    std::size_t pending_ = 0;        //!< tasks not yet finished
    std::uint64_t batch_ = 0;        //!< generation counter for wake_
    bool stop_ = false;
    std::exception_ptr firstError_;
    std::atomic<bool> cancel_{false};
    std::atomic<std::uint64_t> skipped_{0};
};

} // namespace vpc

#endif // VPC_SIM_THREAD_POOL_HH
