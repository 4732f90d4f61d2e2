/**
 * @file
 * The facade's shared thread-pool primitives, used by SweepRunner and
 * BatchRunner for both simulation and replay fan-out.
 *
 * Two forms: parallelFor() spawns a fresh pool per call (fine for a
 * one-shot CLI sweep), and ThreadPool keeps its workers alive across
 * calls — the serve daemon runs every request through one persistent
 * pool so warm requests pay no thread-spawn latency.
 */

#ifndef LSIM_API_PARALLEL_HH
#define LSIM_API_PARALLEL_HH

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/mutex.hh"
#include "common/thread_annotations.hh"
#include "obs/clock.hh"
#include "obs/metrics.hh"

namespace lsim::api::detail
{

/**
 * Run tasks 0..count-1 on a pool of @p threads workers (0 = hardware
 * concurrency). Each worker pulls the next index from a shared
 * atomic counter; tasks write only their own index-addressed output
 * slot, so scheduling cannot affect results.
 *
 * A task must not throw: an exception escaping @p fn on a worker
 * thread calls std::terminate. Validate inputs before the fan-out.
 */
template <typename Fn>
void
parallelFor(std::size_t count, unsigned threads, Fn &&fn)
{
    if (threads == 0)
        threads = std::max(1u, std::thread::hardware_concurrency());
    threads = static_cast<unsigned>(
        std::min<std::size_t>(threads, count));
    if (threads <= 1) {
        for (std::size_t i = 0; i < count; ++i)
            fn(i);
        return;
    }
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (unsigned t = 0; t < threads; ++t) {
        pool.emplace_back([&] {
            for (std::size_t i = next.fetch_add(1); i < count;
                 i = next.fetch_add(1))
                fn(i);
        });
    }
    for (auto &worker : pool)
        worker.join();
}

/**
 * A persistent worker pool with the same execution contract as
 * parallelFor(): run(count, fn) executes fn(0..count-1), each index
 * exactly once, with the calling thread participating, and returns
 * when every index has completed. Workers sleep between runs, so a
 * long-lived owner (the serve daemon) pays thread creation once, not
 * per request.
 *
 * Not reentrant: a task must not call run() on its own pool.
 *
 * Synchronization contract (ThreadSanitizer-clean by design; the CI
 * TSan lane runs a many-submitter stress over exactly this code):
 *
 *  - All shared pool state (job_, generation_, stop_) is GUARDED_BY
 *    mu_ and only ever touched under it; clang builds enforce this
 *    at compile time (-Werror=thread-safety).
 *  - A submission publishes Job::fn/count *before* the job pointer
 *    is installed under mu_, so a worker that acquires mu_ and reads
 *    job_ has a happens-before edge to the job's payload.
 *  - Index claiming and completion counting use one atomic each
 *    (Job::next, Job::done, both seq_cst): every index is claimed by
 *    exactly one fetch_add winner, and the submitter's completion
 *    wait observes done == count only after every fn(i) call — each
 *    fn(i) is sequenced before its done increment, which the waiting
 *    reader synchronizes with.
 *  - Stale wakes are benign, not raced: the job is heap-shared, so a
 *    worker that wakes after its generation's run() already returned
 *    still holds *its* job, finds every index claimed, and goes back
 *    to sleep. Concurrent run() calls from several submitters are
 *    likewise safe — workers help the latest generation, and any
 *    overwritten job is completed by its own (participating)
 *    submitter.
 *  - Completion is signalled with Job::done_cv while holding
 *    Job::mu, and awaited under the same mutex, so the notify cannot
 *    slip between the waiter's predicate check and its sleep.
 */
class ThreadPool
{
  public:
    /** @param threads worker count; 0 = hardware concurrency. */
    explicit ThreadPool(unsigned threads = 0)
    {
        if (threads == 0)
            threads =
                std::max(1u, std::thread::hardware_concurrency());
        workers_.reserve(threads);
        for (unsigned t = 0; t < threads; ++t)
            workers_.emplace_back([this] { workerLoop(); });
    }

    ~ThreadPool()
    {
        {
            MutexLock lock(mu_);
            stop_ = true;
        }
        wake_.notify_all();
        for (auto &worker : workers_)
            worker.join();
    }

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    unsigned size() const
    {
        return static_cast<unsigned>(workers_.size());
    }

    /**
     * Run fn(0..count-1) across the workers; blocks until done. As
     * with parallelFor(), @p fn must not throw: on a worker thread
     * the exception calls std::terminate.
     */
    void run(std::size_t count, std::function<void(std::size_t)> fn)
    {
        if (count == 0)
            return;
        // The job is heap-shared so a worker that wakes late — after
        // this run() already finished and a new one started — still
        // holds *its* generation's job, where every index is claimed
        // and the stale wake degrades to a no-op.
        auto job = std::make_shared<Job>();
        job->fn = std::move(fn);
        job->count = count;
        job->submit_us = obs::monotonicMicros();
        obs::counter("pool.runs").add();
        {
            MutexLock lock(mu_);
            job_ = job;
            ++generation_;
        }
        wake_.notify_all();
        work(*job);
        MutexLock lock(job->mu);
        while (job->done.load() != job->count)
            job->done_cv.wait(lock);
    }

  private:
    struct Job
    {
        std::function<void(std::size_t)> fn;
        std::size_t count = 0;
        std::uint64_t submit_us = 0; ///< obs: queue-wait anchor
        std::atomic<std::size_t> next{0};
        std::atomic<std::size_t> done{0};
        Mutex mu;
        CondVar done_cv;
    };

    void work(Job &job)
    {
        // Registry lookups once per process (function-local statics);
        // the per-index updates below are single relaxed atomics.
        static obs::Counter &tasks = obs::counter("pool.tasks");
        static obs::Histogram &wait =
            obs::histogram("pool.task_wait_ms");
        for (std::size_t i = job.next.fetch_add(1); i < job.count;
             i = job.next.fetch_add(1)) {
            if (i == 0) {
                // First claim: how long the job sat between submit
                // and the start of execution (dispatch latency).
                wait.observe(static_cast<double>(
                                 obs::monotonicMicros() -
                                 job.submit_us) /
                             1000.0);
            }
            job.fn(i);
            tasks.add();
            if (job.done.fetch_add(1) + 1 == job.count) {
                // Lock pairs with the waiter's predicate check so
                // the notify cannot slip between check and wait.
                MutexLock lock(job.mu);
                job.done_cv.notify_all();
            }
        }
    }

    void workerLoop()
    {
        static obs::Gauge &busy = obs::gauge("pool.workers_busy");
        std::uint64_t seen = 0;
        for (;;) {
            std::shared_ptr<Job> job;
            {
                MutexLock lock(mu_);
                while (!stop_ && generation_ == seen)
                    wake_.wait(lock);
                if (stop_)
                    return;
                seen = generation_;
                job = job_;
            }
            busy.add();
            work(*job);
            busy.sub();
        }
    }

    std::vector<std::thread> workers_;
    Mutex mu_;
    CondVar wake_;
    std::shared_ptr<Job> job_ GUARDED_BY(mu_);
    std::uint64_t generation_ GUARDED_BY(mu_) = 0;
    bool stop_ GUARDED_BY(mu_) = false;
};

/**
 * Dispatch helper for code that optionally receives a persistent
 * pool: run on @p pool when given, else parallelFor(@p threads).
 */
template <typename Fn>
void
runOn(ThreadPool *pool, std::size_t count, unsigned threads, Fn &&fn)
{
    if (pool)
        pool->run(count, std::function<void(std::size_t)>(
                             std::forward<Fn>(fn)));
    else
        parallelFor(count, threads, std::forward<Fn>(fn));
}

} // namespace lsim::api::detail

#endif // LSIM_API_PARALLEL_HH
