/**
 * @file
 * Admission-controlled request queue: the single funnel both daemon
 * front ends (spool scan, socket listener) feed and one executor
 * drains.
 *
 * Three service properties live here:
 *
 *  - **Bounded admission.** At most `capacity` requests wait for
 *    execution; submissions beyond that are rejected (the socket
 *    path reports `rejected` to the client, the spool scan simply
 *    stops claiming files — spool backpressure is "leave it on
 *    disk").
 *
 *  - **Request coalescing.** Every request carries a fingerprint
 *    (api::batchFingerprint — the request-tier analogue of phase-1
 *    sim dedup). A submission whose fingerprint matches a request
 *    that is pending *or executing* does not enqueue: it attaches
 *    to that primary as a follower, and when the primary finishes
 *    the executor fans the byte-identical results out to every
 *    follower. Followers bypass the capacity check — they cost a
 *    file copy, not an execution.
 *
 *  - **Priorities.** pop() serves the highest priority first,
 *    FIFO (admission order) within a priority.
 *
 * Thread-safety: submissions arrive from socket connection threads
 * while the daemon thread pops; everything is guarded by one mutex,
 * and waitForWork() lets the executor sleep until a submission
 * lands instead of polling.
 */

#ifndef LSIM_SERVE_QUEUE_HH
#define LSIM_SERVE_QUEUE_HH

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "api/batch.hh"
#include "common/mutex.hh"
#include "common/thread_annotations.hh"

namespace lsim::serve
{

/** Which front end admitted a request. */
enum class Ingress
{
    Spool, ///< claimed <spool>/<name>.json file
    Socket ///< submitted over the daemon socket
};

/** One admitted request, as queued and handed to the executor. */
struct QueuedRequest
{
    std::string name;        ///< request name (results dir stem)
    std::string spec_file;   ///< spool filename; empty for socket
    api::BatchConfig batch;  ///< the spec, parsed at admission
    std::string fingerprint; ///< request-tier identity of batch
    int priority = 0;        ///< higher pops first
    Ingress ingress = Ingress::Spool;
    std::uint64_t seq = 0;   ///< admission order (FIFO tiebreak)
    std::string queued_at;   ///< ISO-8601 admission stamp
    /** Admission instant on the steady clock (latency metrics). */
    std::chrono::steady_clock::time_point admitted{};
};

/** Outcome of RequestQueue::submit(). */
enum class Admission
{
    Enqueued,     ///< waiting for the executor
    Coalesced,    ///< attached to an identical in-flight request
    RejectedFull, ///< bounded queue at capacity (backpressure)
    RejectedName  ///< a live request already uses this name
};

/** The bounded, coalescing, priority-ordered admission queue. */
class RequestQueue
{
  public:
    /** @param capacity max requests pending execution (>= 1). */
    explicit RequestQueue(std::size_t capacity);

    /**
     * Admit @p req. On Coalesced, @p primary (when non-null)
     * receives the name of the request the submission attached to.
     * The caller fills every QueuedRequest field except seq.
     */
    Admission submit(QueuedRequest req, std::string *primary);

    /**
     * Highest-priority pending request (FIFO within a priority), or
     * nullopt when none wait. The popped request stays "live" — its
     * name and fingerprint keep coalescing submissions — until
     * finish() is called for it.
     */
    std::optional<QueuedRequest> pop();

    /**
     * Retire the executing request @p name and detach its
     * followers; the caller fans results out to them. After this,
     * the fingerprint and all the names are free again.
     */
    std::vector<QueuedRequest> finish(const std::string &name);

    /**
     * Remove every pending request (shutdown: socket-origin
     * requests are failed by the caller; spool-origin ones stay
     * claimed in work/ for crash recovery). Executing requests are
     * unaffected.
     */
    std::vector<QueuedRequest> drainPending();

    /** Pending (not yet popped) request count. */
    std::size_t depth() const;

    /** depth() >= capacity (would a non-coalescing submit reject?). */
    bool full() const;

    /** Is @p name pending, executing, or a follower of either? */
    bool live(const std::string &name) const;

    /**
     * Block until a request is pending or @p timeout elapses.
     * @return true when work is available.
     */
    bool waitForWork(std::chrono::milliseconds timeout);

  private:
    /** Index of the best pending request; npos when empty. */
    std::size_t bestLocked() const REQUIRES(mu_);

    const std::size_t capacity_;

    mutable Mutex mu_;
    CondVar cv_;
    std::uint64_t next_seq_ GUARDED_BY(mu_) = 0;
    std::vector<QueuedRequest> pending_ GUARDED_BY(mu_);
    /** fingerprint -> primary request, pending or executing. */
    std::map<std::string, std::string> primaries_ GUARDED_BY(mu_);
    /** primary name -> attached followers. */
    std::map<std::string, std::vector<QueuedRequest>>
        followers_ GUARDED_BY(mu_);
    /** name -> fingerprint for every live request (dup detection,
     * and finish() uses it to release the primaries_ row). */
    std::map<std::string, std::string> live_ GUARDED_BY(mu_);
};

} // namespace lsim::serve

#endif // LSIM_SERVE_QUEUE_HH
