/**
 * @file
 * Batch daemon: the library's batch layer as a long-running service
 * with two front ends — a spool directory and a request socket —
 * over one admission queue, one persistent thread pool, and one
 * shared ProfileStore.
 *
 * `lsim serve --spool DIR` watches a spool directory for batch-spec
 * JSON files (the exact `lsim batch` format, see serve/spec.hh) and,
 * with --socket PATH, also accepts specs over a Unix-domain socket
 * (see serve/socket.hh for the framing and `lsim submit`/`lsim
 * wait` for clients). Every request — whichever door it came in —
 * passes through one admission step and one bounded RequestQueue
 * (see serve/queue.hh): identical in-flight specs coalesce to a
 * single execution whose results fan out byte-identically to all
 * waiters, higher-priority requests pop first, and submissions
 * beyond the queue bound are rejected (socket) or left unclaimed
 * (spool backpressure).
 *
 * Both doors apply the request-name rule: a name is 1-128
 * characters of [A-Za-z0-9._-] and is neither "." nor "..". A spool
 * spec's name is its filename stem, so `a b.json` or `...json` is
 * refused into failed/ (with no status, since its name cannot name
 * a result dir). A spool spec whose name is live — queued or
 * executing under that name — waits in the spool for a later
 * drain; a socket submission with a live name is rejected.
 *
 * Spool layout (subdirectories created on startup):
 *
 *     <spool>/<name>.json      incoming specs (writers SHOULD write
 *                              a temp name and rename into place;
 *                              "metrics.json" is reserved)
 *     <spool>/work/            claimed specs being executed
 *     <spool>/done/            consumed specs that succeeded
 *     <spool>/failed/          malformed or failed specs
 *     <spool>/lsim.sock        request socket (with --socket)
 *     <results>/<name>/        per-request results + status
 *
 * where <results> defaults to <spool>/results. Per request <name>
 * (the spec's filename stem, or the submitted request name), the
 * daemon writes
 *
 *     <results>/<name>/status.json      (atomic at every transition)
 *     <results>/<name>/sweep_<i>.csv    per sweep in the spec
 *     <results>/<name>/sweep_<i>.json
 *
 * byte-identical to `lsim batch <spec> --out-dir`. The status file
 * walks queued -> running -> done|error and carries timings, ISO-8601
 * queued_at/started_at/finished_at wall-clock stamps, plus the batch
 * dedup/cache stats; every write is temp+rename so a poller never
 * reads a torn file. Claiming is also a rename, so multiple daemons
 * may share one spool — exactly one wins each spec — and one store,
 * whose entry files (each written atomically) are all they share.
 *
 * A TTL janitor (--ttl) prunes consumed specs and result
 * directories older than the TTL each drain, and --cache-ttl runs
 * the store's age-based gc alongside it, so an unattended daemon
 * never grows its disk footprint without bound.
 *
 * Observability: the daemon feeds the process-wide obs registry
 * (serve.* counters, queue-depth gauge, request and socket latency
 * histograms, coalesced/rejected counts) and atomically rewrites
 * <spool>/metrics.json after every drain cycle — see
 * src/obs/metrics.hh for the schema and `lsim metrics <spool>` for
 * a pretty-printed view.
 *
 * Crash recovery: specs stranded in work/ by a killed daemon are
 * moved back into the spool root on construction and re-executed.
 */

#ifndef LSIM_SERVE_DAEMON_HH
#define LSIM_SERVE_DAEMON_HH

#include <cstddef>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "api/parallel.hh"
#include "common/mutex.hh"
#include "common/thread_annotations.hh"
#include "serve/queue.hh"
#include "store/profile_store.hh"

namespace lsim::serve
{

class SocketServer;

/** Daemon configuration (flags of `lsim serve`). */
struct ServeConfig
{
    /** Spool directory; required. Created when missing. */
    std::string spool_dir;

    /** Results directory; empty = <spool>/results. */
    std::string results_dir;

    /** Shared profile store; empty disables caching. */
    std::string cache_dir;

    /** Request socket path; empty = no socket listener. */
    std::string socket_path;

    /** Worker threads of the persistent pool; 0 = hardware. */
    unsigned threads = 0;

    /** Delay between spool scans, milliseconds. */
    unsigned poll_ms = 500;

    /** Admission bound: max requests queued for execution. */
    std::size_t max_queue = 64;

    /** Prune done/failed specs and result dirs older than this,
     * seconds; 0 disables the janitor. */
    double ttl_seconds = 0.0;

    /** Age-evict store entries older than this each drain, seconds;
     * 0 disables (requires a cache_dir). */
    double cache_ttl_seconds = 0.0;

    /**
     * Per-request execution deadline, seconds; 0 = none. Checked
     * cooperatively between batch phases and at replay task
     * boundaries, so an exceeded deadline lands the request in
     * `error` status (partial work discarded, waiters woken) without
     * tearing a task or wedging the pool.
     */
    double request_timeout_s = 0.0;

    /** Process the specs present at startup, then return. */
    bool once = false;

    /**
     * Polled between requests and while idle: return true to drain
     * and stop (the CLI wires SIGINT/SIGTERM to this). The request
     * in flight always completes — stopping never loses a spec.
     */
    std::function<bool()> stop;
};

/** What the daemon has served so far. Each field but `processed`
 * mirrors a serve.* counter of the obs registry. */
struct ServeStats
{
    std::size_t processed = 0; ///< specs consumed (done + failed)
    std::size_t done = 0;      ///< executed successfully
    std::size_t failed = 0;    ///< malformed or failed
    std::size_t recovered = 0; ///< stranded work/ specs re-queued
    std::size_t polls = 0;     ///< spool scans
    std::size_t coalesced = 0; ///< requests served by fan-out
    std::size_t rejected = 0;  ///< submissions refused (backpressure)
};

/** How a socket submission was admitted (protocol ack states). */
enum class SubmitResult
{
    Queued,    ///< admitted; will execute
    Coalesced, ///< admitted; rides an identical in-flight request
    Rejected   ///< refused (queue full, bad spec, name in use)
};

/** The two-front-door service loop. */
class Daemon
{
  public:
    /**
     * Creates the spool layout, (when configured) opens the shared
     * store and binds the request socket; recovers specs stranded
     * in work/. Throws std::invalid_argument when directories
     * cannot be created or the socket cannot be bound.
     */
    explicit Daemon(ServeConfig config);

    /** Stops the socket listener and abandons queued socket
     * requests; in-flight work has already completed. */
    ~Daemon();

    /**
     * One drain cycle: claim every spec currently in the spool root
     * (oldest filename first, stopping at the queue bound), then
     * execute the queue — spool and socket submissions alike — to
     * empty. @return specs processed.
     */
    std::size_t drainOnce();

    /** Scan-and-sleep loop until stop() or (with once) the first
     * drain; wakes early for socket submissions. @return the final
     * stats. */
    ServeStats run();

    /**
     * Snapshot of the counters so far. Thread-safe: the counters are
     * mutex-guarded, so a monitoring thread may poll a daemon whose
     * run() loop is draining on another thread.
     */
    ServeStats stats() const;

    /**
     * Socket-path admission (called from connection threads; safe
     * against the drain thread): admit() plus the protocol ack.
     * @p response receives the status.json-shaped ack line (no
     * trailing newline).
     */
    SubmitResult submitRequest(const std::string &name,
                               const std::string &spec_text,
                               int priority, std::string *response);

    /**
     * Block until request @p name reaches a terminal state or
     * @p timeout_s elapses; returns its final status line. Unknown
     * names wait too (the request may be spooled but unclaimed, or
     * executing on another daemon sharing the spool — the result
     * dir is polled alongside this daemon's completion board).
     */
    std::string waitFor(const std::string &name, double timeout_s);

    const std::string &resultsDir() const { return results_dir_; }

    /** Where the metrics snapshot lands: <spool>/metrics.json. */
    const std::string &metricsPath() const { return metrics_path_; }

    /** Bound socket path; empty when the socket is disabled. */
    const std::string &socketPath() const
    {
        return config_.socket_path;
    }

    /** The shared store, when a cache dir is configured. */
    const store::ProfileStore *profileStore() const
    {
        return store_ ? &*store_ : nullptr;
    }

  private:
    struct Request;
    struct Verdict;

    /** What tally() counts: each names a ServeStats field and the
     * serve.* counter that mirrors it. */
    enum class Tally { Done, Failed, Rejected, Coalesced, Recovered, Poll };

    /** Count one @p what in stats_ and in its counter, together. */
    void tally(Tally what);

    void recoverStale();
    bool stopped() const;

    /**
     * Both doors' admission. @p qr carries the door's fields (name,
     * spec_file, ingress, priority). Checks the name rule and that
     * the name is not live, parses and fingerprints @p spec_text,
     * creates the result dir, writes the queued status and submits.
     */
    Verdict admit(QueuedRequest qr, const std::string &spec_text);

    /** Claim one spool spec, admit it, and react to a refusal. */
    void admitSpool(const std::string &spec_name);

    /** @p qr's status state as admitted. */
    Request requestFor(const QueuedRequest &qr) const;

    /** Execute one popped request and fan out to its followers. */
    void execute(const QueuedRequest &req);

    /** Fail @p req (status, counters, spool move, board). */
    void failRequest(Request req, const std::string &message);

    /** Remove consumed specs / result dirs older than the TTL. */
    void janitorSweep();

    /** Record @p name's terminal status line and wake waiters. */
    void publishFinal(const std::string &name,
                      const std::string &status_line);

    /** Fail every queued socket request (shutdown path). */
    void abandonQueued();

    /** Move the claimed spec at @p work_path into @p subdir. */
    void moveSpec(const std::string &work_path, const char *subdir);

    ServeConfig config_;
    std::string results_dir_;
    std::string metrics_path_;

    /** Written by tally() from the drain and connection threads,
     * read by stats() from anywhere; the guard keeps a live daemon
     * observable without racing its drain loop. `processed` is
     * derived in stats(). */
    mutable Mutex stats_mu_;
    ServeStats stats_ GUARDED_BY(stats_mu_);

    /** Terminal status lines by request name, for socket waiters;
     * bounded (oldest trimmed) since results live on disk anyway. */
    mutable Mutex board_mu_;
    CondVar board_cv_;
    std::map<std::string, std::string> final_ GUARDED_BY(board_mu_);
    std::vector<std::string> final_order_ GUARDED_BY(board_mu_);
    bool shutting_down_ GUARDED_BY(board_mu_) = false;

    std::optional<store::ProfileStore> store_;
    api::detail::ThreadPool pool_;
    RequestQueue queue_;

    /** Last member: destroyed first, so connection threads are
     * joined while the rest of the daemon is still valid. */
    std::unique_ptr<SocketServer> socket_;
};

} // namespace lsim::serve

#endif // LSIM_SERVE_DAEMON_HH
