/**
 * @file
 * The traced run's instruments: an in-memory span log, and a replica
 * of the daemon's request path that calls each layer's public
 * functions directly, in the order serve::Daemon calls them, with a
 * span around every call.
 *
 * The replica never replaces the daemon. In a traced run each
 * request goes through the real daemon first; the replica then
 * re-executes the same spec on its own store, pool and mirror
 * directory, and its rendered bytes must equal what the daemon
 * delivered. That equality is what makes its per-layer times a
 * faithful breakdown of the daemon's request.
 */

#ifndef LSIM_PERFBENCH_REPLICA_HH
#define LSIM_PERFBENCH_REPLICA_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "api/parallel.hh"
#include "common/mutex.hh"
#include "common/thread_annotations.hh"
#include "store/profile_store.hh"

namespace perfbench
{

/** One recorded span. Times are microseconds since the log's epoch. */
struct SpanRecord
{
    const char *name = "";
    const char *layer = "";
    std::uint64_t request = 0; ///< 0 = fixture
    int id = 0;
    int parent = -1;           ///< -1 = a root span
    double start_us = 0.0;
    double end_us = 0.0;
    std::string tag;           ///< e.g. the benchmark simulated
    double value = 0.0;        ///< e.g. instructions committed

    double ms() const { return (end_us - start_us) / 1000.0; }
};

/** Thread-safe span log; spans stay in memory until the run ends. */
class SpanLog
{
  public:
    SpanLog();

    int begin(const char *name, const char *layer,
              std::uint64_t request, int parent);
    void end(int id, std::string tag = {}, double value = 0.0);

    /** Snapshot of every span (call after the workers are done). */
    std::vector<SpanRecord> spans() const;

  private:
    double nowUs() const;

    std::chrono::steady_clock::time_point epoch_;
    mutable lsim::Mutex mu_;
    std::vector<SpanRecord> spans_ GUARDED_BY(mu_);
};

/** RAII span; the tag/value given to done() land on the record. */
class Span
{
  public:
    Span(SpanLog &log, const char *name, const char *layer,
         std::uint64_t request, int parent)
        : log_(log), id_(log.begin(name, layer, request, parent))
    {
    }

    ~Span()
    {
        if (open_)
            log_.end(id_);
    }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    int id() const { return id_; }

    void done(std::string tag = {}, double value = 0.0)
    {
        if (open_)
            log_.end(id_, std::move(tag), value);
        open_ = false;
    }

  private:
    SpanLog &log_;
    int id_;
    bool open_ = true;
};

/** The whole file at @p path; throws std::runtime_error. */
std::string readFile(const std::string &path);

/** What one replicated request produced, besides its spans. */
struct ReplicaOutput
{
    /** Rendered (csv, json) per sweep, as the daemon delivers them. */
    std::vector<std::pair<std::string, std::string>> rendered;
    std::size_t requested_sims = 0;
    std::size_t unique_sims = 0;
    std::size_t loads = 0;
    std::size_t hits = 0;
    std::size_t core_runs = 0;     ///< O3 simulations, selection included
    std::size_t kernel_units = 0;
    std::size_t fallback_units = 0;
    std::size_t cells = 0;         ///< workload x point x policy results
    std::uint64_t bytes_read = 0;  ///< store entry bytes read back
};

/**
 * The daemon's execute path (serve/daemon.cc, api/batch.cc,
 * api/sweep.cc) re-expressed as direct, spanned calls into each
 * layer. One instance per client thread.
 */
class Replica
{
  public:
    Replica(SpanLog &log, const std::string &store_dir,
            std::string mirror_dir, unsigned threads);

    /**
     * Run @p spec_text as request @p request. @p spool selects the
     * admission order of the spool door (status write before the
     * parse) instead of the socket door's.
     */
    ReplicaOutput run(std::uint64_t request,
                      const std::string &spec_text, bool spool);

  private:
    SpanLog &log_;
    lsim::store::ProfileStore store_;
    std::string mirror_dir_;
    lsim::api::detail::ThreadPool pool_;
};

} // namespace perfbench

#endif // LSIM_PERFBENCH_REPLICA_HH
