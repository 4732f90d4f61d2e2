#include "serve/daemon.hh"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "api/batch.hh"
#include "common/fault.hh"
#include "common/files.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "obs/clock.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "serve/socket.hh"
#include "serve/spec.hh"

namespace lsim::serve
{

namespace fs = std::filesystem;

namespace
{

constexpr const char *kWorkDir = "work";
constexpr const char *kDoneDir = "done";
constexpr const char *kFailedDir = "failed";
constexpr const char *kStatusFile = "status.json";
constexpr const char *kMetricsFile = "metrics.json";

/** Terminal status lines the completion board keeps (waiters get at
 * most this many lingering results; disk has the rest). */
constexpr std::size_t kBoardCapacity = 256;

double
msSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/** Request names become directory components; reject anything that
 * could escape the results dir or collide with reserved files. */
bool
validName(const std::string &name)
{
    if (name.empty() || name.size() > 128 || name == "." ||
        name == "..")
        return false;
    for (const char c : name) {
        const bool ok = (c >= 'a' && c <= 'z') ||
                        (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '.' ||
                        c == '_' || c == '-';
        if (!ok)
            return false;
    }
    return true;
}

std::string
readFileText(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return {};
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** Does this status text name a terminal state? (Cheap check for
 * waiters polling result dirs written by *other* daemons.) */
bool
terminalStatus(const std::string &text)
{
    return text.find("\"state\":\"done\"") != std::string::npos ||
           text.find("\"state\":\"error\"") !=
               std::string::npos ||
           text.find("\"state\":\"rejected\"") !=
               std::string::npos;
}

std::string
trimTrailingNewline(std::string text)
{
    while (!text.empty() &&
           (text.back() == '\n' || text.back() == '\r'))
        text.pop_back();
    return text;
}

} // namespace

/** One request's lifecycle state, shared by the status transitions
 * so every write carries everything known so far. */
struct Daemon::Request
{
    std::string spec_label; ///< "spec" field: filename or name
    std::string name;       ///< request name (results dir stem)
    std::string work_path;  ///< claimed spool location; "" = socket
    /** <results>/<name>; "" when the name breaks the name rule. */
    std::string result_dir;
    std::size_t sweeps = 0; ///< result count, once known
    double run_ms = 0.0;    ///< BatchRunner::run wall time
    double total_ms = 0.0;  ///< admission-to-final wall time
    std::optional<api::BatchStats> stats;
    std::string coalesced_with; ///< primary name, for followers
    /** Admission instant on the steady clock (total_ms). */
    std::chrono::steady_clock::time_point admitted{};

    // Wall-clock ISO-8601 stamps, filled as the request advances so
    // per-request latency is reconstructable from the spool alone.
    std::string queued_at;
    std::string started_at;
    std::string finished_at;

    /**
     * Render the status.json document (one line per field, trailing
     * newline). @p state is one of "queued", "running", "done",
     * "error", "rejected"; @p error is the machine-readable failure
     * message for the error/rejected states.
     */
    std::string statusJson(const char *state,
                           const std::string &error = "") const
    {
        std::string out;
        JsonWriter w(out);
        w.beginObject();
        w.field("spec", spec_label);
        w.field("state", state);
        if (!error.empty())
            w.field("error", error);
        if (!coalesced_with.empty())
            w.field("coalesced_with", coalesced_with);
        if (sweeps > 0)
            w.field("sweeps", static_cast<std::uint64_t>(sweeps));
        w.field("run_ms", run_ms);
        w.field("total_ms", total_ms);
        if (!queued_at.empty())
            w.field("queued_at", queued_at);
        if (!started_at.empty())
            w.field("started_at", started_at);
        if (!finished_at.empty())
            w.field("finished_at", finished_at);
        if (stats) {
            w.beginObject("stats");
            w.field("requested_sims",
                    static_cast<std::uint64_t>(
                        stats->requested_sims));
            w.field("unique_sims",
                    static_cast<std::uint64_t>(stats->unique_sims));
            w.field("cache_hits",
                    static_cast<std::uint64_t>(stats->cache_hits));
            w.field("sims_run",
                    static_cast<std::uint64_t>(stats->sims_run));
            w.endObject();
        }
        w.endObject();
        out += '\n';
        return out;
    }

    /** Atomically (re)write <result_dir>/status.json; @return the
     * document written. A lost status write (injected or real) is
     * survivable: the in-process completion board carries the same
     * line to waiters, and disk pollers see the previous state. */
    std::string writeStatus(const char *state,
                            const std::string &error = "") const
    {
        std::string doc = statusJson(state, error);
        if (!LSIM_FAULT("serve.status"))
            atomicWriteFile(
                (fs::path(result_dir) / kStatusFile).string(),
                doc);
        return doc;
    }
};

/** What admit() made of one submission. */
struct Daemon::Verdict
{
    /** The queue's answer, or RejectedName when the live-name check
     * refused first; empty when refused before the queue otherwise. */
    std::optional<Admission> admission;
    std::string error; ///< refusal message; empty when admitted
    Request req;       ///< status state as admitted (requestFor)
};

Daemon::Daemon(ServeConfig config)
    : config_(std::move(config)),
      results_dir_(config_.results_dir.empty()
                       ? (fs::path(config_.spool_dir) / "results")
                             .string()
                       : config_.results_dir),
      metrics_path_(
          (fs::path(config_.spool_dir) / kMetricsFile).string()),
      pool_(config_.threads), queue_(config_.max_queue)
{
    if (config_.spool_dir.empty())
        throw std::invalid_argument("serve: spool directory not set");
    for (const std::string &dir :
         {config_.spool_dir,
          (fs::path(config_.spool_dir) / kWorkDir).string(),
          (fs::path(config_.spool_dir) / kDoneDir).string(),
          (fs::path(config_.spool_dir) / kFailedDir).string(),
          results_dir_}) {
        std::error_code ec;
        fs::create_directories(dir, ec);
        if (ec || !fs::is_directory(dir))
            throw std::invalid_argument("serve: directory '" + dir +
                                        "' cannot be created");
    }
    if (!config_.cache_dir.empty())
        store_.emplace(config_.cache_dir);
    recoverStale();
    // The socket comes up last so a connecting client never races
    // the spool layout or the store.
    if (!config_.socket_path.empty())
        socket_ =
            std::make_unique<SocketServer>(*this,
                                           config_.socket_path);
}

Daemon::~Daemon()
{
    // Unblock waiters first (their connection threads must be able
    // to finish for stop() to join them), then stop the front door,
    // then fail what was admitted but never ran.
    {
        MutexLock lock(board_mu_);
        shutting_down_ = true;
    }
    board_cv_.notify_all();
    if (socket_)
        socket_->stop();
    abandonQueued();
    socket_.reset();
}

void
Daemon::recoverStale()
{
    // Specs stranded in work/ mean a previous daemon died mid-
    // request; their results are suspect, so re-queue the specs and
    // let this instance redo them from scratch.
    const fs::path work = fs::path(config_.spool_dir) / kWorkDir;
    for (const auto &de : fs::directory_iterator(work)) {
        if (!de.is_regular_file() ||
            de.path().extension() != ".json")
            continue;
        const fs::path dest =
            fs::path(config_.spool_dir) / de.path().filename();
        std::error_code ec;
        if (fs::exists(dest, ec)) {
            // A same-named spec was submitted since the crash;
            // re-queueing would clobber it with the stale copy.
            // The fresh spec wins — park the stale one in failed/.
            warn("serve: stale spec '%s' shadowed by a newer "
                 "submission; moving it to %s/",
                 de.path().filename().string().c_str(), kFailedDir);
            fs::rename(de.path(),
                       fs::path(config_.spool_dir) / kFailedDir /
                           de.path().filename(),
                       ec);
            continue;
        }
        fs::rename(de.path(), dest, ec);
        if (ec) {
            warn("serve: cannot re-queue stale spec '%s': %s",
                 de.path().string().c_str(), ec.message().c_str());
            continue;
        }
        tally(Tally::Recovered);
        inform("serve: re-queued stale spec '%s'",
               de.path().filename().string().c_str());
    }
}

bool
Daemon::stopped() const
{
    return config_.stop && config_.stop();
}

void
Daemon::tally(Tally what)
{
    struct Row
    {
        std::size_t ServeStats::*field;
        const char *counter;
    };
    // In Tally's order.
    static constexpr Row kRows[] = {
        {&ServeStats::done, "serve.requests_done"},
        {&ServeStats::failed, "serve.requests_failed"},
        {&ServeStats::rejected, "serve.requests_rejected"},
        {&ServeStats::coalesced, "serve.requests_coalesced"},
        {&ServeStats::recovered, "serve.requests_recovered"},
        {&ServeStats::polls, "serve.polls"},
    };
    const Row &row = kRows[static_cast<std::size_t>(what)];
    obs::counter(row.counter).add();
    MutexLock lock(stats_mu_);
    stats_.*row.field += 1;
}

void
Daemon::moveSpec(const std::string &work_path, const char *subdir)
{
    const fs::path from(work_path);
    std::error_code ec;
    fs::rename(from,
               fs::path(config_.spool_dir) / subdir / from.filename(),
               ec);
    if (ec)
        warn("serve: cannot move '%s' to %s/: %s", work_path.c_str(),
             subdir, ec.message().c_str());
}

void
Daemon::publishFinal(const std::string &name,
                     const std::string &status_line)
{
    MutexLock lock(board_mu_);
    const auto [it, inserted] =
        final_.emplace(name, trimTrailingNewline(status_line));
    if (!inserted)
        it->second = trimTrailingNewline(status_line);
    else
        final_order_.push_back(name);
    while (final_order_.size() > kBoardCapacity) {
        final_.erase(final_order_.front());
        final_order_.erase(final_order_.begin());
    }
    board_cv_.notify_all();
}

Daemon::Request
Daemon::requestFor(const QueuedRequest &qr) const
{
    Request req;
    req.spec_label =
        qr.ingress == Ingress::Spool ? qr.spec_file : qr.name;
    req.name = qr.name;
    // A name that breaks the rule could escape the results dir, so
    // it names none.
    if (validName(qr.name))
        req.result_dir = (fs::path(results_dir_) / qr.name).string();
    if (qr.ingress == Ingress::Spool)
        req.work_path =
            (fs::path(config_.spool_dir) / kWorkDir / qr.spec_file)
                .string();
    req.queued_at = qr.queued_at;
    req.admitted = qr.admitted;
    return req;
}

Daemon::Verdict
Daemon::admit(QueuedRequest qr, const std::string &spec_text)
{
    qr.admitted = std::chrono::steady_clock::now();
    qr.queued_at = obs::isoTimestampNow();
    Verdict v;
    v.req = requestFor(qr);
    if (!validName(qr.name)) {
        v.error = "invalid request name";
        return v;
    }
    if (queue_.live(qr.name)) {
        v.admission = Admission::RejectedName;
        v.error = "request name '" + qr.name + "' is in use";
        return v;
    }
    try {
        qr.batch = batchConfigFromJson(parseJson(spec_text));
        qr.fingerprint = api::batchFingerprint(qr.batch);
    } catch (const std::exception &err) {
        v.error = err.what();
        return v;
    }
    {
        std::error_code ec;
        fs::create_directories(v.req.result_dir, ec);
        if (ec) {
            v.error = "cannot create result dir '" +
                      v.req.result_dir + "': " + ec.message();
            return v;
        }
    }
    {
        // A re-submitted name must not wait-match its old result.
        MutexLock lock(board_mu_);
        final_.erase(qr.name);
    }
    // The queued status lands on disk *before* the queue sees the
    // request, so the execution fan-out can never lose a race to
    // this write (its done status always comes later).
    v.req.writeStatus("queued");

    std::string primary;
    v.admission = queue_.submit(std::move(qr), &primary);
    switch (*v.admission) {
    case Admission::Enqueued:
        break;
    case Admission::Coalesced:
        // The identical in-flight request will fan its results out
        // to this one; no queue slot, no execution.
        tally(Tally::Coalesced);
        v.req.coalesced_with = primary;
        inform("serve: %s coalesced with in-flight request '%s'",
               v.req.spec_label.c_str(), primary.c_str());
        break;
    case Admission::RejectedFull:
        v.error = "queue full (" + std::to_string(config_.max_queue) +
                  " pending)";
        break;
    case Admission::RejectedName:
        v.error = "request name '" + v.req.name + "' is in use";
        break;
    }
    return v;
}

void
Daemon::admitSpool(const std::string &spec_name)
{
    // Claim by rename: with several daemons sharing one spool,
    // exactly one rename succeeds and the losers skip silently.
    if (LSIM_FAULT("serve.claim"))
        return; // injected lost claim: spec survives for a later
                // drain (or another daemon), exactly like a race
    const fs::path spool(config_.spool_dir);
    const fs::path work = spool / kWorkDir / spec_name;
    std::error_code ec;
    fs::rename(spool / spec_name, work, ec);
    if (ec)
        return; // raced with another daemon, or vanished

    QueuedRequest qr;
    qr.name = fs::path(spec_name).stem().string();
    qr.spec_file = spec_name;
    qr.ingress = Ingress::Spool;
    Verdict v = admit(std::move(qr), readFileText(work.string()));
    if (v.error.empty())
        return;
    if (v.admission == Admission::RejectedFull ||
        v.admission == Admission::RejectedName) {
        // Backpressure, or a live request owns the name: un-claim so
        // the spec survives on disk and a later drain (or another
        // daemon) picks it up.
        fs::rename(work, spool / spec_name, ec);
        return;
    }
    // A bad name or spec fails at the door, before it costs a queue
    // slot: spec to failed/, and an error status where the name has
    // a result dir.
    failRequest(std::move(v.req), v.error);
}

SubmitResult
Daemon::submitRequest(const std::string &name,
                      const std::string &spec_text, int priority,
                      std::string *response)
{
    Verdict v;
    if (LSIM_FAULT("serve.admit")) {
        v.error = "injected admission fault";
    } else {
        QueuedRequest qr;
        qr.name = name;
        qr.priority = priority;
        qr.ingress = Ingress::Socket;
        v = admit(std::move(qr), spec_text);
    }
    if (v.error.empty()) {
        if (response)
            *response = trimTrailingNewline(v.req.statusJson("queued"));
        return v.admission == Admission::Coalesced
                   ? SubmitResult::Coalesced
                   : SubmitResult::Queued;
    }

    tally(Tally::Rejected);
    Request rejected;
    rejected.spec_label = name.empty() ? "?" : name;
    if (v.admission == Admission::RejectedFull) {
        // The queued status is already on disk: replace it, so a
        // poller sees the refusal.
        rejected.result_dir = v.req.result_dir;
        rejected.finished_at = obs::isoTimestampNow();
        rejected.writeStatus("rejected", v.error);
    }
    if (response)
        *response = trimTrailingNewline(
            rejected.statusJson("rejected", v.error));
    return SubmitResult::Rejected;
}

std::string
Daemon::waitFor(const std::string &name, double timeout_s)
{
    const auto synth = [&](const std::string &message) {
        Request req;
        req.spec_label = name;
        req.name = name;
        return trimTrailingNewline(
            req.statusJson("error", message));
    };
    if (!validName(name))
        return synth("invalid request name");

    const std::string status_path =
        (fs::path(results_dir_) / name / kStatusFile).string();
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<
            std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(timeout_s));
    for (;;) {
        bool shutting_down = false;
        {
            MutexLock lock(board_mu_);
            const auto it = final_.find(name);
            if (it != final_.end())
                return it->second;
            shutting_down = shutting_down_;
        }
        // Fall back to disk: the request may have been served by
        // another daemon sharing this spool, or completed before
        // this daemon restarted.
        {
            const std::string text = readFileText(status_path);
            if (!text.empty() && terminalStatus(text))
                return trimTrailingNewline(text);
        }
        if (shutting_down)
            return synth("daemon stopping");
        const auto now = std::chrono::steady_clock::now();
        if (now >= deadline)
            return synth("wait timed out");
        const auto slice =
            std::min<std::chrono::steady_clock::duration>(
                std::chrono::milliseconds(100), deadline - now);
        MutexLock lock(board_mu_);
        board_cv_.wait_for(lock, slice);
    }
}

void
Daemon::failRequest(Request req, const std::string &message)
{
    req.total_ms = msSince(req.admitted);
    req.finished_at = obs::isoTimestampNow();
    if (!req.result_dir.empty()) {
        // `error` status guarantees no result files: remove anything
        // a partially delivered (or prior same-named) run left
        // behind, so a poller never pairs stale sweeps with a failed
        // status. A spec refused at admission has no result dir yet.
        std::error_code ec;
        fs::create_directories(req.result_dir, ec);
        for (const auto &de :
             fs::directory_iterator(req.result_dir, ec)) {
            const std::string fname =
                de.path().filename().string();
            if (fname.rfind("sweep_", 0) == 0)
                fs::remove(de.path(), ec);
        }
        publishFinal(req.name, req.writeStatus("error", message));
    }
    if (!req.work_path.empty())
        moveSpec(req.work_path, kFailedDir);
    tally(Tally::Failed);
    warn("serve: %s failed: %s", req.spec_label.c_str(),
         message.c_str());
}

void
Daemon::execute(const QueuedRequest &qr)
{
    obs::TraceSpan span("serve.request", "serve");
    Request req = requestFor(qr);
    // A failed request's status carries its admission fields and the
    // execution's start only.
    const auto fail = [&](const QueuedRequest &q,
                          const std::string &message) {
        Request failed = requestFor(q);
        failed.started_at = req.started_at;
        failRequest(std::move(failed), message);
    };
    // The primary's failure fails its followers too — their promise
    // was "the primary's results".
    const auto failFollowers = [&](const std::string &message) {
        for (const QueuedRequest &f : queue_.finish(qr.name))
            fail(f, message);
    };

    api::BatchResult result;
    try {
        // The spec was parsed once, at admission. Execution
        // parameters come from the daemon, not the spec: every
        // request shares the daemon's store and pool.
        api::BatchConfig batch = qr.batch;
        batch.cache_dir = config_.cache_dir;
        api::BatchRunner runner(std::move(batch));

        req.started_at = obs::isoTimestampNow();
        req.writeStatus("running");
        const auto run_start = std::chrono::steady_clock::now();
        api::BatchEnv env;
        env.store = store_ ? &*store_ : nullptr;
        env.pool = &pool_;
        if (config_.request_timeout_s > 0.0) {
            // Per-request deadline: the batch layer polls this
            // between phases and at task boundaries, so an expired
            // request lands in `error` without tearing a task.
            const auto deadline =
                run_start +
                std::chrono::duration_cast<
                    std::chrono::steady_clock::duration>(
                    std::chrono::duration<double>(
                        config_.request_timeout_s));
            env.cancel = [deadline] {
                return std::chrono::steady_clock::now() >= deadline;
            };
        }
        if (LSIM_FAULT("serve.execute"))
            throw std::runtime_error("injected execute fault");
        result = runner.run(env);
        req.run_ms = msSince(run_start);
    } catch (const api::CancelledError &) {
        obs::counter("serve.deadline_exceeded").add();
        const std::string message =
            "deadline exceeded: request ran past " +
            std::to_string(config_.request_timeout_s) + " s";
        fail(qr, message);
        failFollowers(message);
        return;
    } catch (const std::exception &err) {
        fail(qr, err.what());
        failFollowers(err.what());
        return;
    }

    // Render once; the primary and every follower get these bytes.
    // The pool is idle once the batch returns, so each result file
    // renders as an index-addressed task into its own slot: task s
    // is sweep s's JSON and task S + s its CSV. The pool claims tasks
    // in index order, so the JSON renders, several times longer than
    // the CSV ones, start first and the short tasks fill in behind
    // them. Each task writes the primary's copy of its file as soon
    // as it is rendered.
    const std::size_t num_sweeps = result.sweeps.size();
    const std::size_t num_files = 2 * num_sweeps;
    std::vector<std::string> files(num_files);
    const auto writeFile = [&](const std::string &dir,
                               std::size_t t) -> bool {
        obs::TraceSpan deliver_span("serve.deliver", "serve");
        const std::string name =
            "sweep_" + std::to_string(t % num_sweeps) +
            (t < num_sweeps ? ".json" : ".csv");
        return !LSIM_FAULT("serve.deliver") &&
               atomicWriteFile((fs::path(dir) / name).string(),
                               files[t]);
    };
    struct Write
    {
        bool ok = false;
        double ms = 0.0;
    };
    std::vector<Write> writes(num_files);
    {
        obs::TraceSpan render_span("serve.render", "serve");
        obs::ScopedTimerMs timer(obs::histogram("serve.render_ms"));
        pool_.run(num_files, [&](std::size_t t) {
            const api::SweepResult &sweep =
                result.sweeps[t % num_sweeps];
            files[t] = t < num_sweeps ? sweep.toJson() : sweep.toCsv();
            const auto write_start = std::chrono::steady_clock::now();
            writes[t].ok = writeFile(req.result_dir, t);
            writes[t].ms = msSince(write_start);
        });
    }
    // One observation per executed request: the primary's summed
    // write time.
    double deliver_ms = 0.0;
    bool written = true;
    for (const Write &w : writes) {
        deliver_ms += w.ms;
        written = written && w.ok;
    }
    obs::histogram("serve.deliver_ms").observe(deliver_ms);

    req.sweeps = num_sweeps;
    req.stats = result.stats;

    const auto writeResults = [&](const std::string &dir) -> bool {
        for (std::size_t t = 0; t < num_files; ++t)
            if (!writeFile(dir, t))
                return false;
        return true;
    };
    const auto deliver = [&](Request &r, const QueuedRequest &origin,
                             bool written) -> bool {
        if (!written) {
            fail(origin,
                 "cannot write results under '" + r.result_dir + "'");
            return false;
        }
        r.total_ms = msSince(r.admitted);
        r.finished_at = obs::isoTimestampNow();
        publishFinal(r.name, r.writeStatus("done"));
        if (!r.work_path.empty())
            moveSpec(r.work_path, kDoneDir);
        tally(Tally::Done);
        // The latency histogram counts successful requests only, so
        // its count stays equal to serve.requests_done (tested
        // invariant); followers count as requests in both.
        obs::histogram("serve.request_ms").observe(r.total_ms);
        if (origin.ingress == Ingress::Socket)
            obs::histogram("serve.socket_request_ms")
                .observe(r.total_ms);
        return true;
    };

    if (!deliver(req, qr, written)) {
        failFollowers("primary request '" + qr.name +
                      "' failed to deliver results");
        return;
    }
    // Work counters tick once per *execution*; request counters
    // (above) tick once per request, followers included.
    obs::counter("serve.requested_sims")
        .add(result.stats.requested_sims);
    obs::counter("serve.unique_sims").add(result.stats.unique_sims);
    obs::counter("serve.cache_hits").add(result.stats.cache_hits);
    obs::counter("serve.sims_run").add(result.stats.sims_run);
    inform("serve: %s done in %.1f ms (%zu sweep(s), %zu cache "
           "hit(s), %zu simulated)",
           req.spec_label.c_str(), req.total_ms, req.sweeps,
           result.stats.cache_hits, result.stats.sims_run);

    // Fan out: byte-identical results to every coalesced follower.
    for (const QueuedRequest &f : queue_.finish(qr.name)) {
        Request fr = requestFor(f);
        fr.started_at = req.started_at;
        fr.run_ms = req.run_ms;
        fr.sweeps = req.sweeps;
        fr.stats = req.stats;
        fr.coalesced_with = qr.name;
        std::error_code ec;
        fs::create_directories(fr.result_dir, ec);
        deliver(fr, f, writeResults(fr.result_dir));
    }
}

void
Daemon::janitorSweep()
{
    if (config_.ttl_seconds > 0.0) {
        const auto now = fs::file_time_type::clock::now();
        const auto tooOld = [&](const fs::path &p) {
            std::error_code ec;
            const auto mtime = fs::last_write_time(p, ec);
            if (ec)
                return false; // age unknown is not "old"
            return std::chrono::duration<double>(now - mtime)
                       .count() > config_.ttl_seconds;
        };
        auto &removed = obs::counter("serve.janitor_removed");
        // Consumed specs first, then the result dirs they produced
        // (live requests are never pruned).
        for (const char *sub : {kDoneDir, kFailedDir}) {
            const fs::path dir = fs::path(config_.spool_dir) / sub;
            for (const auto &de : fs::directory_iterator(dir)) {
                if (!de.is_regular_file() ||
                    !tooOld(de.path()))
                    continue;
                std::error_code ec;
                if (fs::remove(de.path(), ec))
                    removed.add();
            }
        }
        for (const auto &de :
             fs::directory_iterator(results_dir_)) {
            if (!de.is_directory())
                continue;
            const std::string name =
                de.path().filename().string();
            if (queue_.live(name))
                continue;
            const fs::path status = de.path() / kStatusFile;
            std::error_code ec;
            const fs::path probe =
                fs::exists(status, ec) ? status : de.path();
            if (!tooOld(probe))
                continue;
            fs::remove_all(de.path(), ec);
            if (!ec)
                removed.add();
        }
    }
    if (config_.cache_ttl_seconds > 0.0 && store_) {
        store::ProfileStore::GcOptions gc;
        gc.max_age_seconds = config_.cache_ttl_seconds;
        const auto stats = store_->gc(gc);
        if (stats.removed > 0)
            inform("serve: cache ttl evicted %zu entr%s",
                   stats.removed,
                   stats.removed == 1 ? "y" : "ies");
    }
}

void
Daemon::abandonQueued()
{
    for (const QueuedRequest &req : queue_.drainPending()) {
        if (req.ingress == Ingress::Spool) {
            // Leave the claimed spec in work/: the next daemon's
            // crash recovery re-queues and re-executes it.
            continue;
        }
        failRequest(requestFor(req), "daemon stopping");
    }
}

std::size_t
Daemon::drainOnce()
{
    obs::TraceSpan span("serve.drain", "serve");
    std::vector<std::string> names;
    for (const auto &de :
         fs::directory_iterator(config_.spool_dir)) {
        if (!de.is_regular_file() ||
            de.path().extension() != ".json")
            continue;
        // The daemon's own metrics snapshot lives in the spool root;
        // it is never a spec (the name is reserved).
        if (de.path().filename() == kMetricsFile)
            continue;
        names.push_back(de.path().filename().string());
    }
    std::sort(names.begin(), names.end());

    const std::size_t before = stats().processed;
    for (const std::string &name : names) {
        if (queue_.full())
            break; // spool backpressure: leave the rest on disk
        admitSpool(name);
    }
    while (auto req = queue_.pop()) {
        execute(*req);
        if (stopped())
            break; // graceful: finish the request, not the queue
    }
    janitorSweep();
    tally(Tally::Poll);
    const std::size_t drained = stats().processed - before;

    // Publish the metrics snapshot every drain cycle so pollers (and
    // `lsim metrics`) always see a fresh, never-torn file.
    obs::MetricsRegistry::instance().exportFile(metrics_path_);
    auto &trace = obs::TraceSession::instance();
    if (trace.enabled())
        trace.flush();
    return drained;
}

ServeStats
Daemon::stats() const
{
    MutexLock lock(stats_mu_);
    ServeStats snapshot = stats_;
    snapshot.processed = snapshot.done + snapshot.failed;
    return snapshot;
}

ServeStats
Daemon::run()
{
    for (;;) {
        drainOnce();
        if (config_.once || stopped())
            break;
        // Sleep in short slices so a stop signal interrupts the
        // poll delay promptly; a socket submission wakes the loop
        // through the queue's condition variable.
        const auto wake = std::chrono::steady_clock::now() +
            std::chrono::milliseconds(config_.poll_ms);
        while (std::chrono::steady_clock::now() < wake) {
            if (stopped())
                return stats();
            if (queue_.waitForWork(std::chrono::milliseconds(
                    std::min(50u, std::max(1u, config_.poll_ms)))))
                break;
        }
    }
    return stats();
}

} // namespace lsim::serve
