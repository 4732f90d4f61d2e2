#include "obs/trace.hh"

#include <unistd.h>

#include <cstdlib>

#include "common/files.hh"
#include "common/json.hh"
#include "obs/clock.hh"

namespace lsim
{
namespace obs
{

namespace
{

std::uint64_t
currentTid()
{
    // Small dense per-thread ids read better in trace viewers than
    // hashed std::thread::id values.
    static std::atomic<std::uint64_t> next{1};
    thread_local std::uint64_t id = next.fetch_add(1);
    return id;
}

} // namespace

TraceSession &
TraceSession::instance()
{
    static TraceSession *session = new TraceSession();
    return *session;
}

void
TraceSession::start(const std::string &path)
{
    {
        MutexLock lock(mu_);
        path_ = path;
    }
    enabled_.store(true, std::memory_order_relaxed);
}

void
TraceSession::stop()
{
    if (!enabled())
        return;
    enabled_.store(false, std::memory_order_relaxed);
    flush();
}

bool
TraceSession::startFromEnv()
{
    const char *path = std::getenv("LSIM_TRACE");
    if (!path || !*path)
        return false;
    start(path);
    return true;
}

void
TraceSession::record(TraceEvent ev)
{
    MutexLock lock(mu_);
    events_.push_back(std::move(ev));
}

bool
TraceSession::flush()
{
    std::string path;
    std::vector<TraceEvent> snapshot;
    {
        MutexLock lock(mu_);
        if (path_.empty())
            return false;
        path = path_;
        snapshot = events_;
    }

    const std::uint64_t pid =
        static_cast<std::uint64_t>(::getpid());
    std::string out;
    JsonWriter w(out);
    w.beginObject();
    w.beginArray("traceEvents");
    for (const auto &ev : snapshot) {
        w.beginObject();
        w.field("name", ev.name);
        w.field("cat", ev.cat);
        w.field("ph", "X");
        w.field("ts", ev.ts_us);
        w.field("dur", ev.dur_us);
        w.field("pid", pid);
        w.field("tid", ev.tid);
        w.endObject();
    }
    w.endArray();
    w.field("displayTimeUnit", "ms");
    w.endObject();
    out += '\n';
    return atomicWriteFile(path, out);
}

std::size_t
TraceSession::eventCount() const
{
    MutexLock lock(mu_);
    return events_.size();
}

void
TraceSession::resetForTest()
{
    enabled_.store(false, std::memory_order_relaxed);
    MutexLock lock(mu_);
    events_.clear();
    path_.clear();
}

TraceSpan::TraceSpan(const char *name, const char *cat)
    : name_(name), cat_(cat)
{
    if (!TraceSession::instance().enabled())
        return;
    active_ = true;
    start_us_ = monotonicMicros();
}

TraceSpan::~TraceSpan()
{
    if (!active_)
        return;
    auto &session = TraceSession::instance();
    if (!session.enabled())
        return; // session stopped mid-span; drop the event
    const std::uint64_t end_us = monotonicMicros();
    session.record(TraceEvent{name_, cat_, start_us_,
                              end_us - start_us_, currentTid()});
}

} // namespace obs
} // namespace lsim
