#include "store/store_index.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>

#include "common/backoff.hh"
#include "common/fault.hh"
#include "common/files.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "obs/metrics.hh"

namespace lsim::store
{

namespace fs = std::filesystem;

namespace
{

/** Current layout (adds "generation"); v1 files still load. */
constexpr std::uint32_t kIndexVersion = 2;
constexpr std::uint32_t kIndexVersionNoGeneration = 1;

/** How long one flush attempt waits for index.lock. Holders keep
 * the lock for one small-file read + rewrite, so timing out means
 * contention or a wedged holder; the flush retries with backoff
 * (kLockRetries extra attempts) before degrading to a
 * last-writer-wins write. */
constexpr unsigned kLockTimeoutMs = 2'000;
constexpr unsigned kLockRetries = 3;
constexpr unsigned kLockBackoffBaseMs = 2;

/**
 * Acquire the index lock with bounded retry + backoff. Transient
 * contention (another daemon mid-flush) resolves on a later
 * attempt; each retry bumps `store.retries`. The fault point
 * simulates an acquisition timeout per attempt.
 */
std::optional<FileLock>
acquireIndexLock(const std::string &path)
{
    Backoff backoff(kLockRetries, kLockBackoffBaseMs);
    for (;;) {
        if (!LSIM_FAULT("store.index.lock")) {
            if (auto lock = FileLock::acquire(path, kLockTimeoutMs))
                return lock;
        }
        if (!backoff.next())
            return std::nullopt;
        obs::counter("store.retries").add();
    }
}

/** Parse one index row; throws std::invalid_argument on shape
 * errors (the caller treats any throw as "index unusable"). */
std::pair<std::string, IndexEntry>
entryFromJson(const JsonValue &v)
{
    IndexEntry entry;
    const std::string key = v.at("key").asString();
    entry.bytes = v.at("bytes").asU64();
    entry.touched = v.at("touched").asNumber();
    entry.name = v.at("name").asString();
    const std::uint64_t fus = v.at("fus").asU64();
    if (fus > std::numeric_limits<unsigned>::max())
        throw std::invalid_argument("index 'fus' too large");
    entry.fus = static_cast<unsigned>(fus);
    entry.committed = v.at("committed").asU64();
    entry.ipc = v.at("ipc").asNumber();
    entry.idle_fraction = v.at("idle_fraction").asNumber();
    entry.intervals = v.at("intervals").asU64();
    return {key, entry};
}

/** Open the index document of @p generation up to its entries. */
void
beginIndex(JsonWriter &w, std::uint64_t generation)
{
    w.beginObject();
    w.field("version", static_cast<std::uint64_t>(kIndexVersion));
    w.field("generation", generation);
    w.beginArray("entries");
}

/** The bytes save() writes ahead of the entries for @p generation:
 * the fast path compares them with the start of the file. */
std::string
indexHeader(std::uint64_t generation)
{
    std::string out;
    JsonWriter w(out);
    beginIndex(w, generation);
    return out;
}

} // namespace

StoreIndex::StoreIndex(std::string dir)
    : dir_(std::move(dir))
{
    image_bytes_ = loadDisk(&entries_, &generation_);
}

std::optional<std::uint64_t>
StoreIndex::loadDisk(std::map<std::string, IndexEntry> *entries,
                     std::uint64_t *generation) const
{
    entries->clear();
    *generation = 0;
    std::ifstream in(path(), std::ios::binary);
    if (!in)
        return std::nullopt; // no index yet: empty, rebuilt lazily
    std::ostringstream ss;
    ss << in.rdbuf();
    const std::string text = ss.str();
    try {
        const JsonValue doc = parseJson(text);
        const std::uint64_t version = doc.at("version").asU64();
        if (version != kIndexVersion &&
            version != kIndexVersionNoGeneration)
            throw std::invalid_argument(
                "unsupported index version " +
                std::to_string(version));
        if (const JsonValue *gen = doc.find("generation"))
            *generation = gen->asU64();
        for (const JsonValue &row : doc.at("entries").items())
            entries->insert(entryFromJson(row));
    } catch (const std::invalid_argument &err) {
        warn("profile store: ignoring index '%s': %s",
             path().c_str(), err.what());
        entries->clear();
        *generation = 0;
        return std::nullopt;
    }
    return text.size();
}

bool
StoreIndex::diskHoldsImage() const
{
    if (!image_bytes_)
        return false;
    std::ifstream in(path(), std::ios::binary | std::ios::ate);
    if (!in || static_cast<std::uint64_t>(in.tellg()) != *image_bytes_)
        return false;
    const std::string header = indexHeader(generation_);
    std::string prefix(header.size(), '\0');
    in.seekg(0);
    in.read(prefix.data(), static_cast<std::streamsize>(prefix.size()));
    return in && prefix == header;
}

std::string
StoreIndex::path() const
{
    return (fs::path(dir_) / kFileName).string();
}

std::string
StoreIndex::lockPath() const
{
    return (fs::path(dir_) / kLockFileName).string();
}

const IndexEntry *
StoreIndex::find(const std::string &key) const
{
    const auto it = entries_.find(key);
    return it == entries_.end() ? nullptr : &it->second;
}

void
StoreIndex::put(const std::string &key, IndexEntry entry)
{
    Pending &p = pending_[key];
    p.erased = false;
    p.has_entry = true;
    p.entry = entry;
    p.has_touch = false;
    entries_[key] = std::move(entry);
}

void
StoreIndex::touch(const std::string &key, double when)
{
    const auto it = entries_.find(key);
    if (it == entries_.end())
        return;
    it->second.touched = when;
    Pending &p = pending_[key];
    if (p.has_entry) {
        p.entry.touched = when;
    } else {
        p.has_touch = true;
        p.touched = when;
    }
}

bool
StoreIndex::erase(const std::string &key)
{
    const bool existed = entries_.erase(key) > 0;
    Pending &p = pending_[key];
    p = Pending{};
    p.erased = true;
    return existed;
}

bool
StoreIndex::save()
{
    // Serialize flushes across every process (and instance) sharing
    // the directory; within the lock the cycle is read-merge-write,
    // so no writer ever overwrites another's updates.
    auto lock = acquireIndexLock(lockPath());
    if (!lock) {
        // Degraded mode: we could not serialize, so fall back to
        // writing our local view (the pre-protocol behavior). The
        // index is an accelerator — a lost concurrent update is
        // re-derived on demand, never wrong. Loud once per process,
        // counted always: silent last-writer-wins hid real
        // contention problems.
        static std::atomic<bool> logged{false};
        if (!logged.exchange(true))
            warn("profile store: index lock '%s' timed out after "
                 "%u attempt(s); flushing last-writer-wins (logged "
                 "once per process; see store.lock_timeouts)",
                 lockPath().c_str(), kLockRetries + 1);
        obs::counter("store.lock_timeouts").add();
    }

    // The local view already holds the pending deltas. While the file
    // is still the image this instance last loaded or wrote, nobody
    // else has flushed, so that view is the merge and the re-parse is
    // skipped. Otherwise (or in any doubt) re-read the disk image and
    // apply the deltas to it.
    const bool reload = lock && !diskHoldsImage();
    std::map<std::string, IndexEntry> merged;
    std::uint64_t disk_generation = generation_;
    if (reload) {
        obs::counter("store.index_reloads").add();
        (void)loadDisk(&merged, &disk_generation);
        for (const auto &[key, p] : pending_) {
            if (p.erased) {
                merged.erase(key);
                continue;
            }
            if (p.has_entry) {
                merged[key] = p.entry;
            } else if (p.has_touch) {
                // A touch asserts the entry's last-use time outright
                // (backdating included — tests and tools rely on
                // it); concurrent touches resolve to whichever flush
                // runs last, which only perturbs LRU order
                // approximately.
                const auto it = merged.find(key);
                if (it != merged.end())
                    it->second.touched = p.touched;
            }
        }
    }
    const std::map<std::string, IndexEntry> &image =
        reload ? merged : entries_;

    const std::uint64_t generation = disk_generation + 1;
    std::string text;
    JsonWriter w(text);
    beginIndex(w, generation);
    for (const auto &[key, entry] : image) {
        w.beginObject();
        w.field("key", key);
        w.field("bytes", entry.bytes);
        w.field("touched", entry.touched);
        w.field("name", entry.name);
        w.field("fus", entry.fus);
        w.field("committed", entry.committed);
        w.field("ipc", entry.ipc);
        w.field("idle_fraction", entry.idle_fraction);
        w.field("intervals", entry.intervals);
        w.endObject();
    }
    w.endArray();
    w.endObject();
    text += '\n';
    if (LSIM_FAULT("store.index.write") ||
        !atomicWriteFile(path(), text))
        return false;

    // Adopt the merged image: entries other writers added become
    // visible to this instance, and the pending deltas are now on
    // disk. A last-writer-wins write may share its generation with
    // another writer's, so the next save reloads.
    if (reload)
        entries_ = std::move(merged);
    generation_ = generation;
    image_bytes_ = lock ? std::optional<std::uint64_t>(text.size())
                        : std::nullopt;
    pending_.clear();
    return true;
}

double
StoreIndex::now()
{
    return std::chrono::duration<double>(
               std::chrono::system_clock::now().time_since_epoch())
        .count();
}

} // namespace lsim::store
