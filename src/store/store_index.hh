/**
 * @file
 * Persisted index over a profile-store directory.
 *
 * The store's flat <key>.lsimprof layout makes listing and eviction
 * O(entries) in *full entry reads* (list) or *stat calls* (gc). The
 * index caches, per key, everything those walks were recomputing —
 * payload size, a last-use timestamp, and the summary columns
 * `lsim profile ls` prints — in one JSON file:
 *
 *     <dir>/index.json
 *     {"version": 2, "generation": 17, "entries": [
 *        {"key": "gcc-<hash>", "bytes": 12345,
 *         "touched": 1753700000.25,
 *         "name": "gcc", "fus": 2, "committed": 500000,
 *         "ipc": 1.619, "idle_fraction": 0.41, "intervals": 125}]}
 *
 * `touched` is updated on every save *and* load, so it is a genuine
 * LRU signal: a file's mtime never moves on reads, but the index
 * knows a warm daemon has been serving an entry all week.
 *
 * The index is an accelerator, never the source of truth. Entries
 * missing from it are discovered by a directory scan and re-added;
 * index rows whose file vanished are dropped; a corrupt or deleted
 * index.json just rebuilds lazily.
 *
 * Concurrency: N processes (serve daemons sharding one store, a gc
 * run beside them) may flush concurrently. save() is not a blind
 * rewrite — it runs a reload-merge-bump cycle under an flock(2) on
 * <dir>/index.lock: re-read the on-disk image, apply only this
 * instance's pending deltas (puts, erases, touches), stamp
 * generation = disk + 1, and install atomically. Updates made by
 * other writers since our load are preserved instead of clobbered,
 * and the generation counter increments by exactly one per flush —
 * a cheap cross-process consistency probe. When the file still has
 * the size and generation this instance last loaded or wrote, no
 * one else has flushed, and the in-memory view is merged instead of
 * re-parsing the file; each re-parse counts in
 * `store.index_reloads`. A v1 index (no generation) loads as
 * generation 0; if the lock cannot be acquired within a timeout the
 * flush degrades to the historical last-writer-wins write rather
 * than blocking the caller forever, and the next flush reloads.
 */

#ifndef LSIM_STORE_STORE_INDEX_HH
#define LSIM_STORE_STORE_INDEX_HH

#include <cstdint>
#include <map>
#include <optional>
#include <string>

namespace lsim::store
{

/** Per-entry index record: accounting plus the `ls` summary. */
struct IndexEntry
{
    std::uint64_t bytes = 0; ///< entry file size
    double touched = 0.0;    ///< unix seconds of last save or load

    // Summary columns (what `lsim profile ls` shows without
    // deserializing the entry).
    std::string name;
    unsigned fus = 0;
    std::uint64_t committed = 0;
    double ipc = 0.0;
    double idle_fraction = 0.0;
    std::uint64_t intervals = 0;
};

/** In-memory image of <dir>/index.json plus this instance's
 * unflushed deltas. */
class StoreIndex
{
  public:
    /** Index filename inside the store directory. */
    static constexpr const char *kFileName = "index.json";

    /** flock(2) sentinel guarding the reload-merge-bump flush. */
    static constexpr const char *kLockFileName = "index.lock";

    /**
     * Load the index of @p dir. A missing, unreadable, or malformed
     * index file yields an empty index (after a warn() for the
     * malformed case) — the store rebuilds it on use.
     */
    explicit StoreIndex(std::string dir);

    const std::map<std::string, IndexEntry> &entries() const
    {
        return entries_;
    }

    /** Entry under @p key, or nullptr. */
    const IndexEntry *find(const std::string &key) const;

    /** Insert or replace the entry under @p key. */
    void put(const std::string &key, IndexEntry entry);

    /** Update @p key's last-use time; no-op when absent. */
    void touch(const std::string &key, double when);

    /** @return true when an entry was removed. */
    bool erase(const std::string &key);

    /**
     * Flush to <dir>/index.json with the lock-file protocol: under
     * <dir>/index.lock, re-read the disk image, merge this
     * instance's pending put/erase/touch deltas into it (per-key,
     * this writer's delta wins; untouched keys keep whatever other
     * writers flushed), bump the generation, and install
     * atomically. The in-memory view is replaced by the merged
     * image, so concurrent writers' entries become visible here too.
     * The re-read is skipped while the file is the image this
     * instance last loaded or wrote.
     */
    bool save();

    /** Generation stamp of the last image read or written. */
    std::uint64_t generation() const { return generation_; }

    /** Current unix time in seconds (the `touched` clock). */
    static double now();

    const std::string &dir() const { return dir_; }

  private:
    /** One key's unflushed local mutations, in application order:
     * an erase cancels a put and vice versa; touches fold into a
     * pending put or ride along as a timestamp override. */
    struct Pending
    {
        bool erased = false;
        bool has_entry = false;
        IndexEntry entry;
        bool has_touch = false;
        double touched = 0.0;
    };

    std::string path() const;
    std::string lockPath() const;

    /** Parse <dir>/index.json into @p entries / @p generation.
     * Malformed content warns and yields an empty image.
     * @return the size of the file parsed; nullopt when it is
     * missing or malformed. */
    std::optional<std::uint64_t>
    loadDisk(std::map<std::string, IndexEntry> *entries,
             std::uint64_t *generation) const;

    /** @return true when <dir>/index.json is still the image this
     * instance last loaded or wrote under the lock: its size and the
     * generation in its first bytes match. */
    bool diskHoldsImage() const;

    std::string dir_;
    std::map<std::string, IndexEntry> entries_;
    std::map<std::string, Pending> pending_;
    std::uint64_t generation_ = 0;
    /** Size of the file entries_ (without pending_) mirrors; nullopt
     * when in doubt, which makes the next save() reload. */
    std::optional<std::uint64_t> image_bytes_;
};

} // namespace lsim::store

#endif // LSIM_STORE_STORE_INDEX_HH
