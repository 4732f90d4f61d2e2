/**
 * @file
 * Content-addressed on-disk store of completed timing simulations.
 *
 * Layout: one file per simulation in a flat directory,
 *
 *     <dir>/<benchmark>-<fingerprint>.lsimprof
 *
 * where the fingerprint is a 64-bit FNV-1a hash over everything that
 * determines the simulation's outcome: the full WorkloadProfile
 * parameter set, the requested FU count (sentinels included), the
 * instruction budget, the trace seed, the complete CoreConfig
 * (pipeline widths, bpred geometry, cache hierarchy), and the
 * serialization format version. Two runs agreeing on the key are
 * guaranteed the same phase-1 result, so a hit replaces the
 * simulation with a bit-exact deserialized copy; anything that could
 * change the outcome changes the key and misses.
 *
 * Writes are atomic (temp file + rename in the same directory), so
 * concurrent sweeps can safely share one cache directory: the worst
 * case is two processes simulating the same key and one rename
 * winning — both files carried identical bytes.
 *
 * Load failures (corruption, truncation, version mismatch) are
 * reported as a miss and warn()ed, never trusted — and the bad
 * entry is moved to <dir>/quarantine/ so it is inspected at most
 * once instead of being re-read and re-warned on every hit. The
 * caller re-simulates; the fresh save overwrites nothing (the
 * poisoned file is gone from the key's path).
 *
 * The entry files are the whole store: there is no index beside
 * them. A load hit sets its file's mtime to now, so the mtime is the
 * LRU signal gc() evicts by, and it is on disk the moment the hit
 * returns; list() reads the entries themselves. Processes sharing
 * one directory therefore share nothing but the entry files, and no
 * operation takes a lock.
 *
 * Failure hardening: save() retries transient write failures with
 * bounded exponential backoff + jitter (`store.retries` counts
 * them); when the directory stays unwritable (read-only, disk
 * full), the instance degrades to compute-without-cache — loads
 * still serve hits, writes become no-ops — instead of failing
 * requests (`store.degraded` gauge, warn()ed once).
 */

#ifndef LSIM_STORE_PROFILE_STORE_HH
#define LSIM_STORE_PROFILE_STORE_HH

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/json.hh"
#include "cpu/config.hh"
#include "store/serialize.hh"
#include "trace/profile.hh"

namespace lsim::store
{

/**
 * Everything that determines a phase-1 timing simulation's outcome.
 * fingerprint() is the cache key; the FU count is the *requested*
 * value (including api::auto_select and the paper-FUs sentinel), so
 * an auto-selected run caches under the request that produced it.
 */
struct SimKey
{
    trace::WorkloadProfile profile;
    unsigned fus = ~0u;
    std::uint64_t insts = 0;
    std::uint64_t seed = 0;
    cpu::CoreConfig base;

    /** "<sanitized-benchmark-name>-<16 hex digits>". */
    std::string fingerprint() const;
};

/**
 * @name Fingerprint field hashing
 * The building blocks of SimKey::fingerprint(), exposed so other
 * tiers can fingerprint configurations the same way (the serve
 * front door hashes whole batch specs for request coalescing —
 * api::batchFingerprint). Every field of the argument is mixed in;
 * see SimKey for why.
 * @{
 */
void hashWorkloadProfile(Fnv1a &h, const trace::WorkloadProfile &p);
void hashCoreConfig(Fnv1a &h, const cpu::CoreConfig &c);
/** @} */

/** One store entry as listed by ProfileStore::list(). */
struct StoreEntry
{
    std::string key;  ///< filename stem (name + fingerprint)
    harness::WorkloadSim sim;
};

/**
 * The on-disk store. Cheap to construct: it keeps no state besides
 * its directory and the degraded flag, so instances over one
 * directory (in one process or several) never disagree. Instances
 * are not copyable; construct in place.
 */
class ProfileStore
{
  public:
    /** Filename extension of store entries (includes the dot). */
    static constexpr const char *kExtension = ".lsimprof";

    /** Subdirectory entries failing checksum/version move into. */
    static constexpr const char *kQuarantineDir = "quarantine";

    /**
     * @param dir Cache directory; created (with parents) when
     * missing. Throws std::invalid_argument when the path exists but
     * is not a directory or cannot be created.
     */
    explicit ProfileStore(std::string dir);

    ProfileStore(const ProfileStore &) = delete;
    ProfileStore &operator=(const ProfileStore &) = delete;

    /**
     * Fetch the entry stored under @p key. Returns std::nullopt —
     * after a warn() — when the entry is absent, truncated,
     * corrupted, or written by a different format version; a
     * corrupt entry is additionally quarantined (moved under
     * <dir>/quarantine/) so it never warns twice. A hit sets the
     * entry file's mtime to now (the gc LRU signal); a failure to
     * do so (a read-only store) is ignored.
     */
    std::optional<harness::WorkloadSim>
    load(const std::string &key) const;

    /**
     * Atomically persist @p sim under @p key.
     * Transient write failures retry with bounded backoff; a
     * persistent failure flips the instance into degraded
     * (compute-without-cache) mode and the save becomes a no-op.
     */
    void save(const std::string &key,
              const harness::WorkloadSim &sim) const;

    /** True once a persistent write failure disabled caching for
     * this instance (reads still work). Sticky for the instance's
     * lifetime; a fresh instance probes the directory again. */
    bool degraded() const
    {
        return degraded_.load(std::memory_order_relaxed);
    }

    /** All readable `*.lsimprof` entries, sorted by key; corrupt
     * ones warn and are quarantined, like a corrupt load. */
    std::vector<StoreEntry> list() const;

    /**
     * Delete the entry stored under @p key. A store key is one path
     * component of [A-Za-z0-9._-] that is not "." or ".." (every
     * SimKey::fingerprint() is one); any other @p key throws
     * StoreError, so no key can name a file outside the store.
     * @return true when an entry was removed, false when absent.
     */
    bool remove(const std::string &key) const;

    /** Eviction policy for gc(). Unset limits do not evict. */
    struct GcOptions
    {
        /** Evict entries whose file is older than this, seconds. */
        std::optional<double> max_age_seconds;
        /** Then evict oldest-first until the store fits. */
        std::optional<std::uint64_t> max_bytes;
    };

    /** What gc() scanned and removed. */
    struct GcStats
    {
        std::size_t scanned = 0; ///< entries examined
        std::size_t removed = 0; ///< entries deleted
        /** Entries whose file could not be stat()ed. These are
         * *kept* and reported — a stat failure means "age unknown",
         * not "old", so they must never become eviction fodder by
         * default. */
        std::size_t stat_errors = 0;
        std::uint64_t bytes_before = 0;
        std::uint64_t bytes_after = 0;
    };

    /**
     * Evict store entries by age and/or total size: entries older
     * than max_age_seconds go first, then the least-recently-used
     * remaining entries until the store is within max_bytes. Age and
     * size come from stat(): the mtime moves on loads as well as
     * saves, so an entry a warm daemon serves daily never looks
     * cold. Only `*.lsimprof` files are touched; unreadable or
     * corrupt entries are regular eviction candidates (their mtime
     * decides), so a poisoned cache heals over time. Safe to run
     * concurrently with sweeps: a hit on a just-evicted key is an
     * ordinary miss.
     */
    GcStats gc(const GcOptions &options) const;

    const std::string &dir() const { return dir_; }

  private:
    std::string pathFor(const std::string &key) const;

    /** Read and verify @p key's entry; a corrupt one warns and is
     * quarantined. @p what names the caller in the quarantine
     * warning ("load", "list"). */
    std::optional<harness::WorkloadSim>
    loadEntry(const std::string &key, const char *what) const;

    /** Move @p key's entry file into quarantine/; warns with @p why.
     * At most one warn per entry: after the move the key's path is
     * simply absent. */
    void quarantine(const std::string &key,
                    const std::string &why) const;

    /** Flip into compute-without-cache mode (first call warns). */
    void markDegraded(const std::string &why) const;

    std::string dir_;

    /** Compute-without-cache switch; atomic because the daemon's
     * pool threads share one instance. */
    mutable std::atomic<bool> degraded_{false};
};

/**
 * @name Self-describing profile files
 * The store's entry format doubles as an interchange format:
 * exportSim() writes the same bytes a store entry holds (magic,
 * version, checksum, embedded key, payload), importSimFile() reads
 * them back, and importAnySim() additionally accepts a JSON idle
 * profile (see idleProfileSimFromJson) so externally measured idle
 * behavior can enter the pipeline. All throw StoreError on
 * malformed input, which includes an embedded key that is neither
 * empty nor a valid store key (see ProfileStore::remove()).
 * @{
 */

/** A profile read from a file: the embedded key may be empty for
 * JSON imports, which carry no generating configuration. */
struct ImportedSim
{
    std::string key;
    harness::WorkloadSim sim;
};

void exportSim(const std::string &path, const std::string &key,
               const harness::WorkloadSim &sim);

ImportedSim importSimFile(const std::string &path);

/**
 * Accept either format: binary .lsimprof (sniffed by magic) or a
 * JSON idle profile object.
 */
ImportedSim importAnySim(const std::string &path);

/**
 * Build a WorkloadSim from an externally produced idle profile:
 *
 *   {"name": "measured-alu", "num_fus": 2,
 *    "active_cycles": 730000, "idle_cycles": 270000,
 *    "intervals": [[1, 41000], [2, 18000], [7, 9500]]}
 *
 * intervals are [length, count] pairs of the aggregate idle-interval
 * multiset (lengths strictly increasing). Only the idle profile — the
 * policy-evaluation sufficient statistic — is exact; timing stats
 * (IPC, cache rates) are absent from such measurements and stay
 * zero, and the Figure 7 histogram is reconstructed from the
 * aggregate multiset. Throws std::invalid_argument naming the
 * offending field.
 */
harness::WorkloadSim idleProfileSimFromJson(const JsonValue &v);

/** @} */

} // namespace lsim::store

#endif // LSIM_STORE_PROFILE_STORE_HH
