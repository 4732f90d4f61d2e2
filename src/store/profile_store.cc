#include "store/profile_store.hh"

#include <fcntl.h>
#include <sys/stat.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "common/backoff.hh"
#include "common/fault.hh"
#include "common/files.hh"
#include "common/logging.hh"
#include "obs/metrics.hh"

namespace lsim::store
{

namespace fs = std::filesystem;

namespace
{

constexpr char kMagic[8] = {'L', 'S', 'I', 'M', 'P', 'R', 'O', 'F'};

/** Entry-write retry budget: transient failures (a brief ENOSPC, an
 * injected fault) resolve within a couple of short sleeps; anything
 * longer-lived degrades the instance instead of stalling sweeps. */
constexpr unsigned kSaveRetries = 2;
constexpr unsigned kSaveBackoffBaseMs = 1;

/** Largest single payload read: a real entry fits in one, and a
 * corrupt size field allocates at most this much past the file. */
constexpr std::size_t kReadChunk = std::size_t{1} << 20;

} // namespace

void
hashWorkloadProfile(Fnv1a &h, const trace::WorkloadProfile &p)
{
    h.addString(p.name);
    h.addString(p.suite);
    h.addDouble(p.frac_load);
    h.addDouble(p.frac_store);
    h.addDouble(p.frac_branch);
    h.addDouble(p.frac_mult);
    h.addDouble(p.frac_fp);
    h.addDouble(p.dep_density);
    h.addDouble(p.dep_distance_p);
    h.addU32(p.num_blocks);
    h.addDouble(p.branch_bias_strong);
    h.addDouble(p.noisy_taken_prob);
    h.addDouble(p.call_fraction);
    h.addU64(p.working_set);
    h.addDouble(p.local_frac);
    h.addDouble(p.stream_frac);
    h.addDouble(p.irregular_frac);
    h.addDouble(p.strong_taken_bias);
    h.addDouble(p.mean_loop_iters);
    // Table 3 metadata: paper_fus resolves the default FU count, so
    // it shapes the simulation; the reported-IPC fields and window
    // text are cosmetic but cheap to include and keep the rule
    // simple — EVERY profile field is part of the identity.
    h.addDouble(p.paper_max_ipc);
    h.addDouble(p.paper_ipc);
    h.addU32(p.paper_fus);
    h.addString(p.window);
}

void
hashCoreConfig(Fnv1a &h, const cpu::CoreConfig &c)
{
    h.addU32(c.fetch_width);
    h.addU32(c.decode_width);
    h.addU32(c.issue_width);
    h.addU32(c.fp_issue_width);
    h.addU32(c.commit_width);
    h.addU32(c.fetch_queue_entries);
    h.addU32(c.rob_entries);
    h.addU32(c.int_iq_entries);
    h.addU32(c.fp_iq_entries);
    h.addU32(c.int_phys_regs);
    h.addU32(c.fp_phys_regs);
    h.addU32(c.load_queue_entries);
    h.addU32(c.store_queue_entries);
    h.addU32(c.num_int_fus);
    h.addU32(c.num_fp_fus);
    h.addU32(c.dcache_ports);
    h.addU64(c.mispredict_penalty);
    h.addU64(c.btb_miss_penalty);

    const cpu::BpredConfig &b = c.bpred;
    h.addU32(b.bimodal_entries);
    h.addU32(b.hist_bits);
    h.addU32(b.gshare_entries);
    h.addU32(b.chooser_entries);
    h.addU32(b.ras_entries);
    h.addU32(b.btb_sets);
    h.addU32(b.btb_assoc);

    const auto hashCache = [&h](const cache::CacheConfig &cc) {
        h.addU64(cc.size_bytes);
        h.addU32(cc.assoc);
        h.addU32(cc.line_bytes);
        h.addU64(cc.hit_latency);
    };
    const auto hashTlb = [&h](const cache::TlbConfig &tc) {
        h.addU32(tc.entries);
        h.addU32(tc.assoc);
        h.addU64(tc.page_bytes);
        h.addU64(tc.miss_latency);
    };
    hashCache(c.mem.l1i);
    hashCache(c.mem.l1d);
    hashCache(c.mem.l2);
    hashTlb(c.mem.itlb);
    hashTlb(c.mem.dtlb);
    h.addU64(c.mem.memory_latency);
}

namespace
{

/** The characters a store key may hold. */
bool
isKeyChar(char ch)
{
    return (ch >= 'a' && ch <= 'z') || (ch >= 'A' && ch <= 'Z') ||
           (ch >= '0' && ch <= '9') || ch == '.' || ch == '_' ||
           ch == '-';
}

/** Keep keys filesystem-safe: [A-Za-z0-9._-], capped length. */
std::string
sanitizeName(const std::string &name)
{
    std::string out;
    for (char ch : name.substr(0, 48))
        out += isKeyChar(ch) ? ch : '_';
    return out.empty() ? std::string("profile") : out;
}

/** One path component of [A-Za-z0-9._-] that is not "." or "..":
 * a key that cannot name a file outside the store directory. */
bool
isValidKey(const std::string &key)
{
    return !key.empty() && key != "." && key != ".." &&
           std::all_of(key.begin(), key.end(), isKeyChar);
}

/** Serialize (key, sim) with framing into @p os. */
void
writeEntry(std::ostream &os, const std::string &key,
           const harness::WorkloadSim &sim)
{
    std::ostringstream payload_ss;
    BinaryWriter pw(payload_ss);
    pw.str(key);
    writeWorkloadSim(pw, sim);
    const std::string payload = payload_ss.str();

    Fnv1a checksum;
    for (char ch : payload)
        checksum.addByte(static_cast<std::uint8_t>(ch));

    os.write(kMagic, sizeof(kMagic));
    BinaryWriter w(os);
    w.u32(kFormatVersion);
    w.u64(checksum.value());
    w.u64(payload.size());
    os.write(payload.data(),
             static_cast<std::streamsize>(payload.size()));
}

/** Parse a framed entry from @p is (@p what names it in errors). */
ImportedSim
readEntry(std::istream &is, const std::string &what)
{
    char magic[sizeof(kMagic)] = {};
    is.read(magic, sizeof(magic));
    if (is.gcount() != sizeof(magic) ||
        !std::equal(magic, magic + sizeof(magic), kMagic))
        throw StoreError(what + ": not a profile store file "
                                "(bad magic)");

    // Framing fields are small; a generous limit suffices.
    BinaryReader header(is, 20);
    const std::uint32_t version = header.u32();
    if (version != kFormatVersion)
        throw StoreError(what + ": format version " +
                         std::to_string(version) + " (expected " +
                         std::to_string(kFormatVersion) + ")");
    const std::uint64_t checksum = header.u64();
    const std::uint64_t payload_size = header.u64();

    // The size field is outside the checksum, so it never sizes an
    // allocation by itself: the payload grows only as bytes arrive,
    // and a size beyond the end of the stream is a truncation.
    std::string payload;
    while (payload.size() < payload_size) {
        const std::size_t at = payload.size();
        const std::size_t n = static_cast<std::size_t>(
            std::min<std::uint64_t>(kReadChunk, payload_size - at));
        payload.resize(at + n);
        is.read(payload.data() + at, static_cast<std::streamsize>(n));
        if (static_cast<std::size_t>(is.gcount()) != n)
            throw StoreError(what + ": truncated or oversized payload");
    }
    if (is.peek() != std::char_traits<char>::eof())
        throw StoreError(what + ": truncated or oversized payload");

    Fnv1a actual;
    for (char ch : payload)
        actual.addByte(static_cast<std::uint8_t>(ch));
    if (actual.value() != checksum)
        throw StoreError(what + ": checksum mismatch (corrupted)");

    std::istringstream payload_is(payload);
    BinaryReader r(payload_is, payload_size);
    ImportedSim entry;
    entry.key = r.str();
    // Empty is "no key" (an export of a JSON import); anything else
    // becomes a path inside a store, so it must stay in it.
    if (!entry.key.empty() && !isValidKey(entry.key))
        throw StoreError(what + ": embedded key '" + entry.key +
                         "' is not a valid store key");
    entry.sim = readWorkloadSim(r);
    if (!r.exhausted())
        throw StoreError(what + ": trailing bytes after payload");
    return entry;
}

} // namespace

std::string
SimKey::fingerprint() const
{
    Fnv1a h;
    h.addU32(kFormatVersion);
    hashWorkloadProfile(h, profile);
    h.addU32(fus);
    h.addU64(insts);
    h.addU64(seed);
    hashCoreConfig(h, base);
    return sanitizeName(profile.name) + "-" + h.hex();
}

ProfileStore::ProfileStore(std::string dir)
    : dir_(std::move(dir))
{
    std::error_code ec;
    fs::create_directories(dir_, ec);
    if (ec || !fs::is_directory(dir_))
        throw std::invalid_argument("cache directory '" + dir_ +
                                    "' cannot be created");
}

std::string
ProfileStore::pathFor(const std::string &key) const
{
    return (fs::path(dir_) / (key + kExtension)).string();
}

std::optional<harness::WorkloadSim>
ProfileStore::loadEntry(const std::string &key, const char *what) const
{
    const std::string path = pathFor(key);
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return std::nullopt; // plain miss, not worth a warning
    try {
        if (LSIM_FAULT("store.read"))
            throw StoreError(path + ": injected read fault");
        ImportedSim entry = readEntry(in, path);
        if (entry.key != key)
            throw StoreError(path + ": embedded key '" + entry.key +
                             "' does not match its filename");
        return std::move(entry.sim);
    } catch (const StoreError &err) {
        warn("profile store: %s; re-simulating", err.what());
        quarantine(key, std::string("failed checksum/version on ") +
                            what);
        return std::nullopt;
    }
}

void
ProfileStore::quarantine(const std::string &key,
                         const std::string &why) const
{
    const fs::path dir = fs::path(dir_) / kQuarantineDir;
    std::error_code ec;
    fs::create_directories(dir, ec);
    if (!ec)
        fs::rename(pathFor(key), dir / (key + kExtension), ec);
    if (ec) {
        // Unmovable (read-only dir?): delete rather than leave a
        // poison pill that re-warns on every future hit.
        fs::remove(pathFor(key), ec);
    }
    obs::counter("store.quarantined").add();
    warn("profile store: quarantined entry '%s' (%s)", key.c_str(),
         why.c_str());
}

std::optional<harness::WorkloadSim>
ProfileStore::load(const std::string &key) const
{
    auto sim = loadEntry(key, "load");
    if (sim) {
        // A hit is a use: set the mtime to now so gc() never evicts
        // what a warm daemon is actively serving. Null times need
        // only write access; a read-only store just keeps its ages.
        (void)::utimensat(AT_FDCWD, pathFor(key).c_str(), nullptr, 0);
    }
    return sim;
}

void
ProfileStore::markDegraded(const std::string &why) const
{
    if (degraded_.exchange(true))
        return;
    obs::gauge("store.degraded").set(1);
    warn("profile store: %s; degrading '%s' to compute-without-"
         "cache (reads still served, writes disabled for this "
         "instance)",
         why.c_str(), dir_.c_str());
}

void
ProfileStore::save(const std::string &key,
                   const harness::WorkloadSim &sim) const
{
    if (degraded_.load(std::memory_order_relaxed))
        return; // compute-without-cache: the result is still used
    std::ostringstream ss;
    writeEntry(ss, key, sim);
    const std::string bytes = ss.str();
    bool written = false;
    Backoff backoff(kSaveRetries, kSaveBackoffBaseMs);
    for (;;) {
        if (!LSIM_FAULT("store.write") &&
            atomicWriteFile(pathFor(key), bytes)) {
            written = true;
            break;
        }
        if (!backoff.next())
            break;
        obs::counter("store.retries").add();
    }
    if (!written) {
        markDegraded("cannot write entry '" + key + "' after " +
                     std::to_string(kSaveRetries) + " retries");
    }
}

std::vector<StoreEntry>
ProfileStore::list() const
{
    std::vector<StoreEntry> out;
    for (const auto &de : fs::directory_iterator(dir_)) {
        if (!de.is_regular_file() ||
            de.path().extension() != kExtension)
            continue;
        const std::string key = de.path().stem().string();
        if (auto sim = loadEntry(key, "list"))
            out.push_back({key, std::move(*sim)});
    }
    std::sort(out.begin(), out.end(),
              [](const StoreEntry &a, const StoreEntry &b) {
                  return a.key < b.key;
              });
    return out;
}

bool
ProfileStore::remove(const std::string &key) const
{
    if (!isValidKey(key))
        throw StoreError("'" + key + "' is not a valid store key");
    std::error_code ec;
    return fs::remove(pathFor(key), ec) && !ec;
}

ProfileStore::GcStats
ProfileStore::gc(const GcOptions &options) const
{
    struct Candidate
    {
        fs::path path;
        fs::file_time_type mtime; ///< last save or load hit
        std::uint64_t bytes = 0;
    };
    std::vector<Candidate> entries;
    GcStats stats;
    for (const auto &de : fs::directory_iterator(dir_)) {
        if (!de.is_regular_file() ||
            de.path().extension() != kExtension)
            continue;
        Candidate c;
        c.path = de.path();
        std::error_code ec;
        c.mtime = fs::last_write_time(c.path, ec);
        if (!ec)
            c.bytes = fs::file_size(c.path, ec);
        if (ec) {
            // Age unknown is not "old": keep the entry and report
            // it rather than letting a default mtime make it first
            // in line for eviction.
            stats.stat_errors += 1;
            continue;
        }
        stats.scanned += 1;
        stats.bytes_before += c.bytes;
        entries.push_back(std::move(c));
    }
    std::sort(entries.begin(), entries.end(),
              [](const Candidate &a, const Candidate &b) {
                  return a.mtime < b.mtime; // coldest first
              });

    stats.bytes_after = stats.bytes_before;
    const auto now = fs::file_time_type::clock::now();
    const auto evict = [&](const Candidate &c) {
        std::error_code ec;
        const bool removed = fs::remove(c.path, ec);
        if (ec)
            return; // unremovable: conservatively keep counting it
        // Gone either way — we removed it, or a concurrent gc beat
        // us to it; only the former counts as our eviction, but the
        // bytes left the store in both cases.
        stats.bytes_after -= c.bytes;
        if (removed)
            stats.removed += 1;
    };
    std::size_t kept_from = 0;
    if (options.max_age_seconds) {
        while (kept_from < entries.size() &&
               std::chrono::duration<double>(
                   now - entries[kept_from].mtime)
                       .count() > *options.max_age_seconds) {
            evict(entries[kept_from]);
            ++kept_from;
        }
    }
    if (options.max_bytes) {
        while (kept_from < entries.size() &&
               stats.bytes_after > *options.max_bytes) {
            evict(entries[kept_from]);
            ++kept_from;
        }
    }
    return stats;
}

void
exportSim(const std::string &path, const std::string &key,
          const harness::WorkloadSim &sim)
{
    // Atomic like every other persisted artifact: an export landing
    // in a watched directory must never be readable half-written.
    std::ostringstream ss;
    writeEntry(ss, key, sim);
    if (LSIM_FAULT("store.export") ||
        !atomicWriteFile(path, ss.str()))
        throw StoreError("cannot write '" + path + "'");
}

ImportedSim
importSimFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw StoreError("cannot open '" + path + "'");
    return readEntry(in, path);
}

ImportedSim
importAnySim(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw StoreError("cannot open '" + path + "'");
    if (in.peek() == 'L')
        return importSimFile(path);

    // JSON idle profile.
    try {
        ImportedSim entry;
        entry.sim = idleProfileSimFromJson(parseJsonFile(path));
        return entry;
    } catch (const std::invalid_argument &err) {
        throw StoreError(std::string(err.what()));
    }
}

harness::WorkloadSim
idleProfileSimFromJson(const JsonValue &v)
{
    if (!v.isObject())
        throw std::invalid_argument(
            "idle profile: expected a JSON object");
    for (const auto &[key, value] : v.members()) {
        (void)value;
        if (key != "name" && key != "num_fus" &&
            key != "active_cycles" && key != "idle_cycles" &&
            key != "intervals")
            throw std::invalid_argument(
                "idle profile: unknown field '" + key + "'");
    }

    harness::WorkloadSim sim;
    sim.name = v.at("name").asString();
    if (sim.name.empty())
        throw std::invalid_argument("idle profile: 'name' is empty");

    harness::IdleProfile &idle = sim.idle;
    const std::uint64_t fus = v.at("num_fus").asU64();
    if (fus == 0 || fus > 1024)
        throw std::invalid_argument(
            "idle profile: 'num_fus' outside [1,1024]");
    idle.num_fus = static_cast<unsigned>(fus);
    sim.num_fus = idle.num_fus;
    idle.active_cycles = v.at("active_cycles").asU64();
    idle.idle_cycles = v.at("idle_cycles").asU64();

    Cycle prev = 0;
    Cycle interval_cycles = 0;
    for (const JsonValue &pair : v.at("intervals").items()) {
        if (!pair.isArray() || pair.items().size() != 2)
            throw std::invalid_argument(
                "idle profile: each 'intervals' entry must be a "
                "[length, count] pair");
        const Cycle len = pair.items()[0].asU64();
        const std::uint64_t count = pair.items()[1].asU64();
        if (len == 0 || count == 0)
            throw std::invalid_argument(
                "idle profile: 'intervals' lengths and counts must "
                "be positive");
        if (len <= prev)
            throw std::invalid_argument(
                "idle profile: 'intervals' lengths must be strictly "
                "increasing");
        prev = len;
        // Guard the consistency sum itself: wrapped arithmetic
        // would both falsely reject huge legitimate profiles and
        // accept crafted inconsistent ones.
        if (count > (std::numeric_limits<Cycle>::max() -
                     interval_cycles) / len)
            throw std::invalid_argument(
                "idle profile: 'intervals' cycle total overflows");
        interval_cycles += len * count;
        idle.intervals.emplace_hint(idle.intervals.end(), len,
                                    count);
    }
    if (interval_cycles != idle.idle_cycles)
        throw std::invalid_argument(
            "idle profile: 'intervals' cover " +
            std::to_string(interval_cycles) +
            " cycles but 'idle_cycles' is " +
            std::to_string(idle.idle_cycles));

    // Approximate the Figure 7 histogram from the aggregate
    // multiset: each interval's total cycles as a fraction of all
    // FU-cycles (per-FU weighting is unavailable post-aggregation).
    if (idle.totalCycles() > 0) {
        const double total =
            static_cast<double>(idle.totalCycles());
        for (const auto &[len, count] : idle.intervals)
            sim.idle_hist.sample(
                len, static_cast<double>(len) *
                         static_cast<double>(count) / total);
    }
    return sim;
}

} // namespace lsim::store
