/**
 * @file
 * Exact binary serialization of simulation results.
 *
 * The paper's central observation makes a completed timing
 * simulation's IdleProfile a *sufficient statistic* for every
 * history-free sleep policy: its energy accounting at every
 * technology point is a pure function of the interval multiset.
 * It is not sufficient for a history-dependent policy such as
 * adaptive, whose EWMA needs each FU's idle runs in time order; the
 * profile holds no order, so replay feeds adaptive the lengths in
 * ascending order instead (ROADMAP item 1). Persisting the profile
 * lets unlimited future sweeps replay a simulation that ran once,
 * possibly in a different process — but only if the round trip is
 * *bit-exact*, because sweeps promise bit-identical results
 * regardless of where the phase-1 data came from.
 *
 * Hence this format:
 *  - integers are fixed-width little-endian;
 *  - doubles are written as their raw IEEE-754 bit patterns (never
 *    through text formatting, which rounds);
 *  - a format-version word gates readers: any mismatch rejects the
 *    payload rather than guessing at field layouts;
 *  - an FNV-1a checksum over the payload detects truncation and
 *    corruption, so a damaged cache entry is re-simulated, never
 *    trusted.
 *
 * Read failures throw StoreError (a user-environment problem, not a
 * simulator bug).
 */

#ifndef LSIM_STORE_SERIALIZE_HH
#define LSIM_STORE_SERIALIZE_HH

#include <cstdint>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>

#include "harness/experiment.hh"

namespace lsim::store
{

/** Malformed, truncated, or version-mismatched stored data. */
class StoreError : public std::runtime_error
{
  public:
    explicit StoreError(const std::string &message)
        : std::runtime_error(message)
    {
    }
};

/**
 * Version of the on-disk layout. Bump on ANY change to the
 * serialized field set or ordering; readers reject other versions
 * and the fingerprint mixes the version in, so stale cache entries
 * miss instead of parsing garbage.
 */
inline constexpr std::uint32_t kFormatVersion = 1;

/** 64-bit FNV-1a accumulator, used for checksums and cache keys. */
class Fnv1a
{
  public:
    void addByte(std::uint8_t byte)
    {
        hash_ ^= byte;
        hash_ *= 0x100000001b3ull;
    }

    void addU32(std::uint32_t v);
    void addU64(std::uint64_t v);
    /** Raw IEEE-754 bits, so -0.0 and 0.0 fingerprint differently. */
    void addDouble(double v);
    /** Length-prefixed, so ("ab","c") != ("a","bc"). */
    void addString(const std::string &text);

    std::uint64_t value() const { return hash_; }

    /** 16-digit lowercase hex of value(). */
    std::string hex() const;

  private:
    std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

/** Little-endian primitive emitter over a std::ostream. */
class BinaryWriter
{
  public:
    explicit BinaryWriter(std::ostream &os)
        : os_(os)
    {
    }

    void u8(std::uint8_t v);
    void u32(std::uint32_t v);
    void u64(std::uint64_t v);
    void f64(double v); ///< raw IEEE-754 bits
    void str(const std::string &text);

  private:
    std::ostream &os_;
};

/**
 * Checked little-endian reader: every primitive throws StoreError on
 * EOF, and vector counts are validated against the remaining input
 * size before allocation.
 */
class BinaryReader
{
  public:
    /** @param limit Total bytes available (for count sanity checks). */
    explicit BinaryReader(std::istream &is, std::uint64_t limit);

    std::uint8_t u8();
    std::uint32_t u32();
    std::uint64_t u64();
    double f64();
    std::string str();

    /**
     * Read an element count that precedes @p element_bytes-sized
     * records; throws when the count could not possibly fit in the
     * remaining input.
     */
    std::uint64_t count(std::uint64_t element_bytes);

    /** @return true when the whole input has been consumed. */
    bool exhausted();

  private:
    void need(std::uint64_t bytes);

    std::istream &is_;
    std::uint64_t remaining_;
};

/** @name WorkloadSim / IdleProfile payloads
 * The writers emit every field that feeds reporting (timing stats,
 * cache/bpred counters, FU utilizations, the idle-interval multiset
 * and the Figure 7 histogram); the readers reconstruct a WorkloadSim
 * whose serialized JSON/CSV output is byte-identical to the
 * original's. All functions handle payload bytes only — file
 * framing (magic, version, checksum) is ProfileStore's concern.
 * @{
 */
void writeIdleProfile(BinaryWriter &w, const harness::IdleProfile &p);
harness::IdleProfile readIdleProfile(BinaryReader &r);

void writeWorkloadSim(BinaryWriter &w, const harness::WorkloadSim &sim);
harness::WorkloadSim readWorkloadSim(BinaryReader &r);
/** @} */

} // namespace lsim::store

#endif // LSIM_STORE_SERIALIZE_HH
