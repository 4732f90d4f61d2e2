/**
 * @file
 * Synthetic program generator.
 *
 * At construction a WorkloadProfile is expanded into a static
 * program: a basic-block graph whose blocks carry concrete static
 * instructions (op class, register operands, per-site memory access
 * pattern) and terminators (branch with a per-site taken bias, call,
 * or return). next() then walks the graph, resolving branch outcomes
 * and memory addresses, and emits a pre-executed dynamic MicroOp
 * stream — the moral equivalent of a SimpleScalar functional-mode
 * trace for a program with the profile's statistics.
 *
 * Register convention: integer logical registers are encoded 0..31,
 * floating point registers 32..63. Registers 0..7 (and 32..39) act
 * as long-lived "global" values; destinations are drawn from the
 * remaining registers.
 */

#ifndef LSIM_TRACE_GENERATOR_HH
#define LSIM_TRACE_GENERATOR_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/logging.hh"
#include "common/random.hh"
#include "common/types.hh"
#include "trace/op.hh"
#include "trace/profile.hh"

namespace lsim::trace
{

/** Base virtual address of the synthetic code region. */
inline constexpr Addr kCodeBase = 0x0040'0000;

/** Base virtual address of the synthetic data region. */
inline constexpr Addr kDataBase = 0x1000'0000;

/** Base virtual address of the synthetic stack/locals region. */
inline constexpr Addr kStackBase = 0x7fff'0000;

/** Deterministic dynamic instruction source. */
class TraceGenerator
{
  public:
    /**
     * @param profile Workload description (validated).
     * @param seed PRNG seed; identical (profile, seed) pairs yield
     *        identical dynamic streams.
     */
    explicit TraceGenerator(const WorkloadProfile &profile,
                            std::uint64_t seed = 1);

    /** Generate the next dynamic instruction. */
    MicroOp next();

    /** Dynamic instructions generated so far. */
    std::uint64_t icount() const { return icount_; }

    /** Static instruction footprint in bytes (code size). */
    Addr codeFootprint() const { return code_bytes_; }

    /** Number of static instructions (bodies + terminators). */
    std::uint64_t numStaticInsts() const { return num_static_; }

    const WorkloadProfile &profile() const { return profile_; }

  private:
    /** Memory access pattern categories (see WorkloadProfile docs). */
    enum class SiteKind : std::uint8_t
    {
        Local,     ///< stack/locals: tiny shared hot region
        Resident,  ///< small-stride sweep of a cache-resident region
        Streaming, ///< line-stride sweep of a large slice
        Irregular, ///< random within the working set
    };

    /** Per-static-site memory access pattern state. */
    struct MemSite
    {
        SiteKind kind;
        Addr base;    ///< region base address
        Addr region;  ///< region size, bytes
        Addr stride;  ///< advance per access (strided sites)
        Addr pos;     ///< current offset within region
    };

    /** One static (non-terminator) instruction. */
    struct StaticInst
    {
        OpClass cls;
        std::int16_t dst;
        std::int16_t src1;
        std::int16_t src2;
        std::int32_t mem_site; ///< index into mem_sites_, or -1
    };

    /** A basic block: straight-line body plus one terminator. */
    struct Block
    {
        Addr pc;                        ///< address of first body inst
        std::uint32_t first_inst;       ///< index into insts_
        std::uint32_t num_insts;        ///< body length
        OpClass term_cls;               ///< Branch, Call, or Return
        std::int16_t term_src;          ///< terminator source register
        double taken_prob;              ///< branch taken bias
        std::uint32_t taken_succ;       ///< successor when taken
        std::uint32_t fall_succ;        ///< fall-through successor
        std::uint32_t call_target;      ///< callee block (calls)

        Addr termPc() const { return pc + Addr{4} * num_insts; }
    };

    /** A shared data region (arrays are traversed from many sites). */
    struct Region
    {
        Addr base;
        Addr size;
    };

    void buildProgram();
    void buildRegionPools();
    StaticInst makeStaticInst(OpClass cls);

    /**
     * Largest-remainder apportionment over categories: returns the
     * category whose assigned share lags its target fraction the
     * most. Deterministic striping keeps every dynamically hot
     * region of the program representative of the profile's
     * fractions, which makes run statistics stable across seeds
     * (independent per-site coin flips made hot loops lottery
     * draws).
     */
    static std::size_t apportion(const double *fracs, std::size_t n,
                                 std::vector<double> &assigned);
    std::int16_t pickSource(bool fp);
    std::int16_t pickDest(bool fp);
    MemSite makeMemSite();
    Addr nextAddress(MemSite &site);
    OpClass drawBodyClass();

    WorkloadProfile profile_;
    Rng rng_;
    /** Static distance from a source to its producer. */
    GeometricSampler dep_distance_;

    /** Shared array regions for resident and streaming sites. */
    std::vector<Region> resident_pool_;
    std::vector<Region> stream_pool_;

    /** Apportionment state for memory site categories. */
    std::vector<double> mem_assigned_;
    /** Apportionment state for branch site categories. */
    std::vector<double> branch_assigned_;
    /** Apportionment state for call/branch terminator choice. */
    std::vector<double> call_assigned_;

    std::vector<StaticInst> insts_;
    std::vector<MemSite> mem_sites_;
    std::vector<Block> blocks_;
    std::uint32_t num_normal_ = 0; ///< blocks [0, num_normal_) normal
    Addr code_bytes_ = 0;
    std::uint64_t num_static_ = 0;

    /**
     * Recent destination registers in static generation order, used
     * to synthesize dependencies at geometric distances.
     */
    std::vector<std::int16_t> recent_int_;
    std::vector<std::int16_t> recent_fp_;

    // Dynamic walk state.
    std::uint32_t cur_block_ = 0;
    std::uint32_t cursor_ = 0;
    std::vector<std::uint32_t> call_stack_;
    std::uint64_t icount_ = 0;

    static constexpr std::size_t kMaxCallDepth = 64;
};

// The dynamic walk is defined here so that the core's fetch stage
// inlines it.

inline Addr
TraceGenerator::nextAddress(MemSite &site)
{
    switch (site.kind) {
      case SiteKind::Local:
      case SiteKind::Resident:
      case SiteKind::Streaming:
        site.pos = (site.pos + site.stride) % site.region;
        return site.base + site.pos;
      case SiteKind::Irregular: {
        const Addr hot = std::max(site.region / 8, Addr{4096});
        const Addr span = rng_.chance(0.8) ? hot : site.region;
        return site.base + (rng_.below(span) & ~Addr{3});
      }
    }
    panic("bad SiteKind");
}

inline MicroOp
TraceGenerator::next()
{
    ++icount_;
    const Block &blk = blocks_[cur_block_];
    MicroOp op{};

    if (cursor_ < blk.num_insts) {
        const StaticInst &si = insts_[blk.first_inst + cursor_];
        op.pc = blk.pc + Addr{4} * cursor_;
        op.cls = si.cls;
        op.dst = si.dst;
        op.src1 = si.src1;
        op.src2 = si.src2;
        if (si.mem_site >= 0)
            op.mem_addr = nextAddress(mem_sites_[si.mem_site]);
        ++cursor_;
        return op;
    }

    // Terminator.
    op.pc = blk.termPc();
    op.cls = blk.term_cls;
    op.src1 = blk.term_src;
    op.dst = kNoReg;

    std::uint32_t next_block;
    switch (blk.term_cls) {
      case OpClass::Branch:
        op.taken = rng_.chance(blk.taken_prob);
        next_block = op.taken ? blk.taken_succ : blk.fall_succ;
        op.target = blocks_[blk.taken_succ].pc;
        break;
      case OpClass::Call:
        op.taken = true;
        op.target = blocks_[blk.call_target].pc;
        next_block = blk.call_target;
        if (call_stack_.size() < kMaxCallDepth)
            call_stack_.push_back(blk.fall_succ);
        break;
      case OpClass::Return:
        op.taken = true;
        if (!call_stack_.empty()) {
            next_block = call_stack_.back();
            call_stack_.pop_back();
        } else {
            next_block = 0;
        }
        op.target = blocks_[next_block].pc;
        break;
      default:
        panic("block %u has non-control terminator", cur_block_);
    }

    cur_block_ = next_block;
    cursor_ = 0;
    return op;
}

} // namespace lsim::trace

#endif // LSIM_TRACE_GENERATOR_HH
