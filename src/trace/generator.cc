#include "trace/generator.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace lsim::trace
{

TraceGenerator::TraceGenerator(const WorkloadProfile &profile,
                               std::uint64_t seed)
    : profile_(profile), rng_(seed ^ 0xa5a5'5a5a'1234'9876ull),
      dep_distance_(profile_.dep_distance_p)
{
    profile_.validate();
    buildProgram();
}

TraceGenerator::StaticInst
TraceGenerator::makeStaticInst(OpClass cls)
{
    StaticInst si{};
    si.cls = cls;
    si.mem_site = -1;
    const bool fp = isFpClass(cls);
    switch (cls) {
      case OpClass::Load:
        si.dst = pickDest(false);
        si.src1 = pickSource(false); // address base register
        si.src2 = kNoReg;
        si.mem_site = static_cast<std::int32_t>(mem_sites_.size());
        mem_sites_.push_back(makeMemSite());
        break;
      case OpClass::Store:
        si.dst = kNoReg;
        si.src1 = pickSource(false); // address base register
        si.src2 = pickSource(false); // data register
        si.mem_site = static_cast<std::int32_t>(mem_sites_.size());
        mem_sites_.push_back(makeMemSite());
        break;
      default:
        si.dst = pickDest(fp);
        si.src1 = pickSource(fp);
        si.src2 = pickSource(fp);
        break;
    }
    if (si.dst != kNoReg) {
        auto &recent = fp ? recent_fp_ : recent_int_;
        recent.push_back(si.dst);
    }
    return si;
}

std::int16_t
TraceGenerator::pickSource(bool fp)
{
    auto &recent = fp ? recent_fp_ : recent_int_;
    const std::int16_t file_base = fp ? kNumLogicalRegs : 0;
    if (!recent.empty() && rng_.chance(profile_.dep_density)) {
        // Producer at a geometric static distance: larger
        // dep_distance_p means closer producers (tighter chains).
        const std::uint64_t dist = dep_distance_.draw(rng_);
        const std::size_t idx =
            recent.size() >= dist ? recent.size() - dist : 0;
        return recent[idx];
    }
    // Long-lived global value.
    return file_base + static_cast<std::int16_t>(rng_.below(8));
}

std::int16_t
TraceGenerator::pickDest(bool fp)
{
    const std::int16_t file_base = fp ? kNumLogicalRegs : 0;
    // Destinations come from the non-global registers 8..31.
    return file_base + 8 + static_cast<std::int16_t>(rng_.below(24));
}

void
TraceGenerator::buildRegionPools()
{
    const Addr ws = profile_.working_set;
    // A handful of shared arrays: many static sites traverse the
    // same data, as in real programs. Pool footprint stays well
    // inside the working set.
    const unsigned n_res = 8;
    for (unsigned i = 0; i < n_res; ++i) {
        Region r;
        r.size = Addr{4096} << rng_.below(2); // 4-8 KB
        r.base = kDataBase + rng_.below(ws / 4096) * 4096 % ws;
        resident_pool_.push_back(r);
    }
    const unsigned n_stream = 4;
    for (unsigned i = 0; i < n_stream; ++i) {
        Region r;
        r.size = std::clamp(ws / 4, Addr{64 * 1024}, ws);
        r.base = kDataBase + rng_.below(ws / 4096) * 4096 % ws;
        stream_pool_.push_back(r);
    }
}

std::size_t
TraceGenerator::apportion(const double *fracs, std::size_t n,
                          std::vector<double> &assigned)
{
    if (assigned.size() != n)
        assigned.assign(n, 0.0);
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i)
        total += assigned[i];
    std::size_t best = 0;
    double best_deficit = -1e300;
    for (std::size_t i = 0; i < n; ++i) {
        const double deficit = fracs[i] * (total + 1.0) - assigned[i];
        if (deficit > best_deficit) {
            best_deficit = deficit;
            best = i;
        }
    }
    assigned[best] += 1.0;
    return best;
}

TraceGenerator::MemSite
TraceGenerator::makeMemSite()
{
    MemSite site{};
    const Addr ws = profile_.working_set;
    const double fracs[4] = {
        profile_.local_frac,
        profile_.stream_frac,
        profile_.irregular_frac,
        1.0 - profile_.local_frac - profile_.stream_frac -
            profile_.irregular_frac,
    };
    const std::size_t kind = apportion(fracs, 4, mem_assigned_);
    if (kind == 0) {
        // Stack/locals: a 256-byte window within a shared 16 KB
        // stack frame region — spills and locals that essentially
        // always hit the L1.
        site.kind = SiteKind::Local;
        site.region = 256;
        site.base = kStackBase + rng_.below(16 * 1024 / 256) * 256;
        site.stride = 8;
        site.pos = 0;
    } else if (kind == 1) {
        // Streaming sweep: full-line stride over a large shared
        // slice; every access touches a new line (misses L1,
        // L2-resident while the slice fits the L2).
        const Region &r = stream_pool_[rng_.below(stream_pool_.size())];
        site.kind = SiteKind::Streaming;
        site.stride = 64;
        site.region = r.size;
        site.base = r.base;
        site.pos = rng_.below(site.region) & ~Addr{63};
    } else if (kind == 2) {
        // Irregular site: most accesses fall in a hot eighth of the
        // working set, the rest anywhere (pointer-chasing-like).
        site.kind = SiteKind::Irregular;
        site.stride = 0;
        site.region = ws;
        site.base = kDataBase;
        site.pos = 0;
    } else {
        // Cache-resident small-stride sweep of a shared small array.
        const Region &r =
            resident_pool_[rng_.below(resident_pool_.size())];
        site.kind = SiteKind::Resident;
        static constexpr Addr kStrides[] = {4, 8, 8, 16};
        site.stride = kStrides[rng_.below(std::size(kStrides))];
        site.region = r.size;
        site.base = r.base;
        site.pos = rng_.below(site.region) & ~Addr{3};
    }
    return site;
}

OpClass
TraceGenerator::drawBodyClass()
{
    // Body mix excludes control classes (the terminator supplies the
    // branch fraction); renormalize the remaining fractions.
    const double denom = 1.0 - profile_.frac_branch;
    double u = rng_.uniform() * denom;
    if ((u -= profile_.frac_load) < 0)
        return OpClass::Load;
    if ((u -= profile_.frac_store) < 0)
        return OpClass::Store;
    if ((u -= profile_.frac_mult) < 0)
        return OpClass::IntMult;
    if ((u -= profile_.frac_fp) < 0)
        return rng_.chance(0.5) ? OpClass::FpAlu : OpClass::FpMult;
    return OpClass::IntAlu;
}

void
TraceGenerator::buildProgram()
{
    buildRegionPools();
    const unsigned total = profile_.num_blocks;
    // Function-entry blocks live at the top of the index space and
    // are reachable only through calls; they end in Return.
    const unsigned funcs = std::max(1u,
        static_cast<unsigned>(total * profile_.call_fraction));
    num_normal_ = total - funcs;
    if (num_normal_ < 2)
        fatal("profile %s: too few normal blocks (%u)",
              profile_.name.c_str(), num_normal_);

    // Mean body length so that terminators make up frac_branch of
    // the dynamic stream: B = (1 - f) / f.
    const double mean_len =
        (1.0 - profile_.frac_branch) / profile_.frac_branch;
    const GeometricSampler body_len(1.0 / std::max(1.0, mean_len));

    // Reserve twice the expected program, so that the lists are
    // built without reallocating: the clamped body lengths average at
    // most mean_len, the body mix shares them out, and validate()
    // bounds total * mean_len. Twice rather than just above the
    // expectation keeps the largest block at the size that doubling
    // growth reached: glibc sets its mmap and trim thresholds from
    // the largest block freed, and later requests in the same
    // process run under them.
    const double body_mix = 1.0 - profile_.frac_branch;
    const auto reserve = [&](auto &list, double share) {
        list.reserve(
            static_cast<std::size_t>(2.0 * total * mean_len * share) +
            64);
    };
    reserve(insts_, 1.0);
    reserve(mem_sites_,
            (profile_.frac_load + profile_.frac_store) / body_mix);
    reserve(recent_int_, (body_mix - profile_.frac_store -
                          profile_.frac_fp) / body_mix);
    reserve(recent_fp_, profile_.frac_fp / body_mix);

    // First pass: block bodies and addresses.
    blocks_.resize(total);
    Addr pc = kCodeBase;
    for (unsigned b = 0; b < total; ++b) {
        Block &blk = blocks_[b];
        blk.pc = pc;
        blk.first_inst = static_cast<std::uint32_t>(insts_.size());
        const auto len = static_cast<std::uint32_t>(std::min<Cycle>(
            body_len.draw(rng_), static_cast<Cycle>(4 * mean_len) + 1));
        for (std::uint32_t i = 0; i < len; ++i)
            insts_.push_back(makeStaticInst(drawBodyClass()));
        blk.num_insts = len;
        pc += Addr{4} * (len + 1); // body + terminator
    }

    // Second pass: organize the normal blocks into loop nests. Each
    // nest is a contiguous run of 1-8 blocks whose last block loops
    // back to the nest head with probability 1 - 1/mean_loop_iters;
    // internal branches stay inside the nest. The program thus walks
    // nest by nest through its whole footprint, iterating each —
    // execution is spread deterministically (stable statistics)
    // while staying loop-structured (realistic predictor and cache
    // behavior).
    const double p_loop = 1.0 - 1.0 / profile_.mean_loop_iters;
    unsigned b = 0;
    while (b < num_normal_) {
        const unsigned nest_size = 1 +
            static_cast<unsigned>(rng_.below(8));
        const unsigned s = b;
        const unsigned e =
            std::min(s + nest_size, num_normal_) - 1;
        for (unsigned i = s; i <= e; ++i) {
            Block &blk = blocks_[i];
            blk.term_src = pickSource(false);
            blk.fall_succ = (i + 1) % num_normal_;
            blk.call_target = 0;
            const double cfracs[2] = {
                profile_.call_fraction,
                1.0 - profile_.call_fraction,
            };
            if (i == e) {
                // Loop-back branch: strongly taken until exit.
                blk.term_cls = OpClass::Branch;
                blk.taken_succ = s;
                blk.taken_prob = p_loop;
            } else if (apportion(cfracs, 2, call_assigned_) == 0) {
                blk.term_cls = OpClass::Call;
                blk.taken_prob = 1.0;
                blk.call_target = num_normal_ +
                    static_cast<std::uint32_t>(rng_.below(funcs));
                blk.taken_succ = blk.call_target;
            } else {
                // Internal branch within the nest: forward-only
                // (like compiler-emitted if/else skips), so only the
                // loop-back edge creates repetition and no seed can
                // produce a pathological inner trap. Strong/noisy
                // categories are striped so every nest carries a
                // representative mix; strong forward branches are
                // rarely taken.
                blk.term_cls = OpClass::Branch;
                const double bfracs[2] = {
                    profile_.branch_bias_strong,
                    1.0 - profile_.branch_bias_strong,
                };
                if (apportion(bfracs, 2, branch_assigned_) == 0)
                    blk.taken_prob = 1.0 - profile_.strong_taken_bias;
                else
                    blk.taken_prob = profile_.noisy_taken_prob;
                blk.taken_succ = static_cast<std::uint32_t>(
                    i + 1 + rng_.below(e - i));
            }
        }
        b = e + 1;
    }

    // Function blocks end in Return.
    for (unsigned f = num_normal_; f < total; ++f) {
        Block &blk = blocks_[f];
        blk.term_cls = OpClass::Return;
        blk.term_src = pickSource(false);
        blk.taken_prob = 1.0;
        blk.taken_succ = 0; // actual target comes from the stack
        blk.fall_succ = 0;
        blk.call_target = 0;
    }
    code_bytes_ = pc - kCodeBase;
    num_static_ = insts_.size() + blocks_.size();
    cur_block_ = 0;
    cursor_ = 0;
}

} // namespace lsim::trace
