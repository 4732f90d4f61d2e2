#include "replay/engine.hh"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "common/stats.hh"
#include "sleep/controllers.hh"
#include "sleep/policy_registry.hh"

namespace lsim::replay
{

namespace
{

/** Clamp matching the Log2Histogram default the profiles use. */
constexpr Cycle kBucketClamp = 8192;

/**
 * Chunk boundaries over the sorted distinct-length array: contiguous
 * ranges of at most @p max_per_chunk lengths, snapped to
 * Log2Histogram bucket edges where possible (a bucket bigger than
 * the chunk size is split plainly). Always yields at least one
 * chunk, even for an empty set — no divisions are involved, so
 * empty-histogram cells cannot divide by zero here.
 */
std::vector<std::size_t>
chunkBounds(const IntervalSet &intervals, std::size_t max_per_chunk)
{
    const std::size_t n = intervals.numDistinct();
    std::vector<std::size_t> bounds{0};
    if (max_per_chunk == 0 || max_per_chunk >= n) {
        bounds.push_back(n);
        return bounds;
    }

    // Bucket edges: indices where floorLog2(min(len, clamp)) steps.
    std::vector<std::size_t> edges;
    int last_bucket = -1;
    for (std::size_t i = 0; i < n; ++i) {
        const int b = stats::floorLog2(
            std::min(intervals.lengths[i], kBucketClamp));
        if (b != last_bucket) {
            edges.push_back(i);
            last_bucket = b;
        }
    }
    edges.push_back(n);

    std::size_t start = 0;
    for (std::size_t e = 1; e < edges.size(); ++e) {
        const std::size_t bucket_begin = edges[e - 1];
        const std::size_t bucket_end = edges[e];
        if (bucket_end - start <= max_per_chunk)
            continue; // bucket still fits in the open chunk
        // Close the open chunk at the bucket edge when it is
        // non-empty, then split any oversized bucket plainly.
        if (bucket_begin > start) {
            bounds.push_back(bucket_begin);
            start = bucket_begin;
        }
        while (bucket_end - start > max_per_chunk) {
            start += max_per_chunk;
            bounds.push_back(start);
        }
    }
    if (bounds.back() != n)
        bounds.push_back(n);
    return bounds;
}

} // namespace

IntervalSet
IntervalSet::fromProfile(const harness::IdleProfile &idle)
{
    IntervalSet set;
    set.active_cycles = idle.active_cycles;
    set.lengths.reserve(idle.intervals.size());
    set.counts.reserve(idle.intervals.size());
    // std::map iterates keys ascending — the same order the scalar
    // path feeds controllers, which the equivalence contract needs.
    for (const auto &[len, count] : idle.intervals) {
        if (len == 0 || count == 0)
            continue; // PolicyEvaluator::feedRuns drops these too
        set.lengths.push_back(len);
        set.counts.push_back(count);
        set.idle_cycles += len * count;
    }
    return set;
}

MultiPointReplay::MultiPointReplay(
    IntervalSet intervals, std::vector<energy::ModelParams> points,
    std::vector<std::string> policy_keys, ReplayOptions options)
    : intervals_(std::move(intervals)), points_(std::move(points)),
      policy_keys_(policy_keys.empty()
                       ? sleep::PolicyRegistry::paperSpecs()
                       : std::move(policy_keys))
{
    const std::size_t num_policies = policy_keys_.size();
    unit_of_.resize(points_.size() * num_policies);

    // Resolve each spec once (parse + registry lookup), then take
    // one KernelSpec per (point, policy), deduplicating accumulator
    // units by structural configuration: the per-interval accounting
    // of a point-invariant policy is computed once and fanned out to
    // every consuming (point, policy) slot at finalize() time.
    std::vector<sleep::PolicyRegistry::ResolvedSpec> resolved;
    resolved.reserve(num_policies);
    for (const auto &key : policy_keys_)
        resolved.push_back(
            sleep::PolicyRegistry::instance().resolve(key));

    for (std::size_t t = 0; t < points_.size(); ++t) {
        for (std::size_t k = 0; k < num_policies; ++k) {
            // Equal specs accumulate bit-identical counts.
            sleep::KernelSpec spec = resolved[k].spec(points_[t]);
            std::size_t unit = 0;
            while (unit < units_.size() && units_[unit].spec != spec)
                ++unit;
            if (unit == units_.size()) {
                // One controller per unit names it (and refuses
                // parameters the policy cannot take).
                std::string name = spec.makeController()->name();
                units_.push_back(
                    Unit{std::move(spec), std::move(name), {}});
            }
            unit_of_[t * num_policies + k] = unit;
        }
    }

    std::size_t chunk_intervals = options.chunk_intervals;
    if (chunk_intervals == 0)
        chunk_intervals =
            intervals_.numDistinct() >=
                    ReplayOptions::auto_shard_threshold
                ? ReplayOptions::auto_chunk_intervals
                : intervals_.numDistinct();
    chunk_bounds_ = chunkBounds(intervals_, chunk_intervals);
    num_chunks_ = chunk_bounds_.size() - 1;

    // Gather units into one batch per policy kind — one SoA lane per
    // deduplicated configuration, so a single pass over the interval
    // arrays fills every technology point's accumulator for that
    // policy. Adaptive lanes each walk the whole stream and never
    // shard, so they batch one kernel block per group, and so per
    // task: a one-workload sweep spreads its lanes over the pool, and
    // only its last group holds a partial block (34 points make 3
    // groups of up to 16 at 512 bits).
    const std::size_t adaptive_lanes = kernels::adaptiveBlockLanes();
    for (std::size_t u = 0; u < units_.size(); ++u) {
        const sleep::KernelSpec &spec = units_[u].spec;
        KernelGroup *group = nullptr;
        for (auto &g : groups_)
            if (g.batch.kind() == spec.kind &&
                (spec.historyFree() || g.batch.lanes() < adaptive_lanes))
                group = &g;
        if (!group) {
            groups_.push_back(
                KernelGroup{kernels::KernelBatch(spec.kind), {}, {}, {}});
            group = &groups_.back();
        }
        group->batch.addLane(spec);
        group->units.push_back(u);
    }

    // Schedulable tasks: one per (group, chunk) for history-free
    // groups, and one whole-stream task for every Adaptive group.
    for (std::size_t g = 0; g < groups_.size(); ++g) {
        const std::size_t first_unit = groups_[g].units.front();
        if (num_chunks_ > 1 && units_[first_unit].spec.historyFree()) {
            groups_[g].partial_banks.resize(num_chunks_);
            for (std::size_t c = 0; c < num_chunks_; ++c) {
                groups_[g].partial_banks[c].resize(
                    groups_[g].batch.lanes());
                tasks_.push_back({g, c});
            }
        } else {
            groups_[g].bank.resize(groups_[g].batch.lanes());
            tasks_.push_back({g, Task::npos});
        }
    }
}

MultiPointReplay::MultiPointReplay(MultiPointReplay &&other) noexcept
    : intervals_(std::move(other.intervals_)),
      points_(std::move(other.points_)),
      policy_keys_(std::move(other.policy_keys_)),
      units_(std::move(other.units_)),
      unit_of_(std::move(other.unit_of_)),
      groups_(std::move(other.groups_)),
      chunk_bounds_(std::move(other.chunk_bounds_)),
      num_chunks_(other.num_chunks_), tasks_(std::move(other.tasks_)),
      finalized_(other.finalized_), moved_from_(other.moved_from_)
{
    other.moved_from_ = true;
}

MultiPointReplay &
MultiPointReplay::operator=(MultiPointReplay &&other) noexcept
{
    if (this == &other)
        return *this;
    intervals_ = std::move(other.intervals_);
    points_ = std::move(other.points_);
    policy_keys_ = std::move(other.policy_keys_);
    units_ = std::move(other.units_);
    unit_of_ = std::move(other.unit_of_);
    groups_ = std::move(other.groups_);
    chunk_bounds_ = std::move(other.chunk_bounds_);
    num_chunks_ = other.num_chunks_;
    tasks_ = std::move(other.tasks_);
    finalized_ = other.finalized_;
    moved_from_ = other.moved_from_;
    other.moved_from_ = true;
    return *this;
}

void
MultiPointReplay::assertUsable(const char *call) const
{
    if (moved_from_)
        throw std::logic_error("MultiPointReplay::" + std::string(call) +
                               ": engine was moved from");
}

void
MultiPointReplay::runTask(std::size_t index)
{
    assertUsable("runTask");
    const Task task = tasks_.at(index);
    KernelGroup &group = groups_[task.group];
    if (task.chunk == Task::npos) {
        group.batch.run(intervals_, 0, intervals_.numDistinct(), true,
                        group.bank);
        return;
    }
    // The activeRun prefix belongs to chunk 0 so the merged total
    // matches the sequential accounting.
    group.batch.run(intervals_, chunk_bounds_[task.chunk],
                    chunk_bounds_[task.chunk + 1], task.chunk == 0,
                    group.partial_banks[task.chunk]);
}

void
MultiPointReplay::runAll()
{
    assertUsable("runAll");
    for (std::size_t i = 0; i < tasks_.size(); ++i)
        runTask(i);
}

std::vector<std::vector<sleep::PolicyResult>>
MultiPointReplay::finalize()
{
    assertUsable("finalize");
    if (finalized_)
        throw std::logic_error("MultiPointReplay::finalize: called twice");
    finalized_ = true;

    // Merge partial banks in chunk order: deterministic for any
    // thread assignment (though the reduction order differs from the
    // unsharded sequential accumulation).
    for (const KernelGroup &group : groups_) {
        for (std::size_t lane = 0; lane < group.units.size();
             ++lane) {
            Unit &unit = units_[group.units[lane]];
            if (group.partial_banks.empty()) {
                unit.counts = group.bank.counts(lane);
                continue;
            }
            for (const auto &bank : group.partial_banks)
                unit.counts += bank.counts(lane);
        }
    }

    // Per-point results in the exact arithmetic of
    // PolicyEvaluator::results().
    const auto total = static_cast<double>(intervals_.totalCycles());
    std::vector<std::vector<sleep::PolicyResult>> results;
    results.reserve(points_.size());
    for (std::size_t t = 0; t < points_.size(); ++t) {
        const energy::EnergyModel model(points_[t]);
        const double base = model.activeCycleEnergy() * total;
        std::vector<sleep::PolicyResult> at_point;
        at_point.reserve(policy_keys_.size());
        for (std::size_t k = 0; k < policy_keys_.size(); ++k) {
            const Unit &unit =
                units_[unit_of_[t * policy_keys_.size() + k]];
            sleep::PolicyResult r;
            r.name = unit.name;
            r.counts = unit.counts;
            r.breakdown = model.breakdown(r.counts);
            r.energy = r.breakdown.total();
            r.relative_to_base = base > 0.0 ? r.energy / base : 0.0;
            r.leakage_fraction = r.breakdown.leakageFraction();
            at_point.push_back(std::move(r));
        }
        results.push_back(std::move(at_point));
    }
    return results;
}

std::vector<std::vector<sleep::PolicyResult>>
replayProfile(const harness::IdleProfile &idle,
              const std::vector<energy::ModelParams> &points,
              const std::vector<std::string> &policy_keys,
              ReplayOptions options)
{
    MultiPointReplay engine(IntervalSet::fromProfile(idle), points,
                            policy_keys, options);
    engine.runAll();
    return engine.finalize();
}

} // namespace lsim::replay
