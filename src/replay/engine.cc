#include "replay/engine.hh"

#include <stdexcept>
#include <utility>

#include "sleep/controllers.hh"
#include "sleep/policy_registry.hh"

namespace lsim::replay
{

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
    if (options.chunk_intervals != 0)
        throw std::invalid_argument(
            "MultiPointReplay: chunk_intervals must be 0; an interval "
            "stream is no longer sharded into chunks");

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

    // Gather units into one batch per policy kind — one SoA lane per
    // deduplicated configuration, so a single pass over the interval
    // arrays fills every technology point's accumulator for that
    // policy. Adaptive lanes batch one kernel block per group, and so
    // per task: a one-workload sweep spreads its lanes over the pool,
    // and only its last group holds a partial block (34 points make 3
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
                KernelGroup{kernels::KernelBatch(spec.kind), {}, {}});
            group = &groups_.back();
        }
        group->batch.addLane(spec);
        group->units.push_back(u);
    }
    for (KernelGroup &group : groups_)
        group.bank.resize(group.batch.lanes());
}

MultiPointReplay::MultiPointReplay(MultiPointReplay &&other) noexcept
    : intervals_(std::move(other.intervals_)),
      points_(std::move(other.points_)),
      policy_keys_(std::move(other.policy_keys_)),
      units_(std::move(other.units_)),
      unit_of_(std::move(other.unit_of_)),
      groups_(std::move(other.groups_)), finalized_(other.finalized_),
      moved_from_(other.moved_from_)
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
    KernelGroup &group = groups_.at(index);
    group.batch.run(intervals_, group.bank);
}

void
MultiPointReplay::runAll()
{
    assertUsable("runAll");
    for (std::size_t i = 0; i < groups_.size(); ++i)
        runTask(i);
}

std::vector<std::vector<sleep::PolicyResult>>
MultiPointReplay::finalize()
{
    assertUsable("finalize");
    if (finalized_)
        throw std::logic_error("MultiPointReplay::finalize: called twice");
    finalized_ = true;

    for (const KernelGroup &group : groups_)
        for (std::size_t lane = 0; lane < group.units.size(); ++lane)
            units_[group.units[lane]].counts = group.bank.counts(lane);

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
              const std::vector<std::string> &policy_keys)
{
    MultiPointReplay engine(IntervalSet::fromProfile(idle), points,
                            policy_keys);
    engine.runAll();
    return engine.finalize();
}

} // namespace lsim::replay
