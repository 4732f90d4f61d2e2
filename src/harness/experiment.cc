#include "harness/experiment.hh"

#include <algorithm>
#include <iterator>

#include "common/logging.hh"
#include "obs/metrics.hh"
#include "trace/generator.hh"

namespace lsim::harness
{

namespace
{

/** Make one finished O3 run's work visible in the metrics
 * registry. */
void
countCoreRun(const cpu::O3Core &core, const cpu::SimResult &res)
{
    static obs::Counter &runs = obs::counter("sim.core_runs");
    static obs::Counter &insts = obs::counter("sim.insts");
    static obs::Counter &cycles = obs::counter("sim.cycles");
    static obs::Counter &skipped = obs::counter("sim.cycles_skipped");
    runs.add();
    insts.add(res.committed);
    cycles.add(res.cycles);
    skipped.add(core.cyclesSkipped());
}

} // namespace

double
IdleProfile::idleFraction() const
{
    const Cycle total = totalCycles();
    return total ? static_cast<double>(idle_cycles) /
        static_cast<double>(total) : 0.0;
}

double
IdleProfile::meanInterval() const
{
    const std::uint64_t n = numIntervals();
    return n ? static_cast<double>(idle_cycles) /
        static_cast<double>(n) : 0.0;
}

std::uint64_t
IdleProfile::numIntervals() const
{
    std::uint64_t n = 0;
    for (const auto &[len, count] : intervals)
        n += count;
    return n;
}

void
IdleProfile::addRun(bool busy, Cycle len)
{
    if (busy) {
        active_cycles += len;
    } else {
        idle_cycles += len;
        ++intervals[len];
    }
}

WorkloadSim
simulateWorkload(const trace::WorkloadProfile &profile,
                 unsigned num_fus, std::uint64_t insts,
                 const cpu::CoreConfig &base, std::uint64_t seed)
{
    WorkloadSim ws;
    ws.name = profile.name;
    ws.num_fus = num_fus;
    ws.idle.num_fus = num_fus;

    trace::TraceGenerator gen(profile, seed);
    cpu::O3Core core(base.withIntFus(num_fus), gen);
    core.setFuRunSink([&ws](unsigned, bool busy, Cycle len) {
        ws.idle.addRun(busy, len);
    });
    ws.sim = core.run(insts);
    countCoreRun(core, ws.sim);

    // Figure 7 combination rule: each FU's histogram contributes as
    // a fraction of that FU's own total time, averaged over the
    // unit count, so the per-benchmark histogram totals that
    // benchmark's mean idle fraction and benchmarks with different
    // window sizes or FU counts weigh equally.
    for (unsigned fu = 0; fu < num_fus; ++fu) {
        const auto &rec = core.fuPool().idleStats(fu);
        const double total = static_cast<double>(rec.totalCycles());
        if (total <= 0.0)
            continue;
        const auto &h = rec.histogram();
        for (std::size_t b = 0; b < h.numBuckets(); ++b) {
            if (h.bucketWeight(b) > 0.0)
                ws.idle_hist.sample(h.bucketLow(b),
                                    h.bucketWeight(b) /
                                        (total * num_fus));
        }
    }
    return ws;
}

FuSelection
chooseFuCount(const double (&ipc_by_fus)[4], double threshold)
{
    FuSelection sel;
    std::copy(std::begin(ipc_by_fus), std::end(ipc_by_fus),
              sel.ipc_by_fus);
    sel.max_ipc = sel.ipc_by_fus[3];
    sel.chosen = 4;
    sel.chosen_ipc = sel.max_ipc;
    for (unsigned n = 1; n <= 4; ++n) {
        if (sel.ipc_by_fus[n - 1] >= threshold * sel.max_ipc) {
            sel.chosen = n;
            sel.chosen_ipc = sel.ipc_by_fus[n - 1];
            break;
        }
    }
    return sel;
}

FuSelection
selectFuCount(const trace::WorkloadProfile &profile,
              std::uint64_t insts, const cpu::CoreConfig &base,
              double threshold, std::uint64_t seed)
{
    double ipc_by_fus[4];
    for (unsigned n = 1; n <= 4; ++n) {
        trace::TraceGenerator gen(profile, seed);
        cpu::O3Core core(base.withIntFus(n), gen);
        const auto res = core.run(insts);
        countCoreRun(core, res);
        ipc_by_fus[n - 1] = res.ipc;
    }
    return chooseFuCount(ipc_by_fus, threshold);
}

} // namespace lsim::harness
