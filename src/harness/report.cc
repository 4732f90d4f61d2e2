#include "harness/report.hh"

namespace lsim::harness
{

void
writeTechnologyJson(JsonWriter &w, const energy::ModelParams &params)
{
    w.beginObject("technology");
    w.field("p", params.p);
    w.field("k", params.k);
    w.field("s", params.s);
    w.field("alpha", params.alpha);
    w.field("duty", params.duty);
    w.endObject();
}

void
writeSimJson(JsonWriter &w, const WorkloadSim &sim)
{
    w.beginObject("simulation");
    w.field("benchmark", sim.name);
    w.field("num_fus", sim.num_fus);
    w.field("cycles", sim.sim.cycles);
    w.field("committed", sim.sim.committed);
    w.field("ipc", sim.sim.ipc);
    w.field("branch_mispredict_rate",
            sim.sim.bpred.dirMispredictRate());
    w.field("l1i_miss_rate", sim.sim.l1i.missRate());
    w.field("l1d_miss_rate", sim.sim.l1d.missRate());
    w.field("l2_miss_rate", sim.sim.l2.missRate());
    w.field("idle_fraction", sim.idle.idleFraction());
    w.field("mean_idle_interval", sim.idle.meanInterval());
    w.field("num_idle_intervals", sim.idle.numIntervals());
    w.beginArray("fu_utilization");
    for (double u : sim.sim.fu_utilization)
        w.value(u);
    w.endArray();
    w.beginArray("idle_histogram");
    const auto &h = sim.idle_hist;
    for (std::size_t b = 0; b < h.numBuckets(); ++b) {
        w.beginObject();
        w.field("interval_low",
                static_cast<std::uint64_t>(h.bucketLow(b)));
        w.field("fraction_of_time", h.bucketWeight(b));
        w.endObject();
    }
    w.endArray();
    w.endObject();
}

void
writePoliciesJson(JsonWriter &w,
                  const std::vector<sleep::PolicyResult> &results)
{
    w.beginArray("policies");
    for (const auto &r : results) {
        w.beginObject();
        w.field("name", r.name);
        w.field("energy", r.energy);
        w.field("relative_to_base", r.relative_to_base);
        w.field("leakage_fraction", r.leakage_fraction);
        w.beginObject("counts");
        w.field("active", r.counts.active);
        w.field("unctrl_idle", r.counts.unctrl_idle);
        w.field("sleep", r.counts.sleep);
        w.field("transitions", r.counts.transitions);
        w.endObject();
        w.beginObject("breakdown");
        w.field("dynamic", r.breakdown.dynamic);
        w.field("active_leak", r.breakdown.active_leak);
        w.field("idle_leak", r.breakdown.idle_leak);
        w.field("sleep_leak", r.breakdown.sleep_leak);
        w.field("transition", r.breakdown.transition);
        w.endObject();
        w.endObject();
    }
    w.endArray();
}

} // namespace lsim::harness
