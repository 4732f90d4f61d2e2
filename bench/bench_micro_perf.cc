/**
 * @file
 * google-benchmark microbenchmarks: throughput of the simulator's
 * hot components (trace generation, cache accesses, branch
 * prediction, controller accounting, whole-core simulation).
 */

#include <benchmark/benchmark.h>

#include "cache/hierarchy.hh"
#include "common/logging.hh"
#include "cpu/bpred.hh"
#include "cpu/core.hh"
#include "energy/model.hh"
#include "sleep/controllers.hh"
#include "trace/generator.hh"
#include "trace/profile.hh"

namespace
{

using namespace lsim;

void
BM_TraceGeneration(benchmark::State &state)
{
    trace::TraceGenerator gen(trace::profileByName("gzip"), 1);
    for (auto _ : state)
        benchmark::DoNotOptimize(gen.next());
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceGeneration);

void
BM_CacheHit(benchmark::State &state)
{
    cache::MemoryHierarchy mem;
    (void)mem.data(0x1000, false);
    for (auto _ : state)
        benchmark::DoNotOptimize(mem.data(0x1000, false));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheHit);

void
BM_CacheMissStream(benchmark::State &state)
{
    cache::MemoryHierarchy mem;
    Addr addr = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(mem.data(addr, false));
        addr += 64;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheMissStream);

void
BM_BranchPrediction(benchmark::State &state)
{
    cpu::BranchPredictor bp{cpu::BpredConfig{}};
    trace::MicroOp op;
    op.cls = trace::OpClass::Branch;
    op.pc = 0x1000;
    std::uint64_t i = 0;
    for (auto _ : state) {
        op.taken = (++i & 3) == 0;
        benchmark::DoNotOptimize(bp.predict(op));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BranchPrediction);

void
BM_ControllerAccounting(benchmark::State &state)
{
    sleep::GradualSleepController ctrl(20);
    Cycle len = 1;
    for (auto _ : state) {
        ctrl.activeRun(3);
        ctrl.idleRun(len);
        len = len % 50 + 1;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ControllerAccounting);

void
BM_EnergyEvaluation(benchmark::State &state)
{
    energy::ModelParams mp;
    const energy::EnergyModel model(mp);
    energy::CycleCounts cc;
    cc.active = 1000;
    cc.unctrl_idle = 200;
    cc.sleep = 500;
    cc.transitions = 40;
    for (auto _ : state)
        benchmark::DoNotOptimize(model.normalizedEnergy(cc));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EnergyEvaluation);

void
BM_CoreSimulation(benchmark::State &state)
{
    setInformEnabled(false);
    const auto &profile = trace::profileByName(
        state.range(0) == 0 ? "gzip" : "mcf");
    for (auto _ : state) {
        trace::TraceGenerator gen(profile, 1);
        cpu::O3Core core(cpu::CoreConfig{}, gen);
        const auto res = core.run(50000);
        benchmark::DoNotOptimize(res.ipc);
    }
    state.SetItemsProcessed(state.iterations() * 50000);
}
BENCHMARK(BM_CoreSimulation)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
