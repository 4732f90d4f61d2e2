/**
 * @file
 * Trace-driven out-of-order core timing model (the paper's Table 2
 * machine, modeled after the Alpha 21264 as configured in
 * SimpleScalar).
 *
 * Pipeline: fetch (with combined branch prediction, I-cache/ITLB and
 * taken-branch fetch break) -> rename/dispatch (ROB, physical
 * registers, issue queues, LSQ) -> out-of-order issue (oldest-first,
 * round-robin integer FU allocation, conservative memory dependence,
 * D-cache/DTLB access at execute) -> writeback (wakeup, branch
 * redirect) -> in-order commit.
 *
 * Stages are evaluated commit-first within a cycle so that a result
 * completing in cycle X can feed a dependent issuing in cycle X
 * (back-to-back single-cycle dependencies, as real bypass networks
 * provide).
 *
 * The loop does work only where state can change:
 *  - Wakeup. Rename lists each instruction on the physical registers
 *    it still waits for and counts them in RobEntry::pending_srcs;
 *    writeback counts its consumers down and moves those that reach
 *    zero into their issue queue's ready list. Issue visits ready
 *    entries only, and the LSQ answers the load condition in O(1).
 *  - Event skipping. A cycle in which no stage changed any state is
 *    repeated exactly by every later cycle until a timed event: the
 *    earliest in-flight completion, the end of a mispredict
 *    redirect, or the end of an I-cache or BTB-miss stall. After
 *    such a cycle the core jumps to the cycle before that event and
 *    credits every integer FU the skipped cycles as idle in one
 *    FuPool::creditIdle call. Output is identical to simulating
 *    every cycle.
 *
 * The trace is pre-executed, so wrong-path instructions are never
 * fetched; the cost of misprediction is charged as a fetch stall
 * from the branch's fetch until its execution plus the configured
 * redirect penalty.
 */

#ifndef LSIM_CPU_CORE_HH
#define LSIM_CPU_CORE_HH

#include <compare>
#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <queue>
#include <vector>

#include "cache/hierarchy.hh"
#include "common/types.hh"
#include "cpu/bpred.hh"
#include "cpu/config.hh"
#include "cpu/fu_pool.hh"
#include "cpu/issue_queue.hh"
#include "cpu/lsq.hh"
#include "cpu/rename.hh"
#include "cpu/rob.hh"
#include "trace/generator.hh"

namespace lsim::cpu
{

/** End-of-run summary. */
struct SimResult
{
    Cycle cycles = 0;
    std::uint64_t committed = 0;
    double ipc = 0.0;

    BpredStats bpred;
    cache::CacheStats l1i;
    cache::CacheStats l1d;
    cache::CacheStats l2;
    cache::TlbStats itlb;
    cache::TlbStats dtlb;

    /** Per-integer-FU utilization (busy cycles / total cycles). */
    std::vector<double> fu_utilization;

    /** Mean per-FU idle fraction across the integer units. */
    double mean_fu_idle_fraction = 0.0;
};

/** The out-of-order core. Single-shot: construct, run(), read stats. */
class O3Core
{
  public:
    /**
     * @param config Machine configuration, validated before any part
     *        of the core is built.
     * @param gen Dynamic instruction source (not owned; must outlive
     *        the core).
     * @throws std::invalid_argument for an invalid @p config.
     */
    O3Core(const CoreConfig &config, trace::TraceGenerator &gen);

    /**
     * Register a sink receiving each integer FU's maximal busy/idle
     * runs (the energy harness hook). Must be called before run().
     */
    void setFuRunSink(FuPool::RunSink sink);

    /**
     * Simulate until @p max_insts instructions commit.
     * @return the run summary (also retrievable from accessors).
     */
    SimResult run(std::uint64_t max_insts);

    const FuPool &fuPool() const { return fu_pool_; }
    const cache::MemoryHierarchy &memory() const { return mem_; }
    const BranchPredictor &branchPredictor() const { return bpred_; }
    const CoreConfig &config() const { return config_; }
    Cycle now() const { return now_; }

    /** Cycles jumped over by event skipping (included in now()). */
    Cycle cyclesSkipped() const { return skipped_; }

  private:
    /** Fetch queue entry: a fetched op plus front-end annotations. */
    struct FetchedOp
    {
        trace::MicroOp op;
        bool resteer = false; ///< mispredicted; redirect at execute
    };

    /** An issued instruction and the cycle its result is ready. */
    struct Completion
    {
        Cycle cycle;
        std::uint64_t seq;

        auto operator<=>(const Completion &) const = default;
    };

    // Each stage returns true when it changed any state.
    bool commitStage();
    bool writebackStage();
    bool issueStage();
    bool renameStage();
    bool fetchStage();

    /** After a cycle without progress: jump to the next event. */
    void skipQuietCycles();

    RenameMap &fileOf(int logical_reg);

    CoreConfig config_;
    trace::TraceGenerator &gen_;
    cache::MemoryHierarchy mem_;
    BranchPredictor bpred_;
    RenameMap int_map_;
    RenameMap fp_map_;
    ReorderBuffer rob_;
    IssueQueue int_iq_;
    IssueQueue fp_iq_;
    LoadStoreQueue lsq_;
    FuPool fu_pool_;

    std::deque<FetchedOp> fetch_queue_;
    std::optional<trace::MicroOp> pending_;

    /** Issued, not yet completed; earliest completion on top. */
    std::priority_queue<Completion, std::vector<Completion>,
                        std::greater<>>
        inflight_;

    Cycle now_ = 0;
    Cycle skipped_ = 0;
    std::uint64_t committed_ = 0;
    bool ran_ = false;

    // Front-end stall state.
    bool waiting_resteer_ = false;
    Cycle fetch_resume_cycle_ = 0;
    Cycle icache_ready_cycle_ = 0;
    Addr cur_fetch_line_ = ~Addr{0};

    // Per-cycle issue bookkeeping.
    unsigned fp_issued_ = 0;
    unsigned dcache_ports_used_ = 0;

    /** Commit-progress watchdog (deadlock detection). */
    Cycle last_commit_cycle_ = 0;
    static constexpr Cycle kDeadlockWindow = 200000;
};

} // namespace lsim::cpu

#endif // LSIM_CPU_CORE_HH
