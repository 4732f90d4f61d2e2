#include "cpu/core.hh"

#include <algorithm>
#include <limits>

#include "common/logging.hh"

namespace lsim::cpu
{

using trace::MicroOp;
using trace::OpClass;

namespace
{
constexpr Cycle kNever = std::numeric_limits<Cycle>::max();

/** @p config once validated: checked before any member is built, so
 * a bad configuration reports CoreConfig's message, not a member's. */
const CoreConfig &
validated(const CoreConfig &config)
{
    config.validate();
    return config;
}
} // namespace

O3Core::O3Core(const CoreConfig &config, trace::TraceGenerator &gen)
    : config_(validated(config)),
      gen_(gen),
      mem_(config.mem),
      bpred_(config.bpred),
      int_map_(trace::kNumLogicalRegs, config.int_phys_regs),
      fp_map_(trace::kNumLogicalRegs, config.fp_phys_regs),
      rob_(config.rob_entries),
      int_iq_(config.int_iq_entries),
      fp_iq_(config.fp_iq_entries),
      lsq_(config.load_queue_entries, config.store_queue_entries),
      fu_pool_(config.num_int_fus)
{
}

void
O3Core::setFuRunSink(FuPool::RunSink sink)
{
    if (ran_)
        panic("O3Core::setFuRunSink after run()");
    fu_pool_.setRunSink(std::move(sink));
}

RenameMap &
O3Core::fileOf(int logical_reg)
{
    return logical_reg >= trace::kNumLogicalRegs ? fp_map_ : int_map_;
}

bool
O3Core::commitStage()
{
    unsigned done = 0;
    while (done < config_.commit_width && !rob_.empty() &&
           rob_.head().state == InstState::Complete) {
        RobEntry &entry = rob_.head();
        if (entry.op.isMem()) {
            if (entry.op.isStore()) {
                // Retire the store to the memory system; write
                // buffers hide the latency from the pipeline.
                (void)mem_.data(entry.op.mem_addr, true);
            }
            lsq_.remove(entry.seq);
        }
        if (entry.dst_phys != kNoPhysReg)
            fileOf(entry.op.dst).release(entry.prev_phys);
        rob_.popHead();
        ++committed_;
        ++done;
        last_commit_cycle_ = now_;
    }
    return done > 0;
}

bool
O3Core::writebackStage()
{
    bool progress = false;
    while (!inflight_.empty() && inflight_.top().cycle <= now_) {
        RobEntry &entry = rob_.bySeq(inflight_.top().seq);
        inflight_.pop();
        progress = true;
        entry.state = InstState::Complete;
        if (entry.dst_phys != kNoPhysReg) {
            // Wake the consumers renamed while the value was pending;
            // one whose last source this was becomes issuable now.
            fileOf(entry.op.dst)
                .wakeConsumers(entry.dst_phys, [&](std::uint64_t seq) {
                    RobEntry &consumer = rob_.bySeq(seq);
                    if (--consumer.pending_srcs == 0)
                        (consumer.op.isFp() ? fp_iq_ : int_iq_)
                            .wake(seq);
                });
        }
        if (entry.op.isStore())
            lsq_.setAddrReady(entry.lsq_index);
        if (entry.resteer) {
            // Branch resolved: front end refills after the redirect
            // penalty.
            fetch_resume_cycle_ = now_ + config_.mispredict_penalty;
        }
    }
    return progress;
}

bool
O3Core::issueStage()
{
    // Integer side (includes loads/stores/branches): ready entries
    // oldest first, bounded by issue width and free FUs.
    unsigned int_issued = 0;
    int_iq_.selectIssue([&](std::uint64_t seq, bool &stop) {
        if (int_issued >= config_.issue_width) {
            stop = true;
            return false;
        }
        RobEntry &entry = rob_.bySeq(seq);
        const auto &op = entry.op;
        if (op.isLoad()) {
            if (dcache_ports_used_ >= config_.dcache_ports)
                return false;
            if (!lsq_.olderStoresReady(entry.lsq_index))
                return false;
        }

        // Allocate the unit before touching the cache: a load that
        // fails to get an FU must not perturb cache state (its
        // access happens in the cycle it actually issues).
        const int fu = fu_pool_.allocate();
        if (fu < 0) {
            stop = true; // no unit left: nothing younger can issue
            return false;
        }

        Cycle extra = 0;
        if (op.isLoad()) {
            if (lsq_.forwardsFromStore(entry.lsq_index)) {
                extra = 1; // store-to-load forwarding
            } else {
                extra = mem_.data(op.mem_addr, false);
                ++dcache_ports_used_;
            }
        }

        entry.state = InstState::Issued;
        inflight_.push({now_ + trace::execLatency(op.cls) + extra, seq});
        ++int_issued;
        return true;
    });

    // Floating point side.
    fp_issued_ = 0;
    fp_iq_.selectIssue([&](std::uint64_t seq, bool &stop) {
        if (fp_issued_ >= config_.fp_issue_width ||
            fp_issued_ >= config_.num_fp_fus) {
            stop = true;
            return false;
        }
        RobEntry &entry = rob_.bySeq(seq);
        entry.state = InstState::Issued;
        inflight_.push({now_ + trace::execLatency(entry.op.cls), seq});
        ++fp_issued_;
        return true;
    });
    return int_issued + fp_issued_ > 0;
}

bool
O3Core::renameStage()
{
    unsigned done = 0;
    while (done < config_.decode_width && !fetch_queue_.empty()) {
        const FetchedOp &fetched = fetch_queue_.front();
        const MicroOp &op = fetched.op;
        const bool fp = op.isFp();

        if (rob_.full())
            break;
        if (fp ? fp_iq_.full() : int_iq_.full())
            break;
        if (op.dst != kNoReg && !fileOf(op.dst).hasFreeReg())
            break;
        if (op.isLoad() && !lsq_.canInsertLoad())
            break;
        if (op.isStore() && !lsq_.canInsertStore())
            break;

        RobEntry &entry = rob_.allocate();
        entry.op = op;
        entry.state = InstState::Dispatched;
        entry.resteer = fetched.resteer;

        // A source whose value is still pending lists this
        // instruction on its physical register; writeback counts
        // pending_srcs down and wakes the entry at zero.
        auto mapSrc = [&](int logical) {
            if (logical == kNoReg)
                return kNoPhysReg;
            RenameMap &file = fileOf(logical);
            const int phys =
                file.lookup(logical % trace::kNumLogicalRegs);
            if (!file.isReady(phys)) {
                file.addConsumer(phys, entry.seq);
                ++entry.pending_srcs;
            }
            return phys;
        };
        entry.src1_phys = mapSrc(op.src1);
        entry.src2_phys = mapSrc(op.src2);
        if (op.dst != kNoReg) {
            entry.dst_is_fp = op.dst >= trace::kNumLogicalRegs;
            entry.dst_phys = fileOf(op.dst).allocate(
                op.dst % trace::kNumLogicalRegs, entry.prev_phys);
        }

        if (op.isMem())
            entry.lsq_index =
                lsq_.insert(entry.seq, op.mem_addr, op.isStore());
        (fp ? fp_iq_ : int_iq_).insert(entry.seq,
                                       entry.pending_srcs == 0);

        fetch_queue_.pop_front();
        ++done;
    }
    return done > 0;
}

bool
O3Core::fetchStage()
{
    bool progress = false;
    if (waiting_resteer_) {
        if (now_ < fetch_resume_cycle_)
            return false;
        waiting_resteer_ = false;
        progress = true;
    }
    if (now_ < icache_ready_cycle_)
        return progress;

    const Cycle i_hit = config_.mem.l1i.hit_latency;
    unsigned fetched = 0;
    while (fetched < config_.fetch_width &&
           fetch_queue_.size() < config_.fetch_queue_entries) {
        // Every pass changes state: it draws the next op, accesses a
        // new I-cache line, or queues the held op.
        progress = true;
        if (!pending_)
            pending_ = gen_.next();

        // Instruction cache: charge a stall when the fetch crosses
        // into a line that misses.
        const Addr line = pending_->pc &
            ~static_cast<Addr>(config_.mem.l1i.line_bytes - 1);
        if (line != cur_fetch_line_) {
            cur_fetch_line_ = line;
            const Cycle lat = mem_.fetch(pending_->pc);
            if (lat > i_hit) {
                icache_ready_cycle_ = now_ + (lat - i_hit);
                return true; // op stays pending until the line arrives
            }
        }

        FetchedOp fetched_op;
        fetched_op.op = *pending_;
        pending_.reset();

        bool stop_after = false;
        if (fetched_op.op.isControl()) {
            const BpredResult res = bpred_.predict(fetched_op.op);
            if (res.mispredict) {
                fetched_op.resteer = true;
                waiting_resteer_ = true;
                fetch_resume_cycle_ = kNever; // set at execute
                stop_after = true;
            } else if (res.btb_cold) {
                // Short refetch bubble once the target is computed.
                icache_ready_cycle_ =
                    now_ + config_.btb_miss_penalty;
                stop_after = true;
            } else if (fetched_op.op.taken) {
                stop_after = true; // taken-branch fetch break
            }
        }

        fetch_queue_.push_back(fetched_op);
        ++fetched;
        if (stop_after)
            break;
    }
    return progress;
}

void
O3Core::skipQuietCycles()
{
    // The cycle just simulated changed no state, so every later
    // cycle repeats it until a timed event: a completion, the end of
    // a redirect, or the end of an I-cache or BTB-miss stall. Jump
    // to the cycle before the earliest of them, but no further than
    // where the watchdog fires, so it reports the same cycle.
    Cycle next = inflight_.empty() ? kNever : inflight_.top().cycle;
    if (waiting_resteer_)
        next = std::min(next, fetch_resume_cycle_);
    if (icache_ready_cycle_ > now_)
        next = std::min(next, icache_ready_cycle_);
    const Cycle target =
        std::min(next - 1, last_commit_cycle_ + kDeadlockWindow + 1);
    if (target <= now_)
        return;
    fu_pool_.creditIdle(target - now_);
    skipped_ += target - now_;
    now_ = target;
}

SimResult
O3Core::run(std::uint64_t max_insts)
{
    if (ran_)
        panic("O3Core::run may only be called once");
    ran_ = true;

    while (committed_ < max_insts) {
        ++now_;
        fu_pool_.beginCycle();
        dcache_ports_used_ = 0;

        bool progress = commitStage();
        progress |= writebackStage();
        progress |= issueStage();
        progress |= renameStage();
        progress |= fetchStage();

        fu_pool_.endCycle();
        if (!progress)
            skipQuietCycles();

        if (now_ - last_commit_cycle_ > kDeadlockWindow)
            panic("no commit for %llu cycles at cycle %llu "
                  "(rob=%zu iq=%zu fq=%zu)",
                  static_cast<unsigned long long>(kDeadlockWindow),
                  static_cast<unsigned long long>(now_),
                  rob_.size(), int_iq_.size(), fetch_queue_.size());
    }
    fu_pool_.finish();

    SimResult res;
    res.cycles = now_;
    res.committed = committed_;
    res.ipc = now_ ? static_cast<double>(committed_) /
        static_cast<double>(now_) : 0.0;
    res.bpred = bpred_.stats();
    res.l1i = mem_.l1i().stats();
    res.l1d = mem_.l1d().stats();
    res.l2 = mem_.l2().stats();
    res.itlb = mem_.itlb().stats();
    res.dtlb = mem_.dtlb().stats();
    double idle_sum = 0.0;
    for (unsigned fu = 0; fu < fu_pool_.numUnits(); ++fu) {
        res.fu_utilization.push_back(fu_pool_.utilization(fu));
        idle_sum += fu_pool_.idleStats(fu).idleFraction();
    }
    res.mean_fu_idle_fraction =
        idle_sum / static_cast<double>(fu_pool_.numUnits());
    return res;
}

} // namespace lsim::cpu
