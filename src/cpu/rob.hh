/**
 * @file
 * Reorder buffer: a bounded circular buffer of in-flight
 * instructions in program order. Entries are addressed by a
 * monotonically increasing sequence number, which stays valid for
 * the entry's lifetime (unlike raw slot indices).
 */

#ifndef LSIM_CPU_ROB_HH
#define LSIM_CPU_ROB_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "cpu/rename.hh"
#include "trace/op.hh"

namespace lsim::cpu
{

/** Lifecycle of an in-flight instruction. */
enum class InstState : std::uint8_t
{
    Dispatched, ///< renamed, waiting in an issue queue
    Issued,     ///< executing on a functional unit
    Complete,   ///< result produced, awaiting commit
};

/** One in-flight instruction. */
struct RobEntry
{
    trace::MicroOp op;
    std::uint64_t seq = 0;        ///< program-order sequence number
    InstState state = InstState::Dispatched;

    int dst_phys = kNoPhysReg;
    int prev_phys = kNoPhysReg;   ///< freed at commit
    int src1_phys = kNoPhysReg;
    int src2_phys = kNoPhysReg;
    bool dst_is_fp = false;

    /** Redirect fetch when this instruction completes (mispredict). */
    bool resteer = false;
    /** Source operands not yet written back (wakeup counter). */
    std::uint8_t pending_srcs = 0;
    /** Slot in the load/store queue, or -1. */
    int lsq_index = -1;
};

/** The reorder buffer. */
class ReorderBuffer
{
  public:
    explicit ReorderBuffer(unsigned capacity);

    bool full() const { return size_ == capacity_; }
    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }
    unsigned capacity() const { return capacity_; }

    /**
     * Allocate the next entry in program order.
     * @return reference to the fresh entry (seq already assigned);
     * panics when full (callers must check).
     */
    RobEntry &allocate();

    /** Oldest entry; panics when empty. */
    RobEntry &head();
    const RobEntry &head() const;

    /** Remove the oldest entry (after commit); panics when empty. */
    void popHead();

    /** Entry with sequence number @p seq; panics if not in flight. */
    RobEntry &bySeq(std::uint64_t seq);

    /** @return true when @p seq is still in flight. */
    bool contains(std::uint64_t seq) const;

    /**
     * Apply @p fn to every in-flight entry, oldest first.
     * @tparam Fn callable taking (RobEntry &).
     */
    template <typename Fn>
    void
    forEach(Fn &&fn)
    {
        for (std::size_t i = 0; i < size_; ++i)
            fn(entries_[(head_ + i) % capacity_]);
    }

  private:
    std::size_t slotOf(std::uint64_t seq) const;

    unsigned capacity_;
    std::vector<RobEntry> entries_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
    std::uint64_t next_seq_ = 1;
    std::uint64_t head_seq_ = 1; ///< seq of the head entry
};

} // namespace lsim::cpu

#endif // LSIM_CPU_ROB_HH
