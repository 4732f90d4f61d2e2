/**
 * @file
 * Issue queue: a bounded window of dispatched instructions waiting
 * for operands and a functional unit, selected oldest-first.
 * Instructions are referenced by ROB sequence number.
 */

#ifndef LSIM_CPU_ISSUE_QUEUE_HH
#define LSIM_CPU_ISSUE_QUEUE_HH

#include <cstdint>
#include <vector>

#include "common/logging.hh"

namespace lsim::cpu
{

/**
 * Capacity-bounded collection of dispatched instructions. An entry
 * is either waiting for a source operand or ready; only ready
 * entries are offered for issue, oldest first. Waiting entries are
 * counted but not stored: the core's wakeup lists name them, and
 * wake() moves one into the age-sorted ready list when its last
 * source is written back.
 */
class IssueQueue
{
  public:
    explicit IssueQueue(unsigned capacity);

    bool full() const { return size_ == capacity_; }
    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }
    unsigned capacity() const { return capacity_; }

    /**
     * Insert @p seq (program order). A @p ready entry can issue
     * from the next selectIssue(); otherwise it waits for wake().
     * Panics when full.
     */
    void insert(std::uint64_t seq, bool ready);

    /** Make waiting entry @p seq ready (its last source arrived). */
    void wake(std::uint64_t seq);

    /**
     * Visit ready instructions oldest-first; @p fn returns true to
     * issue (remove) the entry, false to leave it. Iteration
     * continues over the remaining entries either way; @p fn may
     * stop the scan early by calling the provided stop token.
     *
     * @tparam Fn callable (std::uint64_t seq) -> bool.
     */
    template <typename Fn>
    void
    selectIssue(Fn &&fn)
    {
        std::size_t out = 0;
        bool stopped = false;
        for (std::size_t i = 0; i < ready_.size(); ++i) {
            if (!stopped && fn(ready_[i], stopped)) {
                --size_;
                continue; // issued: drop from the queue
            }
            ready_[out++] = ready_[i];
        }
        ready_.resize(out);
    }

    /** Drop everything (used only by tests). */
    void
    clear()
    {
        ready_.clear();
        size_ = 0;
    }

  private:
    unsigned capacity_;
    std::size_t size_ = 0;         ///< waiting plus ready entries
    std::uint64_t last_seq_ = 0;   ///< youngest seq inserted
    std::vector<std::uint64_t> ready_; ///< ready seqs, oldest first
};

} // namespace lsim::cpu

#endif // LSIM_CPU_ISSUE_QUEUE_HH
