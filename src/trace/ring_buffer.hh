/**
 * @file
 * A fixed-capacity ring buffer that keeps the most recent N pushes
 * and counts what it dropped. Capacity 0 means unbounded (the test
 * suites use it so coverage-ledger invariants see every event).
 */

#ifndef WARPED_TRACE_RING_BUFFER_HH
#define WARPED_TRACE_RING_BUFFER_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace warped {
namespace trace {

/**
 * Bounded most-recent-N container. Once full, each push overwrites
 * the oldest entry and increments the drop counter — the counter is
 * how a bounded trace capture stays honest about being a suffix of
 * the stream rather than the whole stream (docs/ARCHITECTURE.md §9,
 * "Ring-drop accounting").
 */
template <typename T>
class RingBuffer
{
  public:
    /** @param capacity most-recent entries kept; 0 = unbounded. */
    explicit RingBuffer(std::size_t capacity) : capacity_(capacity) {}

    std::size_t capacity() const { return capacity_; }
    std::size_t size() const { return items_.size(); }
    bool unbounded() const { return capacity_ == 0; }
    /** Entries overwritten so far (0 while unbounded or not full). */
    std::uint64_t dropped() const { return dropped_; }

    /** Append @p v, evicting the oldest entry when at capacity. */
    void
    push(T v)
    {
        if (unbounded()) {
            items_.push_back(std::move(v));
            return;
        }
        if (items_.size() < capacity_) {
            items_.push_back(std::move(v));
            return;
        }
        // Overwrite the oldest entry; `head_` marks the logical start.
        items_[head_] = std::move(v);
        head_ = (head_ + 1) % capacity_;
        ++dropped_;
    }

    /** Contents oldest-first (unwraps the ring). */
    std::vector<T>
    snapshot() const
    {
        std::vector<T> out;
        out.reserve(items_.size());
        for (std::size_t i = 0; i < items_.size(); ++i)
            out.push_back(items_[(head_ + i) % items_.size()]);
        return out;
    }

  private:
    std::size_t capacity_;
    std::size_t head_ = 0;
    std::uint64_t dropped_ = 0;
    std::vector<T> items_;
};

} // namespace trace
} // namespace warped

#endif // WARPED_TRACE_RING_BUFFER_HH
