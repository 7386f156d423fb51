/**
 * @file
 * The kernel-launch run loop: block dispatch, per-cycle SM ticking
 * and the hang watchdog — extracted from Gpu::launch so orchestration
 * is separate from stats aggregation (stats::LaunchAggregator) and
 * testable on its own.
 */

#ifndef WARPED_GPU_LAUNCH_LOOP_HH
#define WARPED_GPU_LAUNCH_LOOP_HH

#include <functional>
#include <memory>
#include <vector>

#include "common/types.hh"
#include "sm/sm.hh"
#include "trace/recorder.hh"

namespace warped {

namespace mem {
class MemFaultPlane;
}

namespace gpu {

class LaunchLoop;

/**
 * Early-stop test for a launch whose remaining cycles cannot change
 * what the caller wants to know (the fault campaign's window-closed
 * and first-detection exits). Called once per cycle, after every SM
 * has ticked: @p cycle is the cycle just simulated, and @p loop
 * answers live queries such as LaunchLoop::detections(). Returning
 * true ends the launch after that cycle.
 */
using StopPredicate =
    std::function<bool(Cycle cycle, const LaunchLoop &loop)>;

class LaunchLoop
{
  public:
    /** The loop's own state at the top of a cycle: everything a
     *  restored machine needs besides the SMs and memory. */
    struct Counters
    {
        Cycle cycle = 0;
        unsigned nextBlock = 0;  ///< next block id to dispatch
        std::uint64_t ticks = 0; ///< SM ticks so far
    };

    /** Outcome of driving the SMs to completion (or the watchdog). */
    struct Outcome
    {
        Cycle cycles = 0;
        bool hung = false;
        std::uint64_t dispatchedBlocks = 0;
        std::uint64_t smTicks = 0; ///< sum over SMs of ticked cycles
    };

    /**
     * @param sms           the chip's SMs (already constructed)
     * @param kernel_name   for the hard-cap fatal message
     * @param grid_blocks   blocks to dispatch
     * @param block_threads threads per block
     * @param cycle_cap     0 = the default hard cap (exceeding it is
     *        fatal); > 0 = a watchdog budget — exceeding it ends the
     *        launch with hung set.
     */
    LaunchLoop(std::vector<std::unique_ptr<sm::Sm>> &sms,
               const std::string &kernel_name, unsigned grid_blocks,
               unsigned block_threads, Cycle cycle_cap);

    /** Dispatch and tick until every SM drains (or the watchdog). */
    Outcome run();

    /**
     * Emit dispatch/launch-end events to @p rec (chip lane) and
     * cascade it to every SM. Call before run(); nullptr = silent.
     */
    void attachRecorder(trace::Recorder *rec);

    /**
     * Drive @p plane's simulation clock: the loop calls setNow once
     * per cycle so memory-cell upsets strike at their scheduled
     * cycle. Call before run(); nullptr (the default) = no fault
     * plane and zero per-cycle cost beyond one pointer test.
     */
    void attachFaultPlane(mem::MemFaultPlane *plane)
    {
        plane_ = plane;
    }

    /** End the launch early once @p stop returns true (see
     *  StopPredicate). Call before run(); an empty predicate (the
     *  default) runs every launch to completion. Non-owning. */
    void setStopPredicate(const StopPredicate *stop) { stop_ = stop; }

    /** Start at @p at (a snapshot rung's counters, with the SMs
     *  already restored to it) instead of cycle 0. Cycles stay
     *  absolute, so the watchdog and every recorded cycle match an
     *  uninterrupted launch. Call before run(). */
    void resumeAt(const Counters &at) { start_ = at; }

    /** Keep @p clock equal to the cycle being simulated: it is set
     *  at the top of every cycle, before that cycle's dispatch. Call
     *  before run(); nullptr (the default) costs one pointer test per
     *  cycle. Non-owning. */
    void setCycleClock(Cycle *clock) { clock_ = clock; }

    /** Comparator mismatches so far, summed over the SMs' live
     *  protection statistics. */
    std::uint64_t detections() const;

  private:
    trace::Recorder *recorder_ = nullptr;
    mem::MemFaultPlane *plane_ = nullptr;
    const StopPredicate *stop_ = nullptr;
    Cycle *clock_ = nullptr;
    Counters start_;
    std::vector<std::unique_ptr<sm::Sm>> &sms_;
    const std::string &kernelName_;
    unsigned gridBlocks_;
    unsigned blockThreads_;
    Cycle cycleCap_;
};

} // namespace gpu
} // namespace warped

#endif // WARPED_GPU_LAUNCH_LOOP_HH
