#include "gpu/launch_loop.hh"

#include "common/logging.hh"
#include "mem/mem_fault.hh"

namespace warped {
namespace gpu {

LaunchLoop::LaunchLoop(std::vector<std::unique_ptr<sm::Sm>> &sms,
                       const std::string &kernel_name,
                       unsigned grid_blocks, unsigned block_threads,
                       Cycle cycle_cap)
    : sms_(sms), kernelName_(kernel_name), gridBlocks_(grid_blocks),
      blockThreads_(block_threads), cycleCap_(cycle_cap)
{
}

void
LaunchLoop::attachRecorder(trace::Recorder *rec)
{
    recorder_ = rec;
    for (auto &s : sms_)
        s->attachRecorder(rec);
}

LaunchLoop::Outcome
LaunchLoop::run()
{
    unsigned next_block = start_.nextBlock;
    Cycle cycle = start_.cycle;
    constexpr Cycle kHardCap = 500'000'000;
    bool hung = false;
    std::uint64_t ticks = start_.ticks;

    for (;;) {
        if (cycle == tapAt_) [[unlikely]]
            tapAt_ = (*tap_)(Counters{cycle, next_block, ticks});
        if (clock_) [[unlikely]]
            *clock_ = cycle;

        // Keep the fault plane's clock in step so a memory upset
        // strikes mid-run at its scheduled cycle (the final value
        // also covers verify-time host readback).
        if (plane_) [[unlikely]]
            plane_->setNow(cycle);

        // Dispatch at most one block per SM per cycle.
        for (auto &s : sms_) {
            if (next_block < gridBlocks_ &&
                s->canAcceptBlock(blockThreads_)) {
                if (recorder_) {
                    trace::Event ev;
                    ev.cycle = cycle;
                    ev.kind = trace::EventKind::BlockDispatch;
                    ev.a0 = next_block;
                    ev.a1 = s->id();
                    recorder_->record(trace::kChipSm, ev);
                }
                s->assignBlock(next_block++, blockThreads_,
                               gridBlocks_);
            }
        }

        bool anything = false;
        for (auto &s : sms_) {
            if (s->busy() || !s->drained()) {
                s->tick(cycle);
                ++ticks;
                anything = true;
            }
        }
        if (!anything && next_block == gridBlocks_)
            break;
        if (stop_ && (*stop_)(cycle, *this)) [[unlikely]] {
            ++cycle; // cycles simulated, as a natural end counts them
            break;
        }
        ++cycle;
        if (cycleCap_ != 0 && cycle > cycleCap_) {
            hung = true;
            break;
        }
        if (cycle > kHardCap)
            warped_fatal("kernel '", kernelName_,
                         "' exceeded the cycle cap");
    }

    if (recorder_) {
        trace::Event ev;
        ev.cycle = cycle;
        ev.kind = trace::EventKind::LaunchEnd;
        ev.a0 = cycle;
        ev.a1 = hung ? 1 : 0;
        recorder_->record(trace::kChipSm, ev);
    }

    return {cycle, hung, next_block, ticks};
}

std::uint64_t
LaunchLoop::detections() const
{
    std::uint64_t n = 0;
    for (const auto &s : sms_)
        n += s->scheme().stats().errorsDetected;
    return n;
}

} // namespace gpu
} // namespace warped
