#include "stats/launch_aggregator.hh"

#include <algorithm>
#include <array>
#include <string>

#include "common/logging.hh"

namespace warped {
namespace stats {

LaunchAggregator::LaunchAggregator(unsigned warp_size)
    : warpSize_(warp_size), result_(warp_size)
{
}

void
LaunchAggregator::addSm(sm::SmStats &st, const dmr::DmrStats &d,
                        const recovery::RecoveryStats *rec)
{
    auto &r = result_;
    st.typeRuns.finish();

    r.issuedWarpInstrs += st.issuedWarpInstrs;
    r.issuedThreadInstrs += st.issuedThreadInstrs;
    r.busyCycles += st.busyCycles;
    r.smCycles += st.cycles;
    r.stallCyclesDmr += st.stallCyclesDmr;
    r.stallCyclesRaw += st.stallCyclesRaw;
    r.blocksRetired += st.blocksRetired;

    for (unsigned v = 0; v <= warpSize_; ++v)
        r.activeHist.add(v, st.activeCountHist.count(v));
    for (unsigned t = 0; t < isa::kNumUnitTypes; ++t) {
        r.unitIssues[t] += st.unitIssues[t];
        r.unitThreadExecs[t] += st.unitThreadExecs[t];
        runMeans_[t].add(st.typeRuns.meanRunLength(t),
                         double(st.typeRuns.runCount(t)));
        r.maxTypeRun[t] =
            std::max(r.maxTypeRun[t], st.typeRuns.maxRunLength(t));
        r.typeRunCount[t] += st.typeRuns.runCount(t);
    }
    if (st.trackRawDistance) {
        if (++rawTrackers_ > 1)
            warped_panic("more than one SM tracks RAW distances; "
                         "Fig 8b expects a single tracked thread");
        const auto &samples = st.rawDistance.samples();
        r.rawDistances.insert(r.rawDistances.end(), samples.begin(),
                              samples.end());
    }
    r.trace.insert(r.trace.end(), st.trace.begin(), st.trace.end());
    smGap_.add(st.smIdleGap.mean(), st.smIdleGap.weight());
    laneGap_.add(st.laneIdleGap.mean(), st.laneIdleGap.weight());

    r.dmr.addCounters(d);
    for (const auto &ev : d.errorLog) {
        if (r.dmr.errorLog.size() < dmr::DmrStats::kMaxErrorLog)
            r.dmr.errorLog.push_back(ev);
    }

    if (rec) {
        r.recoveryEnabled = true;
        r.recovery.merge(*rec);
    }
}

void
LaunchAggregator::addTrace(const trace::Recorder &rec)
{
    result_.events = rec.merged();
    traceRecorded_ = rec.recorded();
    traceDropped_ = rec.dropped();
}

void
LaunchAggregator::buildMetrics()
{
    auto &r = result_;
    auto &m = r.metrics;

    m.counter("sim.cycles") = r.cycles;
    m.counter("sim.hung") = r.hung ? 1 : 0;
    m.counter("sim.issuedWarpInstrs") = r.issuedWarpInstrs;
    m.counter("sim.issuedThreadInstrs") = r.issuedThreadInstrs;
    m.counter("sim.busyCycles") = r.busyCycles;
    m.counter("sim.smCycles") = r.smCycles;
    m.counter("sim.stallCyclesDmr") = r.stallCyclesDmr;
    m.counter("sim.stallCyclesRaw") = r.stallCyclesRaw;
    m.counter("sim.blocksRetired") = r.blocksRetired;

    // Composed per-unit keys, built once per process: buildMetrics
    // runs for every launch (thousands per campaign), and repeated
    // string concatenation showed up in the allocation profile.
    struct UnitKeys
    {
        std::string issues, threadExecs, redundant;
    };
    static const std::array<UnitKeys, isa::kNumUnitTypes> kUnitKeys =
        [] {
            std::array<UnitKeys, isa::kNumUnitTypes> k;
            for (unsigned t = 0; t < isa::kNumUnitTypes; ++t) {
                const std::string unit =
                    isa::unitTypeName(static_cast<isa::UnitType>(t));
                k[t].issues = "sm.unitIssues." + unit;
                k[t].threadExecs = "sm.unitThreadExecs." + unit;
                k[t].redundant = "dmr.redundantThreadExecs." + unit;
            }
            return k;
        }();
    for (unsigned t = 0; t < isa::kNumUnitTypes; ++t) {
        m.counter(kUnitKeys[t].issues) = r.unitIssues[t];
        m.counter(kUnitKeys[t].threadExecs) = r.unitThreadExecs[t];
        m.counter(kUnitKeys[t].redundant) =
            r.dmr.redundantThreadExecs[t];
    }

    const auto &d = r.dmr;
    m.counter("dmr.verifiableThreadInstrs") = d.verifiableThreadInstrs;
    m.counter("dmr.verifiedThreadInstrs") = d.verifiedThreadInstrs;
    m.counter("dmr.intraVerifiedThreads") = d.intraVerifiedThreads;
    m.counter("dmr.interVerifiedThreads") = d.interVerifiedThreads;
    m.counter("dmr.intraWarpInstrs") = d.intraWarpInstrs;
    m.counter("dmr.interWarpInstrs") = d.interWarpInstrs;
    m.counter("dmr.coexecVerifications") = d.coexecVerifications;
    m.counter("dmr.dequeueVerifications") = d.dequeueVerifications;
    m.counter("dmr.idleDrainVerifications") = d.idleDrainVerifications;
    m.counter("dmr.unitDrainVerifications") = d.unitDrainVerifications;
    m.counter("dmr.enqueues") = d.enqueues;
    m.counter("dmr.eagerStalls") = d.eagerStalls;
    m.counter("dmr.rawStalls") = d.rawStalls;
    m.counter("dmr.finalDrainCycles") = d.finalDrainCycles;
    m.counter("dmr.replayQPeak") = d.replayQPeak;
    m.counter("dmr.comparisons") = d.comparisons;
    m.counter("dmr.errorsDetected") = d.errorsDetected;
    m.counter("dmr.sampledOutThreadInstrs") = d.sampledOutThreadInstrs;

    // Recovery keys exist only when the engine was constructed, so a
    // recovery-disabled run's registry (and every report derived from
    // it) is byte-identical to one from a build without recovery.
    if (r.recoveryEnabled) {
        const auto &rv = r.recovery;
        m.counter("recovery.checkpoints") = rv.checkpoints;
        m.counter("recovery.checkpointedRegs") = rv.checkpointedRegs;
        m.counter("recovery.memUndoEntries") = rv.memUndoEntries;
        m.counter("recovery.rollbacks") = rv.rollbacks;
        m.counter("recovery.rolledBackInstrs") = rv.rolledBackInstrs;
        m.counter("recovery.giveUps") = rv.giveUps;
        m.counter("recovery.evictions") = rv.evictions;
        m.counter("recovery.retireStalls") = rv.retireStalls;
        m.counter("recovery.recoveryCycles") = rv.recoveryCycles;
        m.counter("recovery.unprotectedCommits") =
            rv.unprotectedCommits;
    }

    m.counter("trace.recorded") = traceRecorded_;
    m.counter("trace.dropped") = traceDropped_;
    m.counter("trace.merged") = r.events.size();

    m.gauge("dmr.coverage") = d.coverage();
    m.gauge("sim.timeNs") = r.timeNs;
    m.gauge("sim.ipc") =
        r.cycles ? double(r.issuedWarpInstrs) / double(r.cycles) : 0.0;
}

LaunchResult
LaunchAggregator::finish(Cycle cycles, double time_ns, bool hung)
{
    auto &r = result_;
    r.cycles = cycles;
    r.timeNs = time_ns;
    r.hung = hung;

    for (unsigned t = 0; t < isa::kNumUnitTypes; ++t)
        r.meanTypeRun[t] = runMeans_[t].mean();
    r.meanSmIdleGap = smGap_.mean();
    r.meanLaneIdleGap = laneGap_.mean();

    std::stable_sort(r.trace.begin(), r.trace.end(),
                     [](const sm::TraceEvent &a,
                        const sm::TraceEvent &b) {
                         return a.cycle < b.cycle;
                     });

    buildMetrics();

    return std::move(r);
}

} // namespace stats
} // namespace warped
