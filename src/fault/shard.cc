#include "fault/shard.hh"

#include "common/logging.hh"
#include "trace/metrics.hh"

namespace warped {
namespace fault {

namespace {

std::uint64_t
require(const std::map<std::string, std::uint64_t> &kv, const char *key)
{
    const auto it = kv.find(key);
    if (it == kv.end())
        throw ShardError(std::string("shard delta: missing ") + key);
    return it->second;
}

/** Upper bound on a delta document, which arrives from outside the
 *  process (a worker's file, a resumed checkpoint). A real delta
 *  is KiB-to-MiB of flat counters, so 64 MiB leaves a wide margin;
 *  anything bigger is a runaway or corrupt file, and parsing it would
 *  just burn memory before failing the fingerprint anyway. */
constexpr std::size_t kMaxDocumentBytes = 64u * 1024 * 1024;

/** Upper bound on a single counter key. The longest legitimate keys
 *  are per-stratum tallies ("campaign.stratum.<label>.<class>..."),
 *  well under a hundred bytes; a multi-KiB key means the document's
 *  quoting was damaged and a chunk of text fused into one "key". */
constexpr std::size_t kMaxKeyBytes = 4096;

} // namespace

std::vector<ShardPlan>
planShards(std::uint64_t total_runs, std::uint64_t shard_count)
{
    if (shard_count == 0)
        warped_panic("planShards: zero shards");
    std::vector<ShardPlan> out;
    out.reserve(static_cast<std::size_t>(shard_count));
    const std::uint64_t per = total_runs / shard_count;
    const std::uint64_t extra = total_runs % shard_count;
    std::uint64_t base = 0;
    for (std::uint64_t i = 0; i < shard_count; ++i) {
        ShardPlan p;
        p.index = i;
        p.base = base;
        p.count = per + (i < extra ? 1 : 0);
        base += p.count;
        out.push_back(p);
    }
    return out;
}

std::string
ShardDelta::toJson() const
{
    trace::MetricsRegistry state;
    state.counter("shard.version") = 1;
    state.counter("shard.index") = shard;
    state.counter("shard.base") = base;
    state.counter("shard.count") = count;
    state.counter("shard.signature") = signature;
    state.counter("shard.fingerprint") =
        trace::countersFingerprint(counters);
    for (const auto &[k, v] : counters)
        state.counter(k) = v;
    return state.toJson();
}

ShardDelta
ShardDelta::fromJson(const std::string &text)
{
    if (text.size() > kMaxDocumentBytes)
        throw ShardError(
            "shard delta is implausibly large (" +
            std::to_string(text.size()) + " bytes, limit " +
            std::to_string(kMaxDocumentBytes) +
            "): refusing to parse a corrupt or hostile document");
    if (!trace::flatJsonComplete(text))
        throw ShardError("shard delta is truncated (no closing '}'):"
                         " its writer died mid-write");
    auto kv = trace::parseFlatCounters(text);
    for (const auto &entry : kv)
        if (entry.first.size() > kMaxKeyBytes)
            throw ShardError(
                "shard delta contains a " +
                std::to_string(entry.first.size()) +
                "-byte counter key: the document's structure is "
                "damaged");
    const auto version = kv.find("shard.version");
    if (version == kv.end() || version->second != 1)
        throw ShardVersionError("shard delta: missing or unsupported "
                                "version");
    ShardDelta d;
    d.shard = require(kv, "shard.index");
    d.base = require(kv, "shard.base");
    d.count = require(kv, "shard.count");
    d.signature = require(kv, "shard.signature");
    // The header fields are untrusted input (they arrived in a
    // file): a run range that wraps 64 bits can only be a
    // damaged document, and must not reach range arithmetic.
    if (d.base + d.count < d.base)
        throw ShardError("shard delta run range [" +
                         std::to_string(d.base) + ", +" +
                         std::to_string(d.count) +
                         ") overflows: the header is corrupt");
    const auto fingerprint = require(kv, "shard.fingerprint");
    kv.erase("shard.version");
    kv.erase("shard.index");
    kv.erase("shard.base");
    kv.erase("shard.count");
    kv.erase("shard.signature");
    kv.erase("shard.fingerprint");
    if (fingerprint != trace::countersFingerprint(kv))
        throw ShardError("shard delta fails its integrity "
                         "fingerprint: the document is damaged");
    d.counters = std::move(kv);
    return d;
}

ShardDelta
runShardInProcess(const WorkloadFactory &factory,
                  const EngineConfig &cfg, const ShardPlan &plan)
{
    CampaignEngine engine(factory, cfg);
    const CampaignReport delta = engine.runRange(plan.base, plan.count);
    return {plan.index, plan.base, plan.count, engine.signature(),
            delta.counters()};
}

ShardAggregator::ShardAggregator(CampaignReport skeleton,
                                 std::uint64_t signature,
                                 std::uint64_t total_runs,
                                 std::uint64_t shard_count)
    : skel_(std::move(skeleton)), signature_(signature),
      shardCount_(shard_count),
      plan_(planShards(total_runs, shard_count)),
      have_(static_cast<std::size_t>(shard_count), false)
{
}

bool
ShardAggregator::fold(const ShardDelta &d)
{
    if (d.signature != signature_)
        throw ShardError(
            "shard delta signature does not match this campaign "
            "(mixed configurations or a stale worker?)");
    if (d.shard >= shardCount_)
        throw ShardError("shard index out of range");
    const auto &p = plan_[static_cast<std::size_t>(d.shard)];
    if (d.base != p.base || d.count != p.count)
        throw ShardError("shard range disagrees with the plan "
                         "(a delta planned for another shard count?)");
    if (have_[static_cast<std::size_t>(d.shard)])
        return false;
    for (const auto &[k, v] : d.counters)
        sum_[k] += v;
    have_[static_cast<std::size_t>(d.shard)] = true;
    ++folded_;
    return true;
}

bool
ShardAggregator::has(std::uint64_t shard) const
{
    return shard < shardCount_ &&
           have_[static_cast<std::size_t>(shard)];
}

CampaignReport
ShardAggregator::report() const
{
    if (!complete())
        throw ShardError("campaign incomplete: " +
                         std::to_string(shardCount_ - folded_) +
                         " shard(s) still pending");
    CampaignReport rep = skel_;
    restoreReportCounters(sum_, rep);
    return rep;
}

} // namespace fault
} // namespace warped
