#include "fault/shard.hh"

#include "common/logging.hh"
#include "trace/metrics.hh"

namespace warped {
namespace fault {

namespace {

/** Keys that are configuration echo, not accumulated state: the
 *  aggregator takes them from its own skeleton and must NOT sum them
 *  across deltas. */
bool
isEchoKey(const std::string &k)
{
    return k == "campaign.span" || k == "campaign.space.size" ||
           k.compare(0, 16, "campaign.strata.") == 0;
}

std::uint64_t
require(const std::map<std::string, std::uint64_t> &kv,
        const char *key, const char *what)
{
    const auto it = kv.find(key);
    if (it == kv.end())
        throw ShardError(std::string(what) + ": missing " + key);
    return it->second;
}

/** Upper bound on a delta/state document, which arrives from outside
 *  the process (a worker's file, a resumed state file). A real delta
 *  is KiB-to-MiB of flat counters, so 64 MiB leaves a wide margin;
 *  anything bigger is a runaway or corrupt file, and parsing it would
 *  just burn memory before failing the fingerprint anyway. */
constexpr std::size_t kMaxDocumentBytes = 64u * 1024 * 1024;

/** Upper bound on a single counter key. The longest legitimate keys
 *  are strata echoes ("campaign.strata.<unit>.<bucket>..."), well
 *  under a hundred bytes; a multi-KiB key means the document's
 *  quoting was damaged and a chunk of text fused into one "key". */
constexpr std::size_t kMaxKeyBytes = 4096;

void
boundDocument(const std::string &text, const char *what)
{
    if (text.size() > kMaxDocumentBytes)
        throw ShardError(
            std::string(what) + " is implausibly large (" +
            std::to_string(text.size()) + " bytes, limit " +
            std::to_string(kMaxDocumentBytes) +
            "): refusing to parse a corrupt or hostile document");
}

void
boundKeys(const std::map<std::string, std::uint64_t> &kv,
          const char *what)
{
    for (const auto &[k, v] : kv) {
        (void)v;
        if (k.size() > kMaxKeyBytes)
            throw ShardError(
                std::string(what) + " contains a " +
                std::to_string(k.size()) +
                "-byte counter key: the document's structure is "
                "damaged");
    }
}

/** Strict decimal parse for the shard index embedded in an
 *  "aggregator.have.N" key. Returns false on any non-digit — a
 *  corrupted state file must be diagnosed, not crash the
 *  orchestrator through an unhandled std::invalid_argument. */
bool
parseHaveIndex(const std::string &key, std::uint64_t &idx)
{
    const std::string digits = key.substr(16);
    if (digits.empty() || digits.size() > 20)
        return false;
    std::uint64_t v = 0;
    for (const char c : digits) {
        if (c < '0' || c > '9')
            return false;
        const std::uint64_t next = v * 10 + std::uint64_t(c - '0');
        if (next < v)
            return false; // overflowed 64 bits
        v = next;
    }
    idx = v;
    return true;
}

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
    boundDocument(text, "shard delta");
    if (!trace::flatJsonComplete(text))
        throw ShardError("shard delta is truncated (no closing '}'):"
                         " the worker died mid-write");
    auto kv = trace::parseFlatCounters(text);
    boundKeys(kv, "shard delta");
    ShardDelta d;
    if (require(kv, "shard.version", "shard delta") != 1)
        throw ShardError("shard delta: unsupported version");
    d.shard = require(kv, "shard.index", "shard delta");
    d.base = require(kv, "shard.base", "shard delta");
    d.count = require(kv, "shard.count", "shard delta");
    d.signature = require(kv, "shard.signature", "shard delta");
    // The header fields are untrusted input (they arrived in a
    // worker's file): a run range that wraps 64 bits can only be a
    // damaged document, and must not reach range arithmetic.
    if (d.base + d.count < d.base)
        throw ShardError("shard delta run range [" +
                         std::to_string(d.base) + ", +" +
                         std::to_string(d.count) +
                         ") overflows: the header is corrupt");
    const auto fingerprint =
        require(kv, "shard.fingerprint", "shard delta");
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
runShard(CampaignEngine &engine, const ShardPlan &plan)
{
    const CampaignReport delta = engine.runRange(plan.base, plan.count);
    ShardDelta d;
    d.shard = plan.index;
    d.base = plan.base;
    d.count = plan.count;
    d.signature = engine.signature();
    d.counters = delta.toMetrics().counters();
    return d;
}

ShardDelta
runShardInProcess(const WorkloadFactory &factory,
                  const EngineConfig &cfg, const ShardPlan &plan)
{
    CampaignEngine engine(factory, cfg);
    return runShard(engine, plan);
}

ShardAggregator::ShardAggregator(CampaignReport skeleton,
                                 std::uint64_t signature,
                                 std::uint64_t total_runs,
                                 std::uint64_t shard_count)
    : skel_(std::move(skeleton)), signature_(signature),
      totalRuns_(total_runs), shardCount_(shard_count),
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
                         "(mismatched --shards between orchestrator "
                         "and worker?)");
    if (have_[static_cast<std::size_t>(d.shard)])
        return false;
    for (const auto &[k, v] : d.counters) {
        if (isEchoKey(k))
            continue;
        sum_[k] += v;
    }
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

std::vector<std::uint64_t>
ShardAggregator::pendingShards() const
{
    std::vector<std::uint64_t> out;
    for (std::uint64_t i = 0; i < shardCount_; ++i)
        if (!have_[static_cast<std::size_t>(i)])
            out.push_back(i);
    return out;
}

std::uint64_t
ShardAggregator::sampled() const
{
    const auto it = sum_.find("campaign.sampled");
    return it == sum_.end() ? 0 : it->second;
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

std::string
ShardAggregator::stateJson() const
{
    trace::MetricsRegistry state;
    state.counter("aggregator.version") = 1;
    state.counter("aggregator.signature") = signature_;
    state.counter("aggregator.total_runs") = totalRuns_;
    state.counter("aggregator.shard_count") = shardCount_;
    for (std::uint64_t i = 0; i < shardCount_; ++i)
        if (have_[static_cast<std::size_t>(i)])
            state.counter("aggregator.have." + std::to_string(i)) = 1;
    state.counter("aggregator.fingerprint") =
        trace::countersFingerprint(sum_);
    for (const auto &[k, v] : sum_)
        state.counter(k) = v;
    return state.toJson();
}

bool
ShardAggregator::loadState(const std::string &text)
{
    boundDocument(text, "aggregator state");
    if (!trace::flatJsonComplete(text))
        throw ShardError(
            "aggregator state is truncated (no closing '}'): the "
            "previous orchestrator crashed mid-write; delete the "
            "state file to restart from zero");
    auto kv = trace::parseFlatCounters(text);
    boundKeys(kv, "aggregator state");
    const auto get = [&](const char *key) -> std::uint64_t {
        const auto it = kv.find(key);
        return it == kv.end() ? 0 : it->second;
    };
    if (get("aggregator.version") != 1 ||
        get("aggregator.signature") != signature_ ||
        get("aggregator.total_runs") != totalRuns_ ||
        get("aggregator.shard_count") != shardCount_) {
        warped_warn("serve: aggregator state does not match this "
                    "campaign; ignoring");
        return false;
    }
    const auto fingerprint = get("aggregator.fingerprint");
    std::vector<bool> have(static_cast<std::size_t>(shardCount_),
                           false);
    for (auto it = kv.begin(); it != kv.end();) {
        const std::string &k = it->first;
        if (k.compare(0, 11, "aggregator.") == 0) {
            if (k.compare(0, 16, "aggregator.have.") == 0) {
                std::uint64_t idx = 0;
                if (!parseHaveIndex(k, idx))
                    throw ShardError(
                        "aggregator state contains a malformed "
                        "shard marker '" +
                        k +
                        "': the file is damaged; delete it to "
                        "restart from zero");
                if (idx < shardCount_ && it->second)
                    have[static_cast<std::size_t>(idx)] = true;
            }
            it = kv.erase(it);
        } else {
            ++it;
        }
    }
    if (fingerprint != trace::countersFingerprint(kv))
        throw ShardError(
            "aggregator state fails its integrity fingerprint: the "
            "file is damaged; delete it to restart from zero");
    sum_ = std::move(kv);
    have_ = std::move(have);
    folded_ = 0;
    for (const auto b : have_)
        folded_ += b ? 1 : 0;
    return true;
}

} // namespace fault
} // namespace warped
