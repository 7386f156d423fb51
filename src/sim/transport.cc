#include "sim/transport.hh"

#include "common/logging.hh"
#include "sim/subprocess.hh"

#include <cstdio>
#include <fstream>
#include <sstream>

namespace warped {
namespace sim {

namespace {

std::string
shardDeltaPath(const std::string &prefix, std::uint64_t shard)
{
    return prefix + ".shard" + std::to_string(shard) + ".json";
}

bool
readWholeFile(const std::string &path, std::string &out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream ss;
    ss << in.rdbuf();
    out = ss.str();
    return in.good() || in.eof();
}

} // namespace

SubprocessTransport::SubprocessTransport(SubprocessTransportConfig cfg)
    : cfg_(std::move(cfg))
{
    if (cfg_.workerArgv.empty())
        warped_panic("SubprocessTransport: empty worker argv");
}

TransportResult
SubprocessTransport::runShard(std::uint64_t shard, unsigned attempt)
{
    const std::string deltaPath =
        shardDeltaPath(cfg_.deltaPrefix, shard);
    std::remove(deltaPath.c_str());

    std::vector<std::string> argv = cfg_.workerArgv;
    argv.push_back("--shard-index");
    argv.push_back(std::to_string(shard));
    argv.push_back("--shard-count");
    argv.push_back(std::to_string(cfg_.shardCount));
    argv.push_back("--expect-signature");
    argv.push_back(std::to_string(cfg_.signature));
    argv.push_back("--delta-out");
    argv.push_back(deltaPath);
    const bool hangDrill =
        attempt == 1 && shard == cfg_.hangShard;
    if (hangDrill) {
        argv.push_back("--hang-for-shard");
        argv.push_back(std::to_string(shard));
        argv.push_back("--hang-ms");
        argv.push_back(std::to_string(cfg_.hangMs));
    }

    Subprocess proc(argv);
    if (attempt == 1 && shard == cfg_.killShard)
        proc.kill();

    SubprocessResult st;
    if (cfg_.deadlineMs > 0) {
        auto r = proc.waitFor(cfg_.deadlineMs);
        if (!r) {
            // Hung child: reclaim it and fail the shard back. This
            // is the path a wedged worker takes instead of wedging
            // the orchestrator with it.
            proc.kill();
            proc.wait();
            TransportResult res;
            res.status = TransportResult::Status::Failed;
            res.diag = "worker exceeded the " +
                       std::to_string(cfg_.deadlineMs) +
                       "ms shard deadline (hung); killed";
            return res;
        }
        st = *r;
    } else {
        st = proc.wait();
    }

    TransportResult res;
    if (st.signaled) {
        res.status = TransportResult::Status::Failed;
        res.diag = "worker killed by signal " +
                   std::to_string(st.termSignal);
        return res;
    }
    if (st.exitCode == 3) {
        res.status = TransportResult::Status::Reject;
        res.diag = "worker rejected the configuration "
                   "(signature mismatch, exit 3)";
        return res;
    }
    if (st.exitCode != 0) {
        res.status = TransportResult::Status::Failed;
        res.diag =
            "worker exited with code " + std::to_string(st.exitCode);
        return res;
    }
    if (!readWholeFile(deltaPath, res.deltaJson)) {
        res.status = TransportResult::Status::Failed;
        res.diag = "worker exited 0 but left no readable delta at " +
                   deltaPath;
        return res;
    }
    std::remove(deltaPath.c_str());
    res.status = TransportResult::Status::Delivered;
    return res;
}

} // namespace sim
} // namespace warped
