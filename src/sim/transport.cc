#include "sim/transport.hh"

#include "common/flags.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "sim/subprocess.hh"

#include <chrono>
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

/** Split "<shard>\n<json>" (the Delta payload). Returns false when
 *  the prefix is missing or non-numeric. */
bool
splitDeltaPayload(const std::string &payload, std::uint64_t &shard,
                  std::string &json)
{
    const auto nl = payload.find('\n');
    if (nl == std::string::npos || nl == 0)
        return false;
    const auto v = cli::parseUint(payload.substr(0, nl), ~std::uint64_t{0});
    if (!v)
        return false;
    shard = *v;
    json = payload.substr(nl + 1);
    return true;
}

} // namespace

// ---------------------------------------------------------------------
// SubprocessTransport

SubprocessTransport::SubprocessTransport(SubprocessTransportConfig cfg)
    : cfg_(std::move(cfg))
{
    if (cfg_.workerArgv.empty())
        warped_panic("SubprocessTransport: empty worker argv");
}

std::string
SubprocessTransport::describe() const
{
    return "subprocess";
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

// ---------------------------------------------------------------------
// SocketTransport

SocketTransport::SocketTransport(SocketTransportConfig cfg)
    : cfg_(std::move(cfg)), listener_(cfg_.host, cfg_.port)
{
    if (cfg_.heartbeatMs == 0)
        cfg_.heartbeatMs = 250;
    if (cfg_.heartbeatTimeoutMs == 0)
        cfg_.heartbeatTimeoutMs = cfg_.heartbeatMs * 8;
    acceptor_ = std::thread([this] { acceptLoop(); });
}

SocketTransport::~SocketTransport()
{
    stop();
}

std::string
SocketTransport::describe() const
{
    return "socket(" + cfg_.host + ":" +
           std::to_string(listener_.port()) + ")";
}

void
SocketTransport::acceptLoop()
{
    for (;;) {
        {
            std::lock_guard<std::mutex> lk(mu_);
            if (stopping_)
                return;
        }
        auto s = listener_.accept(100);
        if (!s)
            continue;
        // Handshake: the first frame must be a Hello carrying a
        // matching configuration signature. A mismatched worker is
        // told why (Reject) and must exit 3 — the same permanent
        // contract as the file-based worker.
        wire::FrameReader rd;
        char buf[4096];
        const std::uint64_t start = monotonicMs();
        bool joined = false;
        while (monotonicMs() - start < 2000) {
            int r = s->read(buf, sizeof(buf), 200);
            if (r == Stream::kTimeout)
                continue;
            if (r <= 0)
                break;
            std::optional<wire::Frame> f;
            try {
                rd.feed(buf, static_cast<std::size_t>(r));
                f = rd.next();
            } catch (const wire::WireError &e) {
                warped_warn("serve: dropping connection with corrupt "
                           "hello: ",
                           e.what());
                break;
            }
            if (!f)
                continue;
            if (f->type != wire::MsgType::Hello)
                continue; // tolerate stray frames before the Hello
            const auto sig = cli::parseUint(f->payload, ~std::uint64_t{0});
            if (!sig) {
                warped_warn("serve: dropping connection with "
                           "malformed hello payload");
                break;
            }
            if (*sig != cfg_.signature) {
                // Count before replying: the worker exits on the
                // Reject, and whoever waits on it may read the count.
                {
                    std::lock_guard<std::mutex> lk(mu_);
                    ++workersRejected_;
                }
                (void)s->write(wire::encodeFrame(
                    wire::MsgType::Reject,
                    "configuration signature mismatch: orchestrator "
                    "has " +
                        std::to_string(cfg_.signature) +
                        ", worker computed " + std::to_string(*sig)));
                break;
            }
            joined = true;
            break;
        }
        if (!joined) {
            s->close();
            continue;
        }
        auto conn = std::make_shared<Conn>();
        conn->stream = std::move(s);
        {
            std::lock_guard<std::mutex> lk(mu_);
            conn->id = nextConnId_++;
            ++workersJoined_;
            idle_.push_back(std::move(conn));
        }
        cv_.notify_all();
    }
}

std::shared_ptr<SocketTransport::Conn>
SocketTransport::takeIdle(std::uint64_t wait_ms)
{
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait_for(lk, std::chrono::milliseconds(wait_ms),
                 [&] { return !idle_.empty() || stopping_; });
    if (idle_.empty())
        return nullptr;
    auto c = idle_.front();
    idle_.pop_front();
    return c;
}

void
SocketTransport::parkIdle(std::shared_ptr<Conn> c)
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        idle_.push_back(std::move(c));
    }
    cv_.notify_all();
}

TransportResult
SocketTransport::runOn(Conn &conn, std::uint64_t shard,
                       bool &assignLost)
{
    assignLost = false;
    const std::string assign =
        std::to_string(shard) + " " +
        std::to_string(cfg_.shardCount) + " " +
        std::to_string(cfg_.heartbeatMs);
    if (!conn.stream->write(
            wire::encodeFrame(wire::MsgType::Assign, assign))) {
        // The idle connection was already dead — no worker ever saw
        // this assignment, so it must not count as a shard strike.
        assignLost = true;
        TransportResult res;
        res.diag = "stale idle connection";
        return res;
    }

    const std::uint64_t start = monotonicMs();
    std::uint64_t lastBeat = start;
    char buf[65536];
    for (;;) {
        const std::uint64_t now = monotonicMs();
        if (cfg_.deadlineMs > 0 && now - start >= cfg_.deadlineMs) {
            conn.stream->close();
            TransportResult res;
            res.diag = "shard exceeded the " +
                       std::to_string(cfg_.deadlineMs) +
                       "ms deadline on worker #" +
                       std::to_string(conn.id);
            return res;
        }
        if (now - lastBeat >= cfg_.heartbeatTimeoutMs) {
            conn.stream->close();
            TransportResult res;
            res.diag = "worker #" + std::to_string(conn.id) +
                       " went silent for " +
                       std::to_string(now - lastBeat) +
                       "ms (heartbeat timeout " +
                       std::to_string(cfg_.heartbeatTimeoutMs) +
                       "ms): hung";
            return res;
        }
        std::uint64_t waitMs =
            cfg_.heartbeatTimeoutMs - (now - lastBeat);
        if (cfg_.deadlineMs > 0) {
            const std::uint64_t toDeadline =
                cfg_.deadlineMs - (now - start);
            if (toDeadline < waitMs)
                waitMs = toDeadline;
        }

        // Drain buffered frames first: a previous read may have
        // delivered several frames in one chunk.
        std::optional<wire::Frame> f;
        try {
            f = conn.reader.next();
            if (!f) {
                const int r = conn.stream->read(
                    buf, sizeof(buf), static_cast<int>(waitMs));
                if (r == Stream::kTimeout)
                    continue;
                if (r <= 0) {
                    conn.stream->close();
                    TransportResult res;
                    res.diag = "worker #" + std::to_string(conn.id) +
                               " disconnected mid-shard";
                    return res;
                }
                conn.reader.feed(buf, static_cast<std::size_t>(r));
                continue;
            }
        } catch (const wire::WireError &e) {
            conn.stream->close();
            TransportResult res;
            res.diag = "corrupt frame from worker #" +
                       std::to_string(conn.id) + ": " + e.what();
            return res;
        }

        switch (f->type) {
        case wire::MsgType::Heartbeat:
            lastBeat = monotonicMs();
            break;
        case wire::MsgType::Delta: {
            std::uint64_t deltaShard = 0;
            std::string json;
            if (!splitDeltaPayload(f->payload, deltaShard, json)) {
                conn.stream->close();
                TransportResult res;
                res.diag = "malformed delta payload from worker #" +
                           std::to_string(conn.id);
                return res;
            }
            if (deltaShard != shard) {
                // A stale duplicate from a previous assignment
                // (chaos dup) — ignore it, the real answer is still
                // coming. It also proves the worker is alive.
                lastBeat = monotonicMs();
                break;
            }
            TransportResult res;
            res.status = TransportResult::Status::Delivered;
            res.deltaJson = std::move(json);
            return res;
        }
        case wire::MsgType::Hello:
            break; // duplicate Hello (chaos dup) — harmless
        default:
            break; // unexpected but well-formed — ignore
        }
    }
}

TransportResult
SocketTransport::runShard(std::uint64_t shard, unsigned attempt)
{
    for (;;) {
        auto conn = takeIdle(cfg_.graceMs);
        if (!conn) {
            if (cfg_.fallback) {
                {
                    std::lock_guard<std::mutex> lk(mu_);
                    ++fallbackRuns_;
                }
                warped_inform("serve: no idle socket worker within ",
                           cfg_.graceMs, "ms, running shard ", shard,
                           " via ", cfg_.fallback->describe());
                return cfg_.fallback->runShard(shard, attempt);
            }
            {
                std::lock_guard<std::mutex> lk(mu_);
                if (stopping_) {
                    TransportResult res;
                    res.diag = "transport stopped";
                    return res;
                }
            }
            warped_inform("serve: still waiting for a socket worker "
                       "for shard ",
                       shard, " (no local fallback)");
            continue;
        }
        bool assignLost = false;
        TransportResult res = runOn(*conn, shard, assignLost);
        if (res.status == TransportResult::Status::Delivered) {
            {
                std::lock_guard<std::mutex> lk(mu_);
                ++remoteDelivered_;
            }
            parkIdle(std::move(conn));
            return res;
        }
        // Failed connection: drop it (the worker reconnects with
        // backoff if it is still alive).
        if (assignLost)
            continue; // try another worker; no strike burned
        return res;
    }
}

void
SocketTransport::stop()
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        if (stopping_)
            return;
        stopping_ = true;
    }
    cv_.notify_all();
    if (acceptor_.joinable())
        acceptor_.join();
    listener_.close();
    std::deque<std::shared_ptr<Conn>> idle;
    {
        std::lock_guard<std::mutex> lk(mu_);
        idle.swap(idle_);
    }
    const std::string bye =
        wire::encodeFrame(wire::MsgType::Bye, "");
    for (auto &c : idle) {
        (void)c->stream->write(bye);
        c->stream->close();
    }
}

std::uint64_t
SocketTransport::remoteDeliveries() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return remoteDelivered_;
}

std::uint64_t
SocketTransport::fallbackRuns() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return fallbackRuns_;
}

std::uint64_t
SocketTransport::workersJoined() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return workersJoined_;
}

std::uint64_t
SocketTransport::workersRejected() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return workersRejected_;
}

// ---------------------------------------------------------------------
// Socket worker

namespace {

struct WorkerSession
{
    enum class End
    {
        Dropped, ///< connection lost — reconnect with backoff
        Bye,     ///< orchestrator dismissed us — exit 0
        Reject,  ///< permanent refusal — exit 3
    };
    End end = End::Dropped;
    bool servedAny = false;
};

WorkerSession
serveSession(Stream &s, const SocketWorkerConfig &cfg,
             const ShardComputeFn &compute, bool &hangDone)
{
    WorkerSession session;
    std::mutex writeMu; // heartbeat thread vs. delta/ack writes
    if (!s.write(wire::encodeFrame(wire::MsgType::Hello,
                                   std::to_string(cfg.signature))))
        return session;

    wire::FrameReader rd;
    char buf[65536];
    for (;;) {
        std::optional<wire::Frame> f;
        try {
            f = rd.next();
            if (!f) {
                const int r = s.read(buf, sizeof(buf), -1);
                if (r <= 0)
                    return session;
                rd.feed(buf, static_cast<std::size_t>(r));
                continue;
            }
        } catch (const wire::WireError &e) {
            warped_warn("worker: corrupt frame from orchestrator (",
                       e.what(), "), dropping connection");
            return session;
        }

        switch (f->type) {
        case wire::MsgType::Bye:
            session.end = WorkerSession::End::Bye;
            return session;
        case wire::MsgType::Reject:
            warped_warn("worker: rejected by orchestrator: ",
                       f->payload);
            session.end = WorkerSession::End::Reject;
            return session;
        case wire::MsgType::Assign: {
            std::uint64_t shard = 0, count = 0, hbMs = 0;
            {
                std::istringstream in(f->payload);
                if (!(in >> shard >> count >> hbMs) || count == 0) {
                    warped_warn("worker: malformed assign payload '",
                               f->payload, "', dropping connection");
                    return session;
                }
            }
            if (shard == cfg.hangShard && !hangDone) {
                // The wedge drill: go completely silent — no
                // heartbeats, no delta — until the orchestrator's
                // heartbeat timeout condemns us and re-issues the
                // shard elsewhere.
                hangDone = true;
                warped_inform("worker: hang drill — going silent on "
                           "shard ",
                           shard, " for ", cfg.hangMs, "ms");
                sleepMs(cfg.hangMs);
                return session;
            }
            if (hbMs == 0)
                hbMs = 250;
            std::atomic<bool> computing{true};
            std::thread beater([&] {
                std::uint64_t lastSent = monotonicMs();
                while (computing.load(std::memory_order_relaxed)) {
                    sleepMs(10);
                    const std::uint64_t now = monotonicMs();
                    if (now - lastSent < hbMs)
                        continue;
                    lastSent = now;
                    std::lock_guard<std::mutex> lk(writeMu);
                    if (!s.write(wire::encodeFrame(
                            wire::MsgType::Heartbeat, "")))
                        return;
                }
            });
            std::string json;
            bool computed = true;
            try {
                json = compute(shard, count);
            } catch (const std::exception &e) {
                computed = false;
                warped_warn("worker: shard ", shard,
                           " computation failed: ", e.what());
            }
            computing.store(false, std::memory_order_relaxed);
            beater.join();
            if (!computed)
                return session; // drop; orchestrator re-issues
            bool sent;
            {
                std::lock_guard<std::mutex> lk(writeMu);
                sent = s.write(wire::encodeFrame(
                    wire::MsgType::Delta,
                    std::to_string(shard) + "\n" + json));
            }
            if (!sent)
                return session;
            session.servedAny = true;
            break;
        }
        default:
            break; // unexpected but well-formed — ignore
        }
    }
}

} // namespace

int
runSocketWorker(const SocketWorkerConfig &cfg,
                const ShardComputeFn &compute)
{
    unsigned strikes = 0;
    bool everServed = false;
    bool hangDone = false;
    std::uint64_t chaosSession = 0;
    for (;;) {
        auto s =
            connectTcp(cfg.host, cfg.port,
                       static_cast<int>(cfg.connectTimeoutMs));
        if (s) {
            // Each session gets its own chaos schedule, derived
            // deterministically from (seed, session index). Replaying
            // the *same* schedule on every reconnect would corrupt
            // the same-position frame in every session — a retry that
            // can never succeed, which models nothing real and
            // defeats the 3-strike budget by construction.
            ChaosConfig chaos = cfg.chaos;
            chaos.seed = splitmix64(
                chaos.seed ^
                (0x9E3779B97F4A7C15ull * ++chaosSession));
            s = maybeChaos(std::move(s), chaos);
            const WorkerSession session =
                serveSession(*s, cfg, compute, hangDone);
            s->close();
            if (session.end == WorkerSession::End::Bye)
                return 0;
            if (session.end == WorkerSession::End::Reject)
                return 3;
            everServed = everServed || session.servedAny;
            if (session.servedAny)
                strikes = 0; // a productive session resets the clock
        }
        ++strikes;
        if (strikes > cfg.connectAttempts) {
            if (everServed) {
                warped_inform("worker: orchestrator gone after ",
                           strikes,
                           " attempts; work delivered, exiting");
                return 0;
            }
            warped_warn("worker: could not reach orchestrator at ",
                       cfg.host, ":", cfg.port, " after ", strikes,
                       " attempts");
            return 1;
        }
        const std::uint64_t delay = backoffDelayMs(
            cfg.backoffBaseMs, cfg.backoffCapMs, strikes, cfg.seed);
        sleepMs(delay);
    }
}

} // namespace sim
} // namespace warped
