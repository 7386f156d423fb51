#include "sim/chaos.hh"

#include "common/flags.hh"
#include "common/rng.hh"

#include <cstdio>
#include <stdexcept>
#include <string>

namespace warped {
namespace sim {

namespace {

double
parseProb(const std::string &key, const std::string &val)
{
    const auto v = cli::parseReal(val);
    if (!v || *v < 0.0 || *v > 1.0)
        throw std::invalid_argument("chaos: " + key +
                                    " expects a probability in "
                                    "[0,1], got '" +
                                    val + "'");
    return *v;
}

std::uint64_t
parseU64(const std::string &key, const std::string &val)
{
    if (const auto v = cli::parseUint(val, ~std::uint64_t{0}))
        return *v;
    throw std::invalid_argument("chaos: " + key +
                                " expects an integer, got '" + val + "'");
}

} // namespace

ChaosConfig
ChaosConfig::parse(const std::string &spec)
{
    ChaosConfig c;
    std::size_t i = 0;
    while (i < spec.size()) {
        auto comma = spec.find(',', i);
        if (comma == std::string::npos)
            comma = spec.size();
        const std::string kv = spec.substr(i, comma - i);
        const auto eq = kv.find('=');
        if (eq == std::string::npos)
            throw std::invalid_argument(
                "chaos: expected key=value, got '" + kv + "'");
        const std::string k = kv.substr(0, eq);
        const std::string v = kv.substr(eq + 1);
        if (k == "seed")
            c.seed = parseU64(k, v);
        else if (k == "drop")
            c.dropFrame = parseProb(k, v);
        else if (k == "dup")
            c.dupFrame = parseProb(k, v);
        else if (k == "corrupt")
            c.corruptByte = parseProb(k, v);
        else if (k == "trunc")
            c.truncateFrame = parseProb(k, v);
        else if (k == "disc")
            c.disconnect = parseProb(k, v);
        else if (k == "delay")
            c.delayMs = parseU64(k, v);
        else if (k == "delayp")
            c.delayFrame = parseProb(k, v);
        else
            throw std::invalid_argument("chaos: unknown key '" + k +
                                        "' (expected seed, drop, "
                                        "dup, corrupt, trunc, disc, "
                                        "delay, delayp)");
        i = comma + 1;
    }
    return c;
}

std::string
ChaosConfig::toString() const
{
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "chaos(seed=%llu drop=%.2f dup=%.2f corrupt=%.2f "
                  "trunc=%.2f disc=%.2f delay=%llums@%.2f)",
                  static_cast<unsigned long long>(seed), dropFrame,
                  dupFrame, corruptByte, truncateFrame, disconnect,
                  static_cast<unsigned long long>(delayMs),
                  delayFrame);
    return buf;
}

ChaosTransport::ChaosTransport(std::unique_ptr<Stream> inner,
                               ChaosConfig cfg)
    : inner_(std::move(inner)), cfg_(cfg)
{
}

double
ChaosTransport::roll()
{
    const auto bits = splitmix64(cfg_.seed ^ ctr_++);
    return double(bits >> 11) * 0x1.0p-53;
}

int
ChaosTransport::read(void *buf, std::size_t n, int timeout_ms)
{
    return inner_->read(buf, n, timeout_ms);
}

bool
ChaosTransport::write(const void *buf, std::size_t n)
{
    // One protocol frame per call (see chaos.hh). Decision order is
    // fixed so a seed fully determines the schedule.
    if (cfg_.disconnect > 0 && roll() < cfg_.disconnect) {
        ++faults_;
        inner_->close();
        return false;
    }
    if (cfg_.dropFrame > 0 && roll() < cfg_.dropFrame) {
        ++faults_;
        return true; // claimed sent, never left
    }
    if (cfg_.delayFrame > 0 && roll() < cfg_.delayFrame) {
        ++faults_;
        sleepMs(cfg_.delayMs);
    }
    if (cfg_.truncateFrame > 0 && roll() < cfg_.truncateFrame &&
        n > 1) {
        ++faults_;
        // A prefix leaves the NIC, then the "crash": the peer's
        // FrameReader must diagnose the desync, not wedge.
        const std::size_t cut =
            1 + static_cast<std::size_t>(roll() * double(n - 1));
        (void)inner_->write(buf, cut);
        inner_->close();
        return false;
    }
    if (cfg_.corruptByte > 0 && roll() < cfg_.corruptByte) {
        ++faults_;
        std::string copy(static_cast<const char *>(buf), n);
        const auto at = static_cast<std::size_t>(roll() * double(n));
        copy[at < n ? at : n - 1] ^= 0x20;
        bool ok = inner_->write(copy.data(), copy.size());
        return ok;
    }
    if (!inner_->write(buf, n))
        return false;
    if (cfg_.dupFrame > 0 && roll() < cfg_.dupFrame) {
        ++faults_;
        return inner_->write(buf, n); // the echo
    }
    return true;
}

void
ChaosTransport::close()
{
    inner_->close();
}

bool
ChaosTransport::isClosed() const
{
    return inner_->isClosed();
}

std::unique_ptr<Stream>
maybeChaos(std::unique_ptr<Stream> s, const ChaosConfig &cfg)
{
    if (!s || !cfg.enabled())
        return s;
    return std::make_unique<ChaosTransport>(std::move(s), cfg);
}

} // namespace sim
} // namespace warped
