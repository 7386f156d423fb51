/**
 * @file
 * transport_chaos — end-to-end fault drill for the socket transport.
 *
 * Proves the PR-9 contract survives the network: a campaign served
 * over TCP to remote workers — including workers wrapped in a seeded
 * chaos injector (dropped, duplicated, corrupted, truncated frames,
 * surprise disconnects) and workers that hang mid-shard — must
 * produce a report byte-identical to a single-process
 * `warped_sim campaign` run with the same options.
 *
 * Three modes, each registered as its own ctest entry:
 *
 *   --mode smoke   one clean socket worker, --no-local-fallback:
 *                  every shard travels the wire.
 *   --mode hang    the worker goes silent on one shard; heartbeat
 *                  silence must trip re-issue long before the hung
 *                  worker wakes (wall-clock asserted).
 *   --mode chaos   two workers behind adversarial chaos schedules;
 *                  re-issue, duplicate folds, and local fallback
 *                  together must still converge byte-identically.
 *
 * The drill spawns real processes (sim::Subprocess) against the real
 * warped_sim binary — no mocks — so it exercises the same code path
 * a user's distributed campaign does.
 */

#include "common/flags.hh"
#include "sim/stream.hh"
#include "sim/subprocess.hh"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <sys/stat.h>
#include <vector>

using namespace warped;

namespace {

std::string
readWholeFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return {};
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

/** Poll for serve's --port-file and parse the bound port. */
bool
waitForPort(const std::string &path, unsigned &port,
            std::uint64_t timeout_ms)
{
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    while (std::chrono::steady_clock::now() < deadline) {
        const auto text = readWholeFile(path);
        if (!text.empty()) {
            // The file holds "PORT\n" once serve has bound.
            const auto p = cli::parseUint(text.substr(0, text.find('\n')),
                                          65535);
            if (p && *p != 0) {
                port = static_cast<unsigned>(*p);
                return true;
            }
        }
        sim::sleepMs(20);
    }
    return false;
}

std::uint64_t
nowMs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

struct Drill
{
    std::string sim;
    std::string outdir;

    /** Campaign knobs shared by every run in the drill: small enough
     *  for a 1-core CI box, big enough for 5 non-trivial shards. */
    std::vector<std::string>
    workload() const
    {
        return {"SCAN", "--size", "2", "--sites", "40",
                "--seed", "9"};
    }

    std::string path(const char *leaf) const
    {
        return outdir + "/" + leaf;
    }

    bool
    runBaseline(std::string &baseline)
    {
        std::vector<std::string> argv = {sim, "campaign"};
        for (const auto &a : workload())
            argv.push_back(a);
        argv.push_back("--out");
        argv.push_back(path("base.json"));
        const auto res = sim::runSubprocess(argv);
        if (!res.ok()) {
            std::fprintf(stderr,
                         "FAIL: baseline campaign exited %d\n",
                         res.exitCode);
            return false;
        }
        baseline = readWholeFile(path("base.json"));
        if (baseline.empty()) {
            std::fprintf(stderr, "FAIL: baseline report is empty\n");
            return false;
        }
        return true;
    }

    std::vector<std::string>
    serveArgv(const char *outLeaf, const char *portLeaf,
              const std::vector<std::string> &extra)
    {
        std::vector<std::string> argv = {sim, "serve"};
        for (const auto &a : workload())
            argv.push_back(a);
        const std::vector<std::string> tail = {
            "--shards",    "5",
            "--listen",    "127.0.0.1:0",
            "--port-file", path(portLeaf),
            "--out",       path(outLeaf)};
        argv.insert(argv.end(), tail.begin(), tail.end());
        argv.insert(argv.end(), extra.begin(), extra.end());
        return argv;
    }

    std::vector<std::string>
    workerArgv(unsigned port, const std::vector<std::string> &extra)
    {
        std::vector<std::string> argv = {sim, "shard"};
        for (const auto &a : workload())
            argv.push_back(a);
        argv.push_back("--connect");
        argv.push_back("127.0.0.1:" + std::to_string(port));
        argv.insert(argv.end(), extra.begin(), extra.end());
        return argv;
    }
};

bool
compareReports(const std::string &baseline, const std::string &path,
               const char *what)
{
    const auto got = readWholeFile(path);
    if (got.empty()) {
        std::fprintf(stderr, "FAIL: %s wrote no report\n", what);
        return false;
    }
    if (got != baseline) {
        std::fprintf(stderr,
                     "FAIL: %s report differs from the sequential "
                     "baseline (%zu vs %zu bytes)\n",
                     what, got.size(), baseline.size());
        return false;
    }
    std::printf("OK: %s report is byte-identical (%zu bytes)\n",
                what, got.size());
    return true;
}

/** One clean socket worker; --no-local-fallback pins every shard to
 *  the wire, so byte-identity here certifies the framing, the delta
 *  path, and the idempotent folds with zero local help. */
bool
modeSmoke(Drill &d, const std::string &baseline)
{
    std::remove(d.path("smoke.port").c_str());
    sim::Subprocess serve(d.serveArgv(
        "smoke.json", "smoke.port", {"--no-local-fallback"}));
    unsigned port = 0;
    if (!waitForPort(d.path("smoke.port"), port, 10000)) {
        std::fprintf(stderr, "FAIL: serve never published a port\n");
        return false;
    }
    sim::Subprocess worker(d.workerArgv(port, {}));
    const auto ws = worker.wait();
    const auto ss = serve.wait();
    if (!ws.ok() || !ss.ok()) {
        std::fprintf(stderr,
                     "FAIL: smoke exits: worker=%d serve=%d\n",
                     ws.exitCode, ss.exitCode);
        return false;
    }
    return compareReports(baseline, d.path("smoke.json"),
                          "socket smoke");
}

/** The only worker goes silent on shard 2 for kHangMs. Heartbeat
 *  silence (8 x 100ms) plus a short fallback grace must re-issue the
 *  shard locally and finish the campaign while the worker is still
 *  asleep — asserted by wall clock, not by log scraping. */
bool
modeHang(Drill &d, const std::string &baseline)
{
    constexpr std::uint64_t kHangMs = 6000;
    std::remove(d.path("hang.port").c_str());
    const auto t0 = nowMs();
    sim::Subprocess serve(d.serveArgv("hang.json", "hang.port",
                                      {"--heartbeat", "100",
                                       "--grace", "400"}));
    unsigned port = 0;
    if (!waitForPort(d.path("hang.port"), port, 10000)) {
        std::fprintf(stderr, "FAIL: serve never published a port\n");
        return false;
    }
    sim::Subprocess worker(d.workerArgv(
        port, {"--hang-for-shard", "2", "--hang-ms",
               std::to_string(kHangMs)}));
    const auto ss = serve.wait();
    const auto elapsed = nowMs() - t0;
    worker.kill(); // it may still be napping; the drill is done
    worker.wait();
    if (!ss.ok()) {
        std::fprintf(stderr, "FAIL: serve exited %d\n",
                     ss.exitCode);
        return false;
    }
    if (elapsed >= kHangMs) {
        std::fprintf(stderr,
                     "FAIL: campaign took %llu ms — it waited out "
                     "the %llu ms hang instead of re-issuing on "
                     "heartbeat silence\n",
                     static_cast<unsigned long long>(elapsed),
                     static_cast<unsigned long long>(kHangMs));
        return false;
    }
    std::printf("OK: hung shard re-issued; campaign done in "
                "%llu ms (hang was %llu ms)\n",
                static_cast<unsigned long long>(elapsed),
                static_cast<unsigned long long>(kHangMs));
    return compareReports(baseline, d.path("hang.json"),
                          "hang drill");
}

/** Two workers behind independent adversarial chaos schedules. Every
 *  failure class fires: dropped and truncated frames surface as
 *  heartbeat silence, corrupt frames as CRC desync, duplicates as
 *  redundant folds, disconnects as reconnect-with-backoff. Local
 *  fallback stays enabled so the campaign always terminates; the
 *  report must still match the baseline byte for byte. */
bool
modeChaos(Drill &d, const std::string &baseline)
{
    std::remove(d.path("chaos.port").c_str());
    // --strikes 6: the default 3-strike budget is tuned for real
    // networks, where three consecutive failures of one shard mean a
    // broken configuration. This drill's injector *manufactures*
    // consecutive failures (~30% per attempt), so 3 strikes would
    // abort a healthy campaign a few percent of the time; 6 keeps
    // the abort path reachable while making false aborts vanishingly
    // rare.
    sim::Subprocess serve(d.serveArgv("chaos.json", "chaos.port",
                                      {"--heartbeat", "120",
                                       "--strikes", "6"}));
    unsigned port = 0;
    if (!waitForPort(d.path("chaos.port"), port, 10000)) {
        std::fprintf(stderr, "FAIL: serve never published a port\n");
        return false;
    }
    const char *kRates = ",drop=0.12,dup=0.15,corrupt=0.08,"
                         "trunc=0.06,disc=0.04";
    sim::Subprocess w1(d.workerArgv(
        port, {"--chaos", std::string("seed=3") + kRates,
               "--connect-attempts", "12"}));
    sim::Subprocess w2(d.workerArgv(
        port, {"--chaos", std::string("seed=11") + kRates,
               "--connect-attempts", "12"}));
    const auto ss = serve.wait();
    // Chaotic workers may exit 0 (served something) or 1 (their
    // schedule starved them out); either is legitimate. Only serve's
    // verdict and the report bytes are the contract.
    w1.wait();
    w2.wait();
    if (!ss.ok()) {
        std::fprintf(stderr, "FAIL: serve exited %d under chaos\n",
                     ss.exitCode);
        return false;
    }
    return compareReports(baseline, d.path("chaos.json"),
                          "chaos drill");
}

} // namespace

int
main(int argc, char **argv)
{
    Drill d;
    std::string mode = "all";
    cli::FlagTable t("transport_chaos",
                     "--sim PATH --outdir DIR [--mode MODE]",
                     "End-to-end fault drill for the socket transport.\n");
    t.text("--sim", d.sim, "PATH", "the warped_sim binary under test");
    t.text("--outdir", d.outdir, "DIR", "directory for the drill's reports");
    const std::vector<std::string> modes = {"smoke", "hang", "chaos", "all"};
    t.choice("--mode", modes, [&](std::size_t i) { mode = modes[i]; },
             "which drill to run", mode);
    if (const auto rc = t.parseOrUsage(argc, argv))
        return *rc;
    if (d.sim.empty() || d.outdir.empty())
        return t.fail("--sim and --outdir are required");
    ::mkdir(d.outdir.c_str(), 0755);

    std::string baseline;
    if (!d.runBaseline(baseline))
        return 1;

    bool ok = true;
    if (mode == "smoke" || mode == "all")
        ok = modeSmoke(d, baseline) && ok;
    if (mode == "hang" || mode == "all")
        ok = modeHang(d, baseline) && ok;
    if (mode == "chaos" || mode == "all")
        ok = modeChaos(d, baseline) && ok;
    std::printf("%s\n", ok ? "transport_chaos: all drills passed"
                           : "transport_chaos: FAILURES");
    return ok ? 0 : 1;
}
