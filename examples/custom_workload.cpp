/**
 * @file
 * Tutorial: bringing your own kernel to the Warped-DMR harness by
 * implementing the workloads::Workload interface. The example kernel
 * is a histogram over random bytes — per-block shared-memory bins
 * with a divergent increment loop, i.e. a workload shape the built-in
 * eleven do not cover. Implementing the interface buys you the whole
 * toolbox: verified runs, coverage/overhead accounting, scheme
 * comparison and fault campaigns.
 *
 *   $ ./custom_workload
 */

#include <cstdio>

#include "common/logging.hh"
#include "fault/campaign_engine.hh"
#include "isa/kernel_builder.hh"
#include "workloads/workload_base.hh"

using namespace warped;

namespace {

constexpr unsigned kBins = 16;
constexpr unsigned kItemsPerThread = 8;

/**
 * Each block histograms its threads' input bytes into 16 shared bins.
 * Bin updates from different threads are serialized with a simple
 * owner-computes scheme: thread t owns bin t%16 and scans the whole
 * block's staged values — divergence comes from the data-dependent
 * match test.
 */
class Histogram final : public workloads::WorkloadBase
{
  public:
    explicit Histogram(unsigned blocks)
        : WorkloadBase("Histogram", "Tutorial")
    {
        block_ = 64;
        grid_ = blocks;
    }

    void
    setup(gpu::Gpu &gpu) override
    {
        Rng rng(0x4849); // 'HI'
        const unsigned threads = grid_ * block_;
        in_.resize(std::size_t{threads} * kItemsPerThread);
        for (auto &v : in_)
            v = static_cast<std::uint32_t>(rng.nextBelow(kBins));

        baseIn_ = upload(gpu, in_);
        baseOut_ = allocOut(gpu, std::size_t{grid_} * kBins * 4);
        buildKernel();
    }

    bool
    verify(const gpu::Gpu &gpu) const override
    {
        const auto out = download<std::uint32_t>(
            gpu, baseOut_, std::size_t{grid_} * kBins);
        for (unsigned b = 0; b < grid_; ++b) {
            std::uint32_t want[kBins] = {};
            for (unsigned t = 0; t < block_; ++t) {
                for (unsigned i = 0; i < kItemsPerThread; ++i) {
                    const auto v =
                        in_[(std::size_t{b} * block_ + t) *
                                kItemsPerThread +
                            i];
                    ++want[v];
                }
            }
            for (unsigned bin = 0; bin < kBins; ++bin) {
                if (out[b * kBins + bin] != want[bin])
                    return false;
            }
        }
        return true;
    }

  private:
    void
    buildKernel()
    {
        using isa::Reg;
        isa::KernelBuilder kb("histogram", 32);
        // Staging area: every thread publishes its items; each of the
        // first kBins threads then counts matches for its own bin.
        const unsigned s_stage =
            kb.shared(block_ * kItemsPerThread * 4);

        const Reg tid = kb.reg(), gtid = kb.reg();
        kb.s2r(tid, isa::SpecialReg::Tid);
        kb.s2r(gtid, isa::SpecialReg::Gtid);

        const Reg base_in = kb.reg(), v = kb.reg();
        kb.movi(base_in, static_cast<std::int32_t>(baseIn_));
        const Reg my_stage = kb.reg();
        kb.movi(my_stage, kItemsPerThread * 4);
        kb.imul(my_stage, tid, my_stage);
        kb.iaddi(my_stage, my_stage,
                 static_cast<std::int32_t>(s_stage));

        // Publish this thread's items to shared memory.
        const Reg g_addr = kb.reg();
        kb.movi(g_addr, kItemsPerThread * 4);
        kb.imul(g_addr, gtid, g_addr);
        kb.iadd(g_addr, g_addr, base_in);
        for (unsigned i = 0; i < kItemsPerThread; ++i) {
            kb.ldg(v, g_addr, static_cast<std::int32_t>(i * 4));
            kb.sts(my_stage, v, static_cast<std::int32_t>(i * 4));
        }
        kb.bar();

        // Owner-computes: thread t < kBins scans the staged items and
        // counts those equal to its bin id (a divergent region: only
        // 16 of 64 threads are active, and the match test diverges).
        const Reg c_bins = kb.reg(), p_owner = kb.reg();
        kb.movi(c_bins, kBins);
        kb.isetpLt(p_owner, tid, c_bins);
        const Reg count = kb.reg(), idx = kb.reg(), lim = kb.reg(),
                  item = kb.reg(), s_addr = kb.reg(), pm = kb.reg();
        kb.ifThen(p_owner, [&] {
            kb.movi(count, 0);
            kb.movi(lim, block_ * kItemsPerThread);
            kb.forCounter(idx, 0, lim, 1, [&] {
                kb.shli(s_addr, idx, 2);
                kb.iaddi(s_addr, s_addr,
                         static_cast<std::int32_t>(s_stage));
                kb.lds(item, s_addr);
                kb.isetpEq(pm, item, tid);
                kb.ifThen(pm, [&] { kb.iaddi(count, count, 1); });
            });
            // out[ctaid*kBins + tid] = count
            const Reg ctaid = kb.reg(), o_addr = kb.reg(),
                      c_out = kb.reg();
            kb.s2r(ctaid, isa::SpecialReg::Ctaid);
            kb.movi(c_out, kBins);
            kb.imad(o_addr, ctaid, c_out, tid);
            kb.shli(o_addr, o_addr, 2);
            kb.iaddi(o_addr, o_addr,
                     static_cast<std::int32_t>(baseOut_));
            kb.stg(o_addr, count);
        });

        prog_ = kb.build();
    }

    std::vector<std::uint32_t> in_;
    Addr baseIn_ = 0, baseOut_ = 0;
};

} // namespace

int
main()
{
    setVerbose(false);
    auto cfg = arch::GpuConfig::testDefault();
    cfg.numSms = 2;

    std::printf("Custom workload walkthrough: shared-memory "
                "histogram\n\n");

    // 1. Verified run under full protection.
    Histogram w(4);
    gpu::Gpu g(cfg, dmr::DmrConfig::paperDefault());
    const auto r = workloads::runVerified(w, g);
    std::printf("verified run:   %llu cycles, coverage %.2f%%\n",
                static_cast<unsigned long long>(r.cycles),
                100 * r.coverage());

    // 2. Overhead vs the unprotected machine.
    Histogram w2(4);
    gpu::Gpu g2(cfg, dmr::DmrConfig::off());
    const auto base = workloads::runVerified(w2, g2);
    std::printf("DMR overhead:   %.3fx (%llu -> %llu cycles)\n",
                double(r.cycles) / double(base.cycles),
                static_cast<unsigned long long>(base.cycles),
                static_cast<unsigned long long>(r.cycles));

    // 3. And the whole fault-campaign machinery works unchanged.
    fault::EngineConfig ec;
    ec.workload = "Histogram";
    ec.gpu = cfg;
    ec.space.kinds = {fault::FaultKind::StuckAtOne};
    ec.sites = 10;
    const auto camp =
        fault::CampaignEngine(
            [] { return std::make_unique<Histogram>(4); }, ec)
            .run();
    const auto &c = camp.overall;
    std::printf("fault campaign: %llu masked, %llu detected, %llu SDC, "
                "%llu DUE\n",
                static_cast<unsigned long long>(c.masked),
                static_cast<unsigned long long>(c.detected),
                static_cast<unsigned long long>(c.sdc),
                static_cast<unsigned long long>(c.due));
    return 0;
}
