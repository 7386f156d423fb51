/**
 * @file
 * Wall-clock spans recorded by the benchmark around its calls into the
 * simulator's public API, and the forwarding Workload decorator that
 * times a campaign site's life from outside the engine.
 *
 * Spans live in memory while the benchmark runs and are written out
 * (Chrome trace JSON) when it ends. A span's self time is its duration
 * minus the union of its children's intervals, so children that ran
 * in parallel on other threads are not subtracted twice.
 */

#ifndef WARPED_BENCHMARK_SPANS_HH
#define WARPED_BENCHMARK_SPANS_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "workloads/workload.hh"

namespace bench {

using Clock = std::chrono::steady_clock;

/** Nanoseconds on the steady clock (monotonic, process-wide). */
inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

/** One timed interval at a layer boundary. */
struct Span
{
    std::string name;
    std::uint64_t id = 0;
    std::uint64_t parent = 0; ///< 0 = root
    std::int64_t start = 0;   ///< nowNs()
    std::int64_t end = 0;
    std::uint64_t thread = 0;
    std::int64_t site = -1;   ///< site / run id, -1 = not a run

    double ms() const { return double(end - start) * 1e-6; }
};

/** Thread-safe in-memory span store. */
class Recorder
{
  public:
    /** A fresh span id (ids start at 1; 0 means "no parent"). */
    std::uint64_t newId() { return nextId_.fetch_add(1) + 1; }

    /** A fresh run id for site spans. */
    std::int64_t newSite() { return nextSite_.fetch_add(1); }

    void add(Span s);
    void add(std::vector<Span> batch);

    /** Record [start, now) under @p parent; returns the span id. */
    std::uint64_t record(const std::string &name, std::uint64_t parent,
                         std::int64_t start, std::int64_t site = -1);

    std::vector<Span> snapshot() const;

    /** Chrome trace-event JSON (pid 1, tid = thread ordinal). */
    std::string chromeJson() const;

    /** Small stable ordinal of the calling thread. */
    static std::uint64_t threadOrdinal();

  private:
    mutable std::mutex mu_;
    std::vector<Span> spans_; ///< guarded by mu_
    std::atomic<std::uint64_t> nextId_{0};
    std::atomic<std::int64_t> nextSite_{0};
};

/** RAII span: records [construction, destruction) when @p rec is set. */
class ScopedSpan
{
  public:
    ScopedSpan(Recorder *rec, std::string name, std::uint64_t parent,
               std::int64_t site = -1)
        : rec_(rec), name_(std::move(name)), parent_(parent),
          site_(site), id_(rec ? rec->newId() : 0),
          start_(rec ? nowNs() : 0)
    {
    }
    ~ScopedSpan();
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    std::uint64_t id() const { return id_; }

  private:
    Recorder *rec_;
    std::string name_;
    std::uint64_t parent_;
    std::int64_t site_;
    std::uint64_t id_;
    std::int64_t start_;
};

/**
 * Forwarding decorator that marks one run's life from outside the
 * engine. The engine builds the workload, then the Gpu, then calls
 * setup, launch and (for activated, undetected, unhung runs) verify,
 * then destroys the Gpu and the workload. So from the decorator:
 *  - factory entry .. construction = `workloads.make`
 *  - construction .. setup         = `gpu.ctor`
 *  - setup                         = `workloads.setup`
 *  - first launch-argument getter .. verify (or destruction when
 *    verify is skipped, which then includes Gpu teardown) = `gpu.launch`
 *  - verify                        = `workloads.verify`
 *  - factory entry .. destruction  = the run span (@p run_name)
 */
class TracedWorkload final : public warped::workloads::Workload
{
  public:
    TracedWorkload(std::unique_ptr<warped::workloads::Workload> inner,
                   Recorder &rec, std::string run_name,
                   std::uint64_t parent, std::int64_t made_at);
    ~TracedWorkload() override;
    TracedWorkload(const TracedWorkload &) = delete;
    TracedWorkload &operator=(const TracedWorkload &) = delete;

    const std::string &name() const override { return inner_->name(); }
    const std::string &category() const override
    {
        return inner_->category();
    }
    void setup(warped::gpu::Gpu &gpu) override;
    const warped::isa::Program &program() const override;
    unsigned gridBlocks() const override;
    unsigned blockThreads() const override;
    std::size_t bytesIn() const override { return inner_->bytesIn(); }
    std::size_t bytesOut() const override { return inner_->bytesOut(); }
    bool verify(const warped::gpu::Gpu &gpu) const override;

  private:
    void markLaunch() const;

    std::unique_ptr<warped::workloads::Workload> inner_;
    Recorder &rec_;
    std::string runName_;
    std::uint64_t parent_;
    std::uint64_t id_;
    std::int64_t site_;
    std::int64_t madeAt_;
    std::int64_t built_;
    std::int64_t setupBegin_ = -1, setupEnd_ = -1;
    mutable std::int64_t launchBegin_ = -1;
    mutable std::int64_t verifyBegin_ = -1, verifyEnd_ = -1;
};

/** Per-name totals of a span set (the layer table). */
struct LayerRow
{
    std::string name;
    std::uint64_t count = 0;
    double totalMs = 0;
    double selfMs = 0;
};

/** Rows sorted by self time, descending. */
std::vector<LayerRow> layerTable(const std::vector<Span> &spans);

} // namespace bench

#endif // WARPED_BENCHMARK_SPANS_HH
