#include "spans.hh"

#include <algorithm>
#include <cstdio>
#include <map>
#include <unordered_map>

namespace bench {

void
Recorder::add(Span s)
{
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(std::move(s));
}

void
Recorder::add(std::vector<Span> batch)
{
    std::lock_guard<std::mutex> lock(mu_);
    for (auto &s : batch)
        spans_.push_back(std::move(s));
}

std::uint64_t
Recorder::record(const std::string &name, std::uint64_t parent,
                 std::int64_t start, std::int64_t site)
{
    Span s;
    s.name = name;
    s.id = newId();
    s.parent = parent;
    s.start = start;
    s.end = nowNs();
    s.thread = threadOrdinal();
    s.site = site;
    const auto id = s.id;
    add(std::move(s));
    return id;
}

std::vector<Span>
Recorder::snapshot() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
}

std::uint64_t
Recorder::threadOrdinal()
{
    static std::atomic<std::uint64_t> next{0};
    thread_local const std::uint64_t mine = next.fetch_add(1);
    return mine;
}

std::string
Recorder::chromeJson() const
{
    const auto spans = snapshot();
    std::int64_t t0 = 0;
    if (!spans.empty())
        t0 = std::min_element(spans.begin(), spans.end(),
                              [](const Span &a, const Span &b) {
                                  return a.start < b.start;
                              })
                 ->start;
    std::string out = "{\"traceEvents\":[\n";
    char buf[512];
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const auto &s = spans[i];
        std::snprintf(buf, sizeof buf,
                      "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                      "\"tid\":%llu,\"ts\":%.3f,\"dur\":%.3f,"
                      "\"args\":{\"id\":%llu,\"parent\":%llu,"
                      "\"site\":%lld}}%s\n",
                      s.name.c_str(),
                      static_cast<unsigned long long>(s.thread),
                      double(s.start - t0) * 1e-3,
                      double(s.end - s.start) * 1e-3,
                      static_cast<unsigned long long>(s.id),
                      static_cast<unsigned long long>(s.parent),
                      static_cast<long long>(s.site),
                      i + 1 < spans.size() ? "," : "");
        out += buf;
    }
    out += "]}\n";
    return out;
}

ScopedSpan::~ScopedSpan()
{
    if (!rec_)
        return;
    Span s;
    s.name = std::move(name_);
    s.id = id_;
    s.parent = parent_;
    s.start = start_;
    s.end = nowNs();
    s.thread = Recorder::threadOrdinal();
    s.site = site_;
    rec_->add(std::move(s));
}

TracedWorkload::TracedWorkload(
    std::unique_ptr<warped::workloads::Workload> inner, Recorder &rec,
    std::string run_name, std::uint64_t parent, std::int64_t made_at)
    : inner_(std::move(inner)), rec_(rec), runName_(std::move(run_name)),
      parent_(parent), id_(rec.newId()), site_(rec.newSite()),
      madeAt_(made_at), built_(nowNs())
{
}

void
TracedWorkload::setup(warped::gpu::Gpu &gpu)
{
    setupBegin_ = nowNs();
    inner_->setup(gpu);
    setupEnd_ = nowNs();
}

void
TracedWorkload::markLaunch() const
{
    if (launchBegin_ < 0 && setupEnd_ >= 0)
        launchBegin_ = nowNs();
}

const warped::isa::Program &
TracedWorkload::program() const
{
    markLaunch();
    return inner_->program();
}

unsigned
TracedWorkload::gridBlocks() const
{
    markLaunch();
    return inner_->gridBlocks();
}

unsigned
TracedWorkload::blockThreads() const
{
    markLaunch();
    return inner_->blockThreads();
}

bool
TracedWorkload::verify(const warped::gpu::Gpu &gpu) const
{
    verifyBegin_ = nowNs();
    const bool ok = inner_->verify(gpu);
    verifyEnd_ = nowNs();
    return ok;
}

TracedWorkload::~TracedWorkload()
{
    const std::int64_t end = nowNs();
    const auto thread = Recorder::threadOrdinal();
    std::vector<Span> batch;
    const auto child = [&](const char *name, std::int64_t a,
                           std::int64_t b) {
        if (a < 0 || b < a)
            return;
        Span s;
        s.name = name;
        s.id = rec_.newId();
        s.parent = id_;
        s.start = a;
        s.end = b;
        s.thread = thread;
        s.site = site_;
        batch.push_back(std::move(s));
    };
    child("workloads.make", madeAt_, built_);
    if (setupBegin_ >= 0) {
        child("gpu.ctor", built_, setupBegin_);
        child("workloads.setup", setupBegin_, setupEnd_);
    }
    if (launchBegin_ >= 0)
        child("gpu.launch", launchBegin_,
              verifyBegin_ >= 0 ? verifyBegin_ : end);
    if (verifyBegin_ >= 0)
        child("workloads.verify", verifyBegin_, verifyEnd_);
    Span run;
    run.name = runName_;
    run.id = id_;
    run.parent = parent_;
    run.start = madeAt_;
    run.end = end;
    run.thread = thread;
    run.site = site_;
    batch.push_back(std::move(run));
    rec_.add(std::move(batch));
}

std::vector<LayerRow>
layerTable(const std::vector<Span> &spans)
{
    std::unordered_map<std::uint64_t,
                       std::vector<std::pair<std::int64_t, std::int64_t>>>
        children;
    for (const auto &s : spans)
        if (s.parent)
            children[s.parent].push_back({s.start, s.end});

    std::map<std::string, LayerRow> rows;
    for (const auto &s : spans) {
        // Self time: duration minus the union of child intervals
        // clipped to this span.
        std::int64_t covered = 0;
        auto it = children.find(s.id);
        if (it != children.end()) {
            auto iv = it->second;
            std::sort(iv.begin(), iv.end());
            std::int64_t curA = 0, curB = -1;
            for (auto [a, b] : iv) {
                a = std::max(a, s.start);
                b = std::min(b, s.end);
                if (b <= a)
                    continue;
                if (a > curB) {
                    if (curB > curA)
                        covered += curB - curA;
                    curA = a;
                    curB = b;
                } else {
                    curB = std::max(curB, b);
                }
            }
            if (curB > curA)
                covered += curB - curA;
        }
        auto &r = rows[s.name];
        r.name = s.name;
        ++r.count;
        r.totalMs += s.ms();
        r.selfMs += double(s.end - s.start - covered) * 1e-6;
    }
    std::vector<LayerRow> out;
    for (auto &[k, r] : rows)
        out.push_back(r);
    std::sort(out.begin(), out.end(),
              [](const LayerRow &a, const LayerRow &b) {
                  return a.selfMs > b.selfMs;
              });
    return out;
}

} // namespace bench
