/**
 * @file
 * Allocation budget of the steady-state command path.
 *
 * This binary replaces the global operator new/delete with counting
 * versions, runs closed-loop 4 KiB random reads until the pools of
 * per-command contexts are warm, then counts heap allocations over a
 * window of completed I/Os. A command that allocates again (a
 * `make_shared` staging buffer, a vector per command, a completion
 * closure too large for `std::function`'s inline buffer) shows up as
 * a per-I/O count above the budget.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "harness/testbeds.hh"
#include "sim/check.hh"
#include "workload/fio.hh"

namespace {

std::uint64_t gNews = 0;

void *
countedAlloc(std::size_t n)
{
    ++gNews;
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void *
countedAlignedAlloc(std::size_t n, std::align_val_t al)
{
    ++gNews;
    auto a = static_cast<std::size_t>(al);
    std::size_t rounded = (n + a - 1) / a * a;
    if (void *p = std::aligned_alloc(a, rounded ? rounded : a))
        return p;
    throw std::bad_alloc();
}

} // namespace

void *operator new(std::size_t n) { return countedAlloc(n); }
void *operator new[](std::size_t n) { return countedAlloc(n); }
void *
operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    ++gNews;
    return std::malloc(n ? n : 1);
}
void *
operator new[](std::size_t n, const std::nothrow_t &) noexcept
{
    ++gNews;
    return std::malloc(n ? n : 1);
}
void *
operator new(std::size_t n, std::align_val_t al)
{
    return countedAlignedAlloc(n, al);
}
void *
operator new[](std::size_t n, std::align_val_t al)
{
    return countedAlignedAlloc(n, al);
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept { std::free(p); }
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

using namespace bms;

namespace {

/** I/Os completed before counting starts: fills every slot pool. */
constexpr std::uint64_t kWarmIos = 4000;
/** I/Os the counting window spans. */
constexpr std::uint64_t kWindowIos = 10000;

/**
 * Closed-loop 4 KiB random readers over @p devs; returns heap
 * allocations per completed I/O over the counting window.
 */
double
allocsPerIo(sim::Simulator &sim, const std::vector<host::BlockDeviceIf *> &devs,
            int iodepth)
{
    std::uint64_t completed = 0;
    workload::FioJobSpec spec;
    spec.pattern = workload::FioPattern::RandRead;
    spec.blockSize = 4096;
    spec.iodepth = iodepth;
    spec.numjobs = 1;
    spec.rampTime = 0;
    spec.runTime = sim::seconds(100);
    spec.regionBytes = sim::gib(1);
    std::vector<workload::FioRunner *> runners;
    for (std::size_t i = 0; i < devs.size(); ++i) {
        auto *fr = sim.make<workload::FioRunner>(
            sim, "fio" + std::to_string(i), *devs[i], spec);
        fr->onCompletion = [&completed](sim::Tick, std::uint32_t) {
            ++completed;
        };
        runners.push_back(fr);
    }
    for (workload::FioRunner *fr : runners)
        fr->start();

    const sim::Tick step = sim::microseconds(100);
    while (completed < kWarmIos)
        sim.runUntil(sim.now() + step);

    const bool paranoid = sim::Check::paranoid();
    sim::Check::setParanoid(false);
    const std::uint64_t ios0 = completed;
    const std::uint64_t news0 = gNews;
    while (completed < ios0 + kWindowIos)
        sim.runUntil(sim.now() + step);
    const std::uint64_t news = gNews - news0;
    const std::uint64_t ios = completed - ios0;
    sim::Check::setParanoid(paranoid);

    std::printf("%llu allocations over %llu I/Os\n",
                static_cast<unsigned long long>(news),
                static_cast<unsigned long long>(ios));
    return static_cast<double>(news) / static_cast<double>(ios);
}

} // namespace

// BM-Store: front SQE fetch, translate, QoS, gate, back-end SQE and
// CQE, the SSD's media and DMA, global-PRP routing, front CQE post.
// The path allocates nothing per command; what is left (about one
// allocation per 60 I/Os) is the first touch of host SQ/CQ ring pages
// in sparse host memory, which ends once every ring has wrapped. One
// allocation per command anywhere on the path breaks the budget.
TEST(AllocBudget, BmStoreTimingOnlyReads)
{
    harness::TestbedConfig cfg;
    cfg.ssdCount = 4;
    cfg.ioQueues = 2;
    cfg.chunkBytes = sim::gib(1);
    cfg.ssd.functionalData = false;
    harness::BmStoreTestbed bed(cfg);
    std::vector<host::BlockDeviceIf *> devs;
    for (int fn = 0; fn < 8; ++fn)
        devs.push_back(&bed.attachTenant(static_cast<pcie::FunctionId>(fn),
                                         sim::gib(1)));
    EXPECT_LE(allocsPerIo(bed.sim(), devs, 4), 0.25);
}

// Native: the host driver straight to the SSDs, the baseline the
// engine is measured against, under the same budget.
TEST(AllocBudget, NativeTimingOnlyReads)
{
    harness::TestbedConfig cfg;
    cfg.ssdCount = 4;
    cfg.ssd.functionalData = false;
    harness::NativeTestbed bed(cfg);
    std::vector<host::BlockDeviceIf *> devs;
    for (int i = 0; i < bed.ssdCount(); ++i)
        devs.push_back(&bed.driver(i));
    EXPECT_LE(allocsPerIo(bed.sim(), devs, 8), 0.25);
}
