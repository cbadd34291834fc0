/**
 * @file
 * Unit tests of the discrete-event kernel: event ordering,
 * cancellation, time limits, the slab-resident event callback, RNG
 * determinism, histogram quantiles.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <functional>
#include <memory>
#include <stdexcept>
#include <vector>

#include "sim/check.hh"
#include "sim/event_queue.hh"
#include "sim/random.hh"
#include "sim/simulator.hh"
#include "sim/sparse_memory.hh"
#include "sim/stats.hh"
#include "sim/stats_registry.hh"
#include "tests/test_util.hh"

using namespace bms::sim;

TEST(EventQueue, RunsInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(30, [&] { order.push_back(3); });
    q.schedule(10, [&] { order.push_back(1); });
    q.schedule(20, [&] { order.push_back(2); });
    q.runAll();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(q.now(), 30u);
}

TEST(EventQueue, SameTickIsFifo)
{
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        q.schedule(5, [&order, i] { order.push_back(i); });
    q.runAll();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, CancelPreventsExecution)
{
    EventQueue q;
    bool ran = false;
    EventId id = q.schedule(10, [&] { ran = true; });
    q.cancel(id);
    q.runAll();
    EXPECT_FALSE(ran);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, CancelUnknownIdIsNoop)
{
    EventQueue q;
    q.cancel(kInvalidEventId);
    q.cancel(12345);
    EXPECT_TRUE(q.empty());
    q.checkInvariants();
}

TEST(EventQueue, CancelOfExecutedIdDoesNotCorruptBookkeeping)
{
    EventQueue q;
    EventId a = q.schedule(10, [] {});
    q.schedule(20, [] {});
    ASSERT_TRUE(q.runOne()); // a has executed
    // Cancelling an already-executed id must not decrement the live
    // count or park the id in the lazily-deleted set forever.
    q.cancel(a);
    EXPECT_EQ(q.size(), 1u);
    q.checkInvariants();
    q.runAll();
    EXPECT_TRUE(q.empty());
    q.checkInvariants();
}

// A stale id whose slot has been handed to a newer event must fail
// the generation check: cancelling it leaves the newer event alone.
TEST(EventQueue, StaleIdDoesNotCancelEventReusingItsSlot)
{
    EventQueue q;
    EventId a = q.schedule(10, [] {});
    ASSERT_TRUE(q.runOne());
    bool b_ran = false;
    EventId b = q.schedule(20, [&] { b_ran = true; });
    // Same slot (low 32 bits), newer generation (high 32 bits).
    ASSERT_EQ(a & 0xffffffffu, b & 0xffffffffu);
    ASSERT_NE(a, b);
    q.cancel(a);
    EXPECT_EQ(q.size(), 1u);
    q.checkInvariants();
    q.runAll();
    EXPECT_TRUE(b_ran);
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.executedCount(), 2u);
    q.checkInvariants();
}

TEST(EventQueue, CancelledIdsArePurgedWhenTheirTickPops)
{
    EventQueue q;
    std::vector<EventId> ids;
    ids.reserve(100);
    for (int i = 0; i < 100; ++i)
        ids.push_back(q.schedule(10 + i, [] {}));
    for (EventId id : ids)
        q.cancel(id);
    EXPECT_EQ(q.size(), 0u);
    // Double-cancel is a no-op, not a second decrement.
    q.cancel(ids.front());
    q.checkInvariants();
    q.runUntil(1000); // pops (and purges) every cancelled entry
    EXPECT_TRUE(q.empty());
    q.checkInvariants();
    EXPECT_EQ(q.executedCount(), 0u);
}

TEST(EventQueue, SchedulingIntoThePastPanics)
{
    EventQueue q;
    q.schedule(10, [] {});
    q.runAll();
    EXPECT_EQ(q.now(), 10u);
    EXPECT_PANIC(q.schedule(5, [] {}));
    EXPECT_PANIC(q.schedule(10, EventQueue::Callback{}));
}

namespace {

/** Capture that counts how often a live (not moved-from) copy dies. */
struct DeathCounter
{
    int *deaths;

    explicit DeathCounter(int *d) : deaths(d) {}
    DeathCounter(const DeathCounter &) = default;
    DeathCounter(DeathCounter &&o) noexcept
        : deaths(std::exchange(o.deaths, nullptr))
    {}
    DeathCounter &operator=(const DeathCounter &) = delete;
    ~DeathCounter()
    {
        if (deaths)
            ++*deaths;
    }
};

/** Padding that pushes a closure past EventCallback's inline buffer. */
using BigPad = std::array<char, EventCallback::kInlineSize + 8>;

} // namespace

TEST(EventCallback, MoveOnlyCaptureSchedulesAndRuns)
{
    EventQueue q;
    int seen = 0;
    auto value = std::make_unique<int>(7);
    q.schedule(5, [&seen, v = std::move(value)] { seen = *v; });
    q.runAll();
    EXPECT_EQ(seen, 7);
}

TEST(EventCallback, OversizedClosureRunsThroughTheHeapFallback)
{
    BigPad pad{};
    pad.back() = 'z';
    std::vector<char> seen;
    auto big = [&seen, pad] { seen.push_back(pad.front() + pad.back()); };
    auto small = [&seen] { seen.push_back('s'); };
    static_assert(!EventCallback::fitsInline<decltype(big)>());
    static_assert(EventCallback::fitsInline<decltype(small)>());

    EventQueue q;
    q.schedule(2, big);
    q.schedule(1, small);
    q.schedule(3, std::move(big));
    q.runAll();
    EXPECT_EQ(seen, (std::vector<char>{'s', 'z', 'z'}));
    q.checkInvariants();
}

TEST(EventCallback, CapturesDieExactlyOnceWhetherRunOrCancelled)
{
    for (bool heap : {false, true}) {
        SCOPED_TRACE(heap ? "heap fallback" : "inline");
        int ranDeaths = 0, cancelledDeaths = 0, runs = 0;
        EventQueue q;
        auto make = [&](int *deaths) -> EventCallback {
            DeathCounter c(deaths);
            if (heap)
                return [&runs, c = std::move(c), pad = BigPad{}] {
                    (void)pad;
                    ++runs;
                };
            return [&runs, c = std::move(c)] { ++runs; };
        };
        q.schedule(10, make(&ranDeaths));
        EventId doomed = q.schedule(10, make(&cancelledDeaths));
        EXPECT_EQ(ranDeaths + cancelledDeaths, 0);

        q.cancel(doomed); // captures die at once, not at the purge
        EXPECT_EQ(cancelledDeaths, 1);
        q.runAll();
        EXPECT_EQ(runs, 1);
        EXPECT_EQ(ranDeaths, 1);
        EXPECT_EQ(cancelledDeaths, 1);
        q.checkInvariants();
    }
}

TEST(EventCallback, NullCallablesPanicLikeAnEmptyCallback)
{
    EventQueue q;
    EXPECT_PANIC(q.schedule(10, EventQueue::Callback{}));
    EXPECT_PANIC(q.schedule(10, std::function<void()>{}));
    void (*none)() = nullptr;
    EXPECT_PANIC(q.schedule(10, none));
    // A rejected schedule takes no slot.
    q.checkInvariants();
    EXPECT_TRUE(q.empty());
    int ran = 0;
    q.schedule(10, std::function<void()>([&ran] { ++ran; }));
    q.runAll();
    EXPECT_EQ(ran, 1);
}

TEST(EventCallback, ThrowingCaptureCopyLeavesTheQueueConsistent)
{
    struct ThrowsOnCopy
    {
        ThrowsOnCopy() = default;
        ThrowsOnCopy(const ThrowsOnCopy &) { throw std::runtime_error("copy"); }
        void operator()() const {}
    };
    EventQueue q;
    ThrowsOnCopy f;
    EXPECT_THROW(q.schedule(10, f), std::runtime_error);
    q.checkInvariants();
    EXPECT_TRUE(q.empty());
    int ran = 0;
    q.schedule(10, [&ran] { ++ran; }); // reuses the returned slot
    q.runAll();
    EXPECT_EQ(ran, 1);
}

TEST(Check, PanicReportCarriesContext)
{
    EventQueue q;
    q.schedule(42, [] {});
    q.runAll(); // advance the innermost clock to tick 42
    std::string report;
    try {
        bms::sim::ScopedPanicMode guard(PanicMode::Throw);
        std::string who = "engine0.qos";
        bms::sim::ScopedCheckComponent comp(who);
        BMS_ASSERT_EQ(2 + 2, 5, "arithmetic drifted");
    } catch (const SimPanic &p) {
        report = p.what();
    }
    EXPECT_NE(report.find("2 + 2 == 5"), std::string::npos) << report;
    EXPECT_NE(report.find("lhs=4 rhs=5"), std::string::npos) << report;
    EXPECT_NE(report.find("arithmetic drifted"), std::string::npos);
    EXPECT_NE(report.find("tick: 42 ns"), std::string::npos) << report;
    EXPECT_NE(report.find("engine0.qos"), std::string::npos) << report;
    EXPECT_NE(report.find("sim_test.cc"), std::string::npos) << report;
}

TEST(Check, MacrosPassOnSatisfiedConditions)
{
    BMS_ASSERT(true);
    BMS_ASSERT(1 < 2, "with context ", 42);
    BMS_ASSERT_EQ(7, 7);
    BMS_ASSERT_NE(7, 8);
    BMS_ASSERT_LE(7, 7);
    BMS_ASSERT_LT(7, 8);
    EXPECT_PANIC(BMS_PANIC("unreachable state ", 3));
}

TEST(EventQueue, RunUntilStopsAtLimit)
{
    EventQueue q;
    int count = 0;
    q.schedule(10, [&] { ++count; });
    q.schedule(20, [&] { ++count; });
    q.schedule(30, [&] { ++count; });
    q.runUntil(20);
    EXPECT_EQ(count, 2);
    EXPECT_EQ(q.now(), 20u);
    q.runAll();
    EXPECT_EQ(count, 3);
}

TEST(EventQueue, RunUntilAdvancesTimeWhenEmpty)
{
    EventQueue q;
    q.runUntil(1000);
    EXPECT_EQ(q.now(), 1000u);
}

TEST(EventQueue, CancelledHeadDoesNotLeakLaterEvents)
{
    EventQueue q;
    bool late_ran = false;
    EventId early = q.schedule(10, [] {});
    q.schedule(100, [&] { late_ran = true; });
    q.cancel(early);
    q.runUntil(50);
    EXPECT_FALSE(late_ran);
    EXPECT_EQ(q.now(), 50u);
}

TEST(EventQueue, EventsCanScheduleEvents)
{
    EventQueue q;
    int depth = 0;
    std::function<void()> recurse = [&] {
        if (++depth < 5)
            q.scheduleAfter(10, recurse);
    };
    q.schedule(0, recurse);
    q.runAll();
    EXPECT_EQ(depth, 5);
    EXPECT_EQ(q.now(), 40u);
}

// Lane partitioning is invisible to execution order: events merge in
// exact global (when, schedule-order), identical to a flat queue.
TEST(EventQueue, LanesMergeInGlobalScheduleOrder)
{
    EventQueue q;
    LaneId a = q.createLane();
    LaneId b = q.createLane();
    EXPECT_NE(a, kDefaultLane);
    EXPECT_NE(a, b);
    std::vector<int> order;
    // Interleave lanes and ticks; same-tick events on *different*
    // lanes must still run in scheduling order.
    q.scheduleOn(a, 20, [&] { order.push_back(2); });
    q.scheduleOn(b, 10, [&] { order.push_back(0); });
    q.scheduleOn(kDefaultLane, 10, [&] { order.push_back(1); });
    q.scheduleOn(b, 20, [&] { order.push_back(3); });
    q.scheduleOn(a, 30, [&] { order.push_back(4); });
    q.runAll();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
    EXPECT_EQ(q.executedCount(), 5u);
}

// The same schedule spread across lanes and packed on one lane must
// execute identically — the determinism argument for lane sharding.
TEST(EventQueue, LaneLayoutDoesNotChangeExecutionOrder)
{
    auto run = [](bool sharded) {
        EventQueue q;
        std::vector<LaneId> lanes{kDefaultLane};
        if (sharded)
            for (int i = 0; i < 3; ++i)
                lanes.push_back(q.createLane());
        std::vector<int> order;
        for (int i = 0; i < 64; ++i) {
            LaneId lane = lanes[i % lanes.size()];
            // Colliding ticks on purpose: (when, seq) breaks ties.
            q.scheduleOn(lane, 10 * ((i * 7) % 5), [&order, i] {
                order.push_back(i);
            });
        }
        q.runAll();
        return order;
    };
    EXPECT_EQ(run(false), run(true));
}

TEST(EventQueue, CancelWorksAcrossLanes)
{
    EventQueue q;
    LaneId a = q.createLane();
    bool ran = false;
    EventId on_a = q.scheduleOn(a, 10, [&] { ran = true; });
    q.scheduleOn(a, 10, [] {});
    q.schedule(10, [] {});
    q.cancel(on_a);
    q.cancel(on_a); // double cancel: no-op
    EXPECT_EQ(q.size(), 2u);
    q.runAll();
    EXPECT_FALSE(ran);
    EXPECT_EQ(q.executedCount(), 2u);
    q.checkInvariants();
}

TEST(EventQueue, LanedEventsCanScheduleAcrossLanes)
{
    EventQueue q;
    LaneId a = q.createLane();
    LaneId b = q.createLane();
    int hops = 0;
    std::function<void()> hop = [&] {
        if (++hops < 6)
            q.scheduleOn(hops % 2 ? b : a, q.now() + 5, hop);
    };
    q.scheduleOn(a, 0, hop);
    q.runAll();
    EXPECT_EQ(hops, 6);
    EXPECT_EQ(q.now(), 25u);
    q.checkInvariants();
}

TEST(EventQueue, SchedulingOnUnknownLanePanics)
{
    EventQueue q;
    EXPECT_PANIC(q.scheduleOn(42, 10, [] {}));
}

TEST(Simulator, OwnsObjectsAndTime)
{
    Simulator sim(42);
    EXPECT_EQ(sim.now(), 0u);
    sim.scheduleAfter(milliseconds(1), [] {});
    sim.runFor(milliseconds(2));
    EXPECT_EQ(sim.now(), milliseconds(2));
}

TEST(Rng, DeterministicForSeed)
{
    Rng a(7), b(7);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.uniformInt(0, 1'000'000), b.uniformInt(0, 1'000'000));
}

TEST(Rng, UniformIntBounds)
{
    Rng r(3);
    for (int i = 0; i < 1000; ++i) {
        std::uint64_t v = r.uniformInt(10, 20);
        EXPECT_GE(v, 10u);
        EXPECT_LE(v, 20u);
    }
}

TEST(Rng, ExponentialMeanRoughlyCorrect)
{
    Rng r(11);
    double sum = 0;
    const int n = 200'000;
    for (int i = 0; i < n; ++i)
        sum += r.exponential(50.0);
    EXPECT_NEAR(sum / n, 50.0, 1.0);
}

TEST(Zipfian, HotItemsDominate)
{
    Rng r(5);
    ZipfianGenerator z(1000, 0.99);
    std::vector<int> counts(1000, 0);
    const int n = 100'000;
    for (int i = 0; i < n; ++i)
        ++counts[z.next(r)];
    // Item 0 should be by far the most popular.
    EXPECT_GT(counts[0], counts[500] * 10);
    // And all samples must be in range (implicitly checked by index).
    int total = 0;
    for (int c : counts)
        total += c;
    EXPECT_EQ(total, n);
}

TEST(Zipfian, SingleItem)
{
    Rng r(5);
    ZipfianGenerator z(1, 0.99);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(z.next(r), 0u);
}

TEST(LatencyHistogram, ExactForSmallValues)
{
    LatencyHistogram h;
    for (Tick v = 0; v < 32; ++v)
        h.add(v);
    EXPECT_EQ(h.count(), 32u);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 31u);
    EXPECT_NEAR(h.mean(), 15.5, 0.01);
}

TEST(LatencyHistogram, QuantilesWithinRelativeError)
{
    LatencyHistogram h;
    // Uniform 1..100000 ns.
    for (Tick v = 1; v <= 100'000; ++v)
        h.add(v);
    EXPECT_NEAR(static_cast<double>(h.p50()), 50'000.0, 50'000.0 * 0.04);
    EXPECT_NEAR(static_cast<double>(h.p99()), 99'000.0, 99'000.0 * 0.04);
    EXPECT_NEAR(static_cast<double>(h.quantile(0.999)), 99'900.0,
                99'900.0 * 0.04);
}

TEST(LatencyHistogram, MergeMatchesCombined)
{
    LatencyHistogram a, b, all;
    for (Tick v = 0; v < 1000; ++v) {
        if (v % 2) {
            a.add(v * 100);
        } else {
            b.add(v * 100);
        }
        all.add(v * 100);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_EQ(a.p50(), all.p50());
    EXPECT_EQ(a.max(), all.max());
}

TEST(LatencyHistogram, EmptyIsZero)
{
    LatencyHistogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.p99(), 0u);
    EXPECT_EQ(h.mean(), 0.0);
}

TEST(SampleStats, Moments)
{
    SampleStats s;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(v);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_NEAR(s.mean(), 5.0, 1e-9);
    EXPECT_EQ(s.min(), 2.0);
    EXPECT_EQ(s.max(), 9.0);
    EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-9);
}

TEST(SparseMemory, ReadBackWritten)
{
    SparseMemory m;
    std::uint8_t data[100];
    for (int i = 0; i < 100; ++i)
        data[i] = static_cast<std::uint8_t>(i);
    m.write(4090, 100, data); // crosses a page boundary
    std::uint8_t out[100] = {};
    m.read(4090, 100, out);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(out[i], data[i]);
}

TEST(SparseMemory, UnwrittenReadsZero)
{
    SparseMemory m;
    std::uint8_t out[16];
    m.read(123456789, 16, out);
    for (std::uint8_t b : out)
        EXPECT_EQ(b, 0);
    EXPECT_EQ(m.allocatedPages(), 0u);
}

namespace {

/** A 32-byte repeat unit whose bytes are base, base+1, ... */
PageImage::Unit
countingUnit(std::uint8_t base)
{
    PageImage::Unit u;
    for (std::uint32_t i = 0; i < PageImage::kUnitBytes; ++i)
        u[i] = static_cast<std::uint8_t>(base + i);
    return u;
}

} // namespace

TEST(SparseMemory, RepeatPageReadsBackExactBytes)
{
    SparseMemory m;
    PageImage::Unit unit = countingUnit(7);
    m.writePage(2 * 4096, PageImage(unit));
    ASSERT_NE(m.page(2 * 4096), nullptr);
    EXPECT_TRUE(m.page(2 * 4096)->repeating());

    std::vector<std::uint8_t> out(4096);
    m.read(2 * 4096, 4096, out.data());
    for (std::uint32_t i = 0; i < 4096; ++i)
        ASSERT_EQ(out[i], unit[i % 32]) << "byte " << i;
    // An unaligned read straddling into the absent next page.
    std::uint8_t tail[40];
    m.read(3 * 4096 - 20, 40, tail);
    for (int i = 0; i < 20; ++i)
        EXPECT_EQ(tail[i], unit[(4096 - 20 + i) % 32]);
    for (int i = 20; i < 40; ++i)
        EXPECT_EQ(tail[i], 0);

    // A payload read of the page carries the image, not bytes.
    Payload p = m.readPayload(2 * 4096, 4096);
    ASSERT_EQ(p.pages().size(), 1u);
    EXPECT_TRUE(p.pages()[0].repeating());
    EXPECT_EQ(p.pages()[0].unit(), unit);
}

TEST(SparseMemory, SmallWriteIntoRepeatPageMaterializesExactly)
{
    SparseMemory m;
    PageImage::Unit unit = countingUnit(100);
    m.writePage(0, PageImage(unit));
    std::uint64_t word = 0x1122334455667788ULL;
    m.write(1000, 8, reinterpret_cast<const std::uint8_t *>(&word));
    ASSERT_FALSE(m.page(0)->repeating());

    std::vector<std::uint8_t> out(4096);
    m.read(0, 4096, out.data());
    for (std::uint32_t i = 0; i < 4096; ++i) {
        if (i >= 1000 && i < 1008)
            continue;
        ASSERT_EQ(out[i], unit[i % 32]) << "byte " << i;
    }
    std::uint64_t got = 0;
    std::memcpy(&got, out.data() + 1000, 8);
    EXPECT_EQ(got, word);
}

TEST(SparseMemory, ClearRangeOverRepeatPages)
{
    SparseMemory m;
    PageImage::Unit unit = countingUnit(1);
    for (std::uint64_t p = 0; p < 4; ++p)
        m.writePage(p * 4096, PageImage(unit));
    // Drops pages 1 and 2 whole; zero-fills the tail of page 0 and
    // the head of page 3.
    m.clearRange(4096 - 64, 2 * 4096 + 128);
    EXPECT_EQ(m.allocatedPages(), 2u);
    EXPECT_EQ(m.page(4096), nullptr);
    EXPECT_EQ(m.page(2 * 4096), nullptr);

    std::vector<std::uint8_t> out(4 * 4096);
    m.read(0, out.size(), out.data());
    for (std::uint32_t i = 0; i < out.size(); ++i) {
        bool cleared = i >= 4096 - 64 && i < 3 * 4096 + 64;
        ASSERT_EQ(out[i], cleared ? 0 : unit[i % 32]) << "byte " << i;
    }
}

TEST(SparseMemory, AllocatedPagesCountsEveryState)
{
    // The same pages written as bytes, as repeat images, and as a
    // payload (one unaligned piece) count the same.
    std::vector<std::uint8_t> zeros(3 * 4096, 0);
    SparseMemory bytes;
    bytes.write(4096, zeros.size(), zeros.data());
    SparseMemory images;
    for (std::uint64_t p = 1; p <= 3; ++p)
        images.writePage(p * 4096, PageImage{});
    SparseMemory mixed;
    Payload pl = Payload::zeros(2 * 4096);
    mixed.writePayload(4096, pl);
    mixed.write(3 * 4096 + 10, 8, zeros.data());
    EXPECT_EQ(bytes.allocatedPages(), 3u);
    EXPECT_EQ(images.allocatedPages(), 3u);
    EXPECT_EQ(mixed.allocatedPages(), 3u);
    // Reads never allocate; whole-page clears drop in every state.
    std::uint8_t out[8];
    images.read(40 * 4096, 8, out);
    Payload none = images.readPayload(50 * 4096, 4096);
    EXPECT_EQ(none.size(), 4096u);
    EXPECT_EQ(images.allocatedPages(), 3u);
    for (SparseMemory *m : {&bytes, &images, &mixed}) {
        m->clearRange(4096, 3 * 4096);
        EXPECT_EQ(m->allocatedPages(), 0u);
    }
}

TEST(SparseMemory, UnalignedPayloadRoundTripsExactBytes)
{
    SparseMemory src;
    PageImage::Unit unit = countingUnit(33);
    src.writePage(0, PageImage(unit));
    src.writePage(4096, PageImage(countingUnit(77)));
    // An unaligned 5000-byte piece comes out as exact bytes...
    Payload p = src.readPayload(100, 5000);
    EXPECT_EQ(p.size(), 5000u);
    SparseMemory dst;
    // ...and lands as exact bytes at another unaligned address.
    dst.writePayload(3 * 4096 + 7, p);
    std::vector<std::uint8_t> want(5000), got(5000);
    src.read(100, 5000, want.data());
    dst.read(3 * 4096 + 7, 5000, got.data());
    EXPECT_EQ(got, want);
    // Slicing at an unaligned offset materialises the same bytes.
    Payload s = p.slice(1234, 2000);
    std::vector<std::uint8_t> piece(2000);
    s.read(0, 2000, piece.data());
    EXPECT_TRUE(std::equal(piece.begin(), piece.end(), want.begin() + 1234));
}

TEST(TimeSeries, BucketsByTime)
{
    TimeSeries ts(milliseconds(10));
    ts.record(milliseconds(5));
    ts.record(milliseconds(5));
    ts.record(milliseconds(25));
    ASSERT_EQ(ts.size(), 3u);
    EXPECT_EQ(ts.counts()[0], 2u);
    EXPECT_EQ(ts.counts()[1], 0u);
    EXPECT_EQ(ts.counts()[2], 1u);
    EXPECT_NEAR(ts.rateAt(0), 200.0, 1e-9);
}

TEST(Bandwidth, DelayForBytes)
{
    Bandwidth bw = Bandwidth::gbPerSec(1.0);
    EXPECT_EQ(bw.delayFor(1'000'000), 1'000'000u); // 1 MB at 1 GB/s = 1 ms
    EXPECT_EQ(Bandwidth{}.delayFor(4096), 0u);
}

TEST(StatsRegistry, RegisterDumpVisit)
{
    StatsRegistry reg;
    int counter = 7;
    reg.add("a.ops", [&counter] { return static_cast<double>(counter); });
    reg.add("b.rate", [] { return 2.5; });
    EXPECT_EQ(reg.size(), 2u);
    EXPECT_TRUE(reg.has("a.ops"));
    EXPECT_FALSE(reg.has("missing"));
    EXPECT_DOUBLE_EQ(reg.value("a.ops"), 7.0);
    counter = 9;
    EXPECT_DOUBLE_EQ(reg.value("a.ops"), 9.0); // live, not a snapshot

    std::vector<std::string> names;
    reg.visit([&](const std::string &n, double) { names.push_back(n); });
    ASSERT_EQ(names.size(), 2u);
    EXPECT_EQ(names[0], "a.ops"); // sorted
    EXPECT_EQ(names[1], "b.rate");
}

TEST(StatsRegistry, ComponentsSelfRegister)
{
    Simulator sim(1);
    // Registered stats appear under "<component>.<stat>" and follow
    // the live counters.
    EXPECT_EQ(sim.stats().size(), 0u);
}
