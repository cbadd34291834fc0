/**
 * @file
 * PCIe substrate tests: link serialization math, root-port DMA
 * timing/ordering, MMIO delivery, interrupt domain routing.
 */

#include <gtest/gtest.h>

#include "host/host_system.hh"
#include "pcie/link.hh"
#include "pcie/root_port.hh"
#include "tests/test_util.hh"

using namespace bms;

TEST(Link, Gen3LaneBandwidth)
{
    EXPECT_NEAR(pcie::gen3Lanes(4).bytesPerSec, 3.52e9, 1e7);
    EXPECT_NEAR(pcie::gen3Lanes(16).bytesPerSec, 14.08e9, 1e7);
}

TEST(Link, SerializationAccumulates)
{
    pcie::LinkChannel ch(sim::Bandwidth::gbPerSec(1.0),
                         sim::nanoseconds(100));
    // Two back-to-back 1 KB transfers at 1 GB/s: 1 us each.
    sim::Tick t1 = ch.reserve(0, 1000);
    EXPECT_EQ(t1, 1000u + 100u);
    sim::Tick t2 = ch.reserve(0, 1000);
    EXPECT_EQ(t2, 2000u + 100u); // queued behind the first
    // A transfer after the channel idles starts immediately.
    sim::Tick t3 = ch.reserve(5000, 1000);
    EXPECT_EQ(t3, 6000u + 100u);
}

TEST(Link, ControlArrivalDoesNotOccupy)
{
    pcie::LinkChannel ch(sim::Bandwidth::gbPerSec(1.0),
                         sim::nanoseconds(100));
    sim::Tick c = ch.controlArrival(0);
    EXPECT_EQ(c, 100u + 8u); // propagation + 8 B doorbell
    EXPECT_EQ(ch.busyUntil(), 0u);
}

TEST(Link, UtilizationFraction)
{
    pcie::LinkChannel ch(sim::Bandwidth::gbPerSec(1.0), 0);
    ch.reserve(0, 500'000); // 500 us busy
    EXPECT_NEAR(ch.utilization(sim::milliseconds(1)), 0.5, 0.01);
}

// Utilization is accumulated busy time, not the last busy-until tick:
// an idle gap before a late transfer does not count as busy.
TEST(Link, UtilizationCountsBusyTimeNotBusyUntil)
{
    pcie::LinkChannel ch(sim::Bandwidth::gbPerSec(1.0), 0);
    ch.reserve(0, 100'000);                        // [0, 100 us)
    ch.reserve(sim::microseconds(900), 100'000);   // [900, 1000 us)
    EXPECT_EQ(ch.busyTime(), sim::microseconds(200));
    EXPECT_EQ(ch.busyUntil(), sim::microseconds(1000));
    EXPECT_NEAR(ch.utilization(sim::milliseconds(1)), 0.2, 1e-9);
    // Mid-transfer: only the part already serialized counts.
    EXPECT_NEAR(ch.utilization(sim::microseconds(950)), 150.0 / 950.0,
                1e-9);
    // A transfer still serializing counts only up to now.
    ch.reserve(sim::microseconds(1000), 1'000'000);
    EXPECT_NEAR(ch.utilization(sim::microseconds(1500)), 700.0 / 1500.0,
                1e-9);
}

namespace {

/** Minimal device recording MMIO writes and their arrival times. */
class ProbeDevice : public pcie::PcieDeviceIf
{
  public:
    int functionCount() const override { return 2; }

    void
    mmioWrite(pcie::FunctionId fn, std::uint64_t offset,
              std::uint64_t value) override
    {
        writes.push_back({fn, offset, value});
    }

    std::uint64_t
    mmioRead(pcie::FunctionId, std::uint64_t) override
    {
        return 0xCAFE;
    }

    void attached(pcie::PcieUpstreamIf &up) override { upstream = &up; }

    struct Write
    {
        pcie::FunctionId fn;
        std::uint64_t offset;
        std::uint64_t value;
    };
    std::vector<Write> writes;
    pcie::PcieUpstreamIf *upstream = nullptr;
};

} // namespace

TEST(RootPort, MmioWritesArriveInOrderAfterLinkDelay)
{
    sim::Simulator sim(1);
    host::HostSystem *hs = sim.make<host::HostSystem>(sim, "h");
    pcie::RootPort &port = hs->addSlot(4);
    ProbeDevice dev;
    port.attach(dev);
    ASSERT_NE(dev.upstream, nullptr);

    port.hostMmioWrite(0, 0x1000, 1);
    port.hostMmioWrite(1, 0x1008, 2);
    EXPECT_TRUE(dev.writes.empty()); // not yet delivered
    sim.runAll();
    ASSERT_EQ(dev.writes.size(), 2u);
    EXPECT_EQ(dev.writes[0].fn, 0);
    EXPECT_EQ(dev.writes[0].value, 1u);
    EXPECT_EQ(dev.writes[1].fn, 1);
    EXPECT_EQ(dev.writes[1].value, 2u);
}

TEST(RootPort, DmaWriteLandsInHostMemory)
{
    sim::Simulator sim(1);
    host::HostSystem *hs = sim.make<host::HostSystem>(sim, "h");
    pcie::RootPort &port = hs->addSlot(4);
    ProbeDevice dev;
    port.attach(dev);

    std::uint8_t payload[256];
    for (int i = 0; i < 256; ++i)
        payload[i] = static_cast<std::uint8_t>(i);
    bool done = false;
    sim::Tick finish = 0;
    dev.upstream->dmaWrite(0x40000, 256, payload, [&] {
        done = true;
        finish = sim.now();
    });
    sim.runAll();
    ASSERT_TRUE(done);
    EXPECT_GT(finish, sim::nanoseconds(250)); // at least propagation
    std::uint8_t got[256];
    hs->memory().read(0x40000, 256, got);
    for (int i = 0; i < 256; ++i)
        ASSERT_EQ(got[i], payload[i]);
}

TEST(RootPort, DmaReadFetchesHostMemory)
{
    sim::Simulator sim(1);
    host::HostSystem *hs = sim.make<host::HostSystem>(sim, "h");
    pcie::RootPort &port = hs->addSlot(4);
    ProbeDevice dev;
    port.attach(dev);

    std::uint8_t seed[64];
    for (int i = 0; i < 64; ++i)
        seed[i] = static_cast<std::uint8_t>(i ^ 0x5A);
    hs->memory().write(0x50000, 64, seed);

    std::uint8_t out[64] = {};
    bool done = false;
    dev.upstream->dmaRead(0x50000, 64, out, [&] { done = true; });
    sim.runAll();
    ASSERT_TRUE(done);
    for (int i = 0; i < 64; ++i)
        ASSERT_EQ(out[i], seed[i]);
}

TEST(RootPort, TimingOnlyTransfersAllowNullBuffers)
{
    sim::Simulator sim(1);
    host::HostSystem *hs = sim.make<host::HostSystem>(sim, "h");
    pcie::RootPort &port = hs->addSlot(4);
    ProbeDevice dev;
    port.attach(dev);
    int done = 0;
    dev.upstream->dmaWrite(0x1000, 128 * 1024, nullptr, [&] { ++done; });
    dev.upstream->dmaRead(0x1000, 128 * 1024, nullptr, [&] { ++done; });
    sim.runAll();
    EXPECT_EQ(done, 2);
}

TEST(RootPort, BandwidthBoundsLargeTransfers)
{
    sim::Simulator sim(1);
    host::HostSystem *hs = sim.make<host::HostSystem>(sim, "h");
    pcie::RootPort &port = hs->addSlot(4); // x4 ≈ 3.52 GB/s
    ProbeDevice dev;
    port.attach(dev);
    const int n = 64;
    int done = 0;
    for (int i = 0; i < n; ++i)
        dev.upstream->dmaWrite(0, 1 << 20, nullptr, [&] { ++done; });
    sim.runAll();
    EXPECT_EQ(done, n);
    double rate = static_cast<double>(n) * (1 << 20) /
                  sim::toSec(sim.now());
    EXPECT_NEAR(rate, pcie::gen3Lanes(4).bytesPerSec, 0.02e9);
}

TEST(InterruptController, DomainsSeparateIdenticalFunctions)
{
    sim::Simulator sim(1);
    host::HostSystem *hs = sim.make<host::HostSystem>(sim, "h");
    pcie::RootPort &p0 = hs->addSlot(4);
    pcie::RootPort &p1 = hs->addSlot(4);
    ProbeDevice d0, d1;
    p0.attach(d0);
    p1.attach(d1);
    EXPECT_NE(p0.irqDomain(), p1.irqDomain());

    int hits0 = 0, hits1 = 0;
    hs->irq().registerHandler(p0.irqDomain(), 0, 0, [&] { ++hits0; });
    hs->irq().registerHandler(p1.irqDomain(), 0, 0, [&] { ++hits1; });
    d0.upstream->msix(0, 0);
    d1.upstream->msix(0, 0);
    d1.upstream->msix(0, 0);
    sim.runAll();
    EXPECT_EQ(hits0, 1);
    EXPECT_EQ(hits1, 2);
}

TEST(InterruptController, UnregisterSilencesFunction)
{
    sim::Simulator sim(1);
    host::HostSystem *hs = sim.make<host::HostSystem>(sim, "h");
    int hits = 0;
    hs->irq().registerHandler(0, 5, 1, [&] { ++hits; });
    hs->irq().raise(0, 5, 1);
    sim.runAll();
    EXPECT_EQ(hits, 1);
    hs->irq().unregisterFunction(0, 5);
    hs->irq().raise(0, 5, 1); // now spurious
    sim.runAll();
    EXPECT_EQ(hits, 1);
}
