/**
 * @file
 * Fleet control-plane suite: df-driven placement filters, rolling-wave
 * failure-budget semantics (pause / resume / abort), node loss during
 * a wave with oracle-verified zero data loss, and the same-seed
 * determinism fingerprint (byte-identical op trace).
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "fleet/fleet_manager.hh"
#include "fuzz/verified_tenants.hh"
#include "sim/random.hh"

using namespace bms;

namespace {

/** Pump @p fm's simulation in small slices until @p done. */
void
pump(fleet::FleetManager &fm, const std::function<bool()> &done,
     sim::Tick timeout = sim::seconds(60))
{
    sim::Simulator &sim = fm.sim();
    sim::Tick deadline = sim.now() + timeout;
    while (!done()) {
        ASSERT_LT(sim.now(), deadline) << "fleet test pump timed out";
        sim.runUntil(sim.now() + sim::milliseconds(1));
    }
}

/** Drive a wave to a terminal state, resuming budget pauses. */
void
finishWave(fleet::FleetManager &fm, int resumeBudget = 2)
{
    int resumes = 0;
    while (true) {
        pump(fm, [&fm] {
            return fm.waveState() != fleet::WaveState::Running;
        });
        if (fm.waveState() == fleet::WaveState::Paused) {
            ASSERT_LT(resumes++, 4 * fm.cards())
                << "wave paused more often than it has ops";
            fm.resumeWave(resumeBudget);
            continue;
        }
        break;
    }
}

} // namespace

// ---------------------------------------------------------------- //
// Placement filters                                                //
// ---------------------------------------------------------------- //

TEST(FleetPlacement, CapacityHeadroomBindsThickAdmissions)
{
    fleet::FleetConfig fc;
    fc.cards = 2;
    fc.seed = 21;
    fleet::FleetManager fm(fc);

    // 64 MiB thick = 16 of the 128 chunks each card owns, so exactly
    // 8 tenants fit per card before physical capacity binds (the QoS
    // and function budgets stay far from their limits).
    fleet::TenantRequest req;
    req.bytes = sim::mib(64);
    req.qos = fleet::QosClass::Bronze;
    for (int i = 0; i < 16; ++i) {
        fleet::Placement p = fm.admit(req);
        ASSERT_TRUE(p.ok) << "admission " << i << ": " << p.reason;
    }
    EXPECT_EQ(fm.tenants(), 16);
    EXPECT_EQ(fm.tenantsOn(0), 8);
    EXPECT_EQ(fm.tenantsOn(1), 8);

    fleet::Placement refused = fm.admit(req);
    EXPECT_FALSE(refused.ok);
    EXPECT_NE(refused.reason.find("capacity=2"), std::string::npos)
        << refused.reason;
}

TEST(FleetPlacement, QosBudgetBindsGoldAdmissions)
{
    fleet::FleetConfig fc;
    fc.cards = 2;
    fc.seed = 22;
    fc.cardIopsBudget = 500'000.0;
    fleet::FleetManager fm(fc);

    // Gold commits 200k IOPS against the 500k per-card budget: two
    // per card. The namespaces are tiny, so QoS headroom binds first.
    fleet::TenantRequest req;
    req.bytes = sim::mib(4);
    req.qos = fleet::QosClass::Gold;
    for (int i = 0; i < 4; ++i) {
        fleet::Placement p = fm.admit(req);
        ASSERT_TRUE(p.ok) << "admission " << i << ": " << p.reason;
    }

    fleet::Placement refused = fm.admit(req);
    EXPECT_FALSE(refused.ok);
    EXPECT_NE(refused.reason.find("qos-budget=2"), std::string::npos)
        << refused.reason;

    // The budget is per class-weight, not per head: a 50k Bronze
    // still fits in the 100k each card has left.
    req.qos = fleet::QosClass::Bronze;
    EXPECT_TRUE(fm.admit(req).ok);
}

TEST(FleetPlacement, OvercommitCapBoundsThinPromises)
{
    fleet::FleetConfig fc;
    fc.cards = 2;
    fc.seed = 23;
    fc.overcommitCap = 1.5;
    fleet::FleetManager fm(fc);

    // A thin 256 MiB namespace promises 64 chunks against 128
    // physical per card; the 1.5x cap admits 192 promised chunks, so
    // three thin tenants per card and not a fourth.
    fleet::TenantRequest req;
    req.bytes = sim::mib(256);
    req.thin = true;
    for (int i = 0; i < 6; ++i) {
        fleet::Placement p = fm.admit(req);
        ASSERT_TRUE(p.ok) << "admission " << i << ": " << p.reason;
    }
    EXPECT_EQ(fm.tenantsOn(0), 3);
    EXPECT_EQ(fm.tenantsOn(1), 3);

    fleet::Placement refused = fm.admit(req);
    EXPECT_FALSE(refused.ok);
    EXPECT_NE(refused.reason.find("overcommit=2"), std::string::npos)
        << refused.reason;
}

TEST(FleetPlacement, AntiAffinityGroupsNeverShareACard)
{
    fleet::FleetConfig fc;
    fc.cards = 2;
    fc.seed = 24;
    fleet::FleetManager fm(fc);

    fleet::TenantRequest req;
    req.bytes = sim::mib(4);
    req.antiAffinityGroup = 7;
    fleet::Placement a = fm.admit(req);
    fleet::Placement b = fm.admit(req);
    ASSERT_TRUE(a.ok);
    ASSERT_TRUE(b.ok);
    EXPECT_NE(a.card, b.card);

    // Two cards hold the group's two replicas; a third has no
    // conflict-free card left.
    fleet::Placement refused = fm.admit(req);
    EXPECT_FALSE(refused.ok);
    EXPECT_NE(refused.reason.find("anti-affinity=2"), std::string::npos)
        << refused.reason;

    // Other groups (and group-less tenants) are unaffected.
    req.antiAffinityGroup = -1;
    EXPECT_TRUE(fm.admit(req).ok);
}

// ---------------------------------------------------------------- //
// Rolling waves under a failure budget                             //
// ---------------------------------------------------------------- //

TEST(FleetWave, BudgetExhaustionPausesThenResumesCleanly)
{
    fleet::FleetConfig fc;
    fc.cards = 2;
    fc.seed = 31;
    fleet::FleetManager fm(fc);

    // Occupy card 0 slot 0 with an out-of-band upgrade so the wave's
    // first op bounces off the controller's re-entrancy guard — a
    // deterministic op failure.
    core::Eid eid0 = fm.card(0).controller().endpoint().eid();
    bool direct_done = false;
    fm.card(0).console().firmwareUpgrade(
        eid0, 0, 1u << 20,
        [&direct_done](core::MiUpgradeResult) { direct_done = true; });

    fleet::WaveConfig wc;
    wc.op = fleet::WaveOp::FirmwareUpgrade;
    wc.failureBudget = 0;
    fm.startWave(wc);

    pump(fm, [&fm] {
        return fm.waveState() != fleet::WaveState::Running;
    });
    ASSERT_EQ(fm.waveState(), fleet::WaveState::Paused);
    EXPECT_EQ(fm.waveReport().opsFailed, 1u);
    EXPECT_EQ(fm.waveReport().opsOk, 0u);
    EXPECT_EQ(fm.waveReport().pauses, 1u);

    // Operator runbook: fix the cause (wait the stray upgrade out),
    // resume with a fresh budget. The failed op was consumed by the
    // budget; the remaining three slots complete.
    pump(fm, [&direct_done] { return direct_done; });
    fm.resumeWave(4);
    finishWave(fm);
    ASSERT_EQ(fm.waveState(), fleet::WaveState::Done);
    EXPECT_EQ(fm.waveReport().opsOk, 3u);
    EXPECT_EQ(fm.waveReport().opsFailed, 1u);
    EXPECT_EQ(fm.waveReport().cardsDone, 2);
    EXPECT_GT(fm.waveReport().makespan, 0u);
}

TEST(FleetWave, AbortedWaveLeavesTheFleetOperable)
{
    fleet::FleetConfig fc;
    fc.cards = 2;
    fc.seed = 32;
    fleet::FleetManager fm(fc);

    core::Eid eid0 = fm.card(0).controller().endpoint().eid();
    bool direct_done = false;
    fm.card(0).console().firmwareUpgrade(
        eid0, 0, 1u << 20,
        [&direct_done](core::MiUpgradeResult) { direct_done = true; });

    fleet::WaveConfig wc;
    wc.failureBudget = 0;
    fm.startWave(wc);
    pump(fm, [&fm] {
        return fm.waveState() != fleet::WaveState::Running;
    });
    ASSERT_EQ(fm.waveState(), fleet::WaveState::Paused);
    fm.abortWave();
    EXPECT_EQ(fm.waveState(), fleet::WaveState::Aborted);

    // The fleet is still operable: a fresh wave after the stray
    // upgrade drains completes all four slots.
    pump(fm, [&direct_done] { return direct_done; });
    fleet::WaveConfig wc2;
    wc2.failureBudget = 1;
    fm.startWave(wc2);
    finishWave(fm);
    ASSERT_EQ(fm.waveState(), fleet::WaveState::Done);
    EXPECT_EQ(fm.waveReport().opsOk, 4u);
    EXPECT_EQ(fm.waveReport().opsFailed, 0u);
}

// ---------------------------------------------------------------- //
// Node loss mid-wave, oracle-verified                              //
// ---------------------------------------------------------------- //

TEST(FleetFaults, NodeLossDuringWaveRecoversWithZeroDataLoss)
{
    fleet::FleetConfig fc;
    fc.cards = 2;
    fc.seed = 33;
    fc.remoteNodesPerCard = 1;
    fleet::FleetManager fm(fc);
    sim::Simulator &sim = fm.sim();
    fuzz::OpLog log(256);
    sim::Rng rng(fc.seed ^ 0x0f1ee7ULL);

    // One verified tenant per card.
    fuzz::VerifiedTenantSet tenants(sim, log, fc.seed);
    for (int c = 0; c < fm.cards(); ++c) {
        fleet::TenantRequest req;
        req.bytes = sim::mib(16);
        fleet::Placement p = fm.admit(req);
        ASSERT_TRUE(p.ok) << p.reason;
        ASSERT_EQ(p.card, c); // empty fleet spreads by headroom

        fuzz::OracleDevice::Config ocfg;
        ocfg.uid = static_cast<std::uint32_t>(c + 1);
        ocfg.seed = fc.seed;
        ocfg.regionBytes = sim::mib(1);
        fuzz::TenantSpec spec;
        spec.iodepth = 4;
        spec.readRatio = 0.5;
        spec.maxIoBlocks = 8;
        tenants
            .add(fm.tenantDriver(p.card, p.fn),
                 fm.card(p.card).host().memory(), ocfg, spec, rng.fork(),
                 p.card, "fleettest.")
            .workload->start();
    }
    tenants.attach(fm);

    // Correlated drill hits card 0 mid-wave: SSD fault window plus a
    // storage-node loss the failNode verb must recover.
    fleet::FaultDrill drill;
    drill.firstCard = 0;
    drill.cardStride = 2;
    drill.at = sim.now() + sim::milliseconds(30);
    drill.duration = sim::milliseconds(20);
    drill.readErrorRate = 0.1;
    drill.writeErrorRate = 0.1;
    drill.loseNode = true;
    fm.scheduleDrill(drill);

    fleet::WaveConfig wc;
    wc.op = fleet::WaveOp::FirmwareUpgrade;
    wc.failureBudget = 2;
    wc.availabilityBound = sim::seconds(5);
    fm.startWave(wc);
    tenants.finishWave(fm, sim::seconds(60));
    ASSERT_EQ(fm.waveState(), fleet::WaveState::Done);

    // Drain tenants and the drill's outstanding verbs.
    tenants.drain("tenant drain", [&tenants] { return tenants.stopped(); },
                  sim::seconds(60));
    tenants.drain("drill drain", [&fm] { return fm.drillIdle(); },
                  sim::seconds(60));

    EXPECT_EQ(fm.faultWindowsOpened(), 1u);
    EXPECT_GE(fm.nodeLossesRecovered(), 1u);

    // Zero data loss: with fault rates back at zero, every verified
    // block of every tenant must still read back with a valid stamp.
    // A failed sweep read panics (the test fails on the throw).
    std::uint64_t swept = 0;
    EXPECT_NO_THROW(swept = tenants.finalSweep(sim::seconds(60)));
    EXPECT_GT(swept, 0u);
    EXPECT_GT(tenants.checkedTotals().verifiedBlocks, 0u);
}

// ---------------------------------------------------------------- //
// Determinism fingerprint                                          //
// ---------------------------------------------------------------- //

namespace {

/** One scripted fleet scenario; returns its op trace. */
std::pair<std::vector<std::string>, std::uint64_t>
scriptedTrace(std::uint64_t seed)
{
    fleet::FleetConfig fc;
    fc.cards = 3;
    fc.seed = seed;
    fleet::FleetManager fm(fc);
    sim::Simulator &sim = fm.sim();

    const struct
    {
        std::uint64_t mib;
        fleet::QosClass qos;
        bool thin;
        int group;
    } reqs[] = {
        {8, fleet::QosClass::Bronze, false, -1},
        {16, fleet::QosClass::Gold, false, 3},
        {32, fleet::QosClass::Silver, true, -1},
        {8, fleet::QosClass::Bronze, false, 3},
        {64, fleet::QosClass::Silver, false, -1},
        {16, fleet::QosClass::Bronze, true, 3},
    };
    for (const auto &r : reqs) {
        fleet::TenantRequest req;
        req.bytes = sim::mib(r.mib);
        req.qos = r.qos;
        req.thin = r.thin;
        req.antiAffinityGroup = r.group;
        fm.admit(req);
    }

    fleet::FaultDrill drill;
    drill.firstCard = 1;
    drill.cardStride = 2;
    drill.at = sim.now() + sim::milliseconds(40);
    drill.duration = sim::milliseconds(15);
    drill.upgradeStorm = true;
    fm.scheduleDrill(drill);

    fleet::WaveConfig wc;
    wc.failureBudget = 3;
    fm.startWave(wc);
    int resumes = 0;
    while (true) {
        sim::Tick deadline = sim.now() + sim::seconds(60);
        while (fm.waveState() == fleet::WaveState::Running &&
               sim.now() < deadline)
            sim.runUntil(sim.now() + sim::milliseconds(1));
        if (fm.waveState() == fleet::WaveState::Paused &&
            resumes++ < 12) {
            fm.resumeWave(2);
            continue;
        }
        break;
    }
    sim::Tick deadline = sim.now() + sim::seconds(60);
    while (!fm.drillIdle() && sim.now() < deadline)
        sim.runUntil(sim.now() + sim::milliseconds(1));
    return {fm.trace(), fm.traceHash()};
}

} // namespace

TEST(FleetDeterminism, SameSeedYieldsByteIdenticalOpTrace)
{
    auto [trace_a, hash_a] = scriptedTrace(77);
    auto [trace_b, hash_b] = scriptedTrace(77);
    ASSERT_EQ(trace_a.size(), trace_b.size());
    for (std::size_t i = 0; i < trace_a.size(); ++i)
        EXPECT_EQ(trace_a[i], trace_b[i]) << "trace line " << i;
    EXPECT_EQ(hash_a, hash_b);

    // And the fingerprint is sensitive to the seed: the same script
    // on a different seed lands ops on different ticks.
    auto [trace_c, hash_c] = scriptedTrace(78);
    (void)trace_c;
    EXPECT_NE(hash_a, hash_c);
}
