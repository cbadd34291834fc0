/**
 * @file
 * Extension bench: fleet-scale rolling operations.
 *
 * Builds one deterministic simulation holding an entire fleet of
 * BM-Store cards (32 x 2 SSDs in full mode), admits on the order of a
 * thousand tenant requests through the FleetManager's df-driven
 * placement, runs verified I/O on a subset of tenants, then drives a
 * fleet-wide firmware-upgrade wave with a correlated fault drill
 * (SSD error windows, storage-node losses, an upgrade storm) landing
 * mid-wave. Every active tenant is verified block-for-block by a
 * write-stamp oracle; the final sweep re-reads everything.
 *
 * Gates (CI-enforceable):
 *
 *   --placement-floor=F   placed / requested admissions (default 0.9)
 *   --makespan-limit-s=S  wave makespan in *simulated* seconds
 *                         (default 60)
 *   --events-floor=N      simulator events/sec over the whole run
 *                         (default 200000; pass a lower floor for
 *                         sanitizer builds)
 *   --wall-limit-s=S      whole bench wall-time limit (default 600)
 *
 * `--quick` shrinks the fleet (8 cards, ~160 admissions) for the
 * pre-PR smoke gate. `--json=PATH` writes the machine-readable file
 * there (the committed one is BENCH_fleet.json); without it the bench
 * writes no file. The JSON
 * carries the raw fleet measurements `tco_analysis --fleet-json=PATH`
 * feeds into the paper's §VI-C model at fleet scale. Unknown flags and
 * unparsable numbers exit 2. Drains are bounded (a lost completion
 * panics with the op log), and a failed tenant I/O needs the drill's
 * window to excuse it and the worst completion gap must stay ≤ 10 s.
 */

#include <chrono>
#include <cstdio>
#include <string>

#include "fleet/fleet_manager.hh"
#include "fuzz/verified_tenants.hh"
#include "harness/bench_report.hh"
#include "harness/runner.hh"
#include "sim/lane_audit.hh"
#include "sim/random.hh"

using namespace bms;

int
main(int argc, char **argv)
{
    bool quick = false;
    double placementFloor = 0.9;
    double makespanLimitS = 60.0;
    double eventsFloor = 200e3;
    double wallLimit = 600.0;
    std::string jsonPath; // no --json=: write no file
    harness::Flags("ext_fleet")
        .flag("--quick", quick)
        .number("--placement-floor", placementFloor)
        .number("--makespan-limit-s", makespanLimitS)
        .number("--events-floor", eventsFloor)
        .number("--wall-limit-s", wallLimit)
        .text("--json", jsonPath)
        .parse(argc, argv);
    if (sim::LaneAudit::active())
        sim::LaneAudit::instance().setRun("fleet");

    auto wall0 = std::chrono::steady_clock::now();

    // Fleet shape: full mode is the acceptance scale (32 cards, >1000
    // admissions); quick is the smoke-gate miniature of the same
    // schedule. The per-card QoS budget is raised so the budget, not
    // chunk capacity, is never the binding constraint at this scale.
    fleet::FleetConfig fc;
    fc.seed = 1;
    fc.cards = quick ? 8 : 32;
    fc.ssdsPerCard = 2;
    fc.cardIopsBudget = 3'200'000.0;
    fc.remoteNodesPerCard = 1; // the drill loses one node per hit card
    fleet::FleetManager fm(fc);
    sim::Simulator &sim = fm.sim();

    int requested = quick ? 160 : 1200;
    int activeTarget = quick ? 8 : 16;

    // Phase 1 — admissions. Mostly Bronze (the fleet's bread and
    // butter), half thin, a sprinkle of anti-affinity groups.
    sim::Rng rng(fc.seed ^ 0xbe'9c'f1'ee'7ULL);
    int placed = 0;
    for (int t = 0; t < requested; ++t) {
        fleet::TenantRequest req;
        req.bytes = sim::mib(4);
        double cls = rng.uniform01();
        req.qos = cls < 0.7   ? fleet::QosClass::Bronze
                  : cls < 0.9 ? fleet::QosClass::Silver
                              : fleet::QosClass::Gold;
        req.thin = rng.chance(0.5);
        req.antiAffinityGroup =
            rng.chance(0.1) ? static_cast<int>(rng.uniformInt(0, 3)) : -1;
        if (fm.admit(req).ok)
            ++placed;
    }
    double placementQuality =
        static_cast<double>(placed) / static_cast<double>(requested);

    // Phase 2 — verified workloads on a subset of placements, spread
    // across the fleet (one per card round-robin over the placed set).
    fuzz::OpLog log(256);
    fuzz::VerifiedTenantSet active(sim, log, fc.seed);
    {
        int per_card = (activeTarget + fm.cards() - 1) / fm.cards();
        for (int c = 0; c < fm.cards() &&
                        static_cast<int>(active.size()) < activeTarget;
             ++c) {
            for (int k = 0; k < per_card &&
                            static_cast<int>(active.size()) < activeTarget;
                 ++k) {
                if (fm.tenantsOn(c) <= k)
                    break;
                // Functions are assigned 0..n-1 in admission order.
                host::NvmeDriver &drv =
                    fm.tenantDriver(c, static_cast<std::uint8_t>(k));
                fuzz::OracleDevice::Config ocfg;
                ocfg.uid =
                    static_cast<std::uint32_t>(active.size() + 1);
                ocfg.seed = fc.seed;
                ocfg.regionBytes = sim::mib(1);
                fuzz::TenantSpec spec;
                spec.iodepth = 4;
                spec.readRatio = 0.5;
                spec.flushProb = 0.005;
                spec.maxIoBlocks = 8;
                active
                    .add(drv, fm.card(c).host().memory(), ocfg, spec,
                         rng.fork(), c, "bench.")
                    .workload->start();
            }
        }
    }
    active.attach(fm);

    // Phase 3 — the rolling wave, with the correlated drill landing
    // one simulated second into it.
    std::uint64_t events0 = sim.queue().executedCount();
    fleet::WaveConfig wc;
    wc.op = fleet::WaveOp::FirmwareUpgrade;
    wc.failureBudget = 4;
    wc.availabilityBound = sim::seconds(5);
    fm.startWave(wc);

    fleet::FaultDrill drill;
    drill.firstCard = 0;
    drill.cardStride = 4;
    drill.at = sim.now() + sim::seconds(1);
    drill.duration = sim::milliseconds(50);
    drill.readErrorRate = 0.1;
    drill.writeErrorRate = 0.1;
    drill.latencySpikeRate = 0.05;
    drill.loseNode = true;
    drill.upgradeStorm = true;
    fm.scheduleDrill(drill);

    // Ten times the default makespan limit: a wave still running by
    // then has lost a completion, not merely run slow.
    active.finishWave(fm, sim::seconds(600), sim::milliseconds(5));

    // Phase 4 — drain and verify everything.
    active.drain("tenant+drill drain",
                 [&] { return active.stopped() && fm.drillIdle(); },
                 sim::seconds(30));
    active.finalSweep(sim::seconds(30));

    double wallSec =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      wall0)
            .count();
    std::uint64_t events = sim.queue().executedCount() - events0;
    double eventsPerSec =
        wallSec > 0 ? static_cast<double>(events) / wallSec : 0.0;

    fuzz::VerifiedTenantSet::Totals tot = active.checkedTotals();

    const fleet::WaveReport &w = fm.waveReport();
    double makespanS = static_cast<double>(w.makespan) / 1e9;

    harness::Table t({"cards", "placed/req", "active", "wave ok/fail",
                      "makespan (s)", "io-pause max (ms)", "events (M)",
                      "events/sec (k)", "wall (s)"});
    t.addRow({harness::Table::fmtInt(fm.cards()),
              std::to_string(placed) + "/" + std::to_string(requested),
              harness::Table::fmtInt(static_cast<int>(active.size())),
              std::to_string(w.opsOk) + "/" + std::to_string(w.opsFailed),
              harness::Table::fmt(makespanS, 2),
              harness::Table::fmt(w.ioPauseMsMax, 1),
              harness::Table::fmt(static_cast<double>(events) / 1e6, 2),
              harness::Table::fmt(eventsPerSec / 1e3, 1),
              harness::Table::fmt(wallSec, 1)});
    t.print(quick ? "ext_fleet — rolling upgrade wave (quick)"
                  : "ext_fleet — 32-card rolling upgrade wave");
    std::printf("\nplacement %.3f (floor %.3f), makespan %.2fs "
                "(limit %.0fs), %.0fk events/sec (floor %.0fk), "
                "drill: %u windows / %u node losses / %u storm "
                "rejections\n",
                placementQuality, placementFloor, makespanS,
                makespanLimitS, eventsPerSec / 1e3, eventsFloor / 1e3,
                fm.faultWindowsOpened(), fm.nodeLossesRecovered(),
                fm.stormRejections());

    char traceHash[17];
    std::snprintf(traceHash, sizeof traceHash, "%016llx",
                  static_cast<unsigned long long>(fm.traceHash()));
    harness::JsonWriter json;
    json.field("bench", "ext_fleet")
        .field("mode", quick ? "quick" : "full")
        .field("cards", fm.cards())
        .field("ssdsPerCard", fm.config().ssdsPerCard)
        .field("tenantsRequested", requested)
        .field("tenantsPlaced", placed)
        .field("tenantsActive", active.size())
        .field("totalOps", tot.ops)
        .field("verifiedBlocks", tot.verifiedBlocks)
        .object("wave")
        .field("opsOk", w.opsOk)
        .field("opsFailed", w.opsFailed)
        .field("pauses", w.pauses)
        .field("gateTrips", w.gateTrips)
        .number("makespanMs", sim::toMs(w.makespan), 1)
        .number("ioPauseMsMax", w.ioPauseMsMax, 1)
        .field("evacuatedChunks", w.evacuatedChunks)
        .end()
        .object("drill")
        .field("faultWindows", fm.faultWindowsOpened())
        .field("nodeLosses", fm.nodeLossesRecovered())
        .field("stormRejections", fm.stormRejections())
        .end()
        .field("events", events)
        .number("eventsPerSec", eventsPerSec, 1)
        .number("wallSeconds", wallSec, 1)
        .field("traceHash", traceHash);
    return harness::finishReport(
        "ext_fleet", json,
        {harness::Gate::floor("placementQuality", placementQuality,
                              placementFloor, 3),
         harness::Gate::limit("waveMakespanS", makespanS, makespanLimitS, 2),
         harness::Gate::floor("eventsPerSec", eventsPerSec, eventsFloor, 1),
         harness::Gate::limit("wallSeconds", wallSec, wallLimit, 1)},
        jsonPath, "fleet measurements");
}
