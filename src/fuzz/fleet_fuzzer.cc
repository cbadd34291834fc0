#include "fuzz/fleet_fuzzer.hh"

#include <algorithm>
#include <string>

#include "sim/check.hh"
#include "sim/random.hh"

namespace bms::fuzz {

FleetFuzzer::FleetFuzzer(FleetFuzzConfig cfg)
    : _cfg(cfg), _log(cfg.opLogCapacity)
{
    BMS_ASSERT(_cfg.cards >= 2 && _cfg.cards <= 64,
               "fleet fuzz wants 2..64 cards: ", _cfg.cards);
    BMS_ASSERT(_cfg.maxTenants >= 1, "need at least one admission");
    BMS_ASSERT(_cfg.maxActiveTenants >= 1,
               "need at least one verified tenant");
    BMS_ASSERT(_cfg.horizon >= sim::milliseconds(10),
               "horizon too short for a wave plus a drill");
}

FleetFuzzer::~FleetFuzzer() = default;

void
FleetFuzzer::admitTenants(sim::Rng &rng, FleetFuzzReport &report)
{
    // At least one admission attempt per card, up to the tenant cap;
    // refusals are legal outcomes the report keeps visible.
    int floor_n = std::min(_cfg.maxTenants, _fleet->cards());
    int want = floor_n;
    if (_cfg.maxTenants > floor_n)
        want += static_cast<int>(
            rng.uniformInt(0, _cfg.maxTenants - floor_n));
    for (int t = 0; t < want; ++t) {
        fleet::TenantRequest req;
        req.bytes = sim::mib(4ull << rng.uniformInt(0, 2)); // 4..16 MiB
        req.qos = static_cast<fleet::QosClass>(rng.uniformInt(0, 2));
        req.thin = rng.chance(0.4);
        req.antiAffinityGroup =
            rng.chance(0.25) ? static_cast<int>(rng.uniformInt(0, 1))
                             : -1;
        fleet::Placement p = _fleet->admit(req);
        if (!p.ok) {
            ++report.refused;
            _log.record(_fleet->sim().now(),
                        "admit refused: " + p.reason);
            continue;
        }
        ++report.placed;
        _placed.push_back(Placed{p.card, p.fn, req.thin});
    }
    if (_placed.empty())
        _tenants->fail("no admission succeeded on an empty fleet");
}

void
FleetFuzzer::activateTenants(sim::Rng &rng)
{
    int n = std::min(static_cast<int>(_placed.size()),
                     _cfg.maxActiveTenants);
    for (int i = 0; i < n; ++i) {
        const Placed &p = _placed[static_cast<std::size_t>(i)];
        host::NvmeDriver &drv = _fleet->tenantDriver(p.card, p.fn);

        OracleDevice::Config ocfg;
        ocfg.uid = static_cast<std::uint32_t>(i + 1);
        ocfg.seed = _cfg.seed;
        ocfg.regionBytes = sim::mib(1 + rng.uniformInt(0, 1));
        ocfg.baseOffset = 0;

        TenantSpec spec;
        spec.iodepth = 1 + static_cast<int>(rng.uniformInt(0, 7));
        spec.readRatio = rng.uniformDouble(0.2, 0.8);
        spec.flushProb = 0.005;
        spec.minIoBlocks = 1;
        spec.maxIoBlocks = 1u << rng.uniformInt(0, 4); // 4..64 KiB
        spec.sequential = rng.chance(0.3);
        if (p.thin)
            spec.trimProb = rng.uniformDouble(0.02, 0.08);
        _tenants
            ->add(drv, _fleet->card(p.card).host().memory(), ocfg, spec,
                  rng.fork(), p.card, "fleet.")
            .workload->start();
    }
}

FleetFuzzReport
FleetFuzzer::run()
{
    FleetFuzzReport report;
    report.seed = _cfg.seed;

    // The fleet stream is forked off its own constant; the legacy
    // single-card families never see these draws (and --fleet never
    // constructs the legacy Fuzzer), so pinned seeds 1-8, 201-204,
    // 301-304, 401-404 and 501-504 replay byte-identically.
    sim::Rng rng(_cfg.seed ^ 0xf1ee'75ca'1e01ULL);

    fleet::FleetConfig fc;
    fc.seed = _cfg.seed;
    fc.cards = 2 + static_cast<int>(rng.uniformInt(0, _cfg.cards - 2));
    fc.ssdsPerCard = 2;
    // One storage node behind every card so the drill can lose (and
    // recover) one per hit card.
    fc.remoteNodesPerCard = _cfg.enableDrill ? 1 : 0;
    _fleet = std::make_unique<fleet::FleetManager>(fc);
    report.cards = _fleet->cards();
    sim::Simulator &sim = _fleet->sim();
    _tenants = std::make_unique<VerifiedTenantSet>(sim, _log, _cfg.seed);
    VerifiedTenantSet &vt = *_tenants;

    admitTenants(rng, report);
    activateTenants(rng);
    report.active = static_cast<int>(vt.size());
    _start = sim.now();

    // Fault windows excuse tenant errors on the hit cards; the wave's
    // availability gate reads the worst tenant gap fleet-wide.
    vt.attach(*_fleet);

    if (_cfg.enableWave) {
        fleet::WaveConfig wc;
        wc.op = rng.chance(0.5) ? fleet::WaveOp::FirmwareUpgrade
                                : fleet::WaveOp::LosslessReplace;
        wc.failureBudget = 1 + static_cast<int>(rng.uniformInt(0, 2));
        wc.availabilityBound = sim::seconds(5);
        sim::Tick at = _start + _cfg.horizon / 5;
        sim.scheduleAt(at, [this, wc] {
            _log.record(_fleet->sim().now(), "wave start");
            _fleet->startWave(wc);
        });
    }

    if (_cfg.enableDrill) {
        fleet::FaultDrill drill;
        drill.firstCard = static_cast<int>(rng.uniformInt(0, 1));
        drill.cardStride = 2;
        drill.at = _start + _cfg.horizon / 2;
        drill.duration =
            sim::milliseconds(10 + rng.uniformInt(0, 20));
        drill.readErrorRate = rng.uniformDouble(0.05, 0.3);
        drill.writeErrorRate = rng.uniformDouble(0.05, 0.3);
        drill.latencySpikeRate = rng.uniformDouble(0.0, 0.2);
        drill.loseNode = true;
        drill.upgradeStorm = rng.chance(0.7);
        _fleet->scheduleDrill(drill);
    }

    sim.runUntil(_start + _cfg.horizon);

    // Drain: tenants first (their I/O no longer moves the gates),
    // then the drill's outstanding verbs, then the wave.
    vt.drain("tenant drain", [&vt] { return vt.stopped(); },
             sim::seconds(30));
    vt.drain("drill drain", [this] { return _fleet->drillIdle(); },
             sim::seconds(30));
    if (_cfg.enableWave)
        vt.finishWave(*_fleet, sim::seconds(120));

    // After a wave plus a drill, whatever is on media fleet-wide must
    // still decode to an acceptable stamp.
    vt.finalSweep(sim::seconds(30));

    VerifiedTenantSet::Totals tot = vt.checkedTotals();
    report.totalOps = tot.ops;
    report.totalErrors = tot.errors;
    report.verifiedBlocks = tot.verifiedBlocks;
    report.maxCompletionGap = tot.maxGap;
    if (report.verifiedBlocks == 0)
        vt.fail("nothing was verified");

    const fleet::WaveReport &w = _fleet->waveReport();
    report.waveOpsOk = w.opsOk;
    report.waveOpsFailed = w.opsFailed;
    report.wavePauses = w.pauses;
    report.waveGateTrips = w.gateTrips;
    report.waveEvacuatedChunks = w.evacuatedChunks;
    report.waveMakespan = w.makespan;
    report.faultWindows = _fleet->faultWindowsOpened();
    report.nodeLosses = _fleet->nodeLossesRecovered();
    report.stormRejections = _fleet->stormRejections();
    report.traceHash = _fleet->traceHash();
    report.finishedAt = sim.now();
    return report;
}

} // namespace bms::fuzz
