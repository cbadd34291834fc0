/**
 * @file
 * Standalone fuzz driver.
 *
 *   fuzz [--seed=N | --seeds=A:B] [--horizon-ms=N] [--max-tenants=N]
 *        [--max-ssds=N] [--min-ssds=N] [--no-faults] [--no-control]
 *        [--no-upgrade] [--no-migration] [--force-migration]
 *        [--remote-nodes=N] [--force-tiering] [--thin] [--force-thin]
 *        [--fleet] [--cards=N] [--no-wave] [--no-drill]
 *        [--paranoid] [--log=LEVEL] [--lane-audit-out=PATH]
 *
 * --fleet switches to the fleet topology (seed family 601+): N cards
 * in one simulation, randomized admissions, a rolling wave and a
 * correlated fault drill, all drawn from a forked stream on a code
 * path that never constructs the single-card Fuzzer — the legacy
 * pinned families replay byte-identically.
 *
 * BMS_FUZZ_SEED=N is equivalent to --seed=N (repro from CI logs).
 * An unknown flag, a malformed number or seed, or a reversed --seeds
 * range exits 2 with the usage line (harness::Flags).
 * Exits nonzero on the first failing seed, after printing the seed
 * and the op log of the interleaving that broke.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "fuzz/fleet_fuzzer.hh"
#include "fuzz/fuzzer.hh"
#include "harness/bench_report.hh"
#include "sim/lane_audit.hh"

using namespace bms;

namespace {

void
printReport(const fuzz::FuzzReport &r)
{
    std::printf("seed=%llu ok: tenants=%d ssds=%d ops=%llu "
                "verified-blocks=%llu errors=%llu ctrl=%llu upgrades=%u "
                "rejected=%u fault-windows=%d media-errors=%llu "
                "spikes=%llu migrations=%u/%u/%u/%u evac=%u "
                "migrated-mb=%.1f max-gap=%.1fms\n",
                static_cast<unsigned long long>(r.seed), r.tenants, r.ssds,
                static_cast<unsigned long long>(r.totalOps),
                static_cast<unsigned long long>(r.verifiedBlocks),
                static_cast<unsigned long long>(r.totalErrors),
                static_cast<unsigned long long>(r.controlOps), r.upgrades,
                r.upgradeRejections, r.faultWindows,
                static_cast<unsigned long long>(r.injectedMediaErrors),
                static_cast<unsigned long long>(r.injectedLatencySpikes),
                r.migrationsStarted, r.migrationsCompleted,
                r.migrationsAborted, r.migrationsRejected, r.evacuations,
                static_cast<double>(r.migratedBytes) / 1e6,
                sim::toMs(r.maxCompletionGap));
    if (r.remoteNodes > 0) {
        std::printf("  remote: nodes=%d spills=%u promotes=%u "
                    "tier-failures=%u node-losses=%u recovered=%u "
                    "respilled=%u timeouts=%llu retries=%llu\n",
                    r.remoteNodes, r.spills, r.promotes, r.tierFailures,
                    r.nodeLosses, r.chunksRecovered, r.chunksRespilled,
                    static_cast<unsigned long long>(r.remoteTimeouts),
                    static_cast<unsigned long long>(r.remoteRetries));
    }
    if (r.trims + r.thinAllocs + r.dsmCommands + r.zeroFillReads +
            r.cowCopies + r.snapshots >
        0) {
        std::printf("  thin: trims=%llu allocs=%llu trimmed-chunks=%llu "
                    "dsm=%llu zero-reads=%llu cow=%llu snapshots=%u "
                    "clones=%u snap-deletes=%u\n",
                    static_cast<unsigned long long>(r.trims),
                    static_cast<unsigned long long>(r.thinAllocs),
                    static_cast<unsigned long long>(r.trimmedChunks),
                    static_cast<unsigned long long>(r.dsmCommands),
                    static_cast<unsigned long long>(r.zeroFillReads),
                    static_cast<unsigned long long>(r.cowCopies),
                    r.snapshots, r.clones, r.snapshotDeletes);
    }
}

void
printFleetReport(const fuzz::FleetFuzzReport &r)
{
    std::printf("seed=%llu ok (fleet): cards=%d placed=%d refused=%d "
                "active=%d ops=%llu verified-blocks=%llu errors=%llu "
                "wave=%u/%u pauses=%u gate-trips=%u evac-chunks=%llu "
                "makespan=%.1fms drill-windows=%u node-losses=%u "
                "storm-rejections=%u max-gap=%.1fms trace=%016llx\n",
                static_cast<unsigned long long>(r.seed), r.cards,
                r.placed, r.refused, r.active,
                static_cast<unsigned long long>(r.totalOps),
                static_cast<unsigned long long>(r.verifiedBlocks),
                static_cast<unsigned long long>(r.totalErrors),
                r.waveOpsOk, r.waveOpsFailed, r.wavePauses,
                r.waveGateTrips,
                static_cast<unsigned long long>(r.waveEvacuatedChunks),
                sim::toMs(r.waveMakespan), r.faultWindows, r.nodeLosses,
                r.stormRejections, sim::toMs(r.maxCompletionGap),
                static_cast<unsigned long long>(r.traceHash));
}

} // namespace

int
main(int argc, char **argv)
{
    fuzz::FuzzConfig cfg;
    fuzz::FleetFuzzConfig fleet_cfg;
    bool fleet = false;
    std::uint64_t first = 1, last = 1;
    bool seeded = false;
    std::uint64_t horizon_ms = cfg.horizon / sim::milliseconds(1);
    auto seed = [&](const char *v) {
        seeded = harness::Flags::parseUnsigned(v, first);
        last = first;
        return seeded;
    };
    harness::Flags flags("fuzz");
    flags.custom("--seed", "N", seed)
        .custom("--seeds", "A:B",
                [&](const char *v) {
                    const char *colon = std::strchr(v, ':');
                    // A reversed range would run no seed and pass.
                    seeded = colon != nullptr &&
                             harness::Flags::parseUnsigned(
                                 std::string(v, colon).c_str(), first) &&
                             harness::Flags::parseUnsigned(colon + 1, last) &&
                             first <= last;
                    return seeded;
                })
        .integer("--horizon-ms", horizon_ms)
        .integer("--max-tenants", cfg.maxTenants)
        .integer("--max-ssds", cfg.maxSsds)
        .integer("--min-ssds", cfg.minSsds)
        .integer("--remote-nodes", cfg.maxRemoteNodes)
        .integer("--cards", fleet_cfg.cards)
        .flag("--force-migration", cfg.forceMigration)
        .flag("--force-tiering", cfg.forceTiering)
        .flag("--thin", cfg.enableThin)
        .flag("--force-thin", cfg.forceThin)
        .flag("--fleet", fleet)
        .flag("--no-faults", cfg.enableFaults, false)
        .flag("--no-control", cfg.enableControlOps, false)
        .flag("--no-upgrade", cfg.enableHotUpgrade, false)
        .flag("--no-migration", cfg.enableMigration, false)
        .flag("--no-wave", fleet_cfg.enableWave, false)
        .flag("--no-drill", fleet_cfg.enableDrill, false);
    if (const char *env = std::getenv("BMS_FUZZ_SEED"); env && !seed(env))
        flags.fail(std::string("bad value in BMS_FUZZ_SEED='") + env + "'");
    flags.parse(argc, argv);
    cfg.horizon = sim::milliseconds(horizon_ms);
    if (!seeded)
        std::fprintf(stderr,
                     "fuzz: no --seed/--seeds given, running seed 1\n");

    for (std::uint64_t s = first; s <= last; ++s) {
        cfg.seed = s;
        if (sim::LaneAudit::active())
            sim::LaneAudit::instance().setRun("seed" + std::to_string(s));
        // Failures panic (abort) inside run(), printing the seed and
        // the op log — exactly what a sweep script wants to capture.
        if (fleet) {
            fleet_cfg.seed = s;
            fleet_cfg.horizon = cfg.horizon;
            fuzz::FleetFuzzer fuzzer(fleet_cfg);
            printFleetReport(fuzzer.run());
        } else {
            fuzz::Fuzzer fuzzer(cfg);
            printReport(fuzzer.run());
        }
        std::fflush(stdout);
    }
    return 0;
}
