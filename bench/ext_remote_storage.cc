/**
 * @file
 * Extension bench: the disaggregated remote chunk tier (§VI-D "add
 * remote storage support" taken to its conclusion).
 *
 * A tenant namespace of 4 chunks runs a mixed 4K workload on a card
 * with 2 local P4510s plus 2 storage nodes x 2 volumes (6 back-end
 * slots through the same wide LBA map). Two measurements:
 *
 *   churn  tenant p99 while the tiering manager continuously
 *          spills/promotes one chunk at a time under a 200 MB/s
 *          migration budget — the transparency claim, gated:
 *
 *            --p99-factor=F   churn p99 must stay within F x the
 *                             idle p99 (default 2.0)
 *            --moves-floor=N  the window must complete at least N
 *                             tier moves or the gate measured
 *                             nothing (default 4; quick 2)
 *
 *          Any tenant I/O error in either window fails the bench.
 *
 *   sweep  read IOPS/latency with K of the 4 chunks pinned remote
 *          (K = 0..4) — what a cold working set actually costs as
 *          its remote share grows.
 *
 * `--quick` shrinks both windows for the pre-PR smoke gate.
 * `--json=PATH` writes the machine-readable output there (the
 * committed one is BENCH_remote_tier.json); without it the bench
 * writes no file.
 */

#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "harness/bench_report.hh"
#include "harness/runner.hh"
#include "harness/testbeds.hh"
#include "workload/fio.hh"

using namespace bms;

namespace {

constexpr int kLocalSsds = 2;
constexpr int kRemoteNodes = 2;
constexpr int kVolumesPerNode = 2;
constexpr int kChunks = 4;
constexpr std::uint64_t kChunkBytes = sim::mib(8);
constexpr double kMigrationMbps = 200.0;

struct PhaseResult
{
    double iops = 0.0;
    double avgUs = 0.0;
    double p99Us = 0.0;
    std::uint64_t errors = 0;
};

struct SweepPoint
{
    int spilledChunks = 0;
    PhaseResult io;
};

PhaseResult
phaseOf(const workload::FioResult &r)
{
    PhaseResult p;
    p.iops = r.iops;
    p.avgUs = r.avgLatencyUs();
    p.p99Us = static_cast<double>(r.latency.p99()) / 1e3;
    p.errors = r.errors;
    return p;
}

std::unique_ptr<harness::BmStoreTestbed>
makeBed()
{
    harness::TestbedConfig cfg;
    cfg.ssdCount = kLocalSsds;
    cfg.remoteNodes = kRemoteNodes;
    cfg.volumesPerNode = kVolumesPerNode;
    cfg.chunkBytes = kChunkBytes;
    auto bed = std::make_unique<harness::BmStoreTestbed>(cfg);
    bed->controller().migration().setBudget(kMigrationMbps);
    // Small copy segments bound the head-of-line blocking a tenant 4K
    // I/O can see behind an in-flight segment on the same SSD — the
    // knob that makes the transparency gate meetable at 200 MB/s.
    core::TieringConfig tcfg = bed->controller().tiering().policy();
    tcfg.tieringSegmentBytes = sim::kib(64);
    bed->controller().tiering().setPolicy(tcfg);
    return bed;
}

workload::FioJobSpec
makeSpec(workload::FioPattern pattern, bool quick, const char *name)
{
    workload::FioJobSpec spec;
    spec.pattern = pattern;
    spec.blockSize = 4096;
    spec.iodepth = 4;
    spec.numjobs = 1;
    spec.rampTime = quick ? sim::milliseconds(2) : sim::milliseconds(10);
    spec.runTime = quick ? sim::milliseconds(120) : sim::milliseconds(400);
    spec.caseName = name;
    return spec;
}

/** Spill chunks [0, k) and wait until the registry holds all of them. */
void
spillChunks(harness::BmStoreTestbed &bed, int k)
{
    int done = 0;
    for (int c = 0; c < k; ++c)
        bed.controller().tiering().spill(0, 1, static_cast<std::uint32_t>(c),
                                         -1, [&](bool ok) {
                                             if (ok)
                                                 ++done;
                                         });
    bed.runUntilTrue(
        [&] {
            return done == k && bed.controller().tiering().idle() &&
                   bed.controller().migration().idle();
        },
        sim::seconds(10));
}

} // namespace

int
main(int argc, char **argv)
{
    bool quick = false;
    double p99Factor = 2.0;
    int movesFloor = -1; // resolved after --quick is known
    std::string jsonPath; // no --json=: write no file
    harness::Flags("ext_remote_storage")
        .flag("--quick", quick)
        .number("--p99-factor", p99Factor)
        .integer("--moves-floor", movesFloor)
        .text("--json", jsonPath)
        .parse(argc, argv);
    if (movesFloor < 0)
        movesFloor = quick ? 2 : 4;

    // ---- Phase 1: idle vs tier-churn tail latency -------------------
    auto bed = makeBed();
    host::NvmeDriver &drv =
        bed->attachTenant(0, kChunks * kChunkBytes);
    auto &tier = bed->controller().tiering();

    workload::FioJobSpec mixed =
        makeSpec(workload::FioPattern::RandRw, quick, "rand-rw-70-30");
    PhaseResult idle = phaseOf(harness::runFio(bed->sim(), drv, mixed));

    // Continuous spill -> promote cycle, one chunk at a time, driven
    // entirely from completion callbacks while fio runs on top.
    int moves = 0;
    int tierFailures = 0;
    bool stop = false;
    std::function<void(int)> cycle = [&](int chunk) {
        if (stop)
            return;
        tier.spill(0, 1, static_cast<std::uint32_t>(chunk), -1,
                   [&, chunk](bool ok) {
                       if (ok)
                           ++moves;
                       else
                           ++tierFailures;
                       if (stop)
                           return;
                       tier.promote(0, 1, static_cast<std::uint32_t>(chunk),
                                    [&, chunk](bool ok2) {
                                        if (ok2)
                                            ++moves;
                                        else
                                            ++tierFailures;
                                        cycle((chunk + 1) % kChunks);
                                    });
                   });
    };
    cycle(0);
    PhaseResult churn = phaseOf(harness::runFio(bed->sim(), drv, mixed));
    stop = true;
    bed->runUntilTrue(
        [&] {
            return tier.idle() && bed->controller().migration().idle();
        },
        sim::seconds(10));

    double p99Ratio = idle.p99Us > 0 ? churn.p99Us / idle.p99Us : 0.0;

    harness::Table churnTable(
        {"phase", "IOPS", "avg lat (us)", "p99 (us)", "tier moves"});
    churnTable.addRow({"idle", harness::Table::fmt(idle.iops, 0),
                       harness::Table::fmt(idle.avgUs, 2),
                       harness::Table::fmt(idle.p99Us, 2), "0"});
    churnTable.addRow({"tier churn", harness::Table::fmt(churn.iops, 0),
                       harness::Table::fmt(churn.avgUs, 2),
                       harness::Table::fmt(churn.p99Us, 2),
                       harness::Table::fmtInt(moves)});
    churnTable.print("ext_remote_storage — tenant 4K rand-rw 70/30 while "
                     "chunks spill/promote at 200 MB/s");

    // ---- Phase 2: remote-hit-ratio sweep ----------------------------
    std::vector<int> ks =
        quick ? std::vector<int>{0, 2, 4} : std::vector<int>{0, 1, 2, 3, 4};
    std::vector<SweepPoint> sweep;
    harness::Table sweepTable(
        {"chunks remote", "remote share", "IOPS", "avg lat (us)", "p99 (us)"});
    for (int k : ks) {
        auto kbed = makeBed();
        host::NvmeDriver &kdrv = kbed->attachTenant(0, kChunks * kChunkBytes);
        spillChunks(*kbed, k);
        workload::FioJobSpec rd =
            makeSpec(workload::FioPattern::RandRead, quick, "rand-r-sweep");
        SweepPoint p;
        p.spilledChunks = k;
        p.io = phaseOf(harness::runFio(kbed->sim(), kdrv, rd));
        sweep.push_back(p);
        sweepTable.addRow(
            {harness::Table::fmtInt(k),
             harness::Table::fmt(static_cast<double>(k) / kChunks, 2),
             harness::Table::fmt(p.io.iops, 0),
             harness::Table::fmt(p.io.avgUs, 2),
             harness::Table::fmt(p.io.p99Us, 2)});
    }
    sweepTable.print("ext_remote_storage — 4K random read vs remote share "
                     "of the working set");

    std::uint64_t ioErrors = idle.errors + churn.errors;
    for (const SweepPoint &p : sweep)
        ioErrors += p.io.errors;

    std::printf("\ntier churn p99: %.2f us vs idle %.2f us = %.2fx "
                "(limit %.2fx); %d tier moves (floor %d), %d move "
                "failures, %llu tenant I/O errors\n",
                churn.p99Us, idle.p99Us, p99Ratio, p99Factor, moves,
                movesFloor, tierFailures,
                static_cast<unsigned long long>(ioErrors));

    harness::JsonWriter json;
    auto latency = [&](const PhaseResult &r) -> harness::JsonWriter & {
        return json.number("iops", r.iops, 1)
            .number("avgUs", r.avgUs, 2)
            .number("p99Us", r.p99Us, 2);
    };
    json.field("bench", "ext_remote_storage")
        .field("mode", quick ? "quick" : "full")
        .field("localSsds", kLocalSsds)
        .field("remoteNodes", kRemoteNodes)
        .field("volumesPerNode", kVolumesPerNode)
        .object("idle");
    latency(idle).field("errors", idle.errors).end().object("churn");
    latency(churn)
        .field("errors", churn.errors)
        .field("tierMoves", moves)
        .field("tierFailures", tierFailures)
        .end()
        .array("sweep");
    for (const SweepPoint &p : sweep) {
        json.object()
            .field("spilledChunks", p.spilledChunks)
            .number("remoteShare",
                    static_cast<double>(p.spilledChunks) / kChunks, 2);
        latency(p.io).end();
    }
    json.end();
    return harness::finishReport(
        "ext_remote_storage", json,
        {harness::Gate::limit("p99Churn", p99Ratio, p99Factor, 3),
         harness::Gate::floor("tierMoves", moves, movesFloor, 0),
         harness::Gate::limit("ioErrors", static_cast<double>(ioErrors), 0,
                              0)},
        jsonPath, "trajectory");
}
