/**
 * @file
 * Extension bench: tenant impact of live chunk migration.
 *
 * A bare-metal tenant runs 4K random reads against a namespace
 * dedicated to back-end slot 0 while the MigrationManager moves its
 * chunks between the two SSDs in a continuous rebalance loop. For
 * each copy-bandwidth budget the bench reports the tenant's
 * throughput and p99 latency during the rebalance against the idle
 * baseline, plus the migration speed the budget actually bought.
 *
 * `--floor=F` (default 0.50) sets the acceptance floor: tenant IOPS
 * during rebalance must stay above F * baseline for every budget.
 * `--quick` measures two budgets (200 MB/s and unpaced, the one that
 * costs the tenant most) over shorter windows, under the same floor,
 * for CI.
 */

#include <algorithm>
#include <cstdio>
#include <limits>
#include <vector>

#include "harness/bench_report.hh"
#include "harness/runner.hh"
#include "harness/testbeds.hh"
#include "workload/fio.hh"

using namespace bms;

namespace {

struct BudgetResult
{
    double budgetMbps = 0.0;
    workload::FioResult idle;
    workload::FioResult busy;
    std::uint32_t migrations = 0;
    std::uint64_t bytesCopied = 0;
    double migrationMbps = 0.0;
};

workload::FioJobSpec
tenantSpec(const char *name, sim::Tick run_time)
{
    workload::FioJobSpec spec;
    spec.pattern = workload::FioPattern::RandRead;
    spec.blockSize = 4096;
    spec.iodepth = 16;
    spec.numjobs = 4;
    spec.caseName = name;
    spec.rampTime = 0;
    spec.runTime = run_time;
    return spec;
}

/** Measurement windows of one budget's run. */
struct Windows
{
    sim::Tick idle = sim::seconds(3);
    sim::Tick rebalance = sim::seconds(6);
};

BudgetResult
runBudget(double budget_mbps, const Windows &win)
{
    BudgetResult out;
    out.budgetMbps = budget_mbps;

    harness::TestbedConfig cfg;
    cfg.ssdCount = 2;
    cfg.chunkBytes = sim::gib(1); // 4 chunks → minutes of copy traffic
    harness::BmStoreTestbed bed(cfg);
    host::NvmeDriver &disk = bed.attachTenant(
        0, sim::gib(4), core::NamespaceManager::Policy::Dedicate,
        core::QosLimits(), nullptr, /*pin_slot=*/0);

    // Phase 1 — idle baseline, no migration traffic.
    out.idle = harness::runFio(bed.sim(), disk,
                               tenantSpec("idle", win.idle));

    // Phase 2 — continuous rebalance: as soon as one chunk lands,
    // the next one starts moving (cycling the namespace's 4 chunks,
    // auto-picked destination), until the measured window closes.
    core::MigrationManager &mig = bed.controller().migration();
    mig.setBudget(budget_mbps);
    auto stop = std::make_shared<bool>(false);
    auto next = std::make_shared<std::function<void(std::uint32_t)>>();
    // The loop holds itself weakly (a strong self-capture would leak
    // it); only a migration in flight keeps it alive.
    *next = [&mig, stop, self = std::weak_ptr(next)](std::uint32_t chunk) {
        if (*stop)
            return;
        mig.migrate(0, 1, chunk, core::MigrationManager::kAutoSlot,
                    [stop, loop = self.lock(),
                     chunk](core::MigrationManager::Report) {
                        (*loop)((chunk + 1) % 4);
                    });
    };
    std::uint64_t bytes0 = mig.bytesCopied();
    std::uint32_t started0 = mig.started();
    sim::Tick t0 = bed.sim().now();
    (*next)(0);
    out.busy = harness::runFio(bed.sim(), disk,
                               tenantSpec("rebalance", win.rebalance));
    sim::Tick window = bed.sim().now() - t0;
    *stop = true;

    out.migrations = mig.started() - started0;
    out.bytesCopied = mig.bytesCopied() - bytes0;
    // The aggregate counter only rolls up finished migrations; add
    // the in-flight copy's progress so slow budgets aren't undersold.
    for (const auto &s : mig.status()) {
        if (s.state == core::MigrationState::Copying ||
            s.state == core::MigrationState::CuttingOver)
            out.bytesCopied += s.bytesCopied;
    }
    out.migrationMbps =
        static_cast<double>(out.bytesCopied) / 1e6 / sim::toSec(window);

    // Let the in-flight migration retire so the world tears down
    // clean (map flipped, chunks released, gate closed).
    bed.runUntilTrue([&] { return mig.idle(); }, sim::seconds(60));
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    double floor = 0.50;
    bool quick = false;
    harness::Flags("ext_chunk_migration")
        .number("--floor", floor)
        .flag("--quick", quick)
        .parse(argc, argv);

    Windows win;
    std::vector<double> budgets = {50.0, 200.0, 800.0, 0.0};
    if (quick) {
        win.idle = sim::milliseconds(500);
        win.rebalance = sim::seconds(1);
        budgets = {200.0, 0.0};
    }
    std::vector<BudgetResult> results;
    for (double budget : budgets)
        results.push_back(runBudget(budget, win));

    harness::Table t({"copy budget (MB/s)", "tenant IOPS idle",
                      "tenant IOPS rebal", "retained", "p99 idle (us)",
                      "p99 rebal (us)", "migration MB/s",
                      "chunks moved"});
    double worstRetained = std::numeric_limits<double>::infinity();
    for (const auto &r : results) {
        double retained = r.idle.iops > 0 ? r.busy.iops / r.idle.iops : 0;
        worstRetained = std::min(worstRetained, retained);
        t.addRow({r.budgetMbps > 0 ? harness::Table::fmt(r.budgetMbps, 0)
                                   : "unpaced",
                  harness::Table::fmt(r.idle.iops, 0),
                  harness::Table::fmt(r.busy.iops, 0),
                  harness::Table::fmt(retained * 100.0, 1) + "%",
                  harness::Table::fmt(
                      static_cast<double>(r.idle.latency.p99()) / 1e3, 1),
                  harness::Table::fmt(
                      static_cast<double>(r.busy.latency.p99()) / 1e3, 1),
                  harness::Table::fmt(r.migrationMbps, 1),
                  harness::Table::fmtInt(r.migrations)});
    }
    t.print(quick ? "Ext — tenant throughput/latency during live chunk "
                    "rebalancing (4K randread, namespace dedicated to "
                    "slot 0; quick)"
                  : "Ext — tenant throughput/latency during live chunk "
                    "rebalancing (4K randread, namespace dedicated to "
                    "slot 0)");

    harness::Gate gate =
        harness::Gate::floor("retainedThroughput", worstRetained, floor, 3);
    std::printf("\ntenant throughput floor: %.0f%% of idle baseline — "
                "%s\n",
                floor * 100.0, gate.pass() ? "PASS" : "FAIL");
    std::printf("the copy budget caps migration speed (QoS-paced "
                "through the engine); an unpaced copy moves data "
                "fastest but costs the most tenant throughput.\n");
    return harness::gateVerdict("ext_chunk_migration", {gate});
}
