/**
 * @file
 * Reproduces paper Fig. 13 and Table VIII: MySQL in a VM backed by
 * VFIO (native), BM-Store, or SPDK vhost —
 *   (a) TPC-C (100 warehouses, 32 threads): normalized transactions;
 *   (b) Sysbench OLTP: normalized queries/transactions + avg latency.
 */

#include <cstdio>
#include <functional>
#include <memory>

#include "apps/mysql_model.hh"
#include "apps/sysbench.hh"
#include "apps/tpcc.hh"
#include "harness/bench_report.hh"
#include "harness/runner.hh"
#include "harness/testbeds.hh"

using namespace bms;

namespace {

struct AppResult
{
    double tpccTps = 0.0;
    double sysbenchTps = 0.0;
    double sysbenchQps = 0.0;
    double sysbenchLatMs = 0.0;
};

/** Run TPC-C then Sysbench against a block device inside a VM. */
AppResult
runApps(sim::Simulator &sim, host::BlockDeviceIf &dev,
        virt::VirtualMachine &vm)
{
    AppResult out;
    apps::MySqlConfig mycfg;
    auto *db = sim.make<apps::MySqlModel>(sim, "mysql", dev, vm.vcpus(),
                                          mycfg);

    apps::TpccConfig tcfg;
    auto *tpcc = sim.make<apps::TpccDriver>(sim, "tpcc", *db, tcfg);
    tpcc->start();
    while (!tpcc->finished())
        sim.runUntil(sim.now() + sim::milliseconds(10));
    out.tpccTps = tpcc->result().tps;

    apps::SysbenchConfig scfg;
    auto *sysb = sim.make<apps::SysbenchDriver>(sim, "sysbench", *db,
                                                scfg);
    sysb->start();
    while (!sysb->finished())
        sim.runUntil(sim.now() + sim::milliseconds(10));
    out.sysbenchTps = sysb->result().tps;
    out.sysbenchQps = sysb->result().qps;
    out.sysbenchLatMs = sim::toMs(sysb->result().latency.mean());
    return out;
}

AppResult
runVfio()
{
    harness::TestbedConfig cfg;
    cfg.ssdCount = 1;
    cfg.attachHostDrivers = false;
    harness::NativeTestbed bed(cfg);
    auto vm = bed.addVfioVm(0);
    return runApps(bed.sim(), *vm.driver, *vm.vm);
}

AppResult
runBms()
{
    harness::TestbedConfig cfg;
    cfg.ssdCount = 1;
    harness::BmStoreTestbed bed(cfg);
    auto vm = bed.addVm(sim::gib(1536));
    return runApps(bed.sim(), *vm.driver, *vm.vm);
}

AppResult
runVhost()
{
    harness::TestbedConfig cfg;
    cfg.ssdCount = 1;
    baselines::SpdkVhostConfig vcfg;
    vcfg.cores = 1;
    harness::VhostTestbed bed(cfg, vcfg);
    auto vm = bed.addVm(0, 0, sim::gib(1536));
    bed.start();
    return runApps(bed.sim(), *vm.blk, *vm.vm);
}

} // namespace

int
main(int argc, char **argv)
{
    harness::Flags("fig13_mysql").parse(argc, argv);
    AppResult vfio = runVfio();
    AppResult bms = runBms();
    AppResult vhost = runVhost();

    harness::Table a({"scheme", "TPC-C tps", "normalized"});
    a.addRow({"native (VFIO)", harness::Table::fmt(vfio.tpccTps, 0),
              "1.00"});
    a.addRow({"BM-Store", harness::Table::fmt(bms.tpccTps, 0),
              harness::Table::fmt(bms.tpccTps / vfio.tpccTps, 3)});
    a.addRow({"SPDK vhost", harness::Table::fmt(vhost.tpccTps, 0),
              harness::Table::fmt(vhost.tpccTps / vfio.tpccTps, 3)});
    a.print("Fig. 13(a) — TPC-C normalized transactions (MySQL in VM)");

    harness::Table b({"scheme", "tps", "qps", "norm tps", "avg lat(ms)"});
    b.addRow({"native (VFIO)", harness::Table::fmt(vfio.sysbenchTps, 0),
              harness::Table::fmt(vfio.sysbenchQps, 0), "1.00",
              harness::Table::fmt(vfio.sysbenchLatMs, 2)});
    b.addRow({"BM-Store", harness::Table::fmt(bms.sysbenchTps, 0),
              harness::Table::fmt(bms.sysbenchQps, 0),
              harness::Table::fmt(bms.sysbenchTps / vfio.sysbenchTps, 3),
              harness::Table::fmt(bms.sysbenchLatMs, 2)});
    b.addRow({"SPDK vhost", harness::Table::fmt(vhost.sysbenchTps, 0),
              harness::Table::fmt(vhost.sysbenchQps, 0),
              harness::Table::fmt(vhost.sysbenchTps / vfio.sysbenchTps,
                                  3),
              harness::Table::fmt(vhost.sysbenchLatMs, 2)});
    b.print("Fig. 13(b) + Table VIII — Sysbench OLTP (MySQL in VM)");

    std::printf("\npaper reference: BM-Store within ~2.6%% of native; "
                "up to 13.4%% more TPC-C transactions and ~8.1%% more "
                "Sysbench queries than SPDK vhost; vhost adds ~11.2%% "
                "latency vs native's 2.6%% for BM-Store.\n");
    return 0;
}
