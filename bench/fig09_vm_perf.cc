/**
 * @file
 * Reproduces paper Fig. 9 (single-VM IOPS & bandwidth: VFIO vs
 * BM-Store vs SPDK vhost, one disk) and Table VII (average latency).
 *
 * Setup (paper §V-C): VM with 4 vCPUs / 4 GB (CentOS 7.9, 3.10
 * guest); SPDK vhost gets one extra dedicated host core for its
 * polling reactor.
 */

#include <cstdio>

#include "harness/bench_report.hh"
#include "harness/runner.hh"
#include "harness/testbeds.hh"
#include "workload/fio.hh"

using namespace bms;

namespace {

workload::FioResult
runVfio(const workload::FioJobSpec &spec)
{
    harness::TestbedConfig cfg;
    cfg.ssdCount = 1;
    cfg.attachHostDrivers = false; // VFIO unbinds the kernel driver
    harness::NativeTestbed bed(cfg);
    auto vm = bed.addVfioVm(0);
    return harness::runFio(bed.sim(), *vm.driver, spec);
}

workload::FioResult
runBms(const workload::FioJobSpec &spec)
{
    harness::TestbedConfig cfg;
    cfg.ssdCount = 1;
    harness::BmStoreTestbed bed(cfg);
    auto vm = bed.addVm(sim::gib(1536));
    return harness::runFio(bed.sim(), *vm.driver, spec);
}

workload::FioResult
runVhost(const workload::FioJobSpec &spec)
{
    harness::TestbedConfig cfg;
    cfg.ssdCount = 1;
    baselines::SpdkVhostConfig vcfg;
    vcfg.cores = 1; // the paper's one extra core for the vhost layer
    harness::VhostTestbed bed(cfg, vcfg);
    auto vm = bed.addVm(0, 0, sim::gib(1536));
    bed.start();
    return harness::runFio(bed.sim(), *vm.blk, spec);
}

} // namespace

int
main(int argc, char **argv)
{
    harness::Flags("fig09_vm_perf").parse(argc, argv);
    harness::Table perf({"case", "VFIO IOPS", "BMS IOPS", "vhost IOPS",
                         "BMS/VFIO", "vhost/VFIO", "VFIO MB/s",
                         "BMS MB/s", "vhost MB/s"});
    harness::Table lat(
        {"case", "VFIO AL(us)", "BMS AL(us)", "vhost AL(us)"});

    for (const auto &spec : workload::fioTableIv()) {
        workload::FioResult vfio = runVfio(spec);
        workload::FioResult bms = runBms(spec);
        workload::FioResult vhost = runVhost(spec);

        perf.addRow(
            {spec.caseName, harness::Table::fmt(vfio.iops, 0),
             harness::Table::fmt(bms.iops, 0),
             harness::Table::fmt(vhost.iops, 0),
             harness::Table::fmt(bms.iops / vfio.iops * 100.0) + "%",
             harness::Table::fmt(vhost.iops / vfio.iops * 100.0) + "%",
             harness::Table::fmt(vfio.mbPerSec, 0),
             harness::Table::fmt(bms.mbPerSec, 0),
             harness::Table::fmt(vhost.mbPerSec, 0)});
        lat.addRow({spec.caseName,
                    harness::Table::fmt(vfio.avgLatencyUs()),
                    harness::Table::fmt(bms.avgLatencyUs()),
                    harness::Table::fmt(vhost.avgLatencyUs())});
    }

    perf.print("Fig. 9 — single-VM performance, 1 disk (VFIO vs BM-Store "
               "vs SPDK vhost)");
    lat.print("Table VII — single-VM average latency");
    std::printf("\npaper reference: BM-Store at 95.6%%-102.7%% of VFIO "
                "(rand-w-1: 81.2%%); SPDK vhost at 63.0%%-96.0%%, "
                "collapsing on seq-r-256 (BM-Store +62.9%% there); "
                "vhost also burns one extra host core.\n");
    return 0;
}
