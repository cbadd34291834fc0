/**
 * @file
 * Reproduces paper Fig. 11: total bandwidth of BM-Store with 1, 2, 4,
 * 8, 16 and 26 VMs on four SSDs. Each VM gets a 256 GB namespace
 * striped round-robin across the four back-end disks and bound to its
 * own VF (26 is the paper's production maximum per server). Also
 * reports the min/max per-VM share — the balanced-allocation claim.
 */

#include <algorithm>
#include <cstdio>

#include "harness/bench_report.hh"
#include "harness/runner.hh"
#include "harness/testbeds.hh"
#include "workload/fio.hh"

using namespace bms;

int
main(int argc, char **argv)
{
    harness::Flags("fig11_multi_vm").parse(argc, argv);
    workload::FioJobSpec spec = workload::fioSeqR256();
    spec.numjobs = 1;
    spec.iodepth = 256;

    // Production configuration: each VM's namespace carries a QoS
    // bandwidth share (the engine's Fig. 5 mechanism). 775 MB/s x 16
    // = the 4-SSD ceiling, which is what makes Fig. 11 scale linearly
    // up to 16 VMs and saturate beyond.
    core::QosLimits share;
    share.mbPerSecLimit = 775.0;

    harness::Table t({"VMs", "total BW (GB/s)", "min VM MB/s",
                      "max VM MB/s", "max/min"});
    for (int vms : {1, 2, 4, 8, 16, 26}) {
        harness::TestbedConfig cfg;
        cfg.ssdCount = 4;
        cfg.ioQueues = 1;
        harness::BmStoreTestbed bed(cfg);
        std::vector<host::BlockDeviceIf *> devs;
        for (int v = 0; v < vms; ++v) {
            auto vm = bed.addVm(sim::gib(256), share);
            devs.push_back(vm.driver);
        }
        auto results = harness::runFioMany(bed.sim(), devs, spec);
        double total = 0.0, lo = 1e18, hi = 0.0;
        for (const auto &r : results) {
            total += r.mbPerSec;
            lo = std::min(lo, r.mbPerSec);
            hi = std::max(hi, r.mbPerSec);
        }
        t.addRow({harness::Table::fmtInt(vms),
                  harness::Table::fmt(total / 1000.0, 2),
                  harness::Table::fmt(lo, 0), harness::Table::fmt(hi, 0),
                  harness::Table::fmt(hi / lo, 2)});
    }
    t.print("Fig. 11 — BM-Store total bandwidth, multiple VMs on 4 SSDs "
            "(seq read 128K)");
    std::printf("\npaper reference: throughput scales linearly with VM "
                "count, reaching ~12.4 GB/s (the 4-SSD ceiling) by 16 "
                "VMs, with balanced allocation across VMs.\n");
    return 0;
}
