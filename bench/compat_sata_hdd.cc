/**
 * @file
 * §VI-A compatibility demonstration: the same BM-Store engine, host
 * adaptor and stock tenant driver serving a SATA HDD back end instead
 * of an NVMe SSD. Prints the fio Table IV envelope side by side —
 * the architecture is device-agnostic; only the media physics change.
 */

#include <cstdio>

#include "harness/bench_report.hh"
#include "harness/runner.hh"
#include "harness/testbeds.hh"
#include "ssd/hdd_model.hh"
#include "workload/fio.hh"

using namespace bms;

namespace {

workload::FioResult
run(bool hdd, workload::FioJobSpec spec)
{
    harness::TestbedConfig cfg;
    cfg.ssdCount = 1;
    if (hdd)
        cfg.ssd.hddProfile = ssd::HddProfile();
    harness::BmStoreTestbed bed(cfg);
    host::NvmeDriver &disk = bed.attachTenant(0, sim::gib(256));
    return harness::runFio(bed.sim(), disk, spec);
}

} // namespace

int
main(int argc, char **argv)
{
    harness::Flags("compat_sata_hdd").parse(argc, argv);
    harness::Table t({"case", "P4510 SSD IOPS", "SSD MB/s",
                      "SATA HDD IOPS", "HDD MB/s"});
    for (auto spec : workload::fioTableIv()) {
        // A disk has one actuator: run a single stream against it so
        // the comparison is about the medium, not pathological
        // head-thrash from four competing jobs.
        workload::FioJobSpec hdd_spec = spec;
        hdd_spec.numjobs = 1;
        hdd_spec.iodepth = std::min(hdd_spec.iodepth, 32);
        hdd_spec.runTime = sim::milliseconds(300);
        workload::FioJobSpec ssd_spec = spec;
        ssd_spec.runTime = sim::milliseconds(300);

        workload::FioResult s = run(false, ssd_spec);
        workload::FioResult h = run(true, hdd_spec);
        t.addRow({spec.caseName, harness::Table::fmt(s.iops, 0),
                  harness::Table::fmt(s.mbPerSec, 0),
                  harness::Table::fmt(h.iops, 0),
                  harness::Table::fmt(h.mbPerSec, 0)});
    }
    t.print("§VI-A — same engine, NVMe SSD vs SATA HDD back end");
    std::printf("\nNo engine, driver or management change was needed to "
                "swap the medium — the compatibility claim of the "
                "paper's Discussion.\n");
    return 0;
}
