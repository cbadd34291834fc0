/**
 * @file
 * Reproduces paper Fig. 8 (bare-metal IOPS & bandwidth, 1 disk,
 * native vs BM-Store) and Table V (average latency).
 *
 * Setup (paper §V-B): one P4510; for BM-Store a 1536 GB namespace is
 * allocated from the back-end SSD and bound to a front-end function;
 * fio runs the six Table IV cases with libaio.
 */

#include <cstdio>

#include "harness/bench_report.hh"
#include "harness/runner.hh"
#include "harness/testbeds.hh"
#include "workload/fio.hh"

using namespace bms;

int
main(int argc, char **argv)
{
    harness::Flags("fig08_baremetal_single_disk").parse(argc, argv);
    std::vector<workload::FioJobSpec> cases = workload::fioTableIv();

    harness::Table perf({"case", "native IOPS", "bms IOPS", "ratio",
                         "native MB/s", "bms MB/s"});
    harness::Table lat({"case", "native AL(us)", "bms AL(us)",
                        "delta(us)"});

    for (const auto &spec : cases) {
        harness::TestbedConfig ncfg;
        ncfg.ssdCount = 1;
        harness::NativeTestbed native(ncfg);
        workload::FioResult nres =
            harness::runFio(native.sim(), native.driver(0), spec);

        harness::TestbedConfig bcfg;
        bcfg.ssdCount = 1;
        harness::BmStoreTestbed bms(bcfg);
        host::NvmeDriver &disk = bms.attachTenant(0, sim::gib(1536));
        workload::FioResult bres =
            harness::runFio(bms.sim(), disk, spec);

        perf.addRow({spec.caseName, harness::Table::fmt(nres.iops, 0),
                     harness::Table::fmt(bres.iops, 0),
                     harness::Table::fmt(bres.iops / nres.iops * 100.0) +
                         "%",
                     harness::Table::fmt(nres.mbPerSec, 0),
                     harness::Table::fmt(bres.mbPerSec, 0)});
        lat.addRow({spec.caseName,
                    harness::Table::fmt(nres.avgLatencyUs()),
                    harness::Table::fmt(bres.avgLatencyUs()),
                    harness::Table::fmt(bres.avgLatencyUs() -
                                        nres.avgLatencyUs())});
    }

    perf.print("Fig. 8 — bare-metal performance, 1 disk (native vs "
               "BM-Store)");
    lat.print("Table V — average latency, 1 disk (native vs BM-Store)");
    std::printf("\npaper reference: BM-Store reaches 96.2%%-101.4%% of "
                "native except rand-w-1 (82.5%%), ~3 us extra latency.\n");
    return 0;
}
