/**
 * @file
 * Reproduces paper Fig. 10: total bare-metal bandwidth of BM-Store as
 * the number of back-end SSDs grows from 1 to 4 (seq-r-256). One
 * tenant namespace is dedicated per SSD, each running the fio case;
 * linear scaling demonstrates the engine is not the bottleneck.
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
    harness::Flags("fig10_scalability").parse(argc, argv);
    workload::FioJobSpec spec = workload::fioSeqR256();

    harness::Table t({"SSDs", "total BW (GB/s)", "scaling vs 1 SSD"});
    double base = 0.0;
    for (int n = 1; n <= 4; ++n) {
        harness::TestbedConfig cfg;
        cfg.ssdCount = n;
        harness::BmStoreTestbed bed(cfg);
        std::vector<host::BlockDeviceIf *> devs;
        for (int i = 0; i < n; ++i) {
            devs.push_back(&bed.attachTenant(
                static_cast<pcie::FunctionId>(i), sim::gib(1536),
                core::NamespaceManager::Policy::Dedicate,
                core::QosLimits(), nullptr, /*pin_slot=*/i));
        }
        auto results = harness::runFioMany(bed.sim(), devs, spec);
        double total = 0.0;
        for (const auto &r : results)
            total += r.mbPerSec;
        if (n == 1)
            base = total;
        t.addRow({harness::Table::fmtInt(n),
                  harness::Table::fmt(total / 1000.0, 2),
                  harness::Table::fmt(total / base, 2) + "x"});
    }
    t.print("Fig. 10 — BM-Store total bandwidth vs number of SSDs "
            "(bare metal, seq-r-256)");
    std::printf("\npaper reference: bandwidth increases linearly with "
                "the number of SSDs; 4 SSDs saturate ~12.4 GB/s while "
                "using about half the FPGA.\n");
    return 0;
}
