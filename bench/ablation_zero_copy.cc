/**
 * @file
 * Ablation of the DMA-request-routing zero-copy mechanism (§IV-C).
 *
 * Compares BM-Store with zero-copy routing (the paper's design)
 * against a store-and-forward variant that stages every payload in
 * engine DRAM — the "typical" design the paper argues against
 * ("the data must be transferred to the FPGA memory and then copied
 * to the host memory. These duplicate data copies will seriously
 * affect I/O performance").
 */

#include <cstdio>

#include "harness/bench_report.hh"
#include "harness/runner.hh"
#include "harness/testbeds.hh"
#include "workload/fio.hh"

using namespace bms;

namespace {

workload::FioResult
run(bool zero_copy, const workload::FioJobSpec &spec)
{
    harness::TestbedConfig cfg;
    cfg.ssdCount = 1;
    cfg.engine.zeroCopy = zero_copy;
    harness::BmStoreTestbed bed(cfg);
    host::NvmeDriver &disk = bed.attachTenant(0, sim::gib(1536));
    return harness::runFio(bed.sim(), disk, spec);
}

} // namespace

int
main(int argc, char **argv)
{
    harness::Flags("ablation_zero_copy").parse(argc, argv);
    harness::Table t({"case", "zero-copy IOPS", "store-fwd IOPS",
                      "zero-copy AL(us)", "store-fwd AL(us)",
                      "latency penalty"});
    for (const auto &spec : workload::fioTableIv()) {
        workload::FioResult zc = run(true, spec);
        workload::FioResult sf = run(false, spec);
        t.addRow({spec.caseName, harness::Table::fmt(zc.iops, 0),
                  harness::Table::fmt(sf.iops, 0),
                  harness::Table::fmt(zc.avgLatencyUs()),
                  harness::Table::fmt(sf.avgLatencyUs()),
                  harness::Table::fmt((sf.avgLatencyUs() /
                                           zc.avgLatencyUs() -
                                       1.0) *
                                      100.0) +
                      "%"});
    }
    t.print("Ablation — zero-copy DMA routing vs store-and-forward "
            "through engine DRAM (1 SSD)");

    // The decisive case: with 4 back-end SSDs the engine DRAM
    // (≈8 GB/s) becomes the bottleneck for a store-and-forward design
    // while zero-copy routing passes the full 4-SSD bandwidth.
    harness::Table bw({"design", "4-SSD seq-read total MB/s"});
    for (bool zc : {true, false}) {
        harness::TestbedConfig cfg;
        cfg.ssdCount = 4;
        cfg.engine.zeroCopy = zc;
        harness::BmStoreTestbed bed(cfg);
        std::vector<host::BlockDeviceIf *> devs;
        for (int i = 0; i < 4; ++i) {
            devs.push_back(&bed.attachTenant(
                static_cast<pcie::FunctionId>(i), sim::gib(1536),
                core::NamespaceManager::Policy::Dedicate,
                core::QosLimits(), nullptr, i));
        }
        auto results =
            harness::runFioMany(bed.sim(), devs, workload::fioSeqR256());
        double total = 0.0;
        for (const auto &r : results)
            total += r.mbPerSec;
        bw.addRow({zc ? "zero-copy routing" : "store-and-forward",
                   harness::Table::fmt(total, 0)});
    }
    bw.print("Ablation — aggregate bandwidth, 4 SSDs");

    std::printf("\nexpectation: store-and-forward serializes on engine "
                "DRAM bandwidth (~8 GB/s), capping the 4-SSD aggregate "
                "well below the ~13 GB/s that zero-copy routing "
                "sustains; it also adds per-IO staging latency.\n");
    return 0;
}
