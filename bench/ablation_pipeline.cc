/**
 * @file
 * Ablation of the engine's constant latency budget (paper Table V:
 * "BM-Store constantly introduces about 3 us latency overhead due to
 * the longer command path"). Sweeps the front/completion pipeline
 * delays to show where the ~3 us goes and what an unoptimized (or a
 * hypothetical faster) engine would look like at qd1 and at depth.
 */

#include <cstdio>

#include "harness/bench_report.hh"
#include "harness/runner.hh"
#include "harness/testbeds.hh"
#include "workload/fio.hh"

using namespace bms;

namespace {

struct Point
{
    const char *label;
    sim::Tick front;
    sim::Tick completion;
};

} // namespace

int
main(int argc, char **argv)
{
    harness::Flags("ablation_pipeline").parse(argc, argv);
    // Native reference.
    harness::TestbedConfig ncfg;
    ncfg.ssdCount = 1;
    harness::NativeTestbed native(ncfg);
    workload::FioResult nat =
        harness::runFio(native.sim(), native.driver(0),
                        workload::fioRandR1());

    std::vector<Point> points = {
        {"ideal engine (0 ns pipeline)", 0, 0},
        {"default (900/500 ns — the shipped calibration)",
         sim::nanoseconds(900), sim::nanoseconds(500)},
        {"2x slower pipeline", sim::nanoseconds(1800),
         sim::nanoseconds(1000)},
        {"ARM-offload-class path (10 us, LeapIO-like)",
         sim::microseconds(7), sim::microseconds(3)},
    };

    harness::Table t({"engine pipeline", "rand-r-1 AL(us)",
                      "delta vs native(us)", "rand-r-128 IOPS"});
    for (const Point &p : points) {
        harness::TestbedConfig cfg;
        cfg.ssdCount = 1;
        cfg.engine.frontPipelineDelay = p.front;
        cfg.engine.completionPipelineDelay = p.completion;
        harness::BmStoreTestbed bed(cfg);
        host::NvmeDriver &disk = bed.attachTenant(0, sim::gib(1536));
        workload::FioResult r1 =
            harness::runFio(bed.sim(), disk, workload::fioRandR1());
        workload::FioResult r128 =
            harness::runFio(bed.sim(), disk, workload::fioRandR128());
        t.addRow({p.label, harness::Table::fmt(r1.avgLatencyUs()),
                  harness::Table::fmt(r1.avgLatencyUs() -
                                      nat.avgLatencyUs()),
                  harness::Table::fmt(r128.iops, 0)});
    }
    t.print("Ablation — engine pipeline latency (native rand-r-1: " +
            harness::Table::fmt(nat.avgLatencyUs()) + " us)");
    std::printf("\ntakeaway: the FPGA pipeline keeps the constant "
                "overhead ~3 us and throughput untouched; an ARM-class "
                "software path (the LeapIO design point the paper "
                "argues against) multiplies the qd1 overhead several "
                "times.\n");
    return 0;
}
