/**
 * @file
 * Reproduces paper Fig. 12: tail-latency distribution of four VMs
 * sharing a BM-Store card with four SSDs, across the six Table IV fio
 * cases. Fairness shows as near-identical per-VM p50/p99/p99.9.
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
    harness::Flags("fig12_fairness_tail").parse(argc, argv);
    harness::Table t({"case", "VM", "p50(us)", "p99(us)", "p99.9(us)",
                      "avg(us)"});
    for (auto spec : workload::fioTableIv()) {
        harness::TestbedConfig cfg;
        cfg.ssdCount = 4;
        harness::BmStoreTestbed bed(cfg);
        std::vector<host::BlockDeviceIf *> devs;
        for (int v = 0; v < 4; ++v)
            devs.push_back(bed.addVm(sim::gib(256)).driver);
        auto results = harness::runFioMany(bed.sim(), devs, spec);
        for (int v = 0; v < 4; ++v) {
            const auto &r = results[static_cast<std::size_t>(v)];
            t.addRow({spec.caseName, "VM" + std::to_string(v),
                      harness::Table::fmt(sim::toUs(r.latency.p50())),
                      harness::Table::fmt(sim::toUs(r.latency.p99())),
                      harness::Table::fmt(sim::toUs(r.latency.p999())),
                      harness::Table::fmt(r.avgLatencyUs())});
        }
    }
    t.print("Fig. 12 — per-VM tail latency, 4 VMs sharing BM-Store "
            "(fairness)");
    std::printf("\npaper reference: the tail-latency distributions of "
                "the four VMs are close to each other in every test "
                "case.\n");
    return 0;
}
