/**
 * @file
 * Reproduces paper Table II: FPGA resource utilization of the
 * BMS-Engine for 1/2/4/6 back-end SSDs on the Zynq ZU19EG, from the
 * fitted resource model (see core/engine/resources.hh).
 */

#include <cstdio>

#include "core/engine/resources.hh"
#include "harness/bench_report.hh"
#include "harness/runner.hh"

using namespace bms;

int
main(int argc, char **argv)
{
    harness::Flags("table02_fpga_resources").parse(argc, argv);
    core::FpgaResourceModel model;
    core::FpgaDevice device;

    harness::Table t({"Design", "LUTs", "Registers", "BRAMs", "URAMs",
                      "Clock"});
    for (int n : {1, 2, 4, 6}) {
        core::FpgaUtilization u = model.forSsds(n);
        t.addRow({harness::Table::fmtInt(n) + " SSDs",
                  harness::Table::fmtInt(u.luts) + " (" +
                      harness::Table::fmt(u.lutPct(device), 0) + "%)",
                  harness::Table::fmtInt(u.registers) + " (" +
                      harness::Table::fmt(u.regPct(device), 0) + "%)",
                  harness::Table::fmtInt(u.brams) + " (" +
                      harness::Table::fmt(u.bramPct(device), 0) + "%)",
                  harness::Table::fmt(u.urams) + " (" +
                      harness::Table::fmt(u.uramPct(device), 0) + "%)",
                  harness::Table::fmtInt(u.clockMhz) + "MHz"});
    }
    t.print("Table II — FPGA resource utilization (ZU19EG)");
    std::printf("\nmax SSDs that fit the device per the model: %d "
                "(paper: \"BM-Store can support more SSDs with the "
                "remaining resources\")\n",
                model.maxSsds(device));
    return 0;
}
