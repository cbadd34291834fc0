/**
 * @file
 * fio runners and the text table shared by bench binaries. Their
 * command line, gates and JSON report are in harness/bench_report.hh.
 */

#ifndef BMS_HARNESS_RUNNER_HH
#define BMS_HARNESS_RUNNER_HH

#include <cstdio>
#include <string>
#include <vector>

#include "host/block.hh"
#include "sim/simulator.hh"
#include "workload/fio.hh"

namespace bms::harness {

/** Run one fio spec to completion on @p dev; returns its results. */
workload::FioResult runFio(sim::Simulator &sim, host::BlockDeviceIf &dev,
                           const workload::FioJobSpec &spec);

/**
 * Run the same spec concurrently on many devices (multi-VM
 * experiments); returns per-device results in input order.
 */
std::vector<workload::FioResult>
runFioMany(sim::Simulator &sim,
           const std::vector<host::BlockDeviceIf *> &devs,
           const workload::FioJobSpec &spec);

/**
 * Fixed-width text table matching the paper's rows/columns. Setting
 * the environment variable `BMS_TABLE_CSV=1` switches every bench's
 * output to machine-readable CSV for plotting pipelines.
 */
class Table
{
  public:
    explicit Table(std::vector<std::string> headers);

    void addRow(std::vector<std::string> cells);

    /** Pretty-print (or CSV when BMS_TABLE_CSV is set). */
    void print(const std::string &title) const;

    void printCsv(const std::string &title) const;

    static std::string fmt(double v, int decimals = 1);
    static std::string fmtInt(std::uint64_t v);

  private:
    std::vector<std::string> _headers;
    std::vector<std::vector<std::string>> _rows;
};

} // namespace bms::harness

#endif // BMS_HARNESS_RUNNER_HH
