/**
 * @file
 * Latency probe and result helpers shared by every workload.
 *
 * ProbeDevice is a host::BlockDeviceIf placed in front of each tenant
 * driver. It forwards every request unchanged, and on completion
 * records the simulated submit-to-complete latency before handing the
 * completion to the workload's own callback. It schedules no events
 * and draws no randomness, so the simulated world runs exactly as it
 * would without it (the self-test checks the fingerprint).
 */

#ifndef PERFBENCH_PROBE_HH
#define PERFBENCH_PROBE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "host/block.hh"
#include "sim/simulator.hh"

namespace perfbench {

/** Simulated-time record of one set of tenant I/Os. */
struct IoLog
{
    /** Completions in [winStart, winEnd] feed rates and percentiles. */
    bms::sim::Tick winStart = 0;
    bms::sim::Tick winEnd = ~bms::sim::Tick{0};

    std::vector<bms::sim::Tick> readNs;  ///< in-window read latencies
    std::vector<bms::sim::Tick> writeNs; ///< in-window write latencies
    std::uint64_t windowOps = 0; ///< in-window completions, any op

    std::uint64_t submitted = 0;
    std::uint64_t completed = 0;
    std::uint64_t failed = 0;
    std::uint64_t writeBytes = 0; ///< tenant bytes written (all I/Os)
    bms::sim::Tick maxLatency = 0; ///< longest submit-to-complete
    /** FNV-1a over (op, offset, len, latency, ok) in completion order. */
    std::uint64_t hash = 0xcbf29ce484222325ULL;
};

/** Pass-through tenant device that records simulated latencies. */
class ProbeDevice : public bms::host::BlockDeviceIf
{
  public:
    /** @p complete_span names the traced completion callback span. */
    ProbeDevice(bms::sim::Simulator &sim, bms::host::BlockDeviceIf &base,
                IoLog &log, const char *complete_span);

    void submit(bms::host::BlockRequest req) override;

    std::uint64_t capacityBytes() const override
    {
        return _base.capacityBytes();
    }

  private:
    bms::sim::Simulator &_sim;
    bms::host::BlockDeviceIf &_base;
    IoLog &_log;
    const char *_completeSpan;
};

/** Nearest-rank percentile of @p sorted (ascending); 0 when empty. */
bms::sim::Tick percentile(const std::vector<bms::sim::Tick> &sorted,
                          double q);

/** Samples strictly above the nearest-rank percentile @p q. */
std::uint64_t samplesBeyond(const std::vector<bms::sim::Tick> &sorted,
                            double q);

/**
 * "p999 812.345 us (n=455000, 455 beyond)": a percentile always
 * travels with its sample count and the samples past it.
 */
std::string describePercentile(const std::vector<bms::sim::Tick> &sorted,
                               double q);

/** FNV-1a 64 folding helpers for the modeled-results fingerprint. */
std::uint64_t fnvMix(std::uint64_t h, std::uint64_t v);
std::uint64_t fnvMix(std::uint64_t h, const std::string &s);
std::uint64_t fnvMixDouble(std::uint64_t h, double v);

/**
 * Fold a simulated world's modeled state into @p h: every
 * StatsRegistry value in name order, the event count and the clock.
 */
std::uint64_t fingerprintSim(std::uint64_t h, bms::sim::Simulator &sim);

} // namespace perfbench

#endif // PERFBENCH_PROBE_HH
