/**
 * @file
 * The benchmark's workloads and the result of one repetition.
 *
 * A workload builds its world from the seed, runs a fixed amount of
 * simulated work, checks the outputs and returns every metric it
 * measured. Simulated-time metrics ("sim") repeat exactly for a seed;
 * host-time metrics ("host") are the simulator's own cost.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "calib.hh"

namespace perfbench {

/** One measured value. */
struct Metric
{
    double value = 0.0;
    std::string unit;
    /** "sim" (modelled card, simulated clock), "host" (simulator,
     *  host clock) or "count" (modelled event count or ratio). */
    std::string clock;
    /** Sample count / ratio base, printed beside the value. */
    std::string note;
};

/** Outcome of one repetition of a workload. */
struct RepResult
{
    std::map<std::string, Metric> metrics;
    /** Hash over every modeled result; equal for equal seeds. */
    std::uint64_t fingerprint = 0xcbf29ce484222325ULL;
    std::uint64_t attempted = 0; ///< tenant I/Os and admissions tried
    std::uint64_t failed = 0;    ///< failed or refused
    /** Failed correctness checks; any entry fails the run. */
    std::vector<std::string> failures;
    HostTime setup; ///< building the world and attaching tenants
    HostTime wall;  ///< the measured phase
    std::uint64_t measuredEvents = 0;
    /** Events executed inside the benchmark's runUntil slices. */
    std::uint64_t runEvents = 0;
};

/** With @p setup_only the workload returns right after set-up. */
using WorkloadFn = RepResult (*)(std::uint64_t seed, bool setup_only);

struct WorkloadDef
{
    const char *name;
    WorkloadFn run;
};

/** Every workload, in the order BENCHMARK.json lists them. */
const std::vector<WorkloadDef> &workloads();

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
