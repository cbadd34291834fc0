/**
 * @file
 * Host-speed reference for the benchmark's host-time metrics.
 *
 * The machines the benchmark runs on change speed by tens of percent
 * over seconds to minutes (shared cores, caches and memory bandwidth),
 * which no number of repetitions averages away. So the benchmark runs
 * a short burst of a fixed reference job before and after each timed
 * phase, never inside one, and scales the phase's host time by the
 * host speed the bursts saw (calib.cc: kHostElasticity). Each burst
 * first reads all of the job's data, so what its timed chunks measure
 * is the host's speed, not what the simulator left in the caches.
 */

#ifndef PERFBENCH_CALIB_HH
#define PERFBENCH_CALIB_HH

#include <chrono>

namespace perfbench {

/** Host seconds of a phase, raw and scaled to nominal host speed. */
struct HostTime
{
    double raw = 0.0;    ///< the phase alone, reference bursts excluded
    double scaled = 0.0; ///< raw x (nominal / measured chunk time)^0.6

    HostTime &
    operator+=(const HostTime &o)
    {
        raw += o.raw;
        scaled += o.scaled;
        return *this;
    }
};

/**
 * Times consecutive phases. Construction runs a reference burst; each
 * lap() ends a phase, runs the next burst and scales the phase by the
 * mean chunk time of the bursts on either side of it.
 */
class PhaseClock
{
  public:
    PhaseClock();

    HostTime lap();

  private:
    double _chunkBefore;
    std::chrono::steady_clock::time_point _t;
};

} // namespace perfbench

#endif // PERFBENCH_CALIB_HH
