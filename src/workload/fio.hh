/**
 * @file
 * fio-like synthetic workload engine (closed loop, libaio style).
 *
 * Reproduces the paper's Table IV test cases: N jobs, each keeping
 * `iodepth` requests in flight against a block device, random or
 * sequential, read or write, fixed block size. Latency is measured
 * submit → completion; a ramp period is discarded.
 */

#ifndef BMS_WORKLOAD_FIO_HH
#define BMS_WORKLOAD_FIO_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "host/block.hh"
#include "sim/random.hh"
#include "sim/simulator.hh"
#include "sim/stats.hh"

namespace bms::workload {

/** Access pattern of a job. */
enum class FioPattern
{
    RandRead,
    RandWrite,
    SeqRead,
    SeqWrite,
    RandRw, ///< mixed, readRatio controls the split
};

/** One fio invocation (all jobs share the spec). */
struct FioJobSpec
{
    FioPattern pattern = FioPattern::RandRead;
    std::uint32_t blockSize = 4096;
    int iodepth = 1;
    int numjobs = 4;
    double readRatio = 0.7; ///< RandRw only
    /** Restrict I/O to the first regionBytes of the device (0 = all). */
    std::uint64_t regionBytes = 0;
    sim::Tick rampTime = sim::milliseconds(20);
    sim::Tick runTime = sim::milliseconds(400);

    std::string caseName; ///< e.g. "rand-r-1" for table printing
};

/** @name The paper's Table IV cases. */
/// @{
FioJobSpec fioRandR1();
FioJobSpec fioRandR128();
FioJobSpec fioRandW1();
FioJobSpec fioRandW16();
FioJobSpec fioSeqR256();
FioJobSpec fioSeqW256();
/** All six, in the paper's order. */
std::vector<FioJobSpec> fioTableIv();
/// @}

/** Measured results of one fio run. */
struct FioResult
{
    std::string caseName;
    double iops = 0.0;
    double mbPerSec = 0.0;
    sim::LatencyHistogram latency;
    std::uint64_t completed = 0;
    std::uint64_t errors = 0;

    double avgLatencyUs() const { return latency.mean() / 1e3; }
};

/** Closed-loop runner driving one block device. */
class FioRunner : public sim::SimObject
{
  public:
    FioRunner(sim::Simulator &sim, std::string name,
              host::BlockDeviceIf &dev, FioJobSpec spec);

    /**
     * Start issuing I/O. @p done fires once the run time has elapsed
     * and every outstanding request has drained.
     */
    void start(std::function<void()> done = nullptr);

    /** Valid after the run completes (or mid-run for live rates). */
    const FioResult &result() const { return _result; }

    bool finished() const { return _finished; }

    /**
     * Optional hook invoked at each completion during the measured
     * window (timeline recording for Fig. 15).
     */
    std::function<void(sim::Tick now, std::uint32_t bytes)> onCompletion;

  private:
    struct Job
    {
        FioRunner *runner = nullptr;
        int index = 0;
        std::uint64_t nextSeq = 0; ///< sequential cursor (blocks)
        std::uint64_t regionStart = 0;
        std::uint64_t regionBlocks = 0;
        std::uint32_t outstanding = 0;
    };

    void issue(Job &job);
    void onDone(Job &job, sim::Tick submitted, bool ok);
    std::uint64_t pickOffset(Job &job);
    bool isRead(Job &job);

    host::BlockDeviceIf &_dev;
    FioJobSpec _spec;
    std::vector<Job> _jobs;
    sim::Rng _rng;

    bool _running = false;
    bool _stopping = false;
    bool _finished = false;
    sim::Tick _measureStart = 0;
    sim::Tick _measureEnd = 0;
    std::uint32_t _outstandingTotal = 0;
    std::uint64_t _measuredOps = 0;
    std::uint64_t _measuredBytes = 0;
    FioResult _result;
    std::function<void()> _done;
};

} // namespace bms::workload

#endif // BMS_WORKLOAD_FIO_HH
