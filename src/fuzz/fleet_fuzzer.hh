/**
 * @file
 * Fleet-topology fuzzer: one seed deterministically generates a whole
 * fleet (N cards sharing one simulation), a randomized admission mix
 * (thin/thick, QoS classes, anti-affinity groups), oracle-verified
 * tenant workloads on a subset of placements, a rolling operation
 * wave (firmware upgrade or lossless replacement) under a failure
 * budget, and a correlated fault drill (SSD error windows, node
 * losses, an upgrade storm) landing mid-wave.
 *
 * All fleet randomness comes from its own forked stream
 * (seed ^ fleet constant) on a code path that never constructs the
 * single-card Fuzzer, so every pre-existing pinned seed family
 * (1-8, 201-204, 301-304, 401-404, 501-504) replays byte-identically
 * whether or not --fleet exists.
 */

#ifndef BMS_FUZZ_FLEET_FUZZER_HH
#define BMS_FUZZ_FLEET_FUZZER_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "fleet/fleet_manager.hh"
#include "fuzz/verified_tenants.hh"

namespace bms::fuzz {

/** One fleet fuzz run's knobs (everything else from the seed). */
struct FleetFuzzConfig
{
    std::uint64_t seed = 601;
    /** Measured torture window (wave + drill land inside it). */
    sim::Tick horizon = sim::milliseconds(120);
    /** Upper bound on the number of cards (the seed draws 2..cards). */
    int cards = 4;
    /** Upper bound on admissions attempted fleet-wide. */
    int maxTenants = 12;
    /** Cap on tenants that run verified I/O (the rest stay placed but
     *  idle, which is how a real fleet looks too). */
    int maxActiveTenants = 6;
    bool enableWave = true;
    bool enableDrill = true;
    std::size_t opLogCapacity = 256;
};

/** Deterministic outcome summary of one fleet run. */
struct FleetFuzzReport
{
    std::uint64_t seed = 0;
    int cards = 0;
    int placed = 0;   ///< admissions that succeeded
    int refused = 0;  ///< admissions legally refused
    int active = 0;   ///< placed tenants running verified I/O
    std::uint64_t totalOps = 0;
    std::uint64_t totalErrors = 0; ///< failed tenant I/Os (all excused)
    std::uint64_t verifiedBlocks = 0;
    /** @name Rolling wave (zero when enableWave is false). */
    /// @{
    std::uint32_t waveOpsOk = 0;
    std::uint32_t waveOpsFailed = 0;
    std::uint32_t wavePauses = 0;
    std::uint32_t waveGateTrips = 0;
    std::uint64_t waveEvacuatedChunks = 0;
    sim::Tick waveMakespan = 0;
    /// @}
    /** @name Fault drill (zero when enableDrill is false). */
    /// @{
    std::uint32_t faultWindows = 0;
    std::uint32_t nodeLosses = 0;
    std::uint32_t stormRejections = 0;
    /// @}
    sim::Tick maxCompletionGap = 0;
    /** FNV-1a over the fleet's tick-stamped op trace — the
     *  determinism fingerprint two same-seed runs must share. */
    std::uint64_t traceHash = 0;
    sim::Tick finishedAt = 0;
};

/** Builds a fleet from the seed and runs one torture schedule. */
class FleetFuzzer
{
  public:
    explicit FleetFuzzer(FleetFuzzConfig cfg);
    ~FleetFuzzer();

    /** Run to completion; panics (with seed + op log) on any oracle
     *  or invariant violation. */
    FleetFuzzReport run();

  private:
    struct Placed
    {
        int card = -1;
        std::uint8_t fn = 0;
        bool thin = false;
    };

    void admitTenants(sim::Rng &rng, FleetFuzzReport &report);
    void activateTenants(sim::Rng &rng);

    FleetFuzzConfig _cfg;
    OpLog _log;
    std::unique_ptr<fleet::FleetManager> _fleet;
    std::vector<Placed> _placed;
    std::unique_ptr<VerifiedTenantSet> _tenants;
    sim::Tick _start = 0;
};

} // namespace bms::fuzz

#endif // BMS_FUZZ_FLEET_FUZZER_HH
