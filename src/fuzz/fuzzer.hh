/**
 * @file
 * Whole-stack simulation fuzzer (FoundationDB-style torture test).
 *
 * One 64-bit seed deterministically generates:
 *   - a random topology (SSD count, tenant count, namespace shapes,
 *     zero-copy vs store-and-forward engine),
 *   - concurrent tenant workloads, each verified block-for-block by a
 *     write-stamp OracleDevice,
 *   - mid-I/O control-plane traffic over the out-of-band console
 *     (health polls, I/O stats, QoS reprogramming, scratch namespace
 *     create/destroy, live namespace grow),
 *   - SSD firmware hot-upgrades under load (plus a concurrent-upgrade
 *     rejection probe),
 *   - fault-injection windows (media read/write errors, latency
 *     spikes) on the back-end SSDs,
 *   - a disaggregated remote tier (maxRemoteNodes > 0): storage
 *     nodes behind network links, chunk spills/promotes mid-I/O,
 *     link latency spikes, and a storage-node loss recovered via the
 *     failNode verb — the oracle verifies every tenant block across
 *     all of it.
 *
 * Everything runs on the simulator clock, so a failing seed replays
 * the exact interleaving: `fuzz --seed=N` (or BMS_FUZZ_SEED=N).
 */

#ifndef BMS_FUZZ_FUZZER_HH
#define BMS_FUZZ_FUZZER_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "fuzz/verified_tenants.hh"
#include "harness/testbeds.hh"

namespace bms::fuzz {

/** One fuzz run's knobs (everything else comes from the seed). */
struct FuzzConfig
{
    std::uint64_t seed = 1;
    /** Measured torture window (control ops land inside it). */
    sim::Tick horizon = sim::milliseconds(120);
    int maxTenants = 3; ///< 1..16 (4 PFs, then VFs — multi-VF runs)
    int maxSsds = 2;
    int minSsds = 1; ///< raise to 2 to guarantee migration targets
    bool enableFaults = true;
    bool enableControlOps = true;
    bool enableHotUpgrade = true;
    /** Always schedule exactly one slot-0 upgrade (availability
     *  tests want the hiccup deterministically present). */
    bool forceUpgrade = false;
    /** Mid-I/O chunk migrations/evacuations (needs >= 2 SSDs; also
     *  shrinks chunks to 8-32 MiB so copies fit the horizon). */
    bool enableMigration = true;
    /** Always schedule a migrate + an evacuate (pinned seeds). */
    bool forceMigration = false;
    /**
     * Remote tier: up to this many storage nodes behind the card
     * (0 = purely local, the historical topology). All remote
     * randomness comes from a forked stream, so enabling it does not
     * disturb the draws of the pre-existing pinned seeds.
     */
    int maxRemoteNodes = 0;
    /** Pin the tier schedule: an early spill onto node 0, a node-0
     *  loss mid-window, and a late promote (pinned seeds 401-404). */
    bool forceTiering = false;
    /**
     * Thin provisioning / TRIM / snapshot torture: tenants become
     * thin namespaces (allocate-on-write + zero-fill reads),
     * workloads mix Dataset-Management deallocates into the stream,
     * and a mid-run snapshot → clone → delete-snapshot lifecycle
     * drives chunk CoW under live I/O, with the clone verified by its
     * own oracle against the snapshot's captured lineage. All extra
     * randomness comes from a forked stream, so seeds predating thin
     * provisioning replay byte-identically.
     */
    bool enableThin = false;
    /** Pin the thin schedule: every tenant thin and trimming, a
     *  guaranteed snapshot of tenant 0, a verified clone, and a late
     *  snapshot delete (pinned seeds 501-504). Implies enableThin. */
    bool forceThin = false;
    std::size_t opLogCapacity = 256;
};

/** Deterministic outcome summary of one run. */
struct FuzzReport
{
    std::uint64_t seed = 0;
    int tenants = 0;
    int ssds = 0;
    std::uint64_t totalOps = 0;
    std::uint64_t totalErrors = 0; ///< failed tenant I/Os (all excused)
    std::uint64_t verifiedBlocks = 0;
    std::uint64_t controlOps = 0;
    std::uint32_t upgrades = 0;
    std::uint32_t upgradeRejections = 0;
    int faultWindows = 0;
    std::uint64_t injectedMediaErrors = 0;
    std::uint64_t injectedLatencySpikes = 0;
    std::uint32_t migrationsStarted = 0;
    std::uint32_t migrationsCompleted = 0;
    std::uint32_t migrationsAborted = 0;
    std::uint32_t migrationsRejected = 0;
    std::uint32_t evacuations = 0;
    std::uint64_t migratedBytes = 0;
    /** @name Remote tier (zero when maxRemoteNodes == 0). */
    /// @{
    int remoteNodes = 0;
    std::uint32_t spills = 0;
    std::uint32_t promotes = 0;
    std::uint32_t tierFailures = 0; ///< rejected/aborted tier moves
    std::uint32_t nodeLosses = 0;
    std::uint32_t chunksRecovered = 0;
    std::uint32_t chunksRespilled = 0;
    std::uint64_t remoteTimeouts = 0;
    std::uint64_t remoteRetries = 0;
    /// @}
    /** @name Thin provisioning / snapshots (zero unless enableThin). */
    /// @{
    std::uint64_t trims = 0;         ///< deallocates issued by tenants
    std::uint64_t thinAllocs = 0;    ///< chunks allocated on first write
    std::uint64_t trimmedChunks = 0; ///< whole chunks returned to pools
    std::uint64_t dsmCommands = 0;   ///< DSM/Deallocate commands served
    std::uint64_t zeroFillReads = 0; ///< reads served as zeros, no media
    std::uint64_t cowCopies = 0;     ///< chunk CoW copies triggered
    std::uint32_t snapshots = 0;
    std::uint32_t clones = 0;
    std::uint32_t snapshotDeletes = 0;
    /// @}
    /** Longest tenant submit→complete span (upgrade pause shows up
     *  here; must stay under the 30 s host NVMe timeout). */
    sim::Tick maxCompletionGap = 0;
    sim::Tick finishedAt = 0;
};

/** Builds the testbed from the seed and runs one torture schedule. */
class Fuzzer
{
  public:
    explicit Fuzzer(FuzzConfig cfg);
    ~Fuzzer();

    /** Run to completion; panics (with seed + op log) on any oracle
     *  or invariant violation. */
    FuzzReport run();

  private:
    void buildTenants(sim::Rng &rng, sim::Rng &thin_rng);
    void scheduleControlOps(sim::Rng &rng);
    void scheduleUpgrades(sim::Rng &rng);
    void scheduleMigrations(sim::Rng &rng);
    void scheduleFaultWindows(sim::Rng &rng);
    void scheduleTiering(sim::Rng &remote_rng);
    void scheduleThinOps(sim::Rng &thin_rng);
    void attemptSnapshot(core::Eid eid, int attempt, TenantSpec cspec,
                         sim::Rng crng, double del_frac);
    void cloneFromSnapshot(core::Eid eid, std::uint32_t snap_id,
                           TenantSpec cspec, sim::Rng crng);
    void destroyScratch(core::Eid eid, std::uint8_t vf,
                        std::uint32_t nsid, int attempt);

    FuzzConfig _cfg;
    OpLog _log;
    std::unique_ptr<harness::BmStoreTestbed> _bed;
    std::unique_ptr<VerifiedTenantSet> _tenants;
    /** Front-end function of each tenant, in set order. */
    std::vector<pcie::FunctionId> _fns;
    sim::Tick _start = 0; ///< tick when the torture window opened
    int _pendingControl = 0;
    std::uint64_t _controlOps = 0;
    std::uint32_t _upgrades = 0;
    int _faultWindows = 0;
    std::uint32_t _snapshots = 0;
    std::uint32_t _clones = 0;
    std::uint32_t _snapshotDeletes = 0;
    /** Tenant 0's oracle window (the clone inherits it verbatim). */
    OracleDevice::Config _t0cfg;
    /** Stamp lineage captured when the snapshot pinned tenant 0. */
    OracleDevice::Lineage _cloneLineage;
};

} // namespace bms::fuzz

#endif // BMS_FUZZ_FUZZER_HH
