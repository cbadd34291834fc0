/**
 * @file
 * The one harness behind the transparency checks (tenant data intact,
 * I/O pause far below the host NVMe timeout): an OracleDevice plus a
 * TenantWorkload per tenant, leniency once a fault window opens, the
 * worst-gap probe, bounded drains, the final sweep and the run totals.
 * The Fuzzer, FleetFuzzer, ext_fleet and the fleet tests share it. It
 * draws no randomness, so every caller keeps its own draw order.
 */

#ifndef BMS_FUZZ_VERIFIED_TENANTS_HH
#define BMS_FUZZ_VERIFIED_TENANTS_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "fuzz/op_log.hh"
#include "fuzz/oracle.hh"
#include "fuzz/schedule.hh"

namespace bms::fleet {
class FleetManager;
}

namespace bms::fuzz {

/** Oracle-verified tenants of one run, plus the shared run steps. */
class VerifiedTenantSet
{
  public:
    struct Tenant
    {
        int card = 0; ///< card tag (0 on a single-card run)
        OracleDevice *oracle = nullptr;
        TenantWorkload *workload = nullptr;
    };

    struct Totals
    {
        std::uint64_t ops = 0;
        std::uint64_t errors = 0; ///< failed tenant I/Os (all excused)
        std::uint64_t verifiedBlocks = 0;
        std::uint64_t trims = 0;
        sim::Tick maxGap = 0; ///< worst submit→complete span
    };

    /** @p seed is echoed into every panic the set raises. */
    VerifiedTenantSet(sim::Simulator &sim, OpLog &log, std::uint64_t seed);

    /**
     * Build an oracle over @p dev and a workload over it, named
     * `<prefix>oracle<index>` / `<prefix>tenant<index>` (no index when
     * @p numbered is false). The workload is not started, so a clone
     * can adopt its lineage first. A tenant joining after a fault
     * window opened on its card (or on all) is lenient from the start.
     */
    Tenant add(host::BlockDeviceIf &dev, host::HostMemory &mem,
               const OracleDevice::Config &ocfg, const TenantSpec &spec,
               sim::Rng rng, int card, const std::string &prefix,
               bool numbered = true);

    std::size_t size() const { return _tenants.size(); }
    const Tenant &tenant(std::size_t i) const { return _tenants.at(i); }

    /**
     * A fault window opened on every card (or on @p card): failed I/Os
     * of those tenants are excused for the rest of the run, since
     * commands submitted near the window edges (or latched across a
     * hot-upgrade pause) may fail long after the rates drop back to
     * zero. Verification of successful reads is never relaxed.
     */
    void markFaultsActive() { markFaultsActive(kAllCards); }
    void markFaultsActive(int card);

    /** Wire @p fm's fault-window hook to markFaultsActive(card) and its
     *  wave availability gate to the worst tenant completion gap. */
    void attach(fleet::FleetManager &fm);

    /** Drive @p fm's started wave to its end, resuming each budget pause
     *  with a fresh budget of 2 (the operator runbook); every stretch is
     *  a drain("wave", ...). Panics unless it ends Done over every slot
     *  of the fleet. */
    void finishWave(fleet::FleetManager &fm, sim::Tick timeout,
                    sim::Tick slice = sim::milliseconds(1));

    /** Stop every tenant not stopped yet; true once all have drained.
     *  Re-entrant, so a tenant added mid-drain (a clone whose bring-up
     *  raced the horizon) is stopped by the next call. */
    bool stopped();

    /** Run the simulation in @p slice steps until @p done; past
     *  @p timeout, dump the op log and panic naming @p stage. */
    void drain(const char *stage, const std::function<bool()> &done,
               sim::Tick timeout, sim::Tick slice = sim::milliseconds(1));

    /** Read back every verified block once and drain within
     *  @p timeout; panics on any failed read (fault rates are zero by
     *  now). Returns the number of blocks swept. */
    std::uint64_t finalSweep(sim::Tick timeout);

    /** The totals, after the run-level checks: a failed tenant I/O
     *  needs a fault window to excuse it, and the worst completion gap
     *  must stay within 10 s, well inside the 30 s host NVMe timeout. */
    Totals checkedTotals() const;

    /** The run's one failure exit: dump the op log, then panic with
     *  @p what and the seed needed to replay it. */
    [[noreturn]] void fail(const std::string &what) const;

  private:
    static constexpr int kAllCards = -1;
    bool faulted(int card) const;

    sim::Simulator &_sim;
    OpLog &_log;
    std::uint64_t _seed;
    std::vector<Tenant> _tenants;
    std::vector<int> _faultedCards; ///< kAllCards: every card
    std::size_t _stopped = 0;
    std::size_t _drained = 0;
};

} // namespace bms::fuzz

#endif // BMS_FUZZ_VERIFIED_TENANTS_HH
