#include "fuzz/verified_tenants.hh"

#include <algorithm>
#include <iostream>

#include "fleet/fleet_manager.hh"
#include "sim/check.hh"

namespace bms::fuzz {

VerifiedTenantSet::VerifiedTenantSet(sim::Simulator &sim, OpLog &log,
                                     std::uint64_t seed)
    : _sim(sim), _log(log), _seed(seed)
{}

void
VerifiedTenantSet::fail(const std::string &what) const
{
    _log.dump(std::cerr);
    BMS_PANIC(what, " [seed=", _seed, "]");
}

VerifiedTenantSet::Tenant
VerifiedTenantSet::add(host::BlockDeviceIf &dev, host::HostMemory &mem,
                       const OracleDevice::Config &ocfg,
                       const TenantSpec &spec, sim::Rng rng, int card,
                       const std::string &prefix, bool numbered)
{
    std::string index = numbered ? std::to_string(_tenants.size()) : "";
    auto *oracle = _sim.make<OracleDevice>(_sim, prefix + "oracle" + index,
                                           dev, mem, _log, ocfg);
    if (faulted(card))
        oracle->setFaultsActive(true);
    auto *wl = _sim.make<TenantWorkload>(_sim, prefix + "tenant" + index,
                                         *oracle, rng, spec);
    _tenants.push_back(Tenant{card, oracle, wl});
    return _tenants.back();
}

bool
VerifiedTenantSet::faulted(int card) const
{
    for (int c : _faultedCards) {
        if (c == card || c == kAllCards)
            return true;
    }
    return false;
}

void
VerifiedTenantSet::markFaultsActive(int card)
{
    _faultedCards.push_back(card);
    for (Tenant &t : _tenants) {
        if (faulted(t.card))
            t.oracle->setFaultsActive(true);
    }
}

void
VerifiedTenantSet::attach(fleet::FleetManager &fm)
{
    fm.setFaultWindowHook([this](int card, bool open) {
        if (open)
            markFaultsActive(card);
    });
    fm.setAvailabilityProbe([this] {
        sim::Tick worst = 0;
        for (const Tenant &t : _tenants)
            worst = std::max(worst, t.workload->maxCompletionGap());
        return worst;
    });
}

void
VerifiedTenantSet::finishWave(fleet::FleetManager &fm, sim::Tick timeout,
                              sim::Tick slice)
{
    int resumes = 0;
    while (true) {
        drain("wave",
              [&fm] { return fm.waveState() != fleet::WaveState::Running; },
              timeout, slice);
        if (fm.waveState() != fleet::WaveState::Paused)
            break;
        // Every resume consumes at least one more op, so this
        // terminates; the bound is just a tripwire.
        if (++resumes > 4 * fm.cards())
            fail("wave paused more often than it has ops");
        fm.resumeWave(2);
    }
    if (fm.waveState() != fleet::WaveState::Done)
        fail("wave did not complete");
    const fleet::WaveReport &w = fm.waveReport();
    if (w.opsOk + w.opsFailed !=
        static_cast<std::uint32_t>(fm.cards() * fm.config().ssdsPerCard))
        fail("wave op count does not cover the fleet");
}

bool
VerifiedTenantSet::stopped()
{
    while (_stopped < _tenants.size())
        _tenants[_stopped++].workload->stop([this] { ++_drained; });
    return _drained == _stopped;
}

void
VerifiedTenantSet::drain(const char *stage,
                         const std::function<bool()> &done,
                         sim::Tick timeout, sim::Tick slice)
{
    sim::Tick deadline = _sim.now() + timeout;
    while (!done()) {
        if (_sim.now() >= deadline)
            fail(std::string("drain timed out at stage '") + stage + "'");
        _sim.runUntil(_sim.now() + slice);
    }
}

std::uint64_t
VerifiedTenantSet::finalSweep(sim::Tick timeout)
{
    // Whatever the run left on media must decode to an acceptable stamp.
    int pending = 0;
    std::uint64_t swept = 0, errors = 0;
    for (Tenant &t : _tenants) {
        std::uint32_t step = t.oracle->maxIoBlocks();
        for (std::uint64_t b = 0; b < t.oracle->blocks(); b += step) {
            auto n = static_cast<std::uint32_t>(
                std::min<std::uint64_t>(step, t.oracle->blocks() - b));
            ++pending;
            swept += n;
            t.oracle->read(b, n, [&pending, &errors](bool ok) {
                --pending;
                if (!ok)
                    ++errors;
            });
        }
    }
    drain("final sweep", [&pending] { return pending == 0; }, timeout);
    if (errors != 0)
        fail("final sweep: " + std::to_string(errors) +
             " reads failed with fault rates at zero");
    return swept;
}

VerifiedTenantSet::Totals
VerifiedTenantSet::checkedTotals() const
{
    Totals tot;
    for (const Tenant &t : _tenants) {
        tot.ops += t.workload->ops();
        tot.errors += t.workload->errors();
        tot.verifiedBlocks += t.oracle->verifiedBlocks();
        tot.trims += t.oracle->trims();
        tot.maxGap = std::max(tot.maxGap, t.workload->maxCompletionGap());
    }
    if (tot.errors != 0 && _faultedCards.empty())
        fail("tenant I/O failed without a fault window to excuse it");
    if (tot.maxGap > sim::seconds(10))
        fail("completion gap exceeded 10 s: " +
             std::to_string(sim::toMs(tot.maxGap)) + " ms");
    return tot;
}

} // namespace bms::fuzz
