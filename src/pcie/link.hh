/**
 * @file
 * PCIe link timing model.
 *
 * Each direction of a link is an independent serialization channel: a
 * transfer occupies the channel for bytes/bandwidth and completes
 * after an additional fixed propagation delay. Back-to-back transfers
 * queue behind each other (busy-until arithmetic), which is what
 * produces the bandwidth ceilings in Figs. 10 and 11.
 */

#ifndef BMS_PCIE_LINK_HH
#define BMS_PCIE_LINK_HH

#include <algorithm>
#include <cstdint>

#include "pcie/types.hh"
#include "sim/types.hh"

namespace bms::pcie {

/** One direction of a link: FIFO serialization + propagation. */
class LinkChannel
{
  public:
    LinkChannel(sim::Bandwidth bw, sim::Tick propagation)
        : _bw(bw), _prop(propagation)
    {}

    /**
     * Reserve channel time for a @p bytes transfer starting no
     * earlier than @p now.
     * @return absolute tick at which the last byte arrives.
     */
    sim::Tick
    reserve(sim::Tick now, std::uint64_t bytes)
    {
        sim::Tick start = now > _busyUntil ? now : _busyUntil;
        sim::Tick busy = _bw.delayFor(bytes);
        _busyUntil = start + busy;
        _busyTime += busy;
        return _busyUntil + _prop;
    }

    /**
     * Arrival time of a small control message (doorbell, MSI) that
     * does not meaningfully occupy the channel.
     */
    sim::Tick
    controlArrival(sim::Tick now) const
    {
        return now + _prop + _bw.delayFor(kDoorbellBytes);
    }

    sim::Bandwidth bandwidth() const { return _bw; }
    sim::Tick propagation() const { return _prop; }
    sim::Tick busyUntil() const { return _busyUntil; }

    /** Serialization time of every transfer reserved so far. */
    sim::Tick busyTime() const { return _busyTime; }

    /**
     * Fraction of [0, now] the channel spent serializing. Reserved
     * time still ahead of @p now (the queue behind busyUntil()) is
     * not counted.
     */
    double
    utilization(sim::Tick now) const
    {
        if (now == 0)
            return 0.0;
        sim::Tick ahead = _busyUntil > now ? _busyUntil - now : 0;
        sim::Tick busy = _busyTime > ahead ? _busyTime - ahead : 0;
        return std::min(1.0, static_cast<double>(busy) /
                                 static_cast<double>(now));
    }

  private:
    sim::Bandwidth _bw;
    sim::Tick _prop;
    sim::Tick _busyUntil = 0;
    sim::Tick _busyTime = 0;
};

/**
 * Full-duplex point-to-point PCIe link. "up" carries device-initiated
 * traffic toward the host (DMA writes of read data, CQEs, MSI); "down"
 * carries host-initiated and device-fetch traffic toward the device.
 */
class PcieLink
{
  public:
    /**
     * @param lanes Gen3 lane count (x4/x8/x16)
     * @param propagation one-way latency (default ~250 ns covers PHY,
     *        switch and root-complex traversal)
     */
    explicit PcieLink(int lanes, sim::Tick propagation = sim::nanoseconds(250))
        : _up(gen3Lanes(lanes), propagation),
          _down(gen3Lanes(lanes), propagation),
          _lanes(lanes)
    {}

    LinkChannel &up() { return _up; }
    LinkChannel &down() { return _down; }
    int lanes() const { return _lanes; }

  private:
    LinkChannel _up;
    LinkChannel _down;
    int _lanes;
};

} // namespace bms::pcie

#endif // BMS_PCIE_LINK_HH
