/**
 * @file
 * Device-side data movement for NVMe commands: walk a command's PRPs
 * into DMA segments, then scatter a read payload over them or gather
 * a write payload from them through the device's upstream port.
 *
 * Shared by every device that stores data (SSD, remote volume). A
 * command's segments are issued back to back from one event, and each
 * hop above a device (root port, engine router, chip memory) carries
 * one initiator's burst in issue order, so the last segment's
 * completion is the whole transfer's.
 */

#ifndef BMS_NVME_DMA_HH
#define BMS_NVME_DMA_HH

#include <functional>
#include <vector>

#include "nvme/defs.hh"
#include "nvme/prp.hh"
#include "pcie/device.hh"
#include "sim/payload.hh"

namespace bms::nvme {

/**
 * DMA state of one device command, kept in the device's per-command
 * slot. The vectors keep their capacity when the slot is reused, so
 * walking PRPs and gathering a payload allocate nothing once a run
 * has warmed up. Completions reach back into the context, so it must
 * stay put (and unused by other commands) until they have fired.
 */
struct DmaContext
{
    /** Resolved segments of the current transfer. */
    std::vector<DmaSegment> segs;

  private:
    friend void resolveSegments(pcie::PcieUpstreamIf &, const Sqe &,
                                DmaContext &, std::function<void()>);
    friend void gatherPayload(pcie::PcieUpstreamIf &, DmaContext &,
                              bool, std::function<void(sim::Payload)>);

    /** Raw PRP-list entries fetched for the transfer, if any. */
    std::vector<std::uint64_t> _prpList;
    /** Pieces of a multi-segment gather, joined in segment order. */
    sim::Payload _pieces;
    std::uint64_t _prp1 = 0;
    std::uint64_t _len = 0;
    std::function<void()> _onResolved;
    std::function<void(sim::Payload)> _onGathered;
};

/**
 * Resolve @p sqe's PRPs into @p ctx.segs, fetching the PRP list over
 * @p up when the transfer needs one. @p then fires once the segments
 * are ready: at once without a list, else when the list arrives.
 */
void resolveSegments(pcie::PcieUpstreamIf &up, const Sqe &sqe,
                     DmaContext &ctx, std::function<void()> then);

/**
 * Write @p data to the upstream buffers @p segs describe; @p done
 * fires once the last segment has landed. An empty @p data moves no
 * payload (timing only).
 */
void scatterPayload(pcie::PcieUpstreamIf &up,
                    const std::vector<DmaSegment> &segs, sim::Payload data,
                    std::function<void()> done);

/**
 * Read the upstream buffers @p ctx.segs describe; @p done receives
 * their payload once the last segment has arrived (empty unless
 * @p functional).
 */
void gatherPayload(pcie::PcieUpstreamIf &up, DmaContext &ctx,
                   bool functional, std::function<void(sim::Payload)> done);

} // namespace bms::nvme

#endif // BMS_NVME_DMA_HH
