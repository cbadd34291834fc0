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
 * Resolve @p sqe's PRPs into DMA segments, fetching the PRP list over
 * @p up when the transfer needs one.
 */
void resolveSegments(pcie::PcieUpstreamIf &up, const Sqe &sqe,
                     std::function<void(std::vector<DmaSegment>)> then);

/**
 * Write @p data to the upstream buffers @p segs describe; @p done
 * fires once the last segment has landed. An empty @p data moves no
 * payload (timing only).
 */
void scatterPayload(pcie::PcieUpstreamIf &up,
                    const std::vector<DmaSegment> &segs, sim::Payload data,
                    std::function<void()> done);

/**
 * Read the upstream buffers @p segs describe; @p done receives their
 * payload once the last segment has arrived (empty unless
 * @p functional).
 */
void gatherPayload(pcie::PcieUpstreamIf &up,
                   const std::vector<DmaSegment> &segs, bool functional,
                   std::function<void(sim::Payload)> done);

} // namespace bms::nvme

#endif // BMS_NVME_DMA_HH
