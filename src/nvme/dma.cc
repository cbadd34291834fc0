#include "nvme/dma.hh"

#include <memory>
#include <utility>

#include "sim/check.hh"

namespace bms::nvme {

void
resolveSegments(pcie::PcieUpstreamIf &up, const Sqe &sqe,
                std::function<void(std::vector<DmaSegment>)> then)
{
    std::uint64_t len = sqe.dataBytes();
    if (!needsPrpList(sqe.prp1, len)) {
        then(decodePrp(sqe.prp1, sqe.prp2, len, {}));
        return;
    }
    // Fetch the PRP list from upstream memory (host DRAM natively;
    // BMS-Engine chip memory when behind BM-Store).
    std::uint32_t entries = prpPageCount(sqe.prp1, len) - 1;
    auto raw = std::make_shared<std::vector<std::uint64_t>>(entries);
    up.dmaRead(sqe.prp2,
               static_cast<std::uint32_t>(entries * sizeof(std::uint64_t)),
               reinterpret_cast<std::uint8_t *>(raw->data()),
               [sqe, len, raw, then = std::move(then)] {
                   then(decodePrp(sqe.prp1, sqe.prp2, len, *raw));
               });
}

void
scatterPayload(pcie::PcieUpstreamIf &up, const std::vector<DmaSegment> &segs,
               sim::Payload data, std::function<void()> done)
{
    BMS_ASSERT(!segs.empty(), "DMA with no PRP segments");
    std::uint32_t off = 0;
    for (std::size_t i = 0; i + 1 < segs.size(); ++i) {
        const DmaSegment &seg = segs[i];
        up.dmaWritePayload(seg.addr, seg.len,
                           data.empty() ? sim::Payload{}
                                        : data.slice(off, seg.len),
                           [] {});
        off += seg.len;
    }
    const DmaSegment &last = segs.back();
    if (off != 0 && !data.empty())
        data = data.slice(off, last.len);
    up.dmaWritePayload(last.addr, last.len, std::move(data),
                       std::move(done));
}

void
gatherPayload(pcie::PcieUpstreamIf &up, const std::vector<DmaSegment> &segs,
              bool functional, std::function<void(sim::Payload)> done)
{
    BMS_ASSERT(!segs.empty(), "DMA with no PRP segments");
    if (segs.size() == 1) {
        up.dmaReadPayload(segs[0].addr, segs[0].len, functional,
                          std::move(done));
        return;
    }
    // Pieces arrive in segment order; the last one hands the whole
    // payload over.
    auto whole = std::make_shared<sim::Payload>();
    auto collect = [whole](std::uint32_t at) {
        return [whole, at](sim::Payload piece) {
            BMS_ASSERT(piece.empty() || whole->size() == at,
                       "DMA segments completed out of order");
            whole->append(std::move(piece));
        };
    };
    std::uint32_t off = 0;
    for (std::size_t i = 0; i + 1 < segs.size(); ++i) {
        up.dmaReadPayload(segs[i].addr, segs[i].len, functional,
                          collect(off));
        off += segs[i].len;
    }
    up.dmaReadPayload(segs.back().addr, segs.back().len, functional,
                      [append = collect(off), whole,
                       done = std::move(done)](sim::Payload piece) {
                          append(std::move(piece));
                          done(std::move(*whole));
                      });
}

} // namespace bms::nvme
