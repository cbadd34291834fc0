#include "nvme/dma.hh"

#include <utility>

#include "sim/check.hh"

namespace bms::nvme {

void
resolveSegments(pcie::PcieUpstreamIf &up, const Sqe &sqe, DmaContext &ctx,
                std::function<void()> then)
{
    std::uint64_t len = sqe.dataBytes();
    if (!needsPrpList(sqe.prp1, len)) {
        decodePrp(sqe.prp1, sqe.prp2, len, {}, ctx.segs);
        then();
        return;
    }
    // Fetch the PRP list from upstream memory (host DRAM natively;
    // BMS-Engine chip memory when behind BM-Store).
    std::uint32_t entries = prpPageCount(sqe.prp1, len) - 1;
    ctx._prpList.resize(entries);
    ctx._prp1 = sqe.prp1;
    ctx._len = len;
    ctx._onResolved = std::move(then);
    up.dmaRead(sqe.prp2,
               static_cast<std::uint32_t>(entries * sizeof(std::uint64_t)),
               reinterpret_cast<std::uint8_t *>(ctx._prpList.data()),
               [&ctx] {
                   decodePrp(ctx._prp1, 0, ctx._len, ctx._prpList, ctx.segs);
                   auto then = std::move(ctx._onResolved);
                   ctx._onResolved = nullptr;
                   then();
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
gatherPayload(pcie::PcieUpstreamIf &up, DmaContext &ctx, bool functional,
              std::function<void(sim::Payload)> done)
{
    const std::vector<DmaSegment> &segs = ctx.segs;
    BMS_ASSERT(!segs.empty(), "DMA with no PRP segments");
    if (segs.size() == 1) {
        up.dmaReadPayload(segs[0].addr, segs[0].len, functional,
                          std::move(done));
        return;
    }
    // Pieces arrive in segment order; the last one hands the whole
    // payload over.
    ctx._pieces = sim::Payload{};
    ctx._onGathered = std::move(done);
    std::uint32_t off = 0;
    for (std::size_t i = 0; i < segs.size(); ++i) {
        const bool last = i + 1 == segs.size();
        up.dmaReadPayload(
            segs[i].addr, segs[i].len, functional,
            [&ctx, at = off, last](sim::Payload piece) {
                BMS_ASSERT(piece.empty() || ctx._pieces.size() == at,
                           "DMA segments completed out of order");
                ctx._pieces.append(std::move(piece));
                if (!last)
                    return;
                sim::Payload whole = std::move(ctx._pieces);
                ctx._pieces = sim::Payload{};
                auto then = std::move(ctx._onGathered);
                ctx._onGathered = nullptr;
                then(std::move(whole));
            });
        off += segs[i].len;
    }
}

} // namespace bms::nvme
