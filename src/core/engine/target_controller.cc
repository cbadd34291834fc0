#include "core/engine/target_controller.hh"

#include <algorithm>
#include <memory>
#include <utility>

#include "core/engine/bms_engine.hh"
#include "core/engine/global_prp.hh"
#include "nvme/prp.hh"

namespace bms::core {

using nvme::IoOpcode;
using nvme::Sqe;
using nvme::Status;

namespace {

/** Poll period while a deallocate waits out a migration copier. */
constexpr sim::Tick kTrimRetryDelay = sim::microseconds(200);

/** WriteZeroes NLB is a 16-bit 0-based field: 65536 blocks per command. */
constexpr std::uint64_t kMaxZeroBlocks = 0x10000;

/** Poll period / budget while a scrub waits for a not-ready adaptor
 *  (firmware activation pauses the slot for seconds, never minutes). */
constexpr sim::Tick kScrubReadyPoll = sim::milliseconds(1);
constexpr sim::Tick kScrubReadyWait = sim::seconds(20);

} // namespace

TargetController::TargetController(sim::Simulator &sim, std::string name,
                                   BmsEngine &engine)
    : SimObject(sim, std::move(name)), _engine(engine)
{
    registerStat("forwarded", [this] { return double(_forwarded); });
    registerStat("split", [this] { return double(_split); });
    registerStat("prpListsRewritten",
                 [this] { return double(_listsRewritten); });
    registerStat("errors", [this] { return double(_errors); });
    registerStat("zeroFillReads", [this] { return double(_zeroFill); });
    registerStat("dsmCommands", [this] { return double(_dsmCommands); });
    registerStat("trimmedChunks", [this] { return double(_trimmedChunks); });
    registerStat("allocatedOnWrite",
                 [this] { return double(_allocOnWrite); });
    registerStat("cowTriggers", [this] { return double(_cowTriggers); });
}

void
TargetController::fail(FrontFunction &fn, const Sqe &sqe,
                       std::uint16_t sqid, Status st)
{
    ++_errors;
    fn.complete(sqid, sqe.cid, st);
}

void
TargetController::fail(std::uint32_t c, Status st)
{
    const Cmd &cmd = _cmds[c];
    FrontFunction &fn = *cmd.fn;
    const std::uint16_t sqid = cmd.sqid;
    const std::uint16_t cid = cmd.sqe.cid;
    _cmds.release(c);
    ++_errors;
    fn.complete(sqid, cid, st);
}

std::uint32_t
TargetController::startCmd(FrontFunction &fn, const Sqe &sqe,
                           std::uint16_t sqid, NsBinding *binding)
{
    const std::uint32_t c = _cmds.acquire();
    Cmd &cmd = _cmds[c];
    cmd.fn = &fn;
    cmd.sqe = sqe;
    cmd.sqid = sqid;
    cmd.binding = binding;
    cmd.remaining = 0;
    cmd.worst = Status::Success;
    cmd.mirrorOk = true;
    return c;
}

void
TargetController::handleIo(FrontFunction &fn, const Sqe &sqe,
                           std::uint16_t sqid)
{
    NsBinding *binding = _engine.findBinding(fn.functionId(), sqe.nsid);
    if (!binding) {
        fail(fn, sqe, sqid, Status::InvalidNamespace);
        return;
    }
    auto op = static_cast<IoOpcode>(sqe.opcode);
    if (op == IoOpcode::Flush) {
        forwardFlush(fn, sqe, sqid, *binding);
        return;
    }
    if (op == IoOpcode::Dsm) {
        // Negligible transfer (one range page); bypasses QoS.
        handleDsm(fn, sqe, sqid, *binding);
        return;
    }
    if (op != IoOpcode::Read && op != IoOpcode::Write) {
        fail(fn, sqe, sqid, Status::InvalidOpcode);
        return;
    }
    if (sqe.slba() + sqe.nlb() > binding->info.sizeBlocks) {
        fail(fn, sqe, sqid, Status::LbaOutOfRange);
        return;
    }
    // The tenant's PRPs become global PRPs, which keep 48 address
    // bits: a PRP with a reserved bit set is the tenant's error and
    // fails here, before QoS or the gate see the command.
    const std::uint64_t prps =
        nvme::prpPageCount(sqe.prp1, sqe.dataBytes()) > 1
            ? sqe.prp1 | sqe.prp2
            : sqe.prp1;
    if (prps & ~GlobalPrp::kAddrMask) {
        fail(fn, sqe, sqid, Status::InvalidField);
        return;
    }
    // Step ②: QoS threshold check; buffered commands re-enter here
    // from the command dispatcher.
    const std::uint32_t c = startCmd(fn, sqe, sqid, binding);
    _engine.qos().submit(binding->key(), sqe.dataBytes(),
                         [this, c] { forward(c); });
}

void
TargetController::retryForward(std::uint32_t c)
{
    Cmd &cmd = _cmds[c];
    cmd.binding = _engine.findBinding(cmd.fn->functionId(), cmd.sqe.nsid);
    if (!cmd.binding) {
        fail(c, Status::InvalidNamespace);
        return;
    }
    forward(c);
}

std::function<void(Status)>
TargetController::makeRetryWaiter(std::uint32_t c)
{
    return [this, c](Status st) {
        if (st != Status::Success) {
            fail(c, st);
            return;
        }
        retryForward(c);
    };
}

TargetController::ChunkOp &
TargetController::openChunkOp(std::uint64_t key, OpKind kind,
                              pcie::FunctionId fn_id, std::uint32_t nsid)
{
    BMS_ASSERT(!_chunkOps.count(key),
               "chunk op already open for key ", key);
    ChunkOp op;
    op.kind = kind;
    op.fn = fn_id;
    op.nsid = nsid;
    auto [it, inserted] = _chunkOps.emplace(key, std::move(op));
    (void)inserted;
    // Pin the namespace so destroy/snapshot/generic migration wait
    // out the chunk operation.
    if (_nsRefHook)
        _nsRefHook(fn_id, nsid, true);
    return it->second;
}

void
TargetController::finishChunkOp(std::uint64_t key, Status st)
{
    auto it = _chunkOps.find(key);
    BMS_ASSERT(it != _chunkOps.end(),
               "finishing an unknown chunk op, key ", key);
    ChunkOp op = std::move(it->second);
    _chunkOps.erase(it);
    if (_nsRefHook)
        _nsRefHook(op.fn, op.nsid, false);
    for (auto &w : op.waiters)
        w(st);
}

bool
TargetController::classifyChunks(std::uint32_t c)
{
    const Cmd &cmd = _cmds[c];
    const Sqe &sqe = cmd.sqe;
    NsBinding &binding = *cmd.binding;
    const bool is_write =
        static_cast<IoOpcode>(sqe.opcode) == IoOpcode::Write;
    const LbaMapGeometry &g = binding.map.geometry();
    const std::uint64_t first = sqe.slba() / g.chunkBlocks;
    const std::uint64_t last =
        (sqe.slba() + sqe.nlb() - 1) / g.chunkBlocks;
    for (std::uint64_t ci = first; ci <= last; ++ci) {
        const std::uint64_t key =
            heatKey(binding.key(), static_cast<std::uint32_t>(ci));
        auto it = _chunkOps.find(key);
        if (it != _chunkOps.end()) {
            // Reads flow during Alloc (they zero-fill off the still-
            // invalid entry) and during Cow (the source stays
            // authoritative until the flip); everything queues behind
            // a Trim, whose scrub changes the bytes underneath.
            if (!is_write && it->second.kind != OpKind::Trim)
                continue;
            it->second.waiters.push_back(makeRetryWaiter(c));
            return true;
        }
        if (!is_write)
            continue;
        const auto row = static_cast<std::uint32_t>(ci / g.entriesPerRow);
        const auto col = static_cast<std::uint32_t>(ci % g.entriesPerRow);
        if (!binding.map.entryValid(row, col)) {
            if (!_allocHook) {
                // Raw-engine configuration (no backing service):
                // keep the historical strict behaviour.
                fail(c, Status::LbaOutOfRange);
                return true;
            }
            startAlloc(c, static_cast<std::uint32_t>(ci));
            return true;
        }
        if (binding.map.entryShared(row, col)) {
            if (!_cowHook) {
                fail(c, Status::NamespaceNotReady);
                return true;
            }
            const pcie::FunctionId fn_id = cmd.fn->functionId();
            const std::uint32_t nsid = sqe.nsid;
            ChunkOp &op = openChunkOp(key, OpKind::Cow, fn_id, nsid);
            op.waiters.push_back(makeRetryWaiter(c));
            startCow(key, fn_id, nsid, static_cast<std::uint32_t>(ci));
            return true;
        }
    }
    return false;
}

void
TargetController::startAlloc(std::uint32_t c, std::uint32_t chunk_index)
{
    const Cmd &cmd = _cmds[c];
    const NsBinding &binding = *cmd.binding;
    const pcie::FunctionId fn_id = cmd.fn->functionId();
    const std::uint32_t nsid = cmd.sqe.nsid;
    auto placement = _allocHook(fn_id, nsid, chunk_index);
    if (!placement) {
        fail(c, Status::CapacityExceeded);
        return;
    }
    const std::uint64_t key = heatKey(binding.key(), chunk_index);
    ChunkOp &op = openChunkOp(key, OpKind::Alloc, fn_id, nsid);
    op.waiters.push_back(makeRetryWaiter(c));
    const std::uint64_t chunk_blocks = binding.map.geometry().chunkBlocks;
    const std::uint8_t slot = placement->slot;
    const std::uint8_t chunk = placement->chunk;
    // Scrub the recycled chunk before the mapping entry goes live:
    // reads meanwhile zero-fill off the invalid entry, and once the
    // entry flips the media genuinely holds zeroes — the previous
    // owner's bytes are never exposed.
    zeroPhysRange(
        slot, std::uint64_t(chunk) * chunk_blocks, chunk_blocks,
        [this, key, fn_id, nsid, chunk_index, slot, chunk](bool ok) {
            NsBinding *b = _engine.findBinding(fn_id, nsid);
            if (!b) {
                finishChunkOp(key, Status::InvalidNamespace);
                return;
            }
            if (!ok) {
                // Roll the reservation back (the entry was never
                // programmed); queued writes fail.
                if (_trimHook)
                    _trimHook(fn_id, nsid, chunk_index);
                finishChunkOp(key, Status::NamespaceNotReady);
                return;
            }
            const LbaMapGeometry &g = b->map.geometry();
            bool set = b->map.setEntry(chunk_index / g.entriesPerRow,
                                       chunk_index % g.entriesPerRow,
                                       chunk, slot);
            BMS_ASSERT(set, "thin allocation flip rejected: chunk ",
                       chunk_index, " -> slot ", int(slot), " chunk ",
                       int(chunk));
            ++_allocOnWrite;
            finishChunkOp(key, Status::Success);
        });
}

void
TargetController::startCow(std::uint64_t key, pcie::FunctionId fn_id,
                           std::uint32_t nsid, std::uint32_t chunk_index)
{
    ++_cowTriggers;
    _cowHook(fn_id, nsid, chunk_index, [this, key](bool ok) {
        // On failure (no private chunk available) the queued writes
        // fail like any other out-of-space thin write.
        finishChunkOp(key,
                      ok ? Status::Success : Status::CapacityExceeded);
    });
}

void
TargetController::zeroPhysRange(std::uint8_t slot, std::uint64_t phys_lba,
                                std::uint64_t blocks,
                                std::function<void(bool)> done)
{
    zeroPhysRangeUntil(slot, phys_lba, blocks, now() + kScrubReadyWait,
                       std::move(done));
}

void
TargetController::zeroPhysRangeUntil(std::uint8_t slot,
                                     std::uint64_t phys_lba,
                                     std::uint64_t blocks,
                                     sim::Tick deadline,
                                     std::function<void(bool)> done)
{
    if (blocks == 0) {
        done(true);
        return;
    }
    if (_engine.isRemoteSlot(slot)) {
        // Thin allocations only land on local pools (placement policy
        // skips remote slots) and remote-resident deallocates are
        // refused upstream; reaching here means neither guarantee can
        // be met, so report failure rather than skip the scrub.
        done(false);
        return;
    }
    HostAdaptor &ad = _engine.adaptor(slot);
    if (!ad.ready()) {
        // Firmware activation holds the slot for a few seconds; the
        // commands queued on this scrub are held like any other
        // upgrade-crossing I/O, so wait the pause out rather than
        // failing a thin write that would succeed moments later.
        if (now() >= deadline) {
            done(false);
            return;
        }
        schedule(kScrubReadyPoll, [this, slot, phys_lba, blocks, deadline,
                                   done = std::move(done)]() mutable {
            zeroPhysRangeUntil(slot, phys_lba, blocks, deadline,
                               std::move(done));
        });
        return;
    }
    const std::uint64_t n = std::min(blocks, kMaxZeroBlocks);
    Sqe z;
    z.opcode = static_cast<std::uint8_t>(IoOpcode::WriteZeroes);
    z.nsid = 1;
    z.setSlba(phys_lba);
    z.setNlb(static_cast<std::uint32_t>(n));
    ad.submitIo(z, [this, slot, phys_lba, blocks, n, deadline,
                    done = std::move(done)](const nvme::Cqe &cqe) mutable {
        if (!cqe.ok()) {
            done(false);
            return;
        }
        if (blocks == n) {
            done(true);
            return;
        }
        zeroPhysRangeUntil(slot, phys_lba + n, blocks - n, deadline,
                           std::move(done));
    });
}

void
TargetController::forward(std::uint32_t c)
{
    // Thin/CoW classification first: a command touching a chunk with
    // an operation in flight queues on it (and re-enters here), a
    // write to an unallocated chunk triggers allocate-on-write, a
    // write through a shared entry triggers chunk CoW.
    if (classifyChunks(c))
        return;

    // Carve the command into chunk-contiguous extents (almost always
    // exactly one: chunks are 64 GiB and host I/O is <= 2 MiB).
    Cmd &cmd = _cmds[c];
    const Sqe &sqe = cmd.sqe;
    NsBinding &binding = *cmd.binding;
    const std::uint64_t chunk_blocks = binding.map.geometry().chunkBlocks;
    std::vector<PhysExtent> &extents = cmd.gate.extents;
    extents.clear();
    cmd.zeros.clear();
    std::uint64_t lba = sqe.slba();
    std::uint64_t remaining = sqe.nlb();
    std::uint64_t byte_off = 0;
    while (remaining > 0) {
        std::uint64_t in_chunk = chunk_blocks - (lba % chunk_blocks);
        std::uint64_t blocks = remaining < in_chunk ? remaining : in_chunk;
        auto mapping = binding.map.translate(lba);
        if (!mapping) {
            // In-bounds but unmapped: a thin chunk nobody ever wrote.
            // Reads zero-fill the host buffer without touching media
            // (writes never get here — classifyChunks consumed them).
            cmd.zeros.push_back(ZeroRange{byte_off,
                                          blocks * nvme::kBlockSize});
        } else {
            extents.push_back(PhysExtent{mapping->ssdId, mapping->physLba,
                                         byte_off, blocks});
            _heatBytes[heatKey(
                binding.key(),
                static_cast<std::uint32_t>(lba / chunk_blocks))] +=
                blocks * nvme::kBlockSize;
        }
        lba += blocks;
        remaining -= blocks;
        byte_off += blocks * nvme::kBlockSize;
    }

    // Step ②½: the migration gate pins the physical chunks at
    // translate time — a command dispatched later (e.g. after a PRP
    // list fetch) still targets chunks the gate knows about, writes
    // may pick up mirror legs or be held while a segment copy runs.
    const bool is_write =
        static_cast<IoOpcode>(sqe.opcode) == IoOpcode::Write;
    _engine.migrationGate().admit(cmd.gate, is_write, chunk_blocks,
                                  [this, c] { admitted(c); });
}

void
TargetController::admitted(std::uint32_t c)
{
    Cmd &cmd = _cmds[c];
    const Sqe &sqe = cmd.sqe;
    const std::uint64_t len = sqe.dataBytes();
    const std::uint32_t pages = nvme::prpPageCount(sqe.prp1, len);
    cmd.pages.clear();
    cmd.pages.push_back(sqe.prp1);
    if (!nvme::needsPrpList(sqe.prp1, len)) {
        if (pages == 2)
            cmd.pages.push_back(sqe.prp2);
        dispatch(c);
        return;
    }
    // Step ③: fetch the host PRP list over the host link, rewrite it
    // into global PRPs, and stage the rewritten copy in chip memory.
    const std::uint32_t entries = pages - 1;
    cmd.pages.resize(pages);
    _engine.hostUpstream()->dmaRead(
        sqe.prp2, static_cast<std::uint32_t>(entries * 8),
        reinterpret_cast<std::uint8_t *>(cmd.pages.data() + 1),
        [this, c] { listFetched(c); });
}

void
TargetController::listFetched(std::uint32_t c)
{
    Cmd &cmd = _cmds[c];
    for (std::size_t i = 1; i < cmd.pages.size(); ++i) {
        if (cmd.pages[i] & ~GlobalPrp::kAddrMask) {
            // A list entry no global PRP can carry: the command fails
            // before any leg is submitted.
            _engine.migrationGate().complete(cmd.gate, true);
            fail(c, Status::InvalidField);
            return;
        }
    }
    dispatch(c);
}

HostAdaptor::CqeHandler
TargetController::legHandler(std::uint32_t c, Leg leg)
{
    auto handler = [this, c, leg](const nvme::Cqe &cqe) {
        Cmd &cmd = _cmds[c];
        if (leg == Leg::Flush) {
            // A flush's status is its last leg's: success here.
            cmd.worst = Status::Success;
            legDone(c);
            return;
        }
        if (!cqe.ok()) {
            // The source leg stays authoritative: a failed mirror does
            // not fail the tenant write, it dirties the touched
            // segments so the migration re-copies them. A strict (tier
            // shadow) leg is the loss-recovery image: its failure both
            // fails the tenant write and dirties the touched segments,
            // so neither side silently diverges.
            if (leg != Leg::Mirror)
                cmd.worst = cqe.status();
            if (leg != Leg::Primary)
                cmd.mirrorOk = false;
        }
        legDone(c);
    };
    static_assert(sizeof(handler) <= 16 &&
                      std::is_trivially_copyable_v<decltype(handler)>,
                  "std::function keeps only small trivial closures inline");
    return handler;
}

void
TargetController::legDone(std::uint32_t c)
{
    Cmd &cmd = _cmds[c];
    if (--cmd.remaining != 0)
        return;
    FrontFunction *fn = cmd.fn;
    const std::uint16_t sqid = cmd.sqid;
    const std::uint16_t cid = cmd.sqe.cid;
    Status st = cmd.worst;
    if (static_cast<IoOpcode>(cmd.sqe.opcode) == IoOpcode::Flush) {
        // A flush completes at once when its last leg found its
        // target not ready, else after the completion pipeline.
        _cmds.release(c);
        if (st != Status::Success) {
            fn->complete(sqid, cid, st);
            return;
        }
        schedule(_engine.config().completionPipelineDelay,
                 [fn, sqid, cid] { fn->complete(sqid, cid, Status::Success); });
        return;
    }
    _engine.migrationGate().complete(cmd.gate, cmd.mirrorOk);
    _cmds.release(c);
    // Step ⑦: post the front-end CQE after the completion pipeline.
    if (st != Status::Success)
        ++_errors;
    schedule(_engine.config().completionPipelineDelay,
             [fn, sqid, cid, st] { fn->complete(sqid, cid, st); });
}

void
TargetController::dispatch(std::uint32_t c)
{
    Cmd &cmd = _cmds[c];
    const Sqe &sqe = cmd.sqe;
    const std::vector<PhysExtent> &extents = cmd.gate.extents;
    const std::vector<PhysExtent> &mirrors = cmd.gate.mirrors;
    const std::vector<std::uint64_t> &host_pages = cmd.pages;
    BMS_ASSERT(!extents.empty() || !cmd.zeros.empty(),
               "I/O resolved to no extents");
    const pcie::FunctionId fn_id = cmd.fn->functionId();
    // The single-extent fast path rewrites the whole transfer's PRPs;
    // it only applies when that one extent IS the whole transfer.
    const bool single = extents.size() == 1 && cmd.zeros.empty();
    if (extents.size() > 1)
        ++_split;
    if (!single && !extents.empty()) {
        BMS_ASSERT_EQ(sqe.prp1 % nvme::kPageSize, 0u,
                      "chunk-straddling I/O requires page-aligned buffers");
    }

    // Resolve the zero-filled byte ranges into per-page DMA pieces
    // (the first host page may start mid-page).
    auto &zero_pieces = cmd.zeroPieces;
    zero_pieces.clear();
    const std::uint64_t first_bytes =
        nvme::kPageSize - sqe.prp1 % nvme::kPageSize;
    for (const ZeroRange &z : cmd.zeros) {
        std::uint64_t b = z.byteOffset;
        std::uint64_t len = z.bytes;
        while (len > 0) {
            std::uint64_t addr, avail;
            if (b < first_bytes) {
                addr = sqe.prp1 + b;
                avail = first_bytes - b;
            } else {
                std::uint64_t b2 = b - first_bytes;
                std::size_t page = 1 + b2 / nvme::kPageSize;
                BMS_ASSERT_LT(page, host_pages.size(),
                              "zero-fill range exceeds host PRP pages");
                addr = host_pages[page] + b2 % nvme::kPageSize;
                avail = nvme::kPageSize - b2 % nvme::kPageSize;
            }
            std::uint64_t n = std::min(len, avail);
            zero_pieces.emplace_back(addr,
                                     static_cast<std::uint32_t>(n));
            b += n;
            len -= n;
        }
    }
    if (!zero_pieces.empty())
        ++_zeroFill;

    cmd.remaining = extents.size() + mirrors.size() + zero_pieces.size();
    cmd.worst = Status::Success;
    cmd.mirrorOk = true;

    // Stage a rewritten PRP list of @p count pages from host page
    // @p first in the slot's chip memory; returns its global PRP.
    // Each leg (extent or mirror) gets at most one list of fewer
    // entries than the command has host pages. The SSD fetches a
    // list before it completes the command, and the slot is reused
    // only after that, so the region never holds a list still
    // needed. Chip memory is never freed: a slot that needs a larger
    // region leaves its old one behind.
    std::uint64_t list_off = 0;
    auto stage_list = [&](std::size_t first, std::size_t count) {
        ++_listsRewritten;
        cmd.list.clear();
        for (std::size_t i = 0; i < count; ++i)
            cmd.list.push_back(
                GlobalPrp::encode(cmd.pages[first + i], fn_id, false));
        const std::uint64_t need = (extents.size() + mirrors.size()) *
                                   (cmd.pages.size() - 1) * 8;
        if (cmd.chipListBytes < need) {
            cmd.chipList = _engine.chipMemory().alloc(need, 8);
            cmd.chipListBytes = need;
        }
        const std::uint64_t bytes = cmd.list.size() * 8;
        BMS_ASSERT_LE(list_off + bytes, cmd.chipListBytes,
                      "a command's PRP lists overflow its chip region");
        const std::uint64_t chip_addr = cmd.chipList + list_off;
        list_off += bytes;
        _engine.chipMemory().write(
            chip_addr, static_cast<std::uint32_t>(bytes),
            reinterpret_cast<const std::uint8_t *>(cmd.list.data()));
        return GlobalPrp::encode(chip_addr, fn_id, true);
    };

    auto build_sqe = [&](const PhysExtent &ext) {
        Sqe bsqe = sqe;
        bsqe.nsid = 1; // back-end SSDs expose one raw namespace
        bsqe.setSlba(ext.physLba);
        bsqe.setNlb(static_cast<std::uint32_t>(ext.blocks));

        std::uint64_t ext_len = ext.blocks * nvme::kBlockSize;
        if (single) {
            // Fast path: rewrite PRP1/PRP2 in place (step ③).
            bsqe.prp1 = GlobalPrp::encode(sqe.prp1, fn_id, false);
            std::uint32_t pages = nvme::prpPageCount(sqe.prp1,
                                                     sqe.dataBytes());
            if (pages == 2) {
                bsqe.prp2 = GlobalPrp::encode(sqe.prp2, fn_id, false);
            } else if (pages > 2) {
                bsqe.prp2 = stage_list(1, host_pages.size() - 1);
            } else {
                bsqe.prp2 = 0;
            }
        } else {
            // Split path: select this extent's pages.
            std::size_t first_page = ext.byteOffset / nvme::kPageSize;
            std::size_t page_count =
                (ext_len + nvme::kPageSize - 1) / nvme::kPageSize;
            BMS_ASSERT_LE(first_page + page_count, host_pages.size(),
                          "extent pages exceed rewritten PRP list");
            bsqe.prp1 = GlobalPrp::encode(host_pages[first_page], fn_id,
                                          false);
            if (page_count == 1) {
                bsqe.prp2 = 0;
            } else if (page_count == 2) {
                bsqe.prp2 = GlobalPrp::encode(host_pages[first_page + 1],
                                              fn_id, false);
            } else {
                bsqe.prp2 = stage_list(first_page + 1, page_count - 1);
            }
        }
        return bsqe;
    };

    // Legs are counted up front, so the last one to finish (possibly
    // one that fails right here) completes the command; indices, not
    // iterators, because that frees the slot.
    const std::size_t n_extents = extents.size();
    const std::size_t n_mirrors = mirrors.size();
    const std::size_t n_zero = zero_pieces.size();
    for (std::size_t i = 0; i < n_extents; ++i) {
        const PhysExtent ext = extents[i];
        HostAdaptor &ad = _engine.adaptor(ext.ssdId);
        if (!ad.ready()) {
            cmd.worst = Status::NamespaceNotReady;
            legDone(c);
            continue;
        }
        ++_forwarded;
        ad.submitIo(build_sqe(ext), legHandler(c, Leg::Primary));
    }
    for (std::size_t i = 0; i < n_mirrors; ++i) {
        const PhysExtent m = mirrors[i];
        HostAdaptor &ad = _engine.adaptor(m.ssdId);
        if (!ad.ready()) {
            cmd.mirrorOk = false;
            if (m.strict)
                cmd.worst = Status::NamespaceNotReady;
            legDone(c);
            continue;
        }
        ad.submitIo(build_sqe(m),
                    legHandler(c, m.strict ? Leg::Strict : Leg::Mirror));
    }
    // Zero-filled ranges DMA straight from the engine's zero page to
    // the host buffer — no media access, no heat.
    for (std::size_t i = 0; i < n_zero; ++i) {
        const auto [addr, len] = zero_pieces[i];
        _engine.hostUpstream()->dmaWritePayload(
            addr, len, sim::Payload::zeros(len),
            [this, c] { legDone(c); });
    }
}

void
TargetController::handleDsm(FrontFunction &fn, const Sqe &sqe,
                            std::uint16_t sqid, NsBinding &binding)
{
    ++_dsmCommands;
    if (!(sqe.cdw11 & nvme::kDsmAttrDeallocate)) {
        // Only the deallocate attribute is implemented; the access
        // hints are acknowledged and ignored.
        fn.complete(sqid, sqe.cid, Status::Success);
        return;
    }
    const std::uint32_t nr = (sqe.cdw10 & 0xff) + 1;
    const std::uint32_t bytes =
        nr * static_cast<std::uint32_t>(sizeof(nvme::DsmRange));
    if (sqe.prp1 == 0 ||
        sqe.prp1 % nvme::kPageSize + bytes > nvme::kPageSize) {
        // The range list always fits one page (256 * 16 B); a buffer
        // straddling pages is malformed here.
        fail(fn, sqe, sqid, Status::InvalidField);
        return;
    }
    const std::uint64_t size_blocks = binding.info.sizeBlocks;
    const std::uint64_t chunk_blocks = binding.map.geometry().chunkBlocks;
    auto raw = std::make_shared<std::vector<std::uint8_t>>(bytes);
    _engine.hostUpstream()->dmaRead(
        sqe.prp1, bytes, raw->data(),
        [this, &fn, sqe, sqid, nr, raw, size_blocks, chunk_blocks] {
            auto job = std::make_shared<DsmJob>();
            job->sqe = sqe;
            job->sqid = sqid;
            for (std::uint32_t i = 0; i < nr; ++i) {
                auto r = nvme::fromBytes<nvme::DsmRange>(
                    raw->data() + i * sizeof(nvme::DsmRange));
                if (r.nlb == 0)
                    continue;
                if (r.slba + r.nlb > size_blocks) {
                    fail(fn, sqe, sqid, Status::LbaOutOfRange);
                    return;
                }
                // Carve the range into per-chunk work. Only a single
                // range covering a whole chunk frees it; sub-chunk
                // pieces are scrubbed in place.
                std::uint64_t lba = r.slba;
                std::uint64_t remaining = r.nlb;
                while (remaining > 0) {
                    std::uint64_t in_chunk =
                        chunk_blocks - lba % chunk_blocks;
                    std::uint64_t blocks =
                        std::min<std::uint64_t>(remaining, in_chunk);
                    auto ci =
                        static_cast<std::uint32_t>(lba / chunk_blocks);
                    DsmChunk *dc = nullptr;
                    for (DsmChunk &c : job->chunks) {
                        if (c.chunk == ci) {
                            dc = &c;
                            break;
                        }
                    }
                    if (!dc) {
                        job->chunks.emplace_back();
                        dc = &job->chunks.back();
                        dc->chunk = ci;
                    }
                    if (blocks == chunk_blocks)
                        dc->full = true;
                    else
                        dc->pieces.emplace_back(lba % chunk_blocks,
                                                blocks);
                    lba += blocks;
                    remaining -= blocks;
                }
            }
            // Deterministic walk order regardless of range order.
            std::sort(job->chunks.begin(), job->chunks.end(),
                      [](const DsmChunk &a, const DsmChunk &b) {
                          return a.chunk < b.chunk;
                      });
            processNextDsmChunk(fn, std::move(job));
        });
}

void
TargetController::processNextDsmChunk(FrontFunction &fn,
                                      std::shared_ptr<DsmJob> job)
{
    if (job->next >= job->chunks.size()) {
        // A partial failure still completes with an error status: the
        // host (and the fuzz oracle) must not assume the untouched
        // ranges were zeroed.
        const Status st = job->worst;
        if (st != Status::Success)
            ++_errors;
        const std::uint16_t sqid = job->sqid;
        const std::uint16_t cid = job->sqe.cid;
        schedule(_engine.config().completionPipelineDelay,
                 [&fn, sqid, cid, st] { fn.complete(sqid, cid, st); });
        return;
    }
    const std::size_t idx = job->next++;
    trimChunk(fn, job, idx, [this, &fn, job](Status st) {
        if (st != Status::Success && job->worst == Status::Success)
            job->worst = st;
        processNextDsmChunk(fn, job);
    });
}

void
TargetController::trimChunk(FrontFunction &fn, std::shared_ptr<DsmJob> job,
                            std::size_t idx,
                            std::function<void(Status)> done)
{
    NsBinding *b = _engine.findBinding(fn.functionId(), job->sqe.nsid);
    if (!b) {
        done(Status::InvalidNamespace);
        return;
    }
    const DsmChunk &dc = job->chunks[idx];
    const std::uint64_t key = heatKey(b->key(), dc.chunk);
    auto it = _chunkOps.find(key);
    if (it != _chunkOps.end()) {
        // Wait out whatever runs on this chunk, then re-enter.
        it->second.waiters.push_back(
            [this, &fn, job, idx, done](Status st) {
                if (st != Status::Success) {
                    done(st);
                    return;
                }
                trimChunk(fn, job, idx, done);
            });
        return;
    }
    const LbaMapGeometry &g = b->map.geometry();
    const std::uint32_t row = dc.chunk / g.entriesPerRow;
    const std::uint32_t col = dc.chunk % g.entriesPerRow;
    if (!b->map.entryValid(row, col)) {
        // Never-written or already-deallocated chunk: nothing to do.
        done(Status::Success);
        return;
    }
    if (_engine.isRemoteSlot(b->map.entrySlot(row, col))) {
        // Spilled to the remote tier: refused rather than silently
        // skipped, so the host knows the blocks were NOT zeroed
        // (promote the chunk first).
        done(Status::InvalidField);
        return;
    }
    if (b->map.entryShared(row, col) && !dc.full) {
        // Sub-chunk scrub of a snapshot-pinned chunk: CoW first — a
        // write of zeroes must not reach the pinned image. A full-
        // chunk deallocate just drops the reference instead.
        if (!_cowHook) {
            done(Status::NamespaceNotReady);
            return;
        }
        ChunkOp &op = openChunkOp(key, OpKind::Cow, fn.functionId(),
                                  job->sqe.nsid);
        op.waiters.push_back([this, &fn, job, idx, done](Status st) {
            if (st != Status::Success) {
                done(st);
                return;
            }
            trimChunk(fn, job, idx, done);
        });
        startCow(key, fn.functionId(), job->sqe.nsid, dc.chunk);
        return;
    }
    openChunkOp(key, OpKind::Trim, fn.functionId(), job->sqe.nsid);
    attemptTrim(fn, job, idx, key, std::move(done));
}

void
TargetController::attemptTrim(FrontFunction &fn,
                              std::shared_ptr<DsmJob> job, std::size_t idx,
                              std::uint64_t key,
                              std::function<void(Status)> done)
{
    NsBinding *b = _engine.findBinding(fn.functionId(), job->sqe.nsid);
    if (!b) {
        finishChunkOp(key, Status::InvalidNamespace);
        done(Status::InvalidNamespace);
        return;
    }
    const DsmChunk &dc = job->chunks[idx];
    const LbaMapGeometry &g = b->map.geometry();
    const std::uint32_t row = dc.chunk / g.entriesPerRow;
    const std::uint32_t col = dc.chunk % g.entriesPerRow;
    if (!b->map.entryValid(row, col)) {
        finishChunkOp(key, Status::Success);
        done(Status::Success);
        return;
    }
    const std::uint8_t slot = b->map.entrySlot(row, col);
    const std::uint32_t base = b->map.entryBase(row, col);
    MigrationGate &gate = _engine.migrationGate();
    if (gate.migrationTouches(slot, base)) {
        // A copier opened before this op pinned the namespace still
        // reads the chunk; wait it out rather than scrub under it.
        schedule(kTrimRetryDelay, [this, &fn, job, idx, key, done] {
            attemptTrim(fn, job, idx, key, done);
        });
        return;
    }
    const std::uint64_t chunk_blocks = g.chunkBlocks;
    gate.whenChunkIdle(
        slot, static_cast<std::uint8_t>(base), chunk_blocks,
        [this, &fn, job, idx, key, done, slot, base, chunk_blocks] {
            NsBinding *b =
                _engine.findBinding(fn.functionId(), job->sqe.nsid);
            if (!b) {
                finishChunkOp(key, Status::InvalidNamespace);
                done(Status::InvalidNamespace);
                return;
            }
            const DsmChunk &dc = job->chunks[idx];
            const LbaMapGeometry &g = b->map.geometry();
            const std::uint32_t row = dc.chunk / g.entriesPerRow;
            const std::uint32_t col = dc.chunk % g.entriesPerRow;
            if (!b->map.entryValid(row, col)) {
                finishChunkOp(key, Status::Success);
                done(Status::Success);
                return;
            }
            if (b->map.entrySlot(row, col) != slot ||
                b->map.entryBase(row, col) != base ||
                _engine.migrationGate().migrationTouches(
                    b->map.entrySlot(row, col),
                    b->map.entryBase(row, col))) {
                // The chunk moved (a pre-existing migration cut over)
                // while we drained; retry against the new placement.
                attemptTrim(fn, job, idx, key, done);
                return;
            }
            if (dc.full) {
                bool ok = true;
                if (_trimHook) {
                    ok = _trimHook(fn.functionId(), job->sqe.nsid,
                                   dc.chunk);
                } else {
                    // Raw-engine fallback: entry-only invalidation.
                    b->map.invalidate(row, col);
                }
                if (ok)
                    ++_trimmedChunks;
                finishChunkOp(key, Status::Success);
                done(ok ? Status::Success : Status::InvalidField);
                return;
            }
            zeroPieces(job, idx, 0, slot, base, chunk_blocks, key,
                       std::move(done));
        });
}

void
TargetController::zeroPieces(std::shared_ptr<DsmJob> job, std::size_t idx,
                             std::size_t piece, std::uint8_t slot,
                             std::uint32_t base,
                             std::uint64_t chunk_blocks, std::uint64_t key,
                             std::function<void(Status)> done)
{
    const DsmChunk &dc = job->chunks[idx];
    if (piece >= dc.pieces.size()) {
        finishChunkOp(key, Status::Success);
        done(Status::Success);
        return;
    }
    const auto [off, blocks] = dc.pieces[piece];
    zeroPhysRange(
        slot, std::uint64_t(base) * chunk_blocks + off, blocks,
        [this, job, idx, piece, slot, base, chunk_blocks, key,
         done](bool ok) {
            if (!ok) {
                // The range was not (fully) zeroed; surface that in
                // the DSM status so nobody assumes zero reads.
                finishChunkOp(key, Status::NamespaceNotReady);
                done(Status::NamespaceNotReady);
                return;
            }
            zeroPieces(job, idx, piece + 1, slot, base, chunk_blocks,
                       key, done);
        });
}

std::unordered_map<std::uint64_t, std::uint64_t>
TargetController::drainHeat()
{
    std::unordered_map<std::uint64_t, std::uint64_t> out;
    out.swap(_heatBytes);
    return out;
}

void
TargetController::forwardFlush(FrontFunction &fn, const Sqe &sqe,
                               std::uint16_t sqid, NsBinding &binding)
{
    // Flush every back-end SSD this namespace has a chunk on.
    std::vector<bool> used(static_cast<std::size_t>(_engine.ssdSlots()),
                           false);
    const LbaMapGeometry &g = binding.map.geometry();
    for (std::uint32_t r = 0; r < g.rows; ++r)
        for (std::uint32_t c = 0; c < g.entriesPerRow; ++c)
            if (binding.map.entryValid(r, c))
                used[static_cast<std::size_t>(
                    binding.map.entrySlot(r, c))] = true;

    std::size_t targets = 0;
    for (bool u : used)
        targets += u ? 1 : 0;
    if (targets == 0) {
        fn.complete(sqid, sqe.cid, Status::Success);
        return;
    }

    const std::uint32_t c = startCmd(fn, sqe, sqid, &binding);
    _cmds[c].remaining = targets;
    for (int s = 0; s < _engine.ssdSlots(); ++s) {
        if (!used[s])
            continue;
        Sqe bsqe = sqe;
        bsqe.nsid = 1;
        HostAdaptor &ad = _engine.adaptor(s);
        if (!ad.ready()) {
            _cmds[c].worst = Status::NamespaceNotReady;
            legDone(c);
            continue;
        }
        ++_forwarded;
        ad.submitIo(bsqe, legHandler(c, Leg::Flush));
    }
}

} // namespace bms::core
