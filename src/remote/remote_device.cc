#include "remote/remote_device.hh"

#include <utility>

#include "nvme/dma.hh"

namespace bms::remote {

using nvme::IoOpcode;
using nvme::Sqe;
using nvme::Status;

RemoteNvmeDevice::RemoteNvmeDevice(sim::Simulator &sim, std::string name,
                                   NetworkLink &link,
                                   StorageServer &server, int volume,
                                   RemoteClientConfig ccfg)
    : SimObject(sim, name), _link(link), _server(server), _volume(volume),
      _ccfg(ccfg)
{
    BMS_ASSERT(_ccfg.window > 0, "remote client window must be positive");
    nvme::ControllerModel::Config cfg;
    cfg.fn = 0;
    cfg.model = "BMS-REMOTE-VOL";
    _ctrl = std::make_unique<Controller>(sim, name + ".ctrl", cfg, *this);
    nvme::NamespaceInfo ns;
    ns.nsid = 1;
    ns.sizeBlocks = server.volumeBytes(volume) / nvme::kBlockSize;
    _ctrl->addNamespace(ns);

    registerStat("ios", [this] { return double(_ios); });
    registerStat("timeouts", [this] { return double(_timeouts); });
    registerStat("retries", [this] { return double(_retries); });
    registerStat("exhausted", [this] { return double(_exhausted); });
}

void
RemoteNvmeDevice::mmioWrite(pcie::FunctionId fn, std::uint64_t offset,
                            std::uint64_t value)
{
    BMS_ASSERT_EQ(fn, 0, "remote NVMe device is single-function");
    _ctrl->regWrite(offset, value);
}

std::uint64_t
RemoteNvmeDevice::mmioRead(pcie::FunctionId fn, std::uint64_t offset)
{
    BMS_ASSERT_EQ(fn, 0, "remote NVMe device is single-function");
    return _ctrl->regRead(offset);
}

void
RemoteNvmeDevice::attached(pcie::PcieUpstreamIf &upstream)
{
    _up = &upstream;
    _ctrl->setUpstream(&upstream);
}

void
RemoteNvmeDevice::executeIo(const Sqe &sqe, std::uint16_t sqid)
{
    auto op = static_cast<IoOpcode>(sqe.opcode);
    if (op != IoOpcode::Read && op != IoOpcode::Write &&
        op != IoOpcode::Flush) {
        _ctrl->complete(sqid, sqe.cid, Status::InvalidOpcode);
        return;
    }
    ++_ios;

    Flight f;
    f.sqe = sqe;
    f.sqid = sqid;
    f.isWrite = op == IoOpcode::Write;
    f.isFlush = op == IoOpcode::Flush;
    f.len = f.isFlush ? 0 : sqe.dataBytes();

    if (f.isFlush) {
        enqueue(std::move(f));
        return;
    }

    f.dma = _dma.acquire();
    nvme::DmaContext &ctx = _dma[f.dma];
    auto start = [this, f = std::move(f)]() mutable {
        if (!f.isWrite) {
            // The upstream layout is kept for the read scatter.
            enqueue(std::move(f));
            return;
        }
        // Gather the payload from upstream memory (host natively, or
        // chip memory when behind BM-Store), then go on the wire with
        // command + data.
        nvme::DmaContext &dma = _dma[f.dma];
        auto send = [this, f = std::move(f)](sim::Payload data) mutable {
            f.data = std::move(data);
            enqueue(std::move(f));
        };
        nvme::gatherPayload(*_up, dma, true, std::move(send));
    };
    nvme::resolveSegments(*_up, sqe, ctx, std::move(start));
}

void
RemoteNvmeDevice::enqueue(Flight f)
{
    f.attempt = 1;
    _sendq.push_back(std::move(f));
    pump();
}

void
RemoteNvmeDevice::pump()
{
    while (_wireInflight < _ccfg.window && !_sendq.empty()) {
        Flight f = std::move(_sendq.front());
        _sendq.pop_front();
        ++_wireInflight;
        sendAttempt(std::move(f));
    }
}

void
RemoteNvmeDevice::sendAttempt(Flight f)
{
    std::uint64_t id = _nextReq++;
    bool is_write = f.isWrite;
    bool is_read = !f.isWrite && !f.isFlush;
    std::uint64_t len = f.len;

    RemoteIo io;
    io.isWrite = f.isWrite;
    io.isFlush = f.isFlush;
    io.offset = f.sqe.slba() * nvme::kBlockSize;
    io.len = static_cast<std::uint32_t>(len);
    if (is_write)
        io.data = f.data;
    // Runs on the server when the request completes there; the
    // response message (and read data) then crosses the wire back.
    io.done = [this, id, is_read, len](bool ok, sim::Payload data) {
        std::uint64_t resp = pcie::kCqeBytes + (is_read && ok ? len : 0);
        _rxBytes += resp;
        _link.send(1, resp,
                   [this, id, ok, data = std::move(data)]() mutable {
                       onResponse(id, ok, std::move(data));
                   });
    };

    _pending.emplace(id, std::move(f));

    std::uint64_t req = pcie::kSqeBytes + (is_write ? len : 0);
    _txBytes += req;
    _link.send(0, req, [this, io = std::move(io)]() mutable {
        _server.execute(_volume, std::move(io));
    });
    schedule(_ccfg.requestTimeout, [this, id] { onTimeout(id); });
}

void
RemoteNvmeDevice::onResponse(std::uint64_t id, bool ok, sim::Payload data)
{
    auto it = _pending.find(id);
    if (it == _pending.end()) {
        // Abandoned after timeout: the command was retried (or has
        // already failed); drop the late response.
        ++_staleDrops;
        return;
    }
    Flight f = std::move(it->second);
    _pending.erase(it);
    if (!f.isWrite)
        f.data = std::move(data);
    finishFlight(std::move(f), ok);
}

void
RemoteNvmeDevice::onTimeout(std::uint64_t id)
{
    auto it = _pending.find(id);
    if (it == _pending.end())
        return; // Responded in time.
    ++_timeouts;
    Flight f = std::move(it->second);
    _pending.erase(it);
    if (f.attempt > _ccfg.maxRetries) {
        ++_exhausted;
        logWarn("remote request gave up after ", f.attempt,
                " attempts (len=", f.len, ")");
        finishFlight(std::move(f), false);
        return;
    }
    ++_retries;
    ++f.attempt;
    // The retry keeps its window slot; a fresh id fences off the
    // stale response should the original still be in flight.
    sendAttempt(std::move(f));
}

void
RemoteNvmeDevice::finishFlight(Flight f, bool ok)
{
    --_wireInflight;
    pump();
    if (!ok || f.isWrite || f.isFlush || f.len == 0) {
        if (f.dma != kNoDma)
            _dma.release(f.dma);
        _ctrl->complete(f.sqid, f.sqe.cid,
                        ok ? Status::Success : Status::DataTransferError);
        return;
    }
    // Read: scatter the returned payload to the upstream buffers.
    std::uint16_t sqid = f.sqid;
    std::uint16_t cid = f.sqe.cid;
    std::uint32_t dma = f.dma;
    nvme::scatterPayload(*_up, _dma[dma].segs, std::move(f.data),
                         [this, sqid, cid, dma] {
                             _dma.release(dma);
                             _ctrl->complete(sqid, cid, Status::Success);
                         });
}

} // namespace bms::remote
