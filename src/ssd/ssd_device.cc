#include "ssd/ssd_device.hh"

#include <utility>

#include "nvme/dma.hh"

namespace bms::ssd {

using nvme::AdminOpcode;
using nvme::IoOpcode;
using nvme::Sqe;
using nvme::Status;

SsdDevice::SsdDevice(sim::Simulator &sim, std::string name, Config cfg)
    : SimObject(sim, name), _cfg(cfg), _fwRev(cfg.profile.firmwareRev)
{
    nvme::ControllerModel::Config ctrl_cfg;
    ctrl_cfg.fn = 0;
    std::uint64_t capacity;
    if (_cfg.hddProfile) {
        ctrl_cfg.model = _cfg.hddProfile->model;
        _fwRev = _cfg.hddProfile->firmwareRev;
        capacity = _cfg.hddProfile->capacityBytes;
    } else {
        ctrl_cfg.model = _cfg.profile.model;
        capacity = _cfg.profile.capacityBytes;
    }
    _ctrl = std::make_unique<Controller>(sim, name + ".ctrl", ctrl_cfg,
                                         *this);
    if (_cfg.hddProfile) {
        _media = std::make_unique<HddMediaModel>(sim, name + ".media",
                                                 *_cfg.hddProfile);
    } else {
        _media = std::make_unique<MediaModel>(sim, name + ".media",
                                              _cfg.profile);
    }
    nvme::NamespaceInfo ns;
    ns.nsid = 1;
    ns.sizeBlocks = capacity / nvme::kBlockSize;
    _ctrl->addNamespace(ns);
}

void
SsdDevice::mmioWrite(pcie::FunctionId fn, std::uint64_t offset,
                     std::uint64_t value)
{
    BMS_ASSERT_EQ(fn, 0, "back-end SSD is single-function");
    _ctrl->regWrite(offset, value);
}

std::uint64_t
SsdDevice::mmioRead(pcie::FunctionId fn, std::uint64_t offset)
{
    BMS_ASSERT_EQ(fn, 0, "back-end SSD is single-function");
    return _ctrl->regRead(offset);
}

void
SsdDevice::attached(pcie::PcieUpstreamIf &upstream)
{
    _up = &upstream;
    _ctrl->setUpstream(&upstream);
}

const std::string &
SsdDevice::firmwareRev() const
{
    return _fwRev;
}

std::uint16_t
SsdDevice::smartTemperatureK() const
{
    // 35 C idle floor; up to ~+35 C at full-interface load.
    double bytes = static_cast<double>(_ctrl->readBytes() +
                                       _ctrl->writeBytes());
    double secs = sim::toSec(now());
    double load = secs > 0.0 ? bytes / secs / 3.3e9 : 0.0; // 0..~1
    if (load > 1.0)
        load = 1.0;
    return static_cast<std::uint16_t>(273 + 35 + load * 35.0);
}

std::uint8_t
SsdDevice::smartPercentageUsed() const
{
    // Rated endurance for the P4510 2 TB class: ~2.6 PBW.
    double rated = 2.6e15;
    double used = static_cast<double>(_ctrl->writeBytes()) / rated * 100.0;
    if (used > 255.0)
        used = 255.0;
    return static_cast<std::uint8_t>(used);
}

void
SsdDevice::hardReset(bool wipe_data)
{
    _ctrl->regWrite(nvme::kRegCc, 0); // drop CC.EN → full disable
    if (wipe_data)
        _flash.clear();
}

bool
SsdDevice::checkRange(const Sqe &sqe, std::uint16_t sqid)
{
    const nvme::NamespaceInfo *ns = _ctrl->findNamespace(sqe.nsid);
    if (!ns) {
        _ctrl->complete(sqid, sqe.cid, Status::InvalidNamespace);
        return false;
    }
    if (sqe.slba() + sqe.nlb() > ns->sizeBlocks) {
        _ctrl->complete(sqid, sqe.cid, Status::LbaOutOfRange);
        return false;
    }
    return true;
}

void
SsdDevice::executeIo(const Sqe &sqe, std::uint16_t sqid)
{
    // Injected latency spike: the command sits inside the drive (GC
    // stall, internal retry) before normal processing begins.
    if (_cfg.faults.latencySpikeRate > 0.0 &&
        sim().rng().chance(_cfg.faults.latencySpikeRate)) {
        ++_latencySpikes;
        schedule(_cfg.faults.latencySpikeDelay,
                 [this, sqe, sqid] { dispatchIo(sqe, sqid); });
        return;
    }
    dispatchIo(sqe, sqid);
}

void
SsdDevice::dispatchIo(const Sqe &sqe, std::uint16_t sqid)
{
    switch (static_cast<IoOpcode>(sqe.opcode)) {
      case IoOpcode::Read:
        doRead(sqe, sqid);
        return;
      case IoOpcode::Write:
        doWrite(sqe, sqid);
        return;
      case IoOpcode::Flush:
        doFlush(sqe, sqid);
        return;
      case IoOpcode::WriteZeroes:
        doWriteZeroes(sqe, sqid);
        return;
      default:
        _ctrl->complete(sqid, sqe.cid, Status::InvalidOpcode);
        return;
    }
}

std::uint32_t
SsdDevice::startCmd(const Sqe &sqe, std::uint16_t sqid)
{
    const std::uint32_t c = _cmds.acquire();
    Cmd &cmd = _cmds[c];
    cmd.sqe = sqe;
    cmd.sqid = sqid;
    return c;
}

void
SsdDevice::finishCmd(std::uint32_t c, Status st)
{
    const Cmd &cmd = _cmds[c];
    const std::uint16_t sqid = cmd.sqid;
    const std::uint16_t cid = cmd.sqe.cid;
    _cmds.release(c);
    _ctrl->complete(sqid, cid, st);
}

void
SsdDevice::doRead(const Sqe &sqe, std::uint16_t sqid)
{
    if (!checkRange(sqe, sqid))
        return;
    const std::uint32_t c = startCmd(sqe, sqid);
    if (_cfg.faults.readErrorRate > 0.0 &&
        sim().rng().chance(_cfg.faults.readErrorRate)) {
        // Unrecoverable media error: reported after a full media
        // access attempt, as real drives do.
        _media->read(sqe.slba() * nvme::kBlockSize, sqe.dataBytes(),
                     [this, c] {
                         ++_mediaErrors;
                         finishCmd(c, Status::DataTransferError);
                     });
        return;
    }
    // Media access first; then the data is DMA'd to the host buffers.
    _media->read(sqe.slba() * nvme::kBlockSize, sqe.dataBytes(),
                 [this, c] {
                     Cmd &cmd = _cmds[c];
                     nvme::resolveSegments(*_up, cmd.sqe, cmd.dma,
                                           [this, c] { scatterRead(c); });
                 });
}

void
SsdDevice::scatterRead(std::uint32_t c)
{
    Cmd &cmd = _cmds[c];
    // The flash image is taken when the DMA starts.
    sim::Payload data;
    if (_cfg.functionalData)
        data = _flash.readPayload(
            cmd.sqe.slba() * nvme::kBlockSize,
            static_cast<std::uint32_t>(cmd.sqe.dataBytes()));
    nvme::scatterPayload(*_up, cmd.dma.segs, std::move(data),
                         [this, c] { finishCmd(c, Status::Success); });
}

void
SsdDevice::doWrite(const Sqe &sqe, std::uint16_t sqid)
{
    if (!checkRange(sqe, sqid))
        return;
    const std::uint32_t c = startCmd(sqe, sqid);
    if (_cfg.faults.writeErrorRate > 0.0 &&
        sim().rng().chance(_cfg.faults.writeErrorRate)) {
        // Clean write failure: a full media access is attempted but
        // the stored bytes are left untouched (see FaultConfig).
        _media->write(sqe.slba() * nvme::kBlockSize, sqe.dataBytes(),
                      [this, c] {
                          ++_mediaErrors;
                          finishCmd(c, Status::DataTransferError);
                      });
        return;
    }
    Cmd &cmd = _cmds[c];
    nvme::resolveSegments(*_up, cmd.sqe, cmd.dma, [this, c] {
        nvme::gatherPayload(*_up, _cmds[c].dma, _cfg.functionalData,
                            [this, c](sim::Payload data) {
                                commitWrite(c, std::move(data));
                            });
    });
}

void
SsdDevice::commitWrite(std::uint32_t c, sim::Payload data)
{
    const Sqe &sqe = _cmds[c].sqe;
    std::uint64_t media_off = sqe.slba() * nvme::kBlockSize;
    if (_cfg.functionalData)
        _flash.writePayload(media_off, data);
    _media->write(media_off, sqe.dataBytes(),
                  [this, c] { finishCmd(c, Status::Success); });
}

void
SsdDevice::doWriteZeroes(const Sqe &sqe, std::uint16_t sqid)
{
    if (!checkRange(sqe, sqid))
        return;
    // FTL unmap: mark the range deallocated so reads return zeroes.
    // No data moves over the interface or to the media — the cost is
    // a mapping-table update, modelled with flush latency. Not subject
    // to write-error injection: the zero guarantee backing thin reads
    // must be unconditional (a real drive retries unmap internally).
    std::uint64_t off = sqe.slba() * nvme::kBlockSize;
    std::uint64_t len = sqe.dataBytes();
    if (_cfg.functionalData)
        _flash.clearRange(off, len);
    const std::uint32_t c = startCmd(sqe, sqid);
    _media->flush([this, c] { finishCmd(c, Status::Success); });
}

void
SsdDevice::doFlush(const Sqe &sqe, std::uint16_t sqid)
{
    const std::uint32_t c = startCmd(sqe, sqid);
    _media->flush([this, c] { finishCmd(c, Status::Success); });
}

void
SsdDevice::executeAdmin(const Sqe &sqe)
{
    switch (static_cast<AdminOpcode>(sqe.opcode)) {
      case AdminOpcode::FirmwareDownload: {
        // cdw10 NUMD (dwords - 1); we stage opaque bytes.
        std::uint32_t bytes = ((sqe.cdw10 & 0xffff) + 1) * 4;
        _fwStaging.resize(_fwStaging.size() + bytes);
        _ctrl->complete(0, sqe.cid, Status::Success);
        return;
      }
      case AdminOpcode::FirmwareCommit: {
        if (_upgrading) {
            _ctrl->complete(0, sqe.cid, Status::NamespaceNotReady);
            return;
        }
        // Activation stalls the device: no new command fetching until
        // the new image boots. Inflight I/O has already completed by
        // the time the BMS hot-upgrade flow issues the commit.
        _upgrading = true;
        _ctrl->pauseFetch();
        const auto &p = _cfg.profile;
        sim::Tick stall = static_cast<sim::Tick>(sim().rng().uniformInt(
            p.fwActivateMin, p.fwActivateMax));
        _lastActivation = stall;
        logInfo("firmware activation, stall ", sim::toMs(stall), " ms");
        schedule(stall, [this, sqe] {
            _upgrading = false;
            ++_fwActivations;
            _fwRev = "VDV10" + std::to_string(131 + _fwActivations);
            _fwStaging.clear();
            _ctrl->resumeFetch();
            _ctrl->complete(0, sqe.cid, Status::Success);
        });
        return;
      }
      case AdminOpcode::GetLogPage: {
        // SMART / health page: zero-filled placeholder payload.
        auto data =
            std::make_shared<std::vector<std::uint8_t>>(nvme::kPageSize, 0);
        std::uint16_t cid = sqe.cid;
        _ctrl->dmaToHost(sqe, data->data(), nvme::kPageSize,
                         [this, cid, data] {
                             _ctrl->complete(0, cid, Status::Success);
                         });
        return;
      }
      default:
        _ctrl->complete(0, sqe.cid, Status::InvalidOpcode);
        return;
    }
}

} // namespace bms::ssd
