/**
 * @file
 * Remote NVMe device — the initiator side of the remote-storage
 * extension. Exposes a standard NVMe controller (one function, one
 * namespace = one exported volume) whose media is a StorageServer
 * across a NetworkLink.
 *
 * Because it implements pcie::PcieDeviceIf and fetches its commands
 * and data through whatever PcieUpstreamIf it is attached to, it can
 * sit (a) in a host slot — a plain NVMe-oF-style initiator — or
 * (b) in a BMS-Engine back-end slot, giving BM-Store tenants remote
 * volumes behind the exact same front-end VFs, LBA mapping and QoS:
 * the paper's §VI-D "add remote storage support to cope with more
 * storage scenarios".
 *
 * The initiator keeps a bounded window of requests on the wire; each
 * request carries a unique id and is covered by a sim-clock timeout.
 * A timed-out request is retried (fresh id) a bounded number of
 * times, then completed with a transfer error — a dead storage node
 * therefore surfaces as command errors, never as a hang. Responses
 * for abandoned ids are dropped (retried writes carry identical
 * payloads, so duplicate execution is harmless).
 */

#ifndef BMS_REMOTE_REMOTE_DEVICE_HH
#define BMS_REMOTE_REMOTE_DEVICE_HH

#include <cstdint>
#include <deque>
#include <memory>
#include <unordered_map>
#include <vector>

#include "nvme/controller.hh"
#include "nvme/dma.hh"
#include "nvme/prp.hh"
#include "pcie/device.hh"
#include "remote/network.hh"
#include "remote/storage_server.hh"
#include "sim/simulator.hh"
#include "sim/slot_pool.hh"

namespace bms::remote {

/** Initiator-side protocol knobs. */
struct RemoteClientConfig
{
    /** Max requests awaiting a response at once; excess queue. */
    int window = 32;
    /**
     * Response deadline per attempt, measured from the moment the
     * request message is handed to the link. Sized so a saturated
     * pipe (a full window of 2 MiB transfers queued on one 2.9 GB/s
     * direction is ~23 ms of serialization) never trips it.
     */
    sim::Tick requestTimeout = sim::milliseconds(250);
    /** Retries after the first attempt before giving up. */
    int maxRetries = 2;
};

/** NVMe front end for one remote volume. */
class RemoteNvmeDevice : public sim::SimObject, public pcie::PcieDeviceIf
{
  public:
    /**
     * @param link network link to the server (direction 0 = toward
     *        the server)
     * @param server the storage target
     * @param volume volume id previously created on the server
     */
    RemoteNvmeDevice(sim::Simulator &sim, std::string name,
                     NetworkLink &link, StorageServer &server, int volume,
                     RemoteClientConfig ccfg = RemoteClientConfig());

    /** @name PcieDeviceIf */
    /// @{
    int functionCount() const override { return 1; }
    void mmioWrite(pcie::FunctionId fn, std::uint64_t offset,
                   std::uint64_t value) override;
    std::uint64_t mmioRead(pcie::FunctionId fn,
                           std::uint64_t offset) override;
    void attached(pcie::PcieUpstreamIf &upstream) override;
    /// @}

    nvme::ControllerModel &controller() { return *_ctrl; }
    const RemoteClientConfig &clientConfig() const { return _ccfg; }

    /** @name Protocol counters (tests, monitor). */
    /// @{
    std::uint64_t ios() const { return _ios; }
    /** Request-payload bytes handed to the link (dir 0). */
    std::uint64_t txBytes() const { return _txBytes; }
    /** Response-payload bytes handed to the link (dir 1). */
    std::uint64_t rxBytes() const { return _rxBytes; }
    std::uint64_t timeouts() const { return _timeouts; }
    std::uint64_t retries() const { return _retries; }
    /** Commands failed after exhausting every retry. */
    std::uint64_t exhausted() const { return _exhausted; }
    /** Responses that arrived after their request was abandoned. */
    std::uint64_t staleDrops() const { return _staleDrops; }
    int wireInflight() const { return _wireInflight; }
    /// @}

  private:
    class Controller : public nvme::ControllerModel
    {
      public:
        Controller(sim::Simulator &sim, std::string name, Config cfg,
                   RemoteNvmeDevice &owner)
            : ControllerModel(sim, std::move(name), cfg), _owner(owner)
        {}

      protected:
        void
        executeIo(const nvme::Sqe &sqe, std::uint16_t sqid) override
        {
            _owner.executeIo(sqe, sqid);
        }

      private:
        RemoteNvmeDevice &_owner;
    };

    friend class Controller;

    static constexpr std::uint32_t kNoDma = ~0u;

    /** One command in flight on (or queued for) the wire. */
    struct Flight
    {
        nvme::Sqe sqe;
        std::uint16_t sqid = 0;
        bool isWrite = false;
        bool isFlush = false;
        std::uint64_t len = 0;
        /** Payload: gathered for writes, returned by the server for
         *  reads. */
        sim::Payload data;
        /** Slot of the upstream DMA state (kept for the read
         *  scatter); kNoDma for a flush. */
        std::uint32_t dma = kNoDma;
        int attempt = 0;
    };

    void executeIo(const nvme::Sqe &sqe, std::uint16_t sqid);
    void enqueue(Flight f);
    void pump();
    void sendAttempt(Flight f);
    void onResponse(std::uint64_t id, bool ok, sim::Payload data);
    void onTimeout(std::uint64_t id);
    void finishFlight(Flight f, bool ok);

    NetworkLink &_link;
    StorageServer &_server;
    int _volume;
    RemoteClientConfig _ccfg;
    std::unique_ptr<Controller> _ctrl;
    pcie::PcieUpstreamIf *_up = nullptr;
    sim::SlotPool<nvme::DmaContext> _dma;

    std::deque<Flight> _sendq;
    std::unordered_map<std::uint64_t, Flight> _pending;
    std::uint64_t _nextReq = 1;
    int _wireInflight = 0;

    std::uint64_t _ios = 0;
    std::uint64_t _txBytes = 0;
    std::uint64_t _rxBytes = 0;
    std::uint64_t _timeouts = 0;
    std::uint64_t _retries = 0;
    std::uint64_t _exhausted = 0;
    std::uint64_t _staleDrops = 0;
};

} // namespace bms::remote

#endif // BMS_REMOTE_REMOTE_DEVICE_HH
