/**
 * @file
 * NVMe SSD device model.
 *
 * One PCIe function exposing one NVMe controller with a single
 * namespace spanning the device capacity, a calibrated media timing
 * model, optional functional data storage, and a firmware slot that
 * supports download/commit with a realistic multi-second activation
 * stall (the raw material of the paper's hot-upgrade evaluation).
 *
 * The same object attaches either to a host RootPort (native
 * baseline) or to a BMS-Engine host-adaptor port (BM-Store testbed):
 * it only ever talks to a pcie::PcieUpstreamIf.
 */

#ifndef BMS_SSD_SSD_DEVICE_HH
#define BMS_SSD_SSD_DEVICE_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include <optional>

#include "nvme/controller.hh"
#include "nvme/dma.hh"
#include "nvme/prp.hh"
#include "pcie/device.hh"
#include "sim/simulator.hh"
#include "sim/slot_pool.hh"
#include "sim/sparse_memory.hh"
#include "ssd/hdd_model.hh"
#include "ssd/media_model.hh"
#include "ssd/profile.hh"

namespace bms::ssd {

/**
 * Fault-injection knobs (failure testing; all zero in normal
 * operation). Runtime-mutable through SsdDevice::faults() so torture
 * harnesses can open and close fault windows mid-run.
 */
struct FaultConfig
{
    /** Probability a read hits an unrecoverable media error. */
    double readErrorRate = 0.0;
    /**
     * Probability a write fails with a media error. An injected
     * write failure never reaches the functional data store: the
     * previously stored bytes survive (clean-failure model, which is
     * what lets the data-integrity oracle keep an exact shadow map).
     */
    double writeErrorRate = 0.0;
    /** Probability an I/O command suffers an internal latency spike
     *  (GC stall / retry storm) before being processed. */
    double latencySpikeRate = 0.0;
    /** Duration of one injected latency spike. */
    sim::Tick latencySpikeDelay = sim::milliseconds(2);
};

/**
 * A complete back-end storage endpoint. By default an NVMe SSD; with
 * `hddProfile` set it models a SATA HDD served through the adaptor's
 * SATA personality (§VI-A) — same command interface, spinning-disk
 * media timing.
 */
class SsdDevice : public sim::SimObject, public pcie::PcieDeviceIf
{
  public:
    struct Config
    {
        SsdProfile profile = p4510_2tb();
        /** When set, the device is a SATA HDD (overrides `profile`'s
         *  media timing, capacity, model and firmware strings). */
        std::optional<HddProfile> hddProfile;
        /** Store real data bytes (integrity tests); off for benches. */
        bool functionalData = false;
        /** Initial fault-injection knobs. */
        FaultConfig faults;
    };

    SsdDevice(sim::Simulator &sim, std::string name, Config cfg);

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
    const SsdProfile &profile() const { return _cfg.profile; }
    StorageMediaIf &media() { return *_media; }
    bool isHdd() const { return _cfg.hddProfile.has_value(); }

    /** Current firmware revision string. */
    const std::string &firmwareRev() const;

    /** Number of completed firmware activations. */
    std::uint32_t firmwareActivations() const { return _fwActivations; }

    /** True while a firmware activation stall is in progress. */
    bool upgrading() const { return _upgrading; }

    /** Duration of the most recent firmware activation stall. */
    sim::Tick lastActivationTime() const { return _lastActivation; }

    /** Injected unrecoverable read/write errors reported so far. */
    std::uint64_t mediaErrors() const { return _mediaErrors; }

    /** Injected latency spikes taken so far. */
    std::uint64_t latencySpikes() const { return _latencySpikes; }

    /** Live fault-injection knobs (mutable mid-run). */
    FaultConfig &faults() { return _cfg.faults; }
    const FaultConfig &faults() const { return _cfg.faults; }

    /** @name SMART attributes (NVMe-MI health telemetry). */
    /// @{
    /**
     * Composite temperature in Kelvin: idle floor plus a term driven
     * by recent I/O intensity (bytes moved per unit time).
     */
    std::uint16_t smartTemperatureK() const;

    /** Media wear: percentage of rated write endurance consumed. */
    std::uint8_t smartPercentageUsed() const;

    /** Power-on hours (simulated time). */
    std::uint64_t smartPowerOnHours() const
    {
        return now() / sim::seconds(3600);
    }
    /// @}

    /**
     * Power-cycle the device (hot-plug replacement): controller
     * disabled, contents dropped when @p wipe_data.
     */
    void hardReset(bool wipe_data);

    /** Direct access to stored bytes (test support). */
    sim::SparseMemory &flash() { return _flash; }

  private:
    /** The controller personality of this SSD. */
    class Controller : public nvme::ControllerModel
    {
      public:
        Controller(sim::Simulator &sim, std::string name, Config config,
                   SsdDevice &owner)
            : ControllerModel(sim, std::move(name), config), _owner(owner)
        {}

      protected:
        void
        executeIo(const nvme::Sqe &sqe, std::uint16_t sqid) override
        {
            _owner.executeIo(sqe, sqid);
        }

        void
        executeAdmin(const nvme::Sqe &sqe) override
        {
            _owner.executeAdmin(sqe);
        }

      private:
        SsdDevice &_owner;
    };

    friend class Controller;

    void executeIo(const nvme::Sqe &sqe, std::uint16_t sqid);
    void dispatchIo(const nvme::Sqe &sqe, std::uint16_t sqid);
    void executeAdmin(const nvme::Sqe &sqe);
    void doRead(const nvme::Sqe &sqe, std::uint16_t sqid);
    void doWrite(const nvme::Sqe &sqe, std::uint16_t sqid);
    void doWriteZeroes(const nvme::Sqe &sqe, std::uint16_t sqid);
    void doFlush(const nvme::Sqe &sqe, std::uint16_t sqid);

    bool checkRange(const nvme::Sqe &sqe, std::uint16_t sqid);

    /** One I/O command between its fetch and its completion. */
    struct Cmd
    {
        nvme::Sqe sqe;
        std::uint16_t sqid = 0;
        nvme::DmaContext dma;
    };

    /** Take a command slot for @p sqe; media and DMA completions
     *  carry its index. */
    std::uint32_t startCmd(const nvme::Sqe &sqe, std::uint16_t sqid);
    /** Complete slot @p c's command with @p st and free the slot. */
    void finishCmd(std::uint32_t c, nvme::Status st);
    /** Read data is off the media: move it to the host buffers. */
    void scatterRead(std::uint32_t c);
    /** Write data has arrived: store it and write the media. */
    void commitWrite(std::uint32_t c, sim::Payload data);

    Config _cfg;
    std::unique_ptr<Controller> _ctrl;
    std::unique_ptr<StorageMediaIf> _media;
    pcie::PcieUpstreamIf *_up = nullptr;

    sim::SparseMemory _flash;
    sim::SlotPool<Cmd> _cmds;

    // Firmware state.
    std::string _fwRev;
    std::vector<std::uint8_t> _fwStaging;
    std::uint32_t _fwActivations = 0;
    bool _upgrading = false;
    sim::Tick _lastActivation = 0;
    std::uint64_t _mediaErrors = 0;
    std::uint64_t _latencySpikes = 0;
};

} // namespace bms::ssd

#endif // BMS_SSD_SSD_DEVICE_HH
