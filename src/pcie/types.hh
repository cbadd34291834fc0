/**
 * @file
 * PCIe model fundamentals: function identities, generation/lane
 * bandwidth, and the functional interfaces the fabric depends on.
 *
 * The BM-Store global-PRP mechanism (paper Fig. 4(b)) encodes a 7-bit
 * PCIe function id into reserved PRP bits, so FunctionId is the load-
 * bearing identity type across the whole model.
 */

#ifndef BMS_PCIE_TYPES_HH
#define BMS_PCIE_TYPES_HH

#include <cstdint>

#include "sim/payload.hh"
#include "sim/types.hh"

namespace bms::pcie {

/** PCIe PF/VF identity; 7 bits per the BM-Store global PRP format. */
using FunctionId = std::uint8_t;

/** BMS-Engine exposes 4 PFs + 124 VFs = 128 functions (paper §IV-E). */
inline constexpr int kMaxFunctions = 128;

/**
 * Effective per-lane Gen3 bandwidth, net of 128b/130b coding and TLP
 * header overhead (~24 B per 256 B payload): ~985 MB/s raw * ~0.89.
 */
inline constexpr double kGen3LaneBytesPerSec = 880e6;

/** Effective bandwidth of a Gen3 link with @p lanes lanes. */
inline constexpr sim::Bandwidth
gen3Lanes(int lanes)
{
    return sim::Bandwidth{kGen3LaneBytesPerSec * lanes};
}

/** @name Sizes of protocol units moved over links. */
/// @{
inline constexpr std::uint32_t kSqeBytes = 64;  ///< NVMe submission entry
inline constexpr std::uint32_t kCqeBytes = 16;  ///< NVMe completion entry
inline constexpr std::uint32_t kPrpEntryBytes = 8;
inline constexpr std::uint32_t kDoorbellBytes = 8;
inline constexpr std::uint32_t kMsixBytes = 16;
/// @}

/**
 * Functional byte-addressable memory. Implemented by the host memory
 * model; also by the BMS-Engine chip memory (global PRP store and
 * migration staging buffers). Structures (rings, PRP lists) move as
 * bytes; data payloads move as page images.
 */
class MemoryIf
{
  public:
    virtual ~MemoryIf() = default;

    /** Copy @p len bytes at @p addr into @p out (must be non-null). */
    virtual void read(std::uint64_t addr, std::uint32_t len,
                      std::uint8_t *out) = 0;

    /** Copy @p len bytes from @p data (non-null) to @p addr. */
    virtual void write(std::uint64_t addr, std::uint32_t len,
                       const std::uint8_t *data) = 0;

    /** Page images of [addr, addr + len) as they are now. */
    virtual sim::Payload readPayload(std::uint64_t addr,
                                     std::uint32_t len) = 0;

    /** Store @p data at @p addr. */
    virtual void writePayload(std::uint64_t addr,
                              const sim::Payload &data) = 0;
};

/** Receiver of MSI-X interrupts (the host interrupt controller). */
class InterruptSinkIf
{
  public:
    virtual ~InterruptSinkIf() = default;

    /** Deliver vector @p vector raised by function @p fn. */
    virtual void raiseInterrupt(FunctionId fn, std::uint16_t vector) = 0;
};

} // namespace bms::pcie

#endif // BMS_PCIE_TYPES_HH
