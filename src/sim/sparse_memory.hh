/**
 * @file
 * Sparse byte-addressable memory in 4 KiB pages. Backs simulated host
 * DRAM, engine chip memory and SSD flash contents, so end-to-end
 * data-integrity tests can move real data while synthetic benchmarks
 * skip allocation entirely (timing-only transfers move no payload and
 * never touch this).
 *
 * A page is absent (never written; reads as zeroes), a repeat-unit
 * image, or real bytes (sim::PageImage). Data payloads move whole
 * aligned pages as images; byte accesses and unaligned payload pieces
 * materialise the pages they touch.
 */

#ifndef BMS_SIM_SPARSE_MEMORY_HH
#define BMS_SIM_SPARSE_MEMORY_HH

#include <array>
#include <cstdint>
#include <cstring>
#include <unordered_map>

#include "sim/check.hh"
#include "sim/payload.hh"

namespace bms::sim {

/** Sparse memory; reads of never-written pages return zeroes. */
class SparseMemory
{
  public:
    static constexpr std::uint64_t kPageBytes = PageImage::kBytes;

    void
    read(std::uint64_t addr, std::uint64_t len, std::uint8_t *out) const
    {
        while (len > 0) {
            std::uint64_t off = addr % kPageBytes;
            std::uint64_t chunk = std::min(len, kPageBytes - off);
            if (const PageImage *img = page(addr - off)) {
                img->read(static_cast<std::uint32_t>(off),
                          static_cast<std::uint32_t>(chunk), out);
            } else {
                std::memset(out, 0, chunk);
            }
            addr += chunk;
            out += chunk;
            len -= chunk;
        }
    }

    void
    write(std::uint64_t addr, std::uint64_t len, const std::uint8_t *data)
    {
        while (len > 0) {
            std::uint64_t off = addr % kPageBytes;
            std::uint64_t chunk = std::min(len, kPageBytes - off);
            if (chunk == kPageBytes) {
                _pages[addr / kPageBytes] = PageImage::fromBytes(data);
            } else {
                _pages[addr / kPageBytes].write(
                    static_cast<std::uint32_t>(off),
                    static_cast<std::uint32_t>(chunk), data);
            }
            addr += chunk;
            data += chunk;
            len -= chunk;
        }
    }

    /** Images of [addr, addr + len) as they are now. */
    Payload
    readPayload(std::uint64_t addr, std::uint32_t len) const
    {
        Payload p;
        std::array<std::uint8_t, kPageBytes> bytes{};
        for (std::uint32_t off = 0; off < len; off += kPageBytes) {
            std::uint32_t n = std::min<std::uint32_t>(kPageBytes, len - off);
            if (addr % kPageBytes == 0) {
                const PageImage *img = page(addr + off);
                p.push(img ? *img : PageImage{}, n);
                continue;
            }
            read(addr + off, n, bytes.data());
            p.push(PageImage::fromBytes(bytes.data()), n);
        }
        return p;
    }

    /** Store @p data at @p addr: whole aligned pages take the images,
     *  any other piece is written as exact bytes. */
    void
    writePayload(std::uint64_t addr, const Payload &data)
    {
        std::array<std::uint8_t, kPageBytes> bytes;
        std::uint32_t off = 0;
        for (const PageImage &img : data.pages()) {
            std::uint32_t n =
                std::min<std::uint32_t>(kPageBytes, data.size() - off);
            if ((addr + off) % kPageBytes == 0 && n == kPageBytes) {
                _pages[(addr + off) / kPageBytes] = img;
            } else {
                img.read(0, n, bytes.data());
                write(addr + off, n, bytes.data());
            }
            off += n;
        }
    }

    /** The page at page-aligned @p addr; null while never written. */
    const PageImage *
    page(std::uint64_t addr) const
    {
        BMS_ASSERT_EQ(addr % kPageBytes, 0u, "page lookup off a page");
        auto it = _pages.find(addr / kPageBytes);
        return it == _pages.end() ? nullptr : &it->second;
    }

    /** Replace the page at page-aligned @p addr with @p img. */
    void
    writePage(std::uint64_t addr, PageImage img)
    {
        BMS_ASSERT_EQ(addr % kPageBytes, 0u, "page write off a page");
        _pages[addr / kPageBytes] = std::move(img);
    }

    /** Drop all contents (e.g., a replaced hot-plug disk). */
    void clear() { _pages.clear(); }

    /**
     * Drop whole pages inside [addr, addr+len) — subsequent reads
     * return zeroes (TRIM / zone reset). Partial pages at the edges
     * are zero-filled rather than dropped.
     */
    void
    clearRange(std::uint64_t addr, std::uint64_t len)
    {
        static constexpr std::array<std::uint8_t, kPageBytes> kZeroes{};
        while (len > 0) {
            std::uint64_t page = addr / kPageBytes;
            std::uint64_t off = addr % kPageBytes;
            std::uint64_t chunk = std::min(len, kPageBytes - off);
            auto it = _pages.find(page);
            if (it != _pages.end()) {
                if (chunk == kPageBytes) {
                    _pages.erase(it);
                } else {
                    it->second.write(static_cast<std::uint32_t>(off),
                                     static_cast<std::uint32_t>(chunk),
                                     kZeroes.data());
                }
            }
            addr += chunk;
            len -= chunk;
        }
    }

    /** Pages written and not dropped since, whatever their state. */
    std::size_t allocatedPages() const { return _pages.size(); }

  private:
    std::unordered_map<std::uint64_t, PageImage> _pages;
};

} // namespace bms::sim

#endif // BMS_SIM_SPARSE_MEMORY_HH
