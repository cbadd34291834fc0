/**
 * @file
 * Data payloads as 4 KiB page images.
 *
 * Functional data moves through the simulator as page images. A
 * PageImage is either a 32-byte unit repeated across the page (what
 * the fuzz oracle writes, and what an all-zero page is) or 4 KiB of
 * real bytes. A Payload is a DMA transfer's data: `size()` bytes
 * described by a run of images, image i covering payload bytes
 * [i * 4096, (i + 1) * 4096). Copying a repeat image costs 32 bytes;
 * copying a byte image copies its 4 KiB.
 *
 * sim::SparseMemory keeps each page in one of three states: absent
 * (reads as zeroes), repeat unit, real bytes. Whole, aligned
 * pages travel as images; any sub-page or unaligned piece is
 * materialised as exact bytes (DESIGN.md, "Payload representation").
 */

#ifndef BMS_SIM_PAYLOAD_HH
#define BMS_SIM_PAYLOAD_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "sim/check.hh"

namespace bms::sim {

/** Contents of one 4 KiB page: a repeated 32-byte unit or real bytes. */
class PageImage
{
  public:
    static constexpr std::uint32_t kBytes = 4096;
    static constexpr std::uint32_t kUnitBytes = 32;
    using Unit = std::array<std::uint8_t, kUnitBytes>;

    /** An all-zero page (the zero unit). */
    PageImage() = default;

    /** @p unit repeated kBytes / kUnitBytes times. */
    explicit PageImage(const Unit &unit) : _unit(unit) {}

    /** A byte page copied from @p page (kBytes bytes). */
    static PageImage
    fromBytes(const std::uint8_t *page)
    {
        PageImage img;
        img._bytes = std::make_unique<Bytes>();
        std::memcpy(img._bytes->data(), page, kBytes);
        return img;
    }

    PageImage(const PageImage &o)
        : _unit(o._unit),
          _bytes(o._bytes ? std::make_unique<Bytes>(*o._bytes) : nullptr)
    {}

    PageImage &
    operator=(const PageImage &o)
    {
        if (this != &o)
            *this = PageImage(o);
        return *this;
    }

    PageImage(PageImage &&) noexcept = default;
    PageImage &operator=(PageImage &&) noexcept = default;

    /** True for a repeat-unit page; false once it holds real bytes. */
    bool repeating() const { return !_bytes; }

    /** The repeat unit (meaningful only while repeating()). */
    const Unit &unit() const { return _unit; }

    /** The page's bytes (only when !repeating()). */
    const std::uint8_t *bytes() const { return _bytes->data(); }

    /** Expand bytes [off, off + len) of the page into @p out. */
    void
    read(std::uint32_t off, std::uint32_t len, std::uint8_t *out) const
    {
        if (_bytes) {
            std::memcpy(out, _bytes->data() + off, len);
            return;
        }
        while (len > 0) {
            std::uint32_t u = off % kUnitBytes;
            std::uint32_t n = std::min(len, kUnitBytes - u);
            std::memcpy(out, _unit.data() + u, n);
            out += n;
            off += n;
            len -= n;
        }
    }

    /** Overwrite bytes [off, off + len); a repeat page is first
     *  materialised, so the rest of it keeps its exact contents. */
    void
    write(std::uint32_t off, std::uint32_t len, const std::uint8_t *data)
    {
        if (!_bytes) {
            auto bytes = std::make_unique<Bytes>();
            if (len != kBytes)
                read(0, kBytes, bytes->data());
            _bytes = std::move(bytes);
        }
        std::memcpy(_bytes->data() + off, data, len);
    }

  private:
    using Bytes = std::array<std::uint8_t, kBytes>;

    Unit _unit{};
    std::unique_ptr<Bytes> _bytes;
};

/** A DMA data payload: size() bytes as a run of page images. */
class Payload
{
  public:
    static constexpr std::uint32_t kPageBytes = PageImage::kBytes;

    Payload() = default;

    /** @p len zero bytes. */
    static Payload
    zeros(std::uint32_t len)
    {
        Payload p;
        for (std::uint32_t off = 0; off < len; off += kPageBytes)
            p.push(PageImage{}, std::min(kPageBytes, len - off));
        return p;
    }

    /** Byte images holding a copy of @p data [0, len). */
    static Payload
    fromBytes(const std::uint8_t *data, std::uint32_t len)
    {
        Payload p;
        for (std::uint32_t off = 0; off < len; off += kPageBytes) {
            std::uint32_t n = std::min(kPageBytes, len - off);
            if (n == kPageBytes) {
                p.push(PageImage::fromBytes(data + off), n);
                continue;
            }
            std::array<std::uint8_t, kPageBytes> tail{};
            std::memcpy(tail.data(), data + off, n);
            p.push(PageImage::fromBytes(tail.data()), n);
        }
        return p;
    }

    /** Payload bytes. An empty payload moves no data (timing only). */
    std::uint32_t size() const { return _len; }
    bool empty() const { return _len == 0; }

    /** Image i covers bytes [i * 4096, min(size(), (i + 1) * 4096)). */
    const std::vector<PageImage> &pages() const { return _pages; }

    /** Append @p img covering the next @p bytes (at most a page);
     *  the payload must end on a page boundary. */
    void
    push(PageImage img, std::uint32_t bytes)
    {
        BMS_ASSERT(_len % kPageBytes == 0 && bytes > 0 &&
                       bytes <= kPageBytes,
                   "payload image pushed off the page grid: size=", _len,
                   " bytes=", bytes);
        _pages.push_back(std::move(img));
        _len += bytes;
    }

    /** Concatenate @p tail after the current bytes. */
    void
    append(Payload tail)
    {
        if (_len % kPageBytes == 0) {
            for (PageImage &img : tail._pages)
                _pages.push_back(std::move(img));
            _len += tail._len;
            return;
        }
        std::vector<std::uint8_t> bytes(_len + tail._len);
        read(0, _len, bytes.data());
        tail.read(0, tail._len, bytes.data() + _len);
        *this = fromBytes(bytes.data(), static_cast<std::uint32_t>(
                                            bytes.size()));
    }

    /** Expand bytes [off, off + len) into @p out. */
    void
    read(std::uint32_t off, std::uint32_t len, std::uint8_t *out) const
    {
        BMS_ASSERT_LE(off + len, _len, "payload read past its end");
        while (len > 0) {
            std::uint32_t in = off % kPageBytes;
            std::uint32_t n = std::min(len, kPageBytes - in);
            _pages[off / kPageBytes].read(in, n, out);
            out += n;
            off += n;
            len -= n;
        }
    }

    /** Bytes [off, off + len) as a payload of their own: image copies
     *  when @p off is page aligned, materialised bytes otherwise. */
    Payload
    slice(std::uint32_t off, std::uint32_t len) const
    {
        BMS_ASSERT_LE(off + len, _len, "payload slice past its end");
        if (off % kPageBytes != 0) {
            std::vector<std::uint8_t> bytes(len);
            read(off, len, bytes.data());
            return fromBytes(bytes.data(), len);
        }
        Payload p;
        for (std::uint32_t done = 0; done < len; done += kPageBytes)
            p.push(_pages[(off + done) / kPageBytes],
                   std::min(kPageBytes, len - done));
        return p;
    }

  private:
    std::vector<PageImage> _pages;
    std::uint32_t _len = 0;
};

} // namespace bms::sim

#endif // BMS_SIM_PAYLOAD_HH
