/**
 * @file
 * Bounded operation trace for the simulation fuzzer.
 *
 * Every oracle I/O, fault-window transition, and control-plane
 * operation appends one entry to a fixed-size ring. When the oracle
 * (or any invariant) trips, the ring holds the last N events leading
 * up to the failure — enough context to read the interleaving that
 * broke, without unbounded memory during long seed sweeps.
 *
 * Oracle I/Os are recorded as typed fields and formatted only by
 * dump(), so the per-I/O cost is a few stores; control-plane events
 * carry their own text.
 */

#ifndef BMS_FUZZ_OP_LOG_HH
#define BMS_FUZZ_OP_LOG_HH

#include <cstddef>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace bms::fuzz {

/** Fixed-capacity ring of the most recent fuzzer events. */
class OpLog
{
  public:
    /** What a typed entry records. */
    enum class Kind : std::uint8_t
    {
        Text,
        Write,
        WriteFailed,
        Read,
        ReadFailed,
        Trim,
        TrimFailed,
        Flush,
    };

    explicit OpLog(std::size_t capacity = 256);

    /** Append one free-text event (overwrites the oldest once full). */
    void record(sim::Tick tick, std::string what);

    /** Append one oracle I/O of @p object on blocks
     *  [block, block + count) carrying @p stamp. */
    void record(sim::Tick tick, Kind kind, const std::string &object,
                std::uint64_t block = 0, std::uint32_t count = 0,
                std::uint64_t stamp = 0);

    /** Print the retained events, oldest first. */
    void dump(std::ostream &os) const;

    /** Total events ever recorded (not just retained). */
    std::size_t recorded() const { return _total; }

    std::size_t capacity() const { return _ring.size(); }

  private:
    struct Entry
    {
        sim::Tick tick = 0;
        Kind kind = Kind::Text;
        /** The event text (Text) or the I/O's object name. */
        std::string text;
        std::uint64_t block = 0;
        std::uint32_t count = 0;
        std::uint64_t stamp = 0;
    };

    Entry &next(sim::Tick tick, Kind kind);

    std::vector<Entry> _ring;
    std::size_t _next = 0;
    std::size_t _total = 0;
};

} // namespace bms::fuzz

#endif // BMS_FUZZ_OP_LOG_HH
