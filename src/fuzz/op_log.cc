#include "fuzz/op_log.hh"

#include <utility>

#include "sim/check.hh"

namespace bms::fuzz {

namespace {

/** Pad an operation name to the column width of the I/O lines. */
const char *
opColumn(OpLog::Kind kind)
{
    switch (kind) {
      case OpLog::Kind::Write:
        return " write  blk=";
      case OpLog::Kind::Read:
        return " read   blk=";
      case OpLog::Kind::Trim:
        return " trim   blk=";
      case OpLog::Kind::WriteFailed:
        return " write-FAILED(excused) stamp=";
      case OpLog::Kind::ReadFailed:
        return " read-FAILED(excused) blk=";
      case OpLog::Kind::TrimFailed:
        return " trim-FAILED(excused) blk=";
      case OpLog::Kind::Flush:
        return " flush";
      case OpLog::Kind::Text:
        break;
    }
    return "";
}

} // namespace

OpLog::OpLog(std::size_t capacity)
{
    BMS_ASSERT(capacity > 0, "op log needs a nonzero capacity");
    _ring.resize(capacity);
}

OpLog::Entry &
OpLog::next(sim::Tick tick, Kind kind)
{
    Entry &e = _ring[_next];
    e.tick = tick;
    e.kind = kind;
    _next = (_next + 1) % _ring.size();
    ++_total;
    return e;
}

void
OpLog::record(sim::Tick tick, std::string what)
{
    next(tick, Kind::Text).text = std::move(what);
}

void
OpLog::record(sim::Tick tick, Kind kind, const std::string &object,
              std::uint64_t block, std::uint32_t count, std::uint64_t stamp)
{
    Entry &e = next(tick, kind);
    e.text.assign(object); // reuses the slot's capacity
    e.block = block;
    e.count = count;
    e.stamp = stamp;
}

void
OpLog::dump(std::ostream &os) const
{
    std::size_t retained = _total < _ring.size() ? _total : _ring.size();
    os << "---- fuzz op log (last " << retained << " of " << _total
       << " ops) ----\n";
    // Oldest retained entry: _next when the ring has wrapped, else 0.
    std::size_t start = _total < _ring.size() ? 0 : _next;
    for (std::size_t i = 0; i < retained; ++i) {
        const Entry &e = _ring[(start + i) % _ring.size()];
        os << "  [" << e.tick << "] " << e.text << opColumn(e.kind);
        switch (e.kind) {
          case Kind::Write:
            os << e.block << "+" << e.count << " stamp=" << e.stamp;
            break;
          case Kind::Read:
          case Kind::Trim:
            os << e.block << "+" << e.count;
            break;
          case Kind::WriteFailed:
            os << e.stamp;
            break;
          case Kind::ReadFailed:
          case Kind::TrimFailed:
            os << e.block;
            break;
          case Kind::Text:
          case Kind::Flush:
            break;
        }
        os << "\n";
    }
    os << "---- end op log ----\n";
}

} // namespace bms::fuzz
