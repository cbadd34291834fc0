/**
 * @file
 * Host-time span recorder for the benchmark's traced runs.
 *
 * Spans are recorded only from the benchmark's own code, around the
 * calls it makes into each layer of the simulator (setup, sim.run
 * slices, host.submit, completion callbacks, fleet and console calls).
 * Each span has a name, a start, an end, the span that was open when
 * it began (its parent) and, for per-I/O spans, the I/O's id.
 *
 * Self time — a span's duration minus the part of it covered by its
 * child spans — is folded per span name as spans close, so the table
 * covers every span even when the in-memory event buffer (written out
 * as Chrome trace-event JSON) is capped.
 *
 * With no tracer installed a SpanScope costs one untaken branch and
 * reads no clock, so measuring runs stay free of per-I/O clock reads.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/** Per-name totals over every closed span. */
struct SpanTotals
{
    std::uint64_t count = 0;
    std::uint64_t totalNs = 0;
    std::uint64_t selfNs = 0;
};

class Tracer
{
  public:
    using Clock = std::function<std::uint64_t()>;

    /** @p clock returns host nanoseconds; defaults to steady_clock. */
    explicit Tracer(Clock clock = nullptr,
                    std::size_t max_events = 100000);

    /** Open a span; returns its handle for end(). */
    std::int32_t begin(const char *name, std::uint64_t io = 0);
    /** Close the innermost open span (must be @p handle). */
    void end(std::int32_t handle);

    /** Totals per span name, sorted by name. */
    std::map<std::string, SpanTotals> totals() const;

    /** Spans recorded into the event buffer / dropped past its cap. */
    std::size_t recorded() const { return _events.size(); }
    std::uint64_t dropped() const { return _dropped; }

    /** Write the buffered spans as Chrome trace-event JSON. */
    bool writeChrome(const std::string &path) const;

  private:
    struct Open
    {
        const char *name;
        std::uint64_t start;
        std::uint64_t childNs;
        std::uint64_t io;
        std::int32_t event; ///< index in _events, -1 when dropped
    };
    struct Event
    {
        const char *name;
        std::uint64_t start;
        std::uint64_t end;
        std::int32_t parent; ///< index in _events, -1 at top level
        std::uint64_t io;
    };

    SpanTotals &totalsFor(const char *name);

    Clock _clock;
    std::size_t _maxEvents;
    std::uint64_t _origin = 0;
    std::vector<Open> _stack;
    std::vector<Event> _events;
    std::uint64_t _dropped = 0;
    std::vector<std::pair<const char *, SpanTotals>> _byName;
};

/** The tracer of the current rep, or null when tracing is off. */
Tracer *activeTracer();
void setActiveTracer(Tracer *t);

/** RAII span on the active tracer (no-op when none is installed). */
class SpanScope
{
  public:
    explicit SpanScope(const char *name, std::uint64_t io = 0)
        : _t(activeTracer())
    {
        if (_t != nullptr)
            _h = _t->begin(name, io);
    }
    ~SpanScope()
    {
        if (_t != nullptr)
            _t->end(_h);
    }
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

  private:
    Tracer *_t;
    std::int32_t _h = -1;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
