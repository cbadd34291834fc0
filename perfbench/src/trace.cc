#include "trace.hh"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace perfbench {

namespace {

Tracer *g_active = nullptr;

std::uint64_t
steadyNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

} // namespace

Tracer *
activeTracer()
{
    return g_active;
}

void
setActiveTracer(Tracer *t)
{
    g_active = t;
}

Tracer::Tracer(Clock clock, std::size_t max_events)
    : _clock(clock ? std::move(clock) : Clock(steadyNs)),
      _maxEvents(max_events)
{
    _origin = _clock();
}

std::int32_t
Tracer::begin(const char *name, std::uint64_t io)
{
    std::int32_t event = -1;
    std::uint64_t now = _clock();
    if (_events.size() < _maxEvents) {
        std::int32_t parent = _stack.empty() ? -1 : _stack.back().event;
        event = static_cast<std::int32_t>(_events.size());
        _events.push_back(Event{name, now, now, parent, io});
    } else {
        ++_dropped;
    }
    _stack.push_back(Open{name, now, 0, io, event});
    return static_cast<std::int32_t>(_stack.size() - 1);
}

void
Tracer::end(std::int32_t handle)
{
    if (_stack.empty() ||
        handle != static_cast<std::int32_t>(_stack.size() - 1)) {
        std::fprintf(stderr, "perfbench: spans closed out of order\n");
        std::abort();
    }
    std::uint64_t now = _clock();
    Open o = _stack.back();
    _stack.pop_back();
    std::uint64_t dur = now - o.start;
    SpanTotals &t = totalsFor(o.name);
    ++t.count;
    t.totalNs += dur;
    t.selfNs += dur - o.childNs;
    if (!_stack.empty())
        _stack.back().childNs += dur;
    if (o.event >= 0)
        _events[static_cast<std::size_t>(o.event)].end = now;
}

SpanTotals &
Tracer::totalsFor(const char *name)
{
    // Span names are string literals: compare pointers first, so the
    // per-span cost stays a short scan over a handful of names.
    for (auto &[n, t] : _byName) {
        if (n == name || std::strcmp(n, name) == 0)
            return t;
    }
    _byName.emplace_back(name, SpanTotals());
    return _byName.back().second;
}

std::map<std::string, SpanTotals>
Tracer::totals() const
{
    std::map<std::string, SpanTotals> out;
    for (const auto &[n, t] : _byName)
        out[n] = t;
    return out;
}

bool
Tracer::writeChrome(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    std::fprintf(f, "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n");
    for (std::size_t i = 0; i < _events.size(); ++i) {
        const Event &e = _events[i];
        std::fprintf(f,
                     "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                     "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                     "\"args\": {\"id\": %zu, \"parent\": %d, "
                     "\"io\": %llu}}%s\n",
                     e.name, static_cast<double>(e.start - _origin) / 1e3,
                     static_cast<double>(e.end - e.start) / 1e3, i,
                     e.parent, static_cast<unsigned long long>(e.io),
                     i + 1 < _events.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
}

} // namespace perfbench
