#include "probe.hh"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <utility>

#include "trace.hh"

namespace perfbench {

using bms::host::BlockRequest;
using bms::sim::Tick;

namespace {

/** Id shared by the spans of one I/O. */
std::uint64_t g_lastIoId = 0;

} // namespace

std::uint64_t
fnvMix(std::uint64_t h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 0x100000001b3ULL;
    }
    return h;
}

std::uint64_t
fnvMix(std::uint64_t h, const std::string &s)
{
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return fnvMix(h, s.size());
}

std::uint64_t
fnvMixDouble(std::uint64_t h, double v)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    return fnvMix(h, bits);
}

std::uint64_t
fingerprintSim(std::uint64_t h, bms::sim::Simulator &sim)
{
    sim.stats().visit([&h](const std::string &name, double v) {
        h = fnvMixDouble(fnvMix(h, name), v);
    });
    h = fnvMix(h, sim.queue().executedCount());
    return fnvMix(h, sim.now());
}

ProbeDevice::ProbeDevice(bms::sim::Simulator &sim,
                         bms::host::BlockDeviceIf &base, IoLog &log,
                         const char *complete_span)
    : _sim(sim), _base(base), _log(log), _completeSpan(complete_span)
{}

void
ProbeDevice::submit(BlockRequest req)
{
    ++_log.submitted;
    std::uint64_t io = ++g_lastIoId;
    Tick submitted = _sim.now();
    BlockRequest::Op op = req.op;
    std::uint64_t offset = req.offset;
    std::uint32_t len = req.len;
    if (op == BlockRequest::Op::Write)
        _log.writeBytes += len;
    req.done = [this, io, submitted, op, offset, len,
                done = std::move(req.done)](bool ok) {
        Tick now = _sim.now();
        Tick lat = now - submitted;
        IoLog &log = _log;
        ++log.completed;
        if (!ok)
            ++log.failed;
        if (lat > log.maxLatency)
            log.maxLatency = lat;
        if (now >= log.winStart && now <= log.winEnd) {
            ++log.windowOps;
            if (op == BlockRequest::Op::Read)
                log.readNs.push_back(lat);
            else if (op == BlockRequest::Op::Write)
                log.writeNs.push_back(lat);
        }
        std::uint64_t h = fnvMix(log.hash, static_cast<std::uint64_t>(op));
        h = fnvMix(fnvMix(h, offset), len);
        log.hash = fnvMix(fnvMix(h, lat), ok ? 1 : 0);
        SpanScope span(_completeSpan, io);
        if (done)
            done(ok);
    };
    SpanScope span("host.submit", io);
    _base.submit(std::move(req));
}

Tick
percentile(const std::vector<Tick> &sorted, double q)
{
    if (sorted.empty())
        return 0;
    auto n = static_cast<double>(sorted.size());
    auto rank = static_cast<std::size_t>(std::ceil(q * n));
    if (rank < 1)
        rank = 1;
    return sorted[rank - 1];
}

std::uint64_t
samplesBeyond(const std::vector<Tick> &sorted, double q)
{
    if (sorted.empty())
        return 0;
    Tick p = percentile(sorted, q);
    std::uint64_t beyond = 0;
    for (auto it = sorted.rbegin(); it != sorted.rend() && *it > p; ++it)
        ++beyond;
    return beyond;
}

std::string
describePercentile(const std::vector<Tick> &sorted, double q)
{
    char buf[128];
    std::snprintf(buf, sizeof buf, "p%g %.3f us (n=%zu, %llu beyond)",
                  q * 100.0, static_cast<double>(percentile(sorted, q)) / 1e3,
                  sorted.size(),
                  static_cast<unsigned long long>(samplesBeyond(sorted, q)));
    return buf;
}

} // namespace perfbench
