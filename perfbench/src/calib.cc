#include "calib.hh"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <queue>
#include <unordered_map>
#include <vector>

namespace perfbench {

namespace {

/** The reference job's state, kept across chunks like a live sim. */
struct ReferenceJob
{
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    std::priority_queue<std::uint64_t, std::vector<std::uint64_t>,
                        std::greater<>>
        heap;
    std::unordered_map<std::uint64_t, std::uint64_t> inflight;
    std::vector<std::uint8_t> src = std::vector<std::uint8_t>(1 << 20, 1);
    std::vector<std::uint8_t> dst = std::vector<std::uint8_t>(1 << 20);
    std::uint64_t sink = 0;

    std::uint64_t
    next()
    {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        return x;
    }

    /** Read all of the job's data, so the next chunk finds it cached. */
    void
    touchAll()
    {
        for (std::size_t i = 0; i < src.size(); i += 64)
            sink += src[i] + dst[i];
        for (const auto &kv : inflight)
            sink += kv.second;
    }

    /** Heap, hash-map, copy and allocation work, as in an event loop. */
    void
    step(int n)
    {
        for (int i = 0; i < n; ++i) {
            std::uint64_t v = next();
            heap.push(v >> 20);
            inflight[v & 0x3fff] = v;
            if (heap.size() > 512) {
                sink += heap.top();
                heap.pop();
                auto it = inflight.find(next() & 0x3fff);
                if (it != inflight.end())
                    sink += it->second;
            }
            if (i % 8 == 0) {
                std::size_t off = (v >> 8) % (src.size() - 4096);
                std::memcpy(dst.data() + off, src.data() + off, 4096);
                auto box = std::make_unique<std::array<std::uint64_t, 8>>();
                (*box)[v & 7] = dst[off];
                sink += (*box)[v & 7];
            }
        }
    }
};

ReferenceJob &
job()
{
    static ReferenceJob j;
    return j;
}

/**
 * Nominal host seconds of one reference chunk: a typical value on the
 * 4-vCPU Intel Xeon VM the benchmark was tuned on, so scaled times stay
 * close to raw ones there.
 */
constexpr double kReferenceChunkS = 45e-6;

/**
 * How far the simulator's host time moves, in log terms, per unit move
 * of the reference chunk's time when the host speeds up or slows down.
 * The reference swings further than the simulator does: the log-log
 * slope measured over runs on that VM was 0.5-1.0 from one batch of
 * runs to the next, and 0.6 gave the smallest worst-case spread
 * (README.md, "Host time").
 */
constexpr double kHostElasticity = 0.6;

/** Timed chunks per burst. */
constexpr int kBurstChunks = 15;

double
runChunk()
{
    auto t0 = std::chrono::steady_clock::now();
    job().step(400);
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

/**
 * Run one reference burst: a pass over all of the job's data, then
 * timed chunks. Returns the median host seconds of a timed chunk.
 */
double
runReferenceBurst()
{
    job().touchAll();
    std::array<double, kBurstChunks> s;
    for (double &x : s)
        x = runChunk();
    std::nth_element(s.begin(), s.begin() + kBurstChunks / 2, s.end());
    return s[kBurstChunks / 2];
}

} // namespace

PhaseClock::PhaseClock()
    : _chunkBefore(runReferenceBurst()), _t(std::chrono::steady_clock::now())
{
}

HostTime
PhaseClock::lap()
{
    HostTime l;
    l.raw = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          _t)
                .count();
    double after = runReferenceBurst();
    l.scaled = l.raw * std::pow(kReferenceChunkS /
                                    ((_chunkBefore + after) / 2.0),
                                kHostElasticity);
    _chunkBefore = after;
    _t = std::chrono::steady_clock::now();
    return l;
}

} // namespace perfbench
