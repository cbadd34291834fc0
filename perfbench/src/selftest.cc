/**
 * @file
 * Self-tests of the benchmark's own code; run.py runs them before
 * every measurement and refuses to measure if one fails.
 *
 *  1. ProbeDevice passes requests and completions through unchanged,
 *     and a fio run's modeled results (fingerprint) are identical
 *     with and without it.
 *  2. Span self time is right for nested spans.
 *  3. Percentiles are printed with their sample counts.
 */

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "harness/testbeds.hh"
#include "probe.hh"
#include "trace.hh"
#include "workload/fio.hh"

using namespace bms;
using namespace perfbench;

namespace {

int g_failures = 0;

void
expect(bool ok, const std::string &what)
{
    if (!ok) {
        ++g_failures;
        std::fprintf(stderr, "selftest FAILED: %s\n", what.c_str());
    }
}

/** Completes each request after a fixed delay; fails every third. */
class FakeDevice : public host::BlockDeviceIf
{
  public:
    explicit FakeDevice(sim::Simulator &sim) : _sim(sim) {}

    void
    submit(host::BlockRequest req) override
    {
        seen.push_back(req);
        bool ok = (req.offset / 4096) % 3 != 0;
        auto done = std::move(req.done);
        _sim.scheduleAfter(kDelay, [done, ok] { done(ok); });
    }

    std::uint64_t capacityBytes() const override { return 1 << 20; }

    static constexpr sim::Tick kDelay = 1234;
    std::vector<host::BlockRequest> seen;

  private:
    sim::Simulator &_sim;
};

void
testPassThrough()
{
    sim::Simulator sim(7);
    FakeDevice fake(sim);
    IoLog log;
    ProbeDevice probe(sim, fake, log, "workload.complete");
    expect(probe.capacityBytes() == fake.capacityBytes(),
           "capacity passes through");
    std::vector<int> results(6, -1);
    for (int i = 0; i < 6; ++i) {
        host::BlockRequest req;
        req.op = i % 2 ? host::BlockRequest::Op::Write
                       : host::BlockRequest::Op::Read;
        req.offset = static_cast<std::uint64_t>(i) * 4096;
        req.len = 4096 * static_cast<std::uint32_t>(i + 1);
        req.dataAddr = 0x1000 + static_cast<std::uint64_t>(i);
        req.queueHint = i;
        req.done = [&results, i](bool ok) { results[i] = ok ? 1 : 0; };
        probe.submit(std::move(req));
    }
    sim.runAll();
    expect(fake.seen.size() == 6, "every request reaches the device");
    for (std::size_t i = 0; i < fake.seen.size(); ++i) {
        const host::BlockRequest &r = fake.seen[i];
        expect(r.op == (i % 2 ? host::BlockRequest::Op::Write
                              : host::BlockRequest::Op::Read) &&
                   r.offset == i * 4096 && r.len == 4096 * (i + 1) &&
                   r.dataAddr == 0x1000 + i &&
                   r.queueHint == static_cast<int>(i),
               "request " + std::to_string(i) + " forwarded unchanged");
        expect(results[i] == ((i % 3) != 0 ? 1 : 0),
               "completion status " + std::to_string(i) + " unchanged");
    }
    expect(log.submitted == 6 && log.completed == 6 && log.failed == 2,
           "probe counts submissions, completions and failures");
    expect(log.maxLatency == FakeDevice::kDelay,
           "probe latency is submit-to-complete simulated time");
    expect(log.readNs.size() == 3 && log.writeNs.size() == 3,
           "probe splits latencies by op");
}

/** Fingerprint of a short mixed fio run, optionally behind a probe. */
std::uint64_t
fioFingerprint(bool with_probe)
{
    harness::TestbedConfig cfg;
    cfg.seed = 11;
    harness::BmStoreTestbed bed(cfg);
    host::NvmeDriver &drv = bed.attachTenant(0, sim::gib(8));
    IoLog log;
    ProbeDevice probe(bed.sim(), drv, log, "workload.complete");
    workload::FioJobSpec spec;
    spec.pattern = workload::FioPattern::RandRw;
    spec.readRatio = 0.5;
    spec.iodepth = 4;
    spec.numjobs = 2;
    spec.rampTime = sim::milliseconds(1);
    spec.runTime = sim::milliseconds(20);
    host::BlockDeviceIf &dev =
        with_probe ? static_cast<host::BlockDeviceIf &>(probe) : drv;
    auto *runner =
        bed.sim().make<workload::FioRunner>(bed.sim(), "fio.t", dev, spec);
    runner->start();
    while (!runner->finished())
        bed.sim().runUntil(bed.sim().now() + sim::milliseconds(10));
    const workload::FioResult &res = runner->result();
    std::uint64_t h = fingerprintSim(0xcbf29ce484222325ULL, bed.sim());
    h = fnvMix(fnvMix(h, res.completed), res.latency.p999());
    h = fnvMixDouble(fnvMixDouble(h, res.iops), res.latency.mean());
    if (with_probe)
        expect(log.completed > 0, "probed run recorded completions");
    return h;
}

void
testFingerprintUnchanged()
{
    expect(fioFingerprint(false) == fioFingerprint(true),
           "fingerprint equal with and without the probe");
}

void
testSelfTime()
{
    std::uint64_t now = 0;
    Tracer t([&now] { return now; });
    // A[0,100) holds B[10,40) (which holds C[20,30)) and D[50,60).
    auto a = t.begin("A");
    now = 10;
    auto b = t.begin("B");
    now = 20;
    auto c = t.begin("C");
    now = 30;
    t.end(c);
    now = 40;
    t.end(b);
    now = 50;
    auto d = t.begin("D");
    now = 60;
    t.end(d);
    now = 100;
    t.end(a);
    auto totals = t.totals();
    expect(totals["A"].totalNs == 100 && totals["A"].selfNs == 60,
           "outer span self time excludes both children");
    expect(totals["B"].totalNs == 30 && totals["B"].selfNs == 20,
           "middle span self time excludes its child");
    expect(totals["C"].selfNs == 10 && totals["D"].selfNs == 10,
           "leaf spans keep their whole duration");
    expect(t.recorded() == 4 && t.dropped() == 0, "every span buffered");

    // Past the buffer cap spans still count toward self time.
    Tracer capped([&now] { return now; }, 1);
    now = 0;
    auto outer = capped.begin("outer");
    now = 5;
    auto inner = capped.begin("inner");
    now = 7;
    capped.end(inner);
    now = 10;
    capped.end(outer);
    expect(capped.recorded() == 1 && capped.dropped() == 1,
           "buffer cap drops events");
    expect(capped.totals()["outer"].selfNs == 8,
           "dropped child still subtracted from parent self time");
}

void
testPercentiles()
{
    std::vector<sim::Tick> v;
    for (sim::Tick i = 1; i <= 1000; ++i)
        v.push_back(i * 1000);
    expect(percentile(v, 0.5) == 500000, "p50 nearest rank");
    expect(percentile(v, 0.999) == 999000, "p999 nearest rank");
    expect(samplesBeyond(v, 0.999) == 1, "one sample beyond p999");
    std::string s = describePercentile(v, 0.5);
    expect(s.find("n=1000") != std::string::npos &&
               s.find("500 beyond") != std::string::npos &&
               s.find("500.000 us") != std::string::npos,
           "percentile printed with its sample count: " + s);
    expect(percentile({}, 0.5) == 0 &&
               describePercentile({}, 0.5).find("n=0") != std::string::npos,
           "empty sample set reports n=0");
}

} // namespace

int
main()
{
    testPassThrough();
    testFingerprintUnchanged();
    testSelfTime();
    testPercentiles();
    if (g_failures != 0) {
        std::fprintf(stderr, "perfbench selftest: %d check(s) failed\n",
                     g_failures);
        return 1;
    }
    std::printf("perfbench selftest: all checks passed\n");
    return 0;
}
