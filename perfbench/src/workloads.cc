#include "workloads.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <type_traits>
#include <utility>

#include "fleet/fleet_manager.hh"
#include "fuzz/op_log.hh"
#include "fuzz/oracle.hh"
#include "fuzz/schedule.hh"
#include "harness/testbeds.hh"
#include "probe.hh"
#include "trace.hh"
#include "workload/fio.hh"

namespace perfbench {

namespace {

using namespace bms;
using sim::Tick;

using Counters = std::map<std::string, double>;

void
runSlice(sim::Simulator &sim, Tick until, RepResult &r)
{
    std::uint64_t events0 = sim.queue().executedCount();
    {
        SpanScope span("sim.run");
        sim.runUntil(until);
    }
    r.runEvents += sim.queue().executedCount() - events0;
}

/** Pump @p sim until @p done, recording a failure after @p timeout. */
bool
pumpUntil(sim::Simulator &sim, const std::function<bool()> &done,
          Tick timeout, Tick step, const std::string &what, RepResult &r)
{
    Tick deadline = sim.now() + timeout;
    while (!done()) {
        if (sim.now() >= deadline) {
            r.failures.push_back(what + " did not finish within " +
                                 std::to_string(sim::toMs(timeout)) +
                                 " simulated ms");
            return false;
        }
        runSlice(sim, sim.now() + step, r);
    }
    return true;
}

bool
endsWith(const std::string &s, const char *suffix)
{
    std::size_t n = std::char_traits<char>::length(suffix);
    return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

/** Per-layer counters read from StatsRegistry, by name suffix. */
const std::pair<const char *, const char *> kRegistryCounters[] = {
    {"engine.forwarded", ".target.forwarded"},
    {"engine.split", ".target.split"},
    {"engine.prp_lists_rewritten", ".target.prpListsRewritten"},
    {"engine.errors", ".target.errors"},
    {"engine.routed_host_bytes", ".routedHostBytes"},
    {"engine.chip_bytes", ".chipBytes"},
    {"engine.mirrored_writes", ".miggate.mirroredWrites"},
    {"engine.held_writes", ".miggate.heldWrites"},
    {"engine.dirty_requeues", ".miggate.dirtyRequeues"},
    {"engine.qos_buffered", ".qos.buffered"},
    {"engine.qos_passed", ".qos.passed"},
    {"ctrl.migration.started", ".migration.started"},
    {"ctrl.migration.completed", ".migration.completed"},
    {"ctrl.migration.aborted", ".migration.aborted"},
    {"ctrl.migration.bytes_copied", ".migration.bytesCopied"},
    {"ctrl.tiering.node_losses", ".tiering.nodeLosses"},
    {"ctrl.tiering.chunks_recovered", ".tiering.chunksRecovered"},
    {"ctrl.tiering.chunks_respilled", ".tiering.chunksRespilled"},
    {"ctrl.tiering.failures", ".tiering.failures"},
    {"remote.ios", ".ios"},
    {"remote.timeouts", ".timeouts"},
    {"remote.retries", ".retries"},
    {"remote.exhausted", ".exhausted"},
    {"remote.served", ".served"},
    {"remote.dropped", ".dropped"},
};

void
addRegistry(Counters &c, sim::Simulator &sim)
{
    sim.stats().visit([&c](const std::string &name, double v) {
        for (const auto &[metric, suffix] : kRegistryCounters) {
            if (endsWith(name, suffix))
                c[metric] += v;
        }
    });
}

void
addHost(Counters &c, host::HostSystem &h, Tick now)
{
    host::CpuSet &cpus = h.cpus();
    for (int i = 0; i < cpus.size(); ++i)
        c["host.cpu_busy_ns"] += static_cast<double>(cpus.core(i).busyTotal());
    c["host.cpu_capacity_ns"] +=
        static_cast<double>(cpus.size()) * static_cast<double>(now);
    c["host.mem_pages"] +=
        static_cast<double>(h.memory().raw().allocatedPages());
}

/** Front functions, back-end SSDs, host and console of one card. */
void
addCard(Counters &c, harness::BmStoreTestbed &bed)
{
    core::BmsEngine &eng = bed.engine();
    double backlog = c["nvme.max_sq_backlog"];
    for (int fn = 0; fn < eng.functionCount(); ++fn) {
        nvme::ControllerModel &f =
            eng.function(static_cast<pcie::FunctionId>(fn));
        c["nvme.arb_rounds"] += static_cast<double>(f.arbRounds());
        c["nvme.fetched_sqes"] += static_cast<double>(f.fetchedSqes());
        c["nvme.fetch_batches"] += static_cast<double>(f.fetchBatches());
        c["nvme.doorbells_coalesced"] +=
            static_cast<double>(f.doorbellsCoalesced());
        backlog = std::max(backlog, static_cast<double>(f.maxSqBacklog()));
    }
    c["nvme.max_sq_backlog"] = backlog;
    for (int i = 0; i < bed.ssdCount(); ++i) {
        ssd::SsdDevice &s = bed.ssd(i);
        nvme::ControllerModel &ctrl = s.controller();
        c["ssd.read_ops"] += static_cast<double>(ctrl.readOps());
        c["ssd.write_ops"] += static_cast<double>(ctrl.writeOps());
        c["ssd.read_bytes"] += static_cast<double>(ctrl.readBytes());
        c["ssd.write_bytes"] += static_cast<double>(ctrl.writeBytes());
        c["ssd.flash_pages"] +=
            static_cast<double>(s.flash().allocatedPages());
        c["ssd.media_errors"] += static_cast<double>(s.mediaErrors());
        c["ssd.latency_spikes"] += static_cast<double>(s.latencySpikes());
        c["ssd.fw_activations"] +=
            static_cast<double>(s.firmwareActivations());
    }
    c["mgmt.verbs"] += static_cast<double>(bed.console().requestsSent());
    addHost(c, bed.host(), bed.sim().now());
}

void
addDriver(Counters &c, host::NvmeDriver &drv)
{
    c["host.irqs"] += static_cast<double>(drv.interruptCount());
}

void
addOracle(Counters &c, fuzz::OracleDevice &o)
{
    c["fuzz.reads"] += static_cast<double>(o.reads());
    c["fuzz.writes"] += static_cast<double>(o.writes());
    c["fuzz.flushes"] += static_cast<double>(o.flushes());
    c["fuzz.verified_blocks"] += static_cast<double>(o.verifiedBlocks());
    c["fuzz.excused_errors"] += static_cast<double>(o.excusedErrors());
}

/** Console verbs the benchmark itself issues, timed in sim time. */
struct VerbLog
{
    int issued = 0;
    int done = 0;
    Tick rttNs = 0;
};

/** Issue a `df` on @p bed's console and record its round trip. */
void
issueDf(harness::BmStoreTestbed &bed, VerbLog &v)
{
    sim::Simulator &sim = bed.sim();
    Tick t0 = sim.now();
    ++v.issued;
    SpanScope span("mgmt.verb");
    bed.console().df(bed.controller().endpoint().eid(),
                     [&v, &sim, t0](std::vector<core::MiDfEntry>) {
                         v.rttNs += sim.now() - t0;
                         ++v.done;
                     });
}

void
put(RepResult &r, const std::string &name, double value, const char *unit,
    const char *clock, std::string note = "")
{
    r.metrics[name] = Metric{value, unit, clock, std::move(note)};
}

std::string
ratioNote(double num, double den, const char *num_name,
          const char *den_name)
{
    char buf[160];
    std::snprintf(buf, sizeof buf, "%s=%.0f / %s=%.0f", num_name, num,
                  den_name, den);
    return buf;
}

double
safeDiv(double a, double b)
{
    return b != 0.0 ? a / b : 0.0;
}

/**
 * Fold the counters into per-layer metrics (every ratio carries its
 * base) and the probe log into the I/O-facing end-to-end metrics.
 */
void
finishCounters(RepResult &r, Counters &c, const VerbLog &verbs,
               std::uint64_t tenant_ios, std::uint64_t tenant_write_bytes)
{
    auto count = [&r, &c](const char *name) {
        put(r, name, c[name], "count", "count");
    };
    for (const auto &[metric, suffix] : kRegistryCounters) {
        (void)suffix;
        if (std::string(metric).rfind("engine.qos_", 0) != 0)
            count(metric);
    }
    for (const char *name :
         {"nvme.arb_rounds", "nvme.fetched_sqes", "nvme.doorbells_coalesced",
          "nvme.max_sq_backlog", "ssd.read_ops", "ssd.write_ops",
          "ssd.media_errors", "ssd.latency_spikes", "ssd.fw_activations",
          "fuzz.reads", "fuzz.writes", "fuzz.flushes",
          "fuzz.verified_blocks", "fuzz.excused_errors", "mgmt.verbs"})
        count(name);
    put(r, "ssd.read_bytes", c["ssd.read_bytes"], "B", "count");
    put(r, "ssd.write_bytes", c["ssd.write_bytes"], "B", "count");
    put(r, "engine.routed_host_bytes", c["engine.routed_host_bytes"], "B",
        "count");
    put(r, "engine.chip_bytes", c["engine.chip_bytes"], "B", "count");
    put(r, "ctrl.migration.bytes_copied", c["ctrl.migration.bytes_copied"],
        "B", "count");
    put(r, "ssd.flash_pages", c["ssd.flash_pages"], "pages", "count");
    put(r, "host.mem_pages", c["host.mem_pages"], "pages", "count");

    put(r, "nvme.sqes_per_fetch",
        safeDiv(c["nvme.fetched_sqes"], c["nvme.fetch_batches"]), "ratio",
        "count",
        ratioNote(c["nvme.fetched_sqes"], c["nvme.fetch_batches"], "sqes",
                  "fetches"));
    double qos_total = c["engine.qos_buffered"] + c["engine.qos_passed"];
    put(r, "engine.qos_buffered_frac",
        safeDiv(c["engine.qos_buffered"], qos_total), "frac", "count",
        ratioNote(c["engine.qos_buffered"], qos_total, "buffered",
                  "buffered+passed"));
    put(r, "host.cpu_busy_frac",
        safeDiv(c["host.cpu_busy_ns"], c["host.cpu_capacity_ns"]), "frac",
        "sim",
        ratioNote(c["host.cpu_busy_ns"], c["host.cpu_capacity_ns"],
                  "busy_ns", "cores*sim_ns"));
    auto ios = static_cast<double>(tenant_ios);
    put(r, "host.irqs_per_io", safeDiv(c["host.irqs"], ios), "ratio",
        "count", ratioNote(c["host.irqs"], ios, "irqs", "ios"));
    put(r, "host.submit_calls", ios, "count", "count");
    auto wb = static_cast<double>(tenant_write_bytes);
    put(r, "ssd.write_amp", safeDiv(c["ssd.write_bytes"], wb), "ratio",
        "count",
        ratioNote(c["ssd.write_bytes"], wb, "media_bytes", "tenant_bytes"));
    put(r, "fuzz.verified_blocks_per_io",
        safeDiv(c["fuzz.verified_blocks"], ios), "ratio", "count",
        ratioNote(c["fuzz.verified_blocks"], ios, "blocks", "ios"));
    double copy_s = c["ctrl.migration.copy_sim_ns"] / 1e9;
    put(r, "ctrl.migration.copy_mb_per_s",
        safeDiv(c["ctrl.migration.bytes_copied"] / 1e6, copy_s), "MB/s",
        "sim",
        ratioNote(c["ctrl.migration.bytes_copied"],
                  c["ctrl.migration.copy_sim_ns"], "bytes", "sim_ns"));
    put(r, "mgmt.verb_rtt_us",
        safeDiv(static_cast<double>(verbs.rttNs) / 1e3, verbs.done), "us",
        "sim",
        ratioNote(static_cast<double>(verbs.rttNs), verbs.done, "rtt_ns",
                  "verbs"));
    for (const char *name :
         {"fleet.admit_calls", "fleet.wave_ops_ok", "fleet.wave_ops_failed",
          "fleet.wave_pauses", "fleet.gate_trips", "fleet.storm_rejections",
          "fleet.fault_windows", "fleet.node_losses"})
        count(name);
    put(r, "engine.overhead_us", c["engine.overhead_us"], "us", "sim",
        c.count("engine.overhead_us") ? "bms-native mean, rand-r-1" : "");
}

/** End-to-end I/O metrics from the probe logs of one workload. */
void
putIoMetrics(RepResult &r, IoLog &reads_from, IoLog &writes_from,
             std::uint64_t window_ops, double window_s,
             std::uint64_t submitted, std::uint64_t failed, Tick max_latency)
{
    std::sort(reads_from.readNs.begin(), reads_from.readNs.end());
    std::sort(writes_from.writeNs.begin(), writes_from.writeNs.end());
    put(r, "iops", safeDiv(static_cast<double>(window_ops), window_s),
        "1/s", "sim",
        ratioNote(static_cast<double>(window_ops), window_s * 1e3, "ios",
                  "window_ms"));
    const auto &rd = reads_from.readNs;
    put(r, "read_p50_us", static_cast<double>(percentile(rd, 0.5)) / 1e3,
        "us", "sim", describePercentile(rd, 0.5));
    put(r, "read_p999_us",
        static_cast<double>(percentile(rd, 0.999)) / 1e3, "us", "sim",
        describePercentile(rd, 0.999));
    const auto &wr = writes_from.writeNs;
    if (!wr.empty()) {
        put(r, "write_p50_us",
            static_cast<double>(percentile(wr, 0.5)) / 1e3, "us", "sim",
            describePercentile(wr, 0.5));
        put(r, "write_p999_us",
            static_cast<double>(percentile(wr, 0.999)) / 1e3, "us", "sim",
            describePercentile(wr, 0.999));
    }
    put(r, "io_fail_ratio",
        safeDiv(static_cast<double>(failed), static_cast<double>(submitted)),
        "ratio", "count",
        ratioNote(static_cast<double>(failed),
                  static_cast<double>(submitted), "failed", "attempted"));
    put(r, "io_pause_max_ms", static_cast<double>(max_latency) / 1e6, "ms",
        "sim");
    r.attempted += submitted;
    r.failed += failed;
}

/** Read back every verified block of every oracle once. */
void
finalSweep(sim::Simulator &sim, const std::vector<fuzz::OracleDevice *> &os,
           RepResult &r)
{
    int pending = 0;
    std::uint64_t errors = 0;
    for (fuzz::OracleDevice *o : os) {
        std::uint32_t step = o->maxIoBlocks();
        for (std::uint64_t b = 0; b < o->blocks(); b += step) {
            auto n = static_cast<std::uint32_t>(
                std::min<std::uint64_t>(step, o->blocks() - b));
            ++pending;
            o->read(b, n, [&pending, &errors](bool ok) {
                --pending;
                if (!ok)
                    ++errors;
            });
        }
    }
    pumpUntil(sim, [&pending] { return pending == 0; }, sim::seconds(30),
              sim::milliseconds(1), "final sweep", r);
    if (errors != 0)
        r.failures.push_back(std::to_string(errors) +
                             " final-sweep reads failed");
}

/** Build a tenant's oracle + closed-loop workload behind a probe. */
struct VerifiedTenant
{
    std::unique_ptr<ProbeDevice> probe;
    fuzz::OracleDevice *oracle = nullptr;
    fuzz::TenantWorkload *workload = nullptr;
};

VerifiedTenant
makeVerifiedTenant(sim::Simulator &sim, host::NvmeDriver &drv,
                   host::HostMemory &mem, fuzz::OpLog &oplog, IoLog &log,
                   std::uint32_t uid, std::uint64_t seed,
                   std::uint64_t base, std::uint64_t region, sim::Rng rng,
                   const fuzz::TenantSpec &spec)
{
    VerifiedTenant t;
    t.probe = std::make_unique<ProbeDevice>(sim, drv, log, "fuzz.complete");
    fuzz::OracleDevice::Config ocfg;
    ocfg.uid = uid;
    ocfg.seed = seed;
    ocfg.baseOffset = base;
    ocfg.regionBytes = region;
    t.oracle = sim.make<fuzz::OracleDevice>(
        sim, "perfbench.oracle" + std::to_string(uid), *t.probe, mem, oplog,
        ocfg);
    t.workload = sim.make<fuzz::TenantWorkload>(
        sim, "perfbench.tenant" + std::to_string(uid), *t.oracle, rng, spec);
    return t;
}

// ---------------------------------------------------------------------
// fanout_randread: 128 functions x QD2 4K random reads on 4 SSDs.

constexpr int kFanoutTenants = 128;
constexpr Tick kFanoutRamp = sim::milliseconds(2);
constexpr Tick kFanoutRun = sim::milliseconds(400);

RepResult
fanoutRandread(std::uint64_t seed, bool setup_only)
{
    RepResult r;
    PhaseClock timer;
    IoLog log;
    std::vector<std::unique_ptr<ProbeDevice>> probes;
    std::vector<host::NvmeDriver *> drivers;
    std::unique_ptr<harness::BmStoreTestbed> bed;
    {
        SpanScope span("setup");
        harness::TestbedConfig cfg;
        cfg.seed = seed;
        cfg.ssdCount = 4;
        cfg.ioQueues = 4;
        cfg.chunkBytes = sim::gib(1);
        cfg.sqPriorities = {nvme::kQPrioHigh, nvme::kQPrioMedium,
                            nvme::kQPrioMedium, nvme::kQPrioLow};
        cfg.engine.frontArb = nvme::ArbitrationMode::WeightedRoundRobin;
        bed = std::make_unique<harness::BmStoreTestbed>(cfg);
        for (int i = 0; i < kFanoutTenants; ++i) {
            host::NvmeDriver &drv = bed->attachTenant(
                static_cast<pcie::FunctionId>(i), sim::gib(1));
            drivers.push_back(&drv);
            probes.push_back(std::make_unique<ProbeDevice>(
                bed->sim(), drv, log, "workload.complete"));
        }
    }
    r.setup = timer.lap();
    if (setup_only)
        return r;
    sim::Simulator &sim = bed->sim();

    workload::FioJobSpec spec;
    spec.pattern = workload::FioPattern::RandRead;
    spec.blockSize = 4096;
    spec.numjobs = 1;
    spec.rampTime = kFanoutRamp;
    spec.runTime = kFanoutRun;
    spec.caseName = "fanout-rand-r";

    // The seed sets each tenant's queue depth: QD2 for most, QD1 or
    // QD3 for one tenant in sixteen each, so about 256 reads are in
    // flight. With QD2 everywhere the saturated front end gives the
    // same latency percentiles (563.2 / 574.9 us) for every seed, and a
    // simulated time that never moves with the seed is rejected as an
    // end-to-end metric. The IOPS ceiling is the same either way.
    sim::Rng rng(seed ^ 0xfa11'0017'5eedULL);
    std::uint64_t events0 = sim.queue().executedCount();
    std::vector<workload::FioRunner *> runners;
    for (int i = 0; i < kFanoutTenants; ++i) {
        double u = rng.uniform01();
        spec.iodepth = u < 1.0 / 16 ? 1 : u < 15.0 / 16 ? 2 : 3;
        runners.push_back(sim.make<workload::FioRunner>(
            sim, "fio.t" + std::to_string(i), *probes[i], spec));
    }
    log.winStart = sim.now() + kFanoutRamp;
    log.winEnd = log.winStart + kFanoutRun;
    for (workload::FioRunner *fr : runners)
        fr->start();
    pumpUntil(sim,
              [&runners] {
                  return std::all_of(runners.begin(), runners.end(),
                                     [](workload::FioRunner *fr) {
                                         return fr->finished();
                                     });
              },
              kFanoutRamp + kFanoutRun + sim::seconds(5),
              sim::milliseconds(10), "fio jobs", r);
    r.wall = timer.lap();
    r.measuredEvents = sim.queue().executedCount() - events0;

    std::uint64_t fio_completed = 0, fio_errors = 0;
    for (workload::FioRunner *fr : runners) {
        fio_completed += fr->result().completed;
        fio_errors += fr->result().errors;
    }
    if (fio_errors != 0)
        r.failures.push_back(std::to_string(fio_errors) + " fio I/O errors");
    if (fio_completed != log.windowOps)
        r.failures.push_back("probe saw " + std::to_string(log.windowOps) +
                             " in-window completions, fio counted " +
                             std::to_string(fio_completed));

    VerbLog verbs;
    issueDf(*bed, verbs);
    pumpUntil(sim, [&verbs] { return verbs.done == verbs.issued; },
              sim::seconds(1), sim::milliseconds(1), "df verb", r);

    Counters c;
    addRegistry(c, sim);
    addCard(c, *bed);
    for (host::NvmeDriver *d : drivers)
        addDriver(c, *d);
    put(r, "sim.lanes", static_cast<double>(sim.queue().laneCount()),
        "count", "count");
    putIoMetrics(r, log, log, log.windowOps, sim::toSec(kFanoutRun),
                 log.submitted, log.failed, log.maxLatency);
    finishCounters(r, c, verbs, log.completed, log.writeBytes);
    r.fingerprint = fnvMix(fingerprintSim(r.fingerprint, sim), log.hash);
    return r;
}

// ---------------------------------------------------------------------
// verified_rw: 16 oracle-verified tenants, live evacuation of slot 1.

constexpr int kVerifiedTenants = 16;
constexpr Tick kVerifiedHorizon = sim::milliseconds(300);

RepResult
verifiedRw(std::uint64_t seed, bool setup_only)
{
    RepResult r;
    PhaseClock timer;
    IoLog log;
    fuzz::OpLog oplog(256);
    std::vector<VerifiedTenant> tenants;
    std::vector<host::NvmeDriver *> drivers;
    std::unique_ptr<harness::BmStoreTestbed> bed;
    {
        SpanScope span("setup");
        harness::TestbedConfig cfg;
        cfg.seed = seed;
        cfg.ssdCount = 2;
        cfg.ssd.functionalData = true;
        // 4 MiB chunks: each tenant's 8 MiB namespace spans both SSDs,
        // and the evacuation's live copy fits inside the run.
        cfg.chunkBytes = sim::mib(4);
        bed = std::make_unique<harness::BmStoreTestbed>(cfg);
        sim::Simulator &sim = bed->sim();
        sim::Rng rng(seed ^ 0x7e71'f1ed'5eedULL);
        fuzz::TenantSpec spec;
        spec.iodepth = 4;
        spec.readRatio = 0.5;
        spec.flushProb = 0.005;
        spec.minIoBlocks = 1;
        spec.maxIoBlocks = 8;
        for (int i = 0; i < kVerifiedTenants; ++i) {
            host::NvmeDriver &drv = bed->attachTenant(
                static_cast<pcie::FunctionId>(i), sim::mib(8));
            drivers.push_back(&drv);
            // The 4 MiB window straddles the chunk boundary at 4 MiB,
            // so the engine's extent-splitting path runs too.
            tenants.push_back(makeVerifiedTenant(
                sim, drv, bed->host().memory(), oplog, log,
                static_cast<std::uint32_t>(i + 1), seed, sim::mib(2),
                sim::mib(4), rng.fork(), spec));
        }
    }
    r.setup = timer.lap();
    if (setup_only)
        return r;
    sim::Simulator &sim = bed->sim();
    std::uint64_t events0 = sim.queue().executedCount();

    Tick t0 = sim.now();
    log.winStart = t0;
    log.winEnd = t0 + kVerifiedHorizon;
    for (VerifiedTenant &t : tenants)
        t.workload->start();

    VerbLog verbs;
    core::MiEvacuateResult evac;
    Tick evac_done_at = 0;
    sim.scheduleAt(t0 + kVerifiedHorizon / 5, [&] {
        Tick issued = sim.now();
        ++verbs.issued;
        SpanScope span("mgmt.verb");
        bed->console().evacuate(
            bed->controller().endpoint().eid(), 1,
            [&, issued](core::MiEvacuateResult res) {
                evac = res;
                evac_done_at = sim.now();
                verbs.rttNs += sim.now() - issued;
                ++verbs.done;
            });
    });
    Tick end = t0 + kVerifiedHorizon;
    while (sim.now() < end)
        runSlice(sim, std::min(end, sim.now() + sim::milliseconds(10)), r);

    int stopped = 0;
    for (VerifiedTenant &t : tenants)
        t.workload->stop([&stopped] { ++stopped; });
    pumpUntil(sim,
              [&] {
                  return stopped == kVerifiedTenants &&
                         verbs.done == verbs.issued &&
                         bed->controller().migration().idle();
              },
              sim::seconds(30), sim::milliseconds(1), "tenant drain", r);
    std::vector<fuzz::OracleDevice *> oracles;
    for (VerifiedTenant &t : tenants)
        oracles.push_back(t.oracle);
    finalSweep(sim, oracles, r);
    r.wall = timer.lap();
    r.measuredEvents = sim.queue().executedCount() - events0;

    if (!evac.ok || evac.moved == 0)
        r.failures.push_back("evacuation of slot 1 failed (moved " +
                             std::to_string(evac.moved) + ", failed " +
                             std::to_string(evac.failed) + ")");
    if (evac_done_at > end)
        r.failures.push_back("evacuation copy outlived the measured window");

    issueDf(*bed, verbs);
    pumpUntil(sim, [&verbs] { return verbs.done == verbs.issued; },
              sim::seconds(1), sim::milliseconds(1), "df verb", r);

    Counters c;
    addRegistry(c, sim);
    addCard(c, *bed);
    for (host::NvmeDriver *d : drivers)
        addDriver(c, *d);
    std::uint64_t tenant_errors = 0;
    for (VerifiedTenant &t : tenants) {
        addOracle(c, *t.oracle);
        tenant_errors += t.workload->errors();
    }
    c["ctrl.migration.copy_sim_ns"] = evac.elapsedMs * 1e6;
    if (tenant_errors != 0)
        r.failures.push_back(std::to_string(tenant_errors) +
                             " tenant I/O errors without fault injection");
    if (c["fuzz.verified_blocks"] == 0)
        r.failures.push_back("nothing was verified");
    put(r, "sim.lanes", static_cast<double>(sim.queue().laneCount()),
        "count", "count");
    putIoMetrics(r, log, log, log.windowOps, sim::toSec(kVerifiedHorizon),
                 log.submitted, log.failed, log.maxLatency);
    finishCounters(r, c, verbs, log.completed, log.writeBytes);
    r.fingerprint = fnvMix(fingerprintSim(r.fingerprint, sim), log.hash);
    return r;
}

// ---------------------------------------------------------------------
// fleet_upgrade: 4 cards, ~80 admissions, a firmware wave + drill.

constexpr int kFleetCards = 4;
constexpr int kFleetAdmissions = 80;
constexpr int kFleetActive = 8;

RepResult
fleetUpgrade(std::uint64_t seed, bool setup_only)
{
    RepResult r;
    PhaseClock timer;
    IoLog log;
    fuzz::OpLog oplog(256);
    std::vector<VerifiedTenant> tenants;
    std::vector<int> tenant_card;
    std::vector<host::NvmeDriver *> drivers;
    std::unique_ptr<fleet::FleetManager> fm;
    int placed = 0;
    double admit_calls = 0;
    {
        SpanScope span("setup");
        fleet::FleetConfig fc;
        fc.seed = seed;
        fc.cards = kFleetCards;
        fc.ssdsPerCard = 2;
        fc.cardIopsBudget = 3'200'000.0;
        fc.remoteNodesPerCard = 1; // the drill loses one node per hit card
        // One fixed activation stall per upgrade, so the I/O pause the
        // wave causes is the same length whatever the seed.
        fc.fwActivateMin = sim::milliseconds(100);
        fc.fwActivateMax = sim::milliseconds(100);
        fm = std::make_unique<fleet::FleetManager>(fc);
        sim::Simulator &sim = fm->sim();

        // The first admissions are the verified tenants, all Silver
        // and thick so the measured load does not hinge on the class
        // mix the seed draws; the rest follow the ext_fleet mix:
        // mostly Bronze, half thin, a sprinkle of anti-affinity groups.
        sim::Rng rng(seed ^ 0xbe'9c'f1'ee'7ULL);
        std::vector<fleet::Placement> active;
        for (int t = 0; t < kFleetAdmissions; ++t) {
            fleet::TenantRequest req;
            req.bytes = sim::mib(4);
            if (t < kFleetActive) {
                req.qos = fleet::QosClass::Silver;
            } else {
                double cls = rng.uniform01();
                req.qos = cls < 0.7   ? fleet::QosClass::Bronze
                          : cls < 0.9 ? fleet::QosClass::Silver
                                      : fleet::QosClass::Gold;
                req.thin = rng.chance(0.5);
                req.antiAffinityGroup =
                    rng.chance(0.1) ? static_cast<int>(rng.uniformInt(0, 3))
                                    : -1;
            }
            ++admit_calls;
            SpanScope admit("fleet.admit");
            fleet::Placement p = fm->admit(req);
            if (!p.ok)
                continue;
            ++placed;
            if (t < kFleetActive)
                active.push_back(p);
        }

        // QD2 keeps a repetition short enough that a run holds several.
        fuzz::TenantSpec spec;
        spec.iodepth = 2;
        spec.readRatio = 0.5;
        spec.flushProb = 0.005;
        spec.maxIoBlocks = 8;
        for (const fleet::Placement &p : active) {
            host::NvmeDriver &drv = fm->tenantDriver(p.card, p.fn);
            drivers.push_back(&drv);
            tenant_card.push_back(p.card);
            tenants.push_back(makeVerifiedTenant(
                sim, drv, fm->card(p.card).host().memory(), oplog, log,
                static_cast<std::uint32_t>(tenants.size() + 1), seed, 0,
                sim::mib(1), rng.fork(), spec));
        }
    }
    r.setup = timer.lap();
    if (setup_only)
        return r;
    sim::Simulator &sim = fm->sim();
    std::uint64_t events0 = sim.queue().executedCount();

    fm->setFaultWindowHook([&tenants, &tenant_card](int card, bool open) {
        if (!open)
            return;
        for (std::size_t i = 0; i < tenants.size(); ++i) {
            if (tenant_card[i] == card)
                tenants[i].oracle->setFaultsActive(true);
        }
    });
    fm->setAvailabilityProbe([&log] { return log.maxLatency; });

    Tick t0 = sim.now();
    log.winStart = t0;
    for (VerifiedTenant &t : tenants)
        t.workload->start();

    fleet::WaveConfig wc;
    wc.op = fleet::WaveOp::FirmwareUpgrade;
    // No failed upgrade and no stall past 2.5x the 200 ms pause one
    // activation causes is tolerated: either pauses the wave, which
    // then never reaches Done, and fails the run.
    wc.failureBudget = 0;
    wc.availabilityBound = sim::milliseconds(500);
    // The drill opens latency-spike fault windows (no injected media
    // errors, so no tenant I/O may fail), loses one storage node per
    // hit card and fires an upgrade storm, one second into the wave.
    fleet::FaultDrill drill;
    drill.firstCard = 0;
    drill.cardStride = 2;
    drill.at = t0 + sim::seconds(1);
    drill.duration = sim::milliseconds(50);
    drill.readErrorRate = 0.0;
    drill.writeErrorRate = 0.0;
    drill.latencySpikeRate = 0.05;
    drill.loseNode = true;
    drill.upgradeStorm = true;
    {
        SpanScope span("fleet.wave");
        fm->startWave(wc);
        fm->scheduleDrill(drill);
        pumpUntil(sim,
                  [&fm] {
                      return fm->waveState() != fleet::WaveState::Running;
                  },
                  sim::seconds(120), sim::milliseconds(5), "wave", r);
    }
    log.winEnd = sim.now();
    Tick window = sim.now() - t0;
    if (fm->waveState() != fleet::WaveState::Done)
        r.failures.push_back("upgrade wave did not reach Done");

    int stopped = 0;
    for (VerifiedTenant &t : tenants)
        t.workload->stop([&stopped] { ++stopped; });
    pumpUntil(sim,
              [&] {
                  return stopped == static_cast<int>(tenants.size()) &&
                         fm->drillIdle();
              },
              sim::seconds(30), sim::milliseconds(1), "tenant drain", r);
    std::vector<fuzz::OracleDevice *> oracles;
    for (VerifiedTenant &t : tenants)
        oracles.push_back(t.oracle);
    finalSweep(sim, oracles, r);
    r.wall = timer.lap();
    r.measuredEvents = sim.queue().executedCount() - events0;

    VerbLog verbs;
    for (int c = 0; c < fm->cards(); ++c)
        issueDf(fm->card(c), verbs);
    pumpUntil(sim, [&verbs] { return verbs.done == verbs.issued; },
              sim::seconds(1), sim::milliseconds(1), "df verbs", r);

    Counters c;
    addRegistry(c, sim);
    for (int i = 0; i < fm->cards(); ++i)
        addCard(c, fm->card(i));
    for (host::NvmeDriver *d : drivers)
        addDriver(c, *d);
    std::uint64_t tenant_errors = 0;
    for (VerifiedTenant &t : tenants) {
        addOracle(c, *t.oracle);
        tenant_errors += t.workload->errors();
    }
    if (tenant_errors != 0)
        r.failures.push_back(std::to_string(tenant_errors) +
                             " tenant I/O errors with zero error rates");
    if (c["fuzz.verified_blocks"] == 0)
        r.failures.push_back("nothing was verified");
    if (tenants.size() != kFleetActive)
        r.failures.push_back("only " + std::to_string(tenants.size()) +
                             " verified tenants were placed");
    const fleet::WaveReport &w = fm->waveReport();
    c["fleet.admit_calls"] = admit_calls;
    c["fleet.wave_ops_ok"] = w.opsOk;
    c["fleet.wave_ops_failed"] = w.opsFailed;
    c["fleet.wave_pauses"] = w.pauses;
    c["fleet.gate_trips"] = w.gateTrips;
    c["fleet.storm_rejections"] = fm->stormRejections();
    c["fleet.fault_windows"] = fm->faultWindowsOpened();
    c["fleet.node_losses"] = fm->nodeLossesRecovered();
    std::uint32_t slots =
        static_cast<std::uint32_t>(fm->cards() * fm->config().ssdsPerCard);
    if (w.opsOk != slots || w.opsFailed != 0)
        r.failures.push_back(std::to_string(w.opsOk) + " of " +
                             std::to_string(slots) + " upgrades succeeded, " +
                             std::to_string(w.opsFailed) + " failed");
    if (w.pauses != 0 || w.gateTrips != 0)
        r.failures.push_back("the wave paused " + std::to_string(w.pauses) +
                             " times (" + std::to_string(w.gateTrips) +
                             " availability-gate trips)");

    put(r, "sim.lanes", static_cast<double>(sim.queue().laneCount()),
        "count", "count");
    putIoMetrics(r, log, log, log.windowOps, sim::toSec(window),
                 log.submitted, log.failed, log.maxLatency);
    // Refused admissions count as failed attempts.
    r.attempted += static_cast<std::uint64_t>(admit_calls);
    r.failed += static_cast<std::uint64_t>(admit_calls) -
                static_cast<std::uint64_t>(placed);
    put(r, "wave_makespan_s", sim::toSec(w.makespan), "s", "sim");
    put(r, "placement_ratio", safeDiv(placed, admit_calls), "ratio",
        "count", ratioNote(placed, admit_calls, "placed", "requested"));
    finishCounters(r, c, verbs, log.completed, log.writeBytes);
    r.fingerprint = fnvMix(fingerprintSim(r.fingerprint, sim), log.hash);
    r.fingerprint = fnvMix(r.fingerprint, fm->traceHash());
    return r;
}

// ---------------------------------------------------------------------
// paper_table_iv: the six Table IV fio cases, native vs 1-SSD BM-Store.

/** BM-Store/native throughput ratios (%) of the paper's Fig. 8. */
constexpr double kPaperRatioPct[] = {96.0, 100.0, 82.5, 100.0, 100.0, 100.0};

/** Run one fio case behind a probe on a fresh testbed. */
template <typename Bed, typename Attach>
workload::FioResult
runCase(const workload::FioJobSpec &spec, std::uint64_t seed, Attach attach,
        IoLog &log, Counters *c, VerbLog *verbs, bool setup_only,
        HostTime &setup_s, HostTime &wall_s, RepResult &r)
{
    PhaseClock timer;
    harness::TestbedConfig cfg;
    cfg.ssdCount = 1;
    cfg.seed = seed;
    std::unique_ptr<Bed> bed;
    std::unique_ptr<ProbeDevice> probe;
    host::NvmeDriver *drv = nullptr;
    {
        SpanScope span("setup");
        bed = std::make_unique<Bed>(cfg);
        drv = &attach(*bed);
        probe = std::make_unique<ProbeDevice>(bed->sim(), *drv, log,
                                              "workload.complete");
    }
    setup_s += timer.lap();
    if (setup_only)
        return workload::FioResult();
    sim::Simulator &sim = bed->sim();
    std::uint64_t events0 = sim.queue().executedCount();
    auto *runner = sim.make<workload::FioRunner>(
        sim, "fio." + spec.caseName, *probe, spec);
    log.winStart = sim.now() + spec.rampTime;
    log.winEnd = log.winStart + spec.runTime;
    runner->start();
    pumpUntil(sim, [runner] { return runner->finished(); },
              spec.rampTime + spec.runTime + sim::seconds(5),
              sim::milliseconds(10), "fio " + spec.caseName, r);
    wall_s += timer.lap();
    r.measuredEvents += sim.queue().executedCount() - events0;
    workload::FioResult res = runner->result();
    if (!runner->finished())
        r.failures.push_back("fio " + spec.caseName + " did not complete");
    if (res.errors != 0)
        r.failures.push_back("fio " + spec.caseName + " saw " +
                             std::to_string(res.errors) + " errors");
    if (res.completed != log.windowOps)
        r.failures.push_back("probe and fio disagree on " + spec.caseName);

    if constexpr (std::is_same_v<Bed, harness::BmStoreTestbed>) {
        issueDf(*bed, *verbs);
        pumpUntil(sim, [verbs] { return verbs->done == verbs->issued; },
                  sim::seconds(1), sim::milliseconds(1), "df verb", r);
        addRegistry(*c, sim);
        addCard(*c, *bed);
        addDriver(*c, *drv);
        (*c)["sim.lanes"] = static_cast<double>(sim.queue().laneCount());
    }
    r.fingerprint = fnvMix(fingerprintSim(r.fingerprint, sim), log.hash);
    return res;
}

RepResult
paperTableIv(std::uint64_t seed, bool setup_only)
{
    RepResult r;
    Counters c;
    VerbLog verbs;
    HostTime setup_s, wall_s;
    std::vector<workload::FioJobSpec> cases = workload::fioTableIv();
    std::vector<IoLog> native_logs(cases.size()), bms_logs(cases.size());
    double err_pp = 0.0;
    std::uint64_t window_ops = 0, submitted = 0, failed = 0, completed = 0;
    std::uint64_t write_bytes = 0;
    double window_s = 0.0;
    Tick max_latency = 0;
    std::string ratios;
    for (std::size_t i = 0; i < cases.size(); ++i) {
        const workload::FioJobSpec &spec = cases[i];
        workload::FioResult nres = runCase<harness::NativeTestbed>(
            spec, seed,
            [](harness::NativeTestbed &b) -> host::NvmeDriver & {
                return b.driver(0);
            },
            native_logs[i], nullptr, nullptr, setup_only, setup_s, wall_s,
            r);
        workload::FioResult bres = runCase<harness::BmStoreTestbed>(
            spec, seed,
            [](harness::BmStoreTestbed &b) -> host::NvmeDriver & {
                return b.attachTenant(0, sim::gib(1536));
            },
            bms_logs[i], &c, &verbs, setup_only, setup_s, wall_s, r);
        double ratio = safeDiv(bres.iops, nres.iops) * 100.0;
        err_pp += std::fabs(ratio - kPaperRatioPct[i]);
        char buf[64];
        std::snprintf(buf, sizeof buf, "%s%s %.1f%%", ratios.empty() ? "" : ", ",
                      spec.caseName.c_str(), ratio);
        ratios += buf;
        if (spec.caseName == "rand-r-1")
            c["engine.overhead_us"] = bres.avgLatencyUs() - nres.avgLatencyUs();
        const IoLog &b = bms_logs[i];
        window_ops += b.windowOps;
        window_s += sim::toSec(spec.runTime);
        submitted += b.submitted;
        failed += b.failed;
        completed += b.completed;
        write_bytes += b.writeBytes;
        max_latency = std::max(max_latency, b.maxLatency);
    }
    r.setup = setup_s;
    r.wall = wall_s;
    if (setup_only)
        return r;
    put(r, "paper_err_pp", err_pp / static_cast<double>(cases.size()), "pp",
        "sim", "measured vs paper BM-Store/native ratio: " + ratios);
    put(r, "sim.lanes", c["sim.lanes"], "count", "count");
    // rand-r-1 is case 0 and rand-w-1 case 2 of Table IV.
    putIoMetrics(r, bms_logs[0], bms_logs[2], window_ops, window_s,
                 submitted, failed, max_latency);
    finishCounters(r, c, verbs, completed, write_bytes);
    return r;
}

} // namespace

const std::vector<WorkloadDef> &
workloads()
{
    static const std::vector<WorkloadDef> kAll = {
        {"fanout_randread", fanoutRandread},
        {"verified_rw", verifiedRw},
        {"fleet_upgrade", fleetUpgrade},
        {"paper_table_iv", paperTableIv},
    };
    return kAll;
}

} // namespace perfbench
