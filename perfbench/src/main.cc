/**
 * @file
 * perfbench — the repository benchmark's measuring binary.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--trace-out PATH]
 *
 * Repeats the workload (set-up included) until S host seconds have
 * passed, checks that every repetition produced the same modeled
 * results, and prints a report followed by one JSON line with every
 * metric it computed; run.py picks the end-to-end or per-layer set
 * that BENCHMARK.json names. A traced run alternates untraced and
 * traced repetitions, so the tracing overhead is measured in the same
 * process and the per-span host times exist; its spans go to PATH as
 * Chrome trace-event JSON.
 *
 * Exit codes: 0 success, 1 a correctness check failed, 2 bad usage.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "probe.hh"
#include "trace.hh"
#include "workloads.hh"

using namespace perfbench;

namespace {

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--trace-out PATH]\nworkloads:",
                 msg);
    for (const WorkloadDef &w : workloads())
        std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, "\n");
    std::exit(2);
}

bool
parseUint(const std::string &s, std::uint64_t &out)
{
    if (s.empty() || s.size() > 19)
        return false;
    for (char ch : s) {
        if (ch < '0' || ch > '9')
            return false;
    }
    out = std::strtoull(s.c_str(), nullptr, 10);
    return true;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/** Set-up time samples per run (repetitions plus set-up-only passes). */
constexpr std::size_t kMinSetupSamples = 25;
constexpr int kSetupPassesPerRep = 3;

/** One repetition plus what its tracer saw (traced reps only). */
struct Rep
{
    RepResult result;
    bool traced = false;
    std::map<std::string, SpanTotals> spans;
};

double
perSpanNs(const Rep &rep, const char *name, bool self)
{
    auto it = rep.spans.find(name);
    if (it == rep.spans.end() || it->second.count == 0)
        return 0.0;
    const SpanTotals &t = it->second;
    return static_cast<double>(self ? t.selfNs : t.totalNs) /
           static_cast<double>(t.count);
}

long
peakRssKb()
{
    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_maxrss;
}

void
printJsonNumber(double v)
{
    std::printf("%.17g", v);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload, trace_out;
    std::uint64_t seed = 0, seconds = 0, trace = 0;
    bool have_w = false, have_seed = false, have_s = false, have_t = false;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        std::string key = arg, val;
        auto eq = arg.find('=');
        if (eq != std::string::npos) {
            key = arg.substr(0, eq);
            val = arg.substr(eq + 1);
        } else if (i + 1 < argc) {
            val = argv[++i];
        } else {
            usage(("missing value for " + arg).c_str());
        }
        if (key == "--workload") {
            workload = val;
            have_w = true;
        } else if (key == "--seed") {
            if (!parseUint(val, seed))
                usage("--seed wants a non-negative integer");
            have_seed = true;
        } else if (key == "--seconds") {
            if (!parseUint(val, seconds) || seconds < 1)
                usage("--seconds wants a positive integer");
            have_s = true;
        } else if (key == "--trace") {
            if (!parseUint(val, trace) || trace > 1)
                usage("--trace wants 0 or 1");
            have_t = true;
        } else if (key == "--trace-out") {
            trace_out = val;
        } else {
            usage(("unknown flag " + key).c_str());
        }
    }
    if (!have_w || !have_seed || !have_s || !have_t)
        usage("--workload, --seed, --seconds and --trace are required");
    const WorkloadDef *def = nullptr;
    for (const WorkloadDef &w : workloads()) {
        if (workload == w.name)
            def = &w;
    }
    if (def == nullptr)
        usage(("unknown workload '" + workload + "'").c_str());

    std::printf("perfbench: workload=%s seed=%llu seconds=%llu trace=%llu\n",
                def->name, static_cast<unsigned long long>(seed),
                static_cast<unsigned long long>(seconds),
                static_cast<unsigned long long>(trace));
    std::fflush(stdout);

    // Repeat until the measuring time is spent; a traced run needs at
    // least one untraced and one traced repetition.
    auto t0 = std::chrono::steady_clock::now();
    auto elapsed = [&t0] {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0)
            .count();
    };
    std::vector<Rep> reps;
    std::unique_ptr<Tracer> first_trace;
    // Peak memory of the first repetition: later repetitions reuse
    // freed memory unevenly, so the process-lifetime peak would vary
    // with how many repetitions fit in the run.
    long peak_rss_kb = 0;
    std::vector<double> setup, setup_raw;
    auto add_setup = [&setup, &setup_raw](const HostTime &t) {
        setup.push_back(t.scaled);
        setup_raw.push_back(t.raw);
    };
    while (reps.empty() || elapsed() < static_cast<double>(seconds) ||
           (trace && reps.size() < 2)) {
        Rep rep;
        rep.traced = trace && reps.size() % 2 == 1;
        auto tracer = rep.traced ? std::make_unique<Tracer>() : nullptr;
        setActiveTracer(tracer.get());
        rep.result = def->run(seed, false);
        setActiveTracer(nullptr);
        if (tracer) {
            rep.spans = tracer->totals();
            if (!first_trace)
                first_trace = std::move(tracer);
        }
        reps.push_back(std::move(rep));
        if (reps.size() == 1)
            peak_rss_kb = peakRssKb();
        // Set-up-only passes after each repetition spread the set-up
        // samples over the whole run rather than one stretch of it.
        for (int i = 0; i < kSetupPassesPerRep; ++i)
            add_setup(def->run(seed, true).setup);
    }

    RepResult &base = reps.front().result;
    std::vector<std::string> failures = base.failures;
    for (std::size_t i = 1; i < reps.size(); ++i) {
        const RepResult &r = reps[i].result;
        failures.insert(failures.end(), r.failures.begin(), r.failures.end());
        if (r.fingerprint != base.fingerprint)
            failures.push_back("repetition " + std::to_string(i) +
                               (reps[i].traced ? " (traced)" : "") +
                               " changed the modeled results");
    }

    // Host-time metrics: medians over the untraced (resp. traced)
    // repetitions, scaled to nominal host speed (calib.hh); the raw
    // medians go in the notes. Set-up is a far shorter phase, so it is
    // sampled at least kMinSetupSamples times.
    std::vector<double> wall, wall_raw, traced_wall;
    for (const Rep &rep : reps) {
        const RepResult &r = rep.result;
        if (rep.traced) {
            traced_wall.push_back(r.wall.scaled);
            continue;
        }
        wall.push_back(r.wall.scaled);
        wall_raw.push_back(r.wall.raw);
        add_setup(r.setup);
    }
    while (setup.size() < kMinSetupSamples)
        add_setup(def->run(seed, true).setup);
    auto host_note = [](const std::vector<double> &raw) {
        char buf[96];
        std::snprintf(buf, sizeof buf,
                      "median of %zu at nominal host speed; raw %.6f s",
                      raw.size(), median(raw));
        return std::string(buf);
    };
    double wall_s = median(wall);
    auto &m = base.metrics;
    m["wall_s"] = Metric{wall_s, "s", "host", host_note(wall_raw)};
    m["setup_s"] = Metric{median(setup), "s", "host", host_note(setup_raw)};
    m["peak_rss_mb"] = Metric{static_cast<double>(peak_rss_kb) / 1024.0,
                              "MB", "host",
                              "ru_maxrss after the first repetition"};
    m["sim.events"] = Metric{static_cast<double>(base.measuredEvents),
                             "count", "count", "measured phase"};
    m["sim.events_per_s"] =
        Metric{static_cast<double>(base.measuredEvents) / wall_s, "1/s",
               "host", "sim.events / wall_s"};

    auto traced_median = [&reps](auto fn) {
        std::vector<double> v;
        for (const Rep &rep : reps) {
            if (rep.traced)
                v.push_back(fn(rep));
        }
        return median(v);
    };
    auto span_metric = [&](const char *metric, const char *span,
                           bool self) {
        m[metric] = Metric{
            traced_median([span, self](const Rep &rep) {
                return perSpanNs(rep, span, self);
            }),
            "ns", "host",
            std::string(self ? "self" : "total") + " ns per " + span +
                " span"};
    };
    if (trace) {
        span_metric("host.submit_ns", "host.submit", true);
        span_metric("fuzz.complete_ns", "fuzz.complete", true);
        span_metric("workload.complete_ns", "workload.complete", true);
        span_metric("fleet.admit_ns", "fleet.admit", false);
        span_metric("mgmt.verb_ns", "mgmt.verb", false);
        m["sim.run_ns_per_event"] = Metric{
            traced_median([](const Rep &rep) {
                auto it = rep.spans.find("sim.run");
                if (it == rep.spans.end() || rep.result.runEvents == 0)
                    return 0.0;
                return static_cast<double>(it->second.selfNs) /
                       static_cast<double>(rep.result.runEvents);
            }),
            "ns", "host", "sim.run self ns / events run in sim.run"};
        m["trace.overhead_s"] =
            Metric{median(traced_wall) - wall_s, "s", "host",
                   "traced wall_s - untraced wall_s"};
    }

    // Report.
    std::size_t ntraced = static_cast<std::size_t>(
        std::count_if(reps.begin(), reps.end(),
                      [](const Rep &r) { return r.traced; }));
    std::printf("reps: %zu (%zu traced)   fingerprint: %016llx\n",
                reps.size(), ntraced,
                static_cast<unsigned long long>(base.fingerprint));
    std::printf("%-32s %18s %-6s %-5s %s\n", "metric", "value", "unit",
                "clock", "note");
    for (const auto &[name, metric] : m) {
        std::printf("%-32s %18.6f %-6s %-5s %s\n", name.c_str(),
                    metric.value, metric.unit.c_str(), metric.clock.c_str(),
                    metric.note.c_str());
    }
    if (first_trace) {
        std::printf("\nself time per span (first traced repetition):\n");
        std::printf("%-20s %10s %12s %12s %14s\n", "span", "count",
                    "total_ms", "self_ms", "self_ns/span");
        for (const auto &[name, t] : first_trace->totals()) {
            std::printf("%-20s %10llu %12.3f %12.3f %14.1f\n", name.c_str(),
                        static_cast<unsigned long long>(t.count),
                        static_cast<double>(t.totalNs) / 1e6,
                        static_cast<double>(t.selfNs) / 1e6,
                        t.count ? static_cast<double>(t.selfNs) /
                                      static_cast<double>(t.count)
                                : 0.0);
        }
        std::printf("spans buffered: %zu, dropped past the buffer cap: "
                    "%llu\n",
                    first_trace->recorded(),
                    static_cast<unsigned long long>(first_trace->dropped()));
        if (!trace_out.empty()) {
            if (first_trace->writeChrome(trace_out))
                std::printf("chrome trace: %s\n", trace_out.c_str());
            else
                failures.push_back("cannot write " + trace_out);
        }
    }

    for (const auto &[name, metric] : m) {
        if (!std::isfinite(metric.value))
            failures.push_back("non-finite " + name);
    }
    for (const std::string &f : failures)
        std::printf("CHECK FAILED: %s\n", f.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                failures.empty() ? "true" : "false",
                static_cast<unsigned long long>(std::max<std::uint64_t>(
                    base.attempted, 1)),
                static_cast<unsigned long long>(base.failed));
    const char *sep = "";
    for (const auto &[name, metric] : m) {
        std::printf("%s\"%s\": {\"value\": ", sep, name.c_str());
        printJsonNumber(std::isfinite(metric.value) ? metric.value : 0.0);
        std::printf(", \"unit\": \"%s\"}", metric.unit.c_str());
        sep = ", ";
    }
    std::printf("}}\n");
    return failures.empty() ? 0 : 1;
}
