#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Each run configures and builds the
simulator and the benchmark (perfbench/CMakeLists.txt) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; only the
first run compiles everything. Every run executes the benchmark's self-tests
before measuring. The benchmark binary reports every metric it computed; this
script keeps the ones BENCHMARK.json names. The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics with --trace 0, the per-layer ones with
--trace 1. A traced run also writes its spans as Chrome trace-event
JSON under the build directory.

Exit status: 0 on success; 1 when the build, a self-test or a
correctness check fails (no result line is printed if nothing was
measured); 2 on bad usage.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["fanout_randread", "verified_rw", "fleet_upgrade",
             "paper_table_iv"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build(bdir):
    """Configure and build; all build output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", bdir, "-j", jobs, "--target", "perfbench",
              "perfbench_selftest"]]
    for cmd in steps:
        try:
            res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                 timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail("build step %s failed: %s" % (cmd[:2], e))
        if res.returncode != 0:
            fail("build step %s exited %d" % (" ".join(cmd[:2]),
                                              res.returncode))


def metric_spec(trace):
    """(name, unit) pairs BENCHMARK.json lists for this mode."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))
    key = "per_layer" if trace else "end_to_end"
    return key, [(m["name"], m["unit"]) for m in spec[key]]


def select(result, trace):
    """Keep the metrics of this mode, with BENCHMARK.json's units.

    A metric the benchmark did not compute, or computed in another unit,
    fails the run. An end-to-end metric that is not positive marks the
    result incorrect: each of them is a rate, time or size."""
    key, spec = metric_spec(trace)
    got = result["metrics"]
    missing = [n for n, _ in spec if n not in got]
    if missing:
        fail("%s metrics not computed: %s" % (key, ", ".join(missing)))
    wrong = ["%s (%s, not %s)" % (n, got[n]["unit"], u)
             for n, u in spec if got[n]["unit"] != u]
    if wrong:
        fail("%s metrics in the wrong unit: %s" % (key, ", ".join(wrong)))
    correct = result["correct"]
    if not trace:
        for n, _ in spec:
            if not got[n]["value"] > 0:
                print("perfbench: end-to-end metric %s is not positive" % n,
                      file=sys.stderr)
                correct = False
    return {"correct": correct, "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {n: {"value": got[n]["value"], "unit": u}
                        for n, u in spec}}


def main():
    ap = argparse.ArgumentParser(allow_abbrev=False,
                                 description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    bdir = build_dir()
    build(bdir)
    try:
        st = subprocess.run([os.path.join(bdir, "perfbench_selftest")],
                            stdout=sys.stderr, stderr=sys.stderr,
                            timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("self-tests did not run: %s" % e)
    if st.returncode != 0:
        fail("self-tests failed; not measuring")

    cmd = [os.path.join(bdir, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(bdir, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    try:
        res = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                             text=True, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("benchmark did not finish: %s" % e)
    lines = res.stdout.rstrip("\n").split("\n")
    # The report goes through; its all-metrics line is replaced by the
    # selected one.
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    sys.stdout.flush()
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(lines[-1] + "\n")
        fail("benchmark printed no result line (exit %d)" % res.returncode)
    out = select(result, args.trace)
    print(json.dumps(out))
    if res.returncode != 0 or not out["correct"]:
        fail("correctness check failed (exit %d)" % res.returncode)
    return 0


if __name__ == "__main__":
    sys.exit(main())
