#!/usr/bin/env bash
# Pre-PR gate: bms-lint determinism pass + clang-tidy + ASan/UBSan
# test run + lane-conflict census gate + perfbench fingerprints.
#
# Usage: scripts/check.sh [--lint-only|--tidy-only|--san-only|--lane-only|
#                          --bench-only]
#
# 1. bms-lint (tools/bms-lint) over every source file in src/ and
#    tests/: project determinism rules R1-R5 (wall-clock/entropy,
#    unordered iteration, pointer ordering, bare assert, tick-epsilon
#    offsets — DESIGN.md §13). Fails on any new violation; every
#    BMS_LINT_ALLOW suppression must carry a reason.
# 2. clang-tidy over src/ with the repo .clang-tidy profile (skipped
#    with a warning when clang-tidy is not installed — the container
#    image ships gcc only). Reuses build/compile_commands.json when
#    the default build tree already exported one.
# 3. A fresh ASan+UBSan build (-DBMS_SANITIZE="address;undefined")
#    running the full ctest suite, the pinned fuzz seeds and the
#    quick-mode extension benches.
# 4. A -DBMS_LANE_AUDIT=ON build replaying the pinned fuzz seeds and
#    the quick full-card sweep with the same-tick lane-conflict
#    sanitizer armed, merging the per-run censuses into
#    build-lane/lane_conflicts.json and gating every write-involving
#    cross-lane conflict against scripts/lane_baseline.json.
# 5. The repository benchmark (perfbench/run.py) at seed 1 for every
#    workload pinned in scripts/perfbench_fingerprints.json: each
#    run's modeled-results fingerprint (the `reps:` line) must equal
#    the pinned value — a one-command proof that a simulator-only
#    change left modeled results untouched.
#
# Build trees land in build-lint/, build-tidy/, build-asan/,
# build-lane/ and .bench_build/ so they never disturb an existing
# build/.

set -euo pipefail
cd "$(dirname "$0")/.."

mode="${1:-all}"
jobs="$(nproc 2>/dev/null || echo 4)"
fail=0

build_lint_tool() {
    cmake -B build-lint -S . >/dev/null
    cmake --build build-lint --target bms-lint -j "${jobs}" >/dev/null
}

run_lint() {
    echo "== bms-lint (determinism rules R1-R5) =="
    build_lint_tool
    # File by file over simulation code and tests; headers are linted
    # directly (not just through including TUs).
    local files
    files=$(find src tests -name '*.cc' -o -name '*.hh' -o -name '*.h' \
            | sort)
    # shellcheck disable=SC2086  # word-splitting the file list is intended
    ./build-lint/tools/bms-lint/bms-lint ${files} || fail=1
}

run_tidy() {
    if ! command -v clang-tidy >/dev/null 2>&1; then
        echo "check.sh: WARNING: clang-tidy not found; skipping static analysis" >&2
        return 0
    fi
    echo "== clang-tidy =="
    # The default build exports compile_commands.json
    # (CMAKE_EXPORT_COMPILE_COMMANDS is ON in the top-level
    # CMakeLists); reuse whichever tree already has one before
    # configuring a dedicated build-tidy/.
    local ccdir=""
    for d in build build-tidy; do
        if [ -f "${d}/compile_commands.json" ]; then
            ccdir="${d}"
            break
        fi
    done
    if [ -z "${ccdir}" ]; then
        cmake -B build-tidy -S . >/dev/null
        ccdir=build-tidy
    fi
    echo "check.sh: using ${ccdir}/compile_commands.json"
    # Headers are covered through the TUs that include them
    # (HeaderFilterRegex in .clang-tidy).
    local files
    files=$(find src -name '*.cc' | sort)
    if command -v run-clang-tidy >/dev/null 2>&1; then
        run-clang-tidy -p "${ccdir}" -quiet ${files} || fail=1
    else
        for f in ${files}; do
            clang-tidy -p "${ccdir}" --quiet "$f" || fail=1
        done
    fi
}

run_san() {
    echo "== ASan+UBSan ctest =="
    cmake -B build-asan -S . -DBMS_SANITIZE="address;undefined" >/dev/null
    cmake --build build-asan -j "${jobs}"
    (cd build-asan && ctest --output-on-failure -j "${jobs}") || fail=1
    # The fixed-seed fuzz schedule under sanitizers: the torture mix
    # (splits, upgrades, fault windows) reaches datapaths the unit
    # tests don't, which is exactly where ASan/UBSan earn their keep.
    echo "== ASan+UBSan fuzz (fixed seeds) =="
    ./build-asan/fuzz --seeds=1:8 --horizon-ms=30 || fail=1
    # The pinned migration seeds: forced chunk moves + evacuations
    # with fault windows overlapping the copy on both legs.
    echo "== ASan+UBSan fuzz (migration seeds) =="
    ./build-asan/fuzz --seeds=201:204 --horizon-ms=30 --min-ssds=2 \
        --force-migration || fail=1
    # The pinned multi-VF seeds: up to 16 tenants riding VFs with
    # randomized SQ counts, arbitration modes and QPRIO mixes.
    echo "== ASan+UBSan fuzz (multi-VF seeds) =="
    ./build-asan/fuzz --seeds=301:304 --horizon-ms=20 \
        --max-tenants=16 || fail=1
    # The pinned tiering seeds: remote storage nodes with a forced
    # early spill, a mid-run storage-node loss (recovery must be an
    # atomic flip to the local shadows — zero data loss) and a
    # post-recovery promote, plus random link-latency spikes.
    echo "== ASan+UBSan fuzz (tiering seeds) =="
    ./build-asan/fuzz --seeds=401:404 --horizon-ms=120 --min-ssds=2 \
        --remote-nodes=2 --force-tiering || fail=1
    # The pinned thin-provisioning seeds: every tenant thin (allocate
    # on first write, TRIMs in the stream), a forced mid-run snapshot
    # of tenant 0, a clone verified against the snapshot's stamp
    # lineage, and a late snapshot delete — chunk CoW under live I/O.
    echo "== ASan+UBSan fuzz (thin/snapshot seeds) =="
    ./build-asan/fuzz --seeds=501:504 --horizon-ms=30 \
        --force-thin || fail=1
    # The pinned fleet seeds: 2-4 cards in one simulation, admissions
    # through the placement scorer, a rolling wave (firmware or
    # lossless replace) under a failure budget, and a correlated
    # drill with node losses and upgrade storms mid-wave.
    echo "== ASan+UBSan fuzz (fleet seeds) =="
    ./build-asan/fuzz --seeds=601:604 --fleet --horizon-ms=60 || fail=1
    # Quick-mode full-card sweep: catches event-kernel perf
    # regressions via the events/sec floor (set low — ASan costs
    # roughly an order of magnitude of simulator speed). Results go
    # to build-asan/, never over the committed repo-root BENCH_*.json.
    echo "== ASan+UBSan ext_full_card (quick) =="
    ./build-asan/bench/ext_full_card --quick --events-floor=20000 \
        --wall-limit-s=300 --json=build-asan/BENCH_full_card.json || fail=1
    # Quick-mode remote-tier bench: the tiering transparency gate
    # (tenant p99 under spill/promote churn vs idle) runs on simulated
    # time, so it holds even at ASan speed.
    echo "== ASan+UBSan ext_remote_storage (quick) =="
    ./build-asan/bench/ext_remote_storage --quick \
        --json=build-asan/BENCH_remote_tier.json || fail=1
    # Quick-mode live-migration bench: the tenant keeps at least the
    # default --floor share of its idle IOPS while its chunks move,
    # through the gate's mirror and hold paths (simulated time, so
    # ASan-proof).
    echo "== ASan+UBSan ext_chunk_migration (quick) =="
    ./build-asan/bench/ext_chunk_migration --quick || fail=1
    # Quick-mode fleet smoke: an 8-card rolling wave plus drill with
    # the makespan gate on simulated time (ASan-proof) and a floor on
    # events/sec set an order of magnitude under native speed.
    echo "== ASan+UBSan ext_fleet (quick) =="
    ./build-asan/bench/ext_fleet --quick --events-floor=20000 \
        --wall-limit-s=580 --json=build-asan/BENCH_fleet.json || fail=1
}

run_lane() {
    echo "== lane-conflict audit (BMS_LANE_AUDIT=ON) =="
    cmake -B build-lane -S . -DBMS_LANE_AUDIT=ON >/dev/null
    cmake --build build-lane --target fuzz ext_full_card ext_fleet \
        bms-lint -j "${jobs}" >/dev/null
    local out=build-lane
    # The pinned fuzz schedules again, now with every instrumented
    # shared structure reporting (tick, lane, object, read|write).
    # Shorter horizons than the ASan pass: the census saturates fast
    # (conflict *kinds* are gated, not counts).
    ./${out}/fuzz --seeds=1:8 --horizon-ms=20 \
        --lane-audit-out=${out}/census_base.json >/dev/null || fail=1
    ./${out}/fuzz --seeds=201:204 --horizon-ms=20 --min-ssds=2 \
        --force-migration \
        --lane-audit-out=${out}/census_migration.json >/dev/null || fail=1
    ./${out}/fuzz --seeds=301:304 --horizon-ms=15 --max-tenants=16 \
        --lane-audit-out=${out}/census_multivf.json >/dev/null || fail=1
    ./${out}/fuzz --seeds=401:404 --horizon-ms=60 --min-ssds=2 \
        --remote-nodes=2 --force-tiering \
        --lane-audit-out=${out}/census_tiering.json >/dev/null || fail=1
    ./${out}/fuzz --seeds=501:504 --horizon-ms=20 --force-thin \
        --lane-audit-out=${out}/census_thin.json >/dev/null || fail=1
    # Fleet runs prefix every object with cardN.; the census tools
    # strip the prefix, so multi-card conflicts gate against the same
    # single-card baseline.
    ./${out}/fuzz --seeds=601:602 --fleet --horizon-ms=40 \
        --lane-audit-out=${out}/census_fleet.json >/dev/null || fail=1
    ./${out}/bench/ext_full_card --quick --events-floor=50000 \
        --wall-limit-s=300 \
        --lane-audit-out=${out}/census_full_card.json \
        --json=${out}/BENCH_full_card.json >/dev/null || fail=1
    ./${out}/bench/ext_fleet --quick --events-floor=50000 \
        --wall-limit-s=580 \
        --lane-audit-out=${out}/census_fleet_bench.json \
        --json=${out}/BENCH_fleet.json >/dev/null || fail=1
    # One ranked census over every run — the artifact a parallel-lane
    # PR reads to learn which objects need sharding or staging.
    ./${out}/tools/bms-lint/bms-lint --merge-census \
        ${out}/lane_conflicts.json ${out}/census_*.json || fail=1
    echo "check.sh: merged census at ${out}/lane_conflicts.json"
    # The invariant: every same-tick cross-lane conflict involving a
    # write is known and baselined; anything new fails the gate.
    ./${out}/tools/bms-lint/bms-lint --check-census \
        scripts/lane_baseline.json ${out}/lane_conflicts.json || fail=1
}

run_bench() {
    echo "== perfbench fingerprints (scripts/perfbench_fingerprints.json) =="
    local pins=scripts/perfbench_fingerprints.json
    local seed w want got out rc
    seed=$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["seed"])' "${pins}")
    mkdir -p .bench_build
    while read -r w want; do
        out=".bench_build/check_${w}"
        rc=0
        python3 perfbench/run.py --workload "${w}" --seed "${seed}" \
            --seconds 1 --trace 0 >"${out}.out" 2>"${out}.log" || rc=$?
        got=$(sed -n 's/^reps:.*fingerprint: \([0-9a-f]*\).*$/\1/p' \
                  "${out}.out")
        if [ "${rc}" -eq 0 ] && [ "${got}" = "${want}" ]; then
            echo "check.sh: ${w} fingerprint ${got} matches"
        else
            echo "check.sh: ${w} fingerprint '${got}' (exit ${rc})," \
                 "pinned ${want}; see ${out}.log" >&2
            tail -5 "${out}.log" >&2
            fail=1
        fi
    done < <(python3 -c '
import json, sys
for w, fp in json.load(open(sys.argv[1]))["fingerprints"].items():
    print(w, fp)' "${pins}")
}

case "${mode}" in
  --lint-only) run_lint ;;
  --tidy-only) run_tidy ;;
  --san-only)  run_san ;;
  --lane-only) run_lane ;;
  --bench-only) run_bench ;;
  all)         run_lint; run_tidy; run_san; run_lane; run_bench ;;
  *) echo "usage: scripts/check.sh [--lint-only|--tidy-only|--san-only|--lane-only|--bench-only]" >&2
     exit 2 ;;
esac

if [ "${fail}" -ne 0 ]; then
    echo "check.sh: FAILED" >&2
    exit 1
fi
echo "check.sh: OK"
