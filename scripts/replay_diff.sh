#!/usr/bin/env bash
# Byte-identical replay check of the working tree against another
# revision: the gate a change that must not alter behaviour passes.
#
# Usage: scripts/replay_diff.sh REV      (e.g. scripts/replay_diff.sh HEAD~1)
#
# Builds REV in a temporary git worktree under build-replay/ and the
# working tree in build/ (the fuzz and ext_fleet targets only), then
# compares the two:
#
#   - the `fuzz` stdout of every pinned seed family, with check.sh's
#     seed and flag sets (1:8, 201:204, 301:304, 401:404, 501:504 and
#     601:604 --fleet), byte for byte;
#   - `ext_fleet --quick --json=PATH`'s traceHash, totalOps,
#     verifiedBlocks and events. The speed gates are switched off:
#     this compares behaviour, not how fast the host ran it.
#
# Exits 0 when everything matches and 1 on any difference or failed
# run (the outputs stay under build-replay/out/{old,new}/ for diff);
# 2 on bad usage.

set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -ne 1 ]; then
    echo "usage: scripts/replay_diff.sh REV" >&2
    exit 2
fi
if ! rev=$(git rev-parse --verify --quiet "$1^{commit}"); then
    echo "replay_diff.sh: '$1' is not a commit" >&2
    exit 2
fi

jobs="$(nproc 2>/dev/null || echo 4)"
root=build-replay
tree="${root}/tree"
out="${root}/out"

# A worktree left behind by an interrupted run is replaced.
git worktree remove --force "${tree}" >/dev/null 2>&1 || true
git worktree prune
git worktree add --detach "${tree}" "${rev}" >/dev/null
trap 'git worktree remove --force "${tree}" >/dev/null 2>&1 || true' EXIT

build() { # SOURCE_DIR BUILD_DIR
    cmake -B "$2" -S "$1" >/dev/null
    cmake --build "$2" --target fuzz ext_fleet -j "${jobs}" >/dev/null
}
echo "replay_diff.sh: building ${rev:0:12} in ${root}/build"
build "${tree}" "${root}/build"
echo "replay_diff.sh: building the working tree in build"
build . build

families=(
    "1:8 --horizon-ms=30"
    "201:204 --horizon-ms=30 --min-ssds=2 --force-migration"
    "301:304 --horizon-ms=20 --max-tenants=16"
    "401:404 --horizon-ms=120 --min-ssds=2 --remote-nodes=2 --force-tiering"
    "501:504 --horizon-ms=30 --force-thin"
    "601:604 --fleet --horizon-ms=60"
)

fail=0
rm -rf "${out}"
for side in old new; do
    bin=build
    [ "${side}" = old ] && bin="${root}/build"
    mkdir -p "${out}/${side}"
    for fam in "${families[@]}"; do
        read -r seeds flags <<<"${fam}"
        # shellcheck disable=SC2086  # word-splitting the flags is intended
        "${bin}/fuzz" --seeds="${seeds}" ${flags} \
            >"${out}/${side}/fuzz_${seeds/:/-}.txt" || {
            echo "replay_diff.sh: ${side} fuzz --seeds=${seeds} failed" >&2
            fail=1
        }
    done
    "${bin}/bench/ext_fleet" --quick --events-floor=0 --wall-limit-s=1e9 \
        --json="${out}/${side}/fleet.json" >"${out}/${side}/fleet.txt" || {
        echo "replay_diff.sh: ${side} ext_fleet --quick failed" >&2
        fail=1
    }
done

for fam in "${families[@]}"; do
    read -r seeds _ <<<"${fam}"
    f="fuzz_${seeds/:/-}.txt"
    if cmp -s "${out}/old/${f}" "${out}/new/${f}"; then
        echo "replay_diff.sh: fuzz ${seeds} identical"
    else
        echo "replay_diff.sh: fuzz ${seeds} DIFFERS" >&2
        diff "${out}/old/${f}" "${out}/new/${f}" | head -20 >&2 || true
        fail=1
    fi
done

fleet_keys() {
    python3 -c '
import json, sys
d = json.load(open(sys.argv[1]))
print(" ".join("%s=%s" % (k, d[k]) for k in
               ("traceHash", "totalOps", "verifiedBlocks", "events")))
' "$1" 2>/dev/null || echo "unreadable"
}
old_fleet=$(fleet_keys "${out}/old/fleet.json")
new_fleet=$(fleet_keys "${out}/new/fleet.json")
if [ "${old_fleet}" = "${new_fleet}" ] && [ "${old_fleet}" != unreadable ]; then
    echo "replay_diff.sh: ext_fleet --quick identical (${new_fleet})"
else
    echo "replay_diff.sh: ext_fleet --quick DIFFERS" >&2
    echo "  old: ${old_fleet}" >&2
    echo "  new: ${new_fleet}" >&2
    fail=1
fi

if [ "${fail}" -ne 0 ]; then
    echo "replay_diff.sh: FAILED against ${rev:0:12}" >&2
    exit 1
fi
echo "replay_diff.sh: OK, byte-identical to ${rev:0:12}"
