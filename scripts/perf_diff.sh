#!/usr/bin/env bash
# Per-part virtual-time identity check between two perfbench binaries.
#
#   scripts/perf_diff.sh <parent-binary> <change-binary> [workload...]
#
# Runs each named workload (default: every workload in BENCHMARK.json) at
# seeds 1 and 2, parts 0-3, untraced, once per binary, and compares the two
# outputs line by line after dropping host-time lines (`host` rows and the
# setup_s / phase_host_s / rss_mb scalars). Everything left is virtual time
# and program counters, which a seed and part repeat bit for bit; a change
# that claims "no virtual metric moved" must print `same` for every part.
# Prints one line per workload, seed and part, plus the first differing lines
# of any part that differs; exits 1 when any part differs.
#
# Build each binary from its own checkout, e.g.
#   cmake -S perfbench -B <dir> -DCMAKE_BUILD_TYPE=Release
#   cmake --build <dir>        # -> <dir>/logbase_perfbench
set -euo pipefail

if [[ $# -lt 2 ]]; then
  echo "usage: $0 <parent-binary> <change-binary> [workload...]" >&2
  exit 2
fi
parent="$1"
change="$2"
shift 2
for binary in "${parent}" "${change}"; do
  if [[ ! -x "${binary}" ]]; then
    echo "perf_diff: not an executable: ${binary}" >&2
    exit 2
  fi
done

workloads=("$@")
if [[ ${#workloads[@]} -eq 0 ]]; then
  mapfile -t workloads < <(python3 -c '
import json, os, sys
root = os.path.dirname(os.path.dirname(os.path.abspath(sys.argv[1])))
for w in json.load(open(os.path.join(root, "BENCHMARK.json")))["workloads"]:
    print(w["name"])' "$0")
fi

HOST_LINES='^host\t|^scalar\t(setup_s|phase_host_s|rss_mb)\t'
tmp="$(mktemp -d)"
trap 'rm -rf "${tmp}"' EXIT

# Runs one repetition and keeps its virtual-time lines.
virtual_lines() {
  local binary="$1" workload="$2" seed="$3" part="$4"
  "${binary}" --workload "${workload}" --seed "${seed}" --part "${part}" \
      --traced 0 | grep -v -P "${HOST_LINES}"
}

differing=0
for workload in "${workloads[@]}"; do
  for seed in 1 2; do
    for part in 0 1 2 3; do
      virtual_lines "${parent}" "${workload}" "${seed}" "${part}" \
          > "${tmp}/parent"
      virtual_lines "${change}" "${workload}" "${seed}" "${part}" \
          > "${tmp}/change"
      if diff -q "${tmp}/parent" "${tmp}/change" > /dev/null; then
        echo "same     ${workload} seed ${seed} part ${part}"
      else
        echo "DIFFERS  ${workload} seed ${seed} part ${part}"
        # Latency rows are one long line each; show only their heads.
        diff "${tmp}/parent" "${tmp}/change" | cut -c1-120 | head -n 12 || true
        differing=$((differing + 1))
      fi
    done
  done
done

if [[ ${differing} -gt 0 ]]; then
  echo "perf_diff: ${differing} part(s) differ"
  exit 1
fi
echo "perf_diff: every part identical"
