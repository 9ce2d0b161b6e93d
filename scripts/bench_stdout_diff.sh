#!/usr/bin/env bash
# Legacy-bench stdout identity check between two build trees.
#
#   scripts/bench_stdout_diff.sh <parent-build> <change-build> [bench...]
#
# Runs each named bench binary (default: every bench_* under
# <parent-build>/bench except the host-time bench_micro_index) from both
# build trees at the ambient LOGBASE_BENCH_SCALE (the benches default to
# 0.1), and compares their stdout plus exit status. Each run gets its own
# scratch working directory, so nothing a bench writes lands in the
# checkout, and `results: <path>` lines are dropped before comparing. The
# two builds' runs of one bench go side by side; the benches run one after
# another.
#
# Prints `same`/`DIFFERS` per bench, with the first differing lines of a
# bench that differs; exits 1 when any bench differs, 2 on bad usage.
#
# Build each tree from its own checkout, e.g.
#   cmake -S <checkout> -B <dir> -DCMAKE_BUILD_TYPE=Release
#   cmake --build <dir>        # -> <dir>/bench/bench_*
set -euo pipefail

if [[ $# -lt 2 ]]; then
  echo "usage: $0 <parent-build> <change-build> [bench...]" >&2
  exit 2
fi
parent="$1"
change="$2"
shift 2
for build in "${parent}" "${change}"; do
  if [[ ! -d "${build}/bench" ]]; then
    echo "bench_stdout_diff: no bench directory in ${build}" >&2
    exit 2
  fi
done

benches=("$@")
if [[ ${#benches[@]} -eq 0 ]]; then
  for binary in "${parent}"/bench/bench_*; do
    name="$(basename "${binary}")"
    [[ -x "${binary}" && "${name}" != bench_micro_index ]] && benches+=("${name}")
  done
fi

tmp="$(mktemp -d)"
trap 'rm -rf "${tmp}"' EXIT

# Runs one bench of one build in its own directory; keeps stdout minus the
# results-path lines, then the exit status.
run_bench() {
  local build="$1" bench="$2" out="$3"
  local dir
  dir="$(mktemp -d "${tmp}/run.XXXXXX")"
  local binary
  binary="$(cd "${build}/bench" && pwd)/${bench}"
  if [[ ! -x "${binary}" ]]; then
    echo "missing binary: ${build}/bench/${bench}" > "${out}"
    return
  fi
  local status=0
  (cd "${dir}" && "${binary}") > "${out}.raw" 2>/dev/null || status=$?
  grep -v '^results: ' "${out}.raw" > "${out}" || true
  echo "exit: ${status}" >> "${out}"
}

differs=0
for bench in "${benches[@]}"; do
  run_bench "${parent}" "${bench}" "${tmp}/${bench}.parent" &
  run_bench "${change}" "${bench}" "${tmp}/${bench}.change" &
  wait
  if cmp -s "${tmp}/${bench}.parent" "${tmp}/${bench}.change"; then
    echo "same     ${bench}"
  else
    echo "DIFFERS  ${bench}"
    diff "${tmp}/${bench}.parent" "${tmp}/${bench}.change" | head -n 20 |
      sed 's/^/    /' || true
    differs=1
  fi
done
exit "${differs}"
