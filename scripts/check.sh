#!/usr/bin/env bash
# CI gate: lint, then build and test under the selected presets.
#
#   scripts/check.sh                 # lint + default + asan
#   scripts/check.sh --lint          # lint only (no build needed)
#   scripts/check.sh --asan          # asan preset only
#   scripts/check.sh --tsan          # tsan preset: concurrency-labeled
#                                    # subset under ThreadSanitizer, with
#                                    # the lock-order checker active
#   scripts/check.sh --chaos         # chaos-labeled suite (fault injection
#                                    # + nemesis) under the default AND
#                                    # tsan presets
#   scripts/check.sh --tsa           # clang-tsa preset: full build with
#                                    # -Wthread-safety as errors plus the
#                                    # tsa_negative harness (skips with a
#                                    # notice when clang is not installed)
#   scripts/check.sh --bench [names] # build the default preset, run the
#                                    # named benches (all bench_* when none
#                                    # given) and aggregate their --json
#                                    # results into repo-root BENCH_*.json
#                                    # via scripts/collect_bench.py
#   scripts/check.sh --profile <workload>
#                                    # gprof flat profile (top 20) of one
#                                    # untraced perfbench repetition, built
#                                    # with the profile preset's flags into
#                                    # .bench_build/profile
#   scripts/check.sh default tsan    # explicit preset list
#
# The default preset runs the full suite including the `lint` and
# `lint_selftest` ctest entries; sanitizer presets re-run the suite under
# asan+ubsan / tsan (the tsan test preset filters to the "concurrency"
# label).
set -euo pipefail

cd "$(dirname "$0")/.."

run_lint() {
  echo "==== lint ===="
  python3 scripts/lint.py --self-test
  python3 scripts/lint.py
}

# Profiles one perfbench repetition (part 0, untraced) of workload $1. The
# repetition runs in this process, not a spawned child, so gmon.out is its
# profile. The flags come from the profile preset; -static keeps libstdc++
# and libc frames in the profile (DESIGN.md §5).
run_profile() {
  local workload="$1"
  local dir=".bench_build/profile"
  local flags
  mapfile -t flags < <(python3 -c '
import json
for p in json.load(open("CMakePresets.json"))["configurePresets"]:
    if p["name"] == "profile":
        for k, v in p["cacheVariables"].items():
            print("-D%s=%s" % (k, v))')
  echo "==== profile: ${workload} ===="
  cmake -S perfbench -B "${dir}" "${flags[@]}" >/dev/null
  cmake --build "${dir}" -j "$(nproc)" >/dev/null
  rm -f "${dir}/gmon.out"
  (cd "${dir}" && ./logbase_perfbench --workload "${workload}" --seed 1 \
    --part 0 --traced 0 >/dev/null)
  gprof -b -p "${dir}/logbase_perfbench" "${dir}/gmon.out" | head -n 25
}

presets=()
lint_only=0
chaos=0
tsa=0
bench=0
bench_names=()
profile=""
for arg in "$@"; do
  if [ "${bench}" -eq 1 ]; then
    # Everything after --bench names a bench binary to run.
    bench_names+=("${arg}")
    continue
  fi
  if [ "${profile}" = "-" ]; then
    profile="${arg}"
    continue
  fi
  case "${arg}" in
    --profile) profile="-" ;;
    --lint) lint_only=1 ;;
    --asan) presets+=(asan) ;;
    --tsan) presets+=(tsan) ;;
    --chaos) chaos=1 ;;
    --tsa) tsa=1 ;;
    --bench) bench=1 ;;
    *) presets+=("${arg}") ;;
  esac
done

if [ "${profile}" = "-" ]; then
  echo "usage: scripts/check.sh --profile <workload>" >&2
  exit 2
fi
if [ -n "${profile}" ]; then
  run_profile "${profile}"
  exit 0
fi

if [ "${lint_only}" -eq 1 ] && [ ${#presets[@]} -eq 0 ] \
    && [ "${chaos}" -eq 0 ] && [ "${tsa}" -eq 0 ] \
    && [ "${bench}" -eq 0 ]; then
  run_lint
  exit 0
fi

if [ ${#presets[@]} -eq 0 ] && [ "${chaos}" -eq 0 ] && [ "${tsa}" -eq 0 ] \
    && [ "${bench}" -eq 0 ]; then
  presets=(default asan)
fi

run_lint

for preset in "${presets[@]}"; do
  echo "==== preset: ${preset} ===="
  cmake --preset "${preset}"
  cmake --build --preset "${preset}" -j "$(nproc)"
  ctest --preset "${preset}"
done

if [ "${tsa}" -eq 1 ]; then
  # Compile-time thread-safety analysis: the whole tree must build with
  # clang's -Wthread-safety promoted to errors, and the tsa_negative
  # harness ("static" label) must show the seeded violations are rejected.
  # The container ships GCC only, so a missing clang is a skip, not a
  # failure — CI runners with clang get the full stage.
  if command -v clang++ >/dev/null 2>&1; then
    echo "==== preset: clang-tsa ===="
    cmake --preset clang-tsa
    cmake --build --preset clang-tsa -j "$(nproc)"
    ctest --preset clang-tsa
    presets+=(clang-tsa)
  else
    echo "==== clang-tsa: clang++ not on PATH; skipping (GCC compiles the"
    echo "==== annotations away — install clang to run the analysis) ===="
  fi
fi

if [ "${chaos}" -eq 1 ]; then
  # The chaos suite must be clean both plain and under ThreadSanitizer
  # (fault delivery races client threads against the injector). The tsan
  # test preset filters to the "concurrency" label, so the chaos label is
  # driven directly against each build tree.
  for preset in default tsan; do
    echo "==== chaos: ${preset} ===="
    cmake --preset "${preset}"
    cmake --build --preset "${preset}" -j "$(nproc)"
    if [ "${preset}" = "tsan" ]; then
      (cd "build-tsan" && TSAN_OPTIONS=halt_on_error=1 \
        ctest -L chaos --output-on-failure)
    else
      (cd "build" && ctest -L chaos --output-on-failure)
    fi
  done
  presets+=(chaos)
fi

if [ "${bench}" -eq 1 ]; then
  # Benchmarks: build the default preset, run the requested benches (all of
  # them when none were named) and aggregate each binary's --json result
  # into repo-root BENCH_*.json plus one BENCH_SUMMARY.json. A bench that
  # exits non-zero or writes no result fails the stage.
  echo "==== bench ===="
  cmake --preset default
  cmake --build --preset default -j "$(nproc)"
  python3 scripts/collect_bench.py --build-dir build \
    ${bench_names[@]+"${bench_names[@]}"}
  presets+=(bench)
fi

echo "==== all stages passed: lint ${presets[*]} ===="
