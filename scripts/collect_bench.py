#!/usr/bin/env python3
"""Run benchmark binaries and aggregate their --json outputs.

Each bench binary (bench/*.cc) writes one machine-readable result file via
BenchResult::WriteFile (see bench/common.h), and only to the path its --json
flag names. This driver runs a set of them, points each one's --json at
BENCH_<name>.json at the repo root (the canonical location EXPERIMENTS.md
quotes and CI diffs), and merges each bench's scalar
headline numbers into one combined BENCH_SUMMARY.json, so a single file
answers "what did this tree measure". A run of some benches replaces only
their entries; the other benches' headlines stay.

Usage:
  collect_bench.py [--build-dir build] [--out-dir .] [bench_name ...]
  collect_bench.py --check [--build-dir build] [bench_name ...]

With no names, every bench_* executable under <build-dir>/bench runs.
Benches run sequentially (they are single-process virtual-time simulations;
parallel runs would fight for cores and skew nothing but wall time). A
non-zero bench exit fails the driver, so check.sh --bench is a real gate.

--check writes the results to a temporary directory instead, writes no
summary, and also fails when a result differs from the committed
BENCH_<name>.json at the repo root, printing each differing key.
Virtual-time results are deterministic, so any difference is a real change.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile


def discover(build_bench_dir):
    names = []
    try:
        for entry in sorted(os.listdir(build_bench_dir)):
            path = os.path.join(build_bench_dir, entry)
            if entry.startswith('bench_') and os.access(path, os.X_OK) \
                    and os.path.isfile(path):
                names.append(entry)
    except OSError as e:
        sys.exit('collect_bench: cannot list %s: %s' % (build_bench_dir, e))
    return names


def result_name(bench_binary):
    """bench_qos_noisy_neighbor -> qos_noisy_neighbor."""
    return bench_binary[len('bench_'):] if bench_binary.startswith('bench_') \
        else bench_binary


def diff_keys(old, new, path=''):
    """(key path, committed, fresh) for each key where `new` differs from
    `old`; a key path reads like phases[2].p99_us."""
    if isinstance(old, dict) and isinstance(new, dict):
        keys = []
        for k in sorted(set(old) | set(new)):
            sub = '%s.%s' % (path, k) if path else k
            keys.extend(diff_keys(old.get(k), new.get(k), sub))
        return keys
    if isinstance(old, list) and isinstance(new, list) \
            and len(old) == len(new):
        keys = []
        for i, (o, n) in enumerate(zip(old, new)):
            keys.extend(diff_keys(o, n, '%s[%d]' % (path, i)))
        return keys
    return [] if old == new else [(path or '<root>', old, new)]


def check_against_committed(json_path, root):
    """Failure reasons of one fresh result vs its committed copy."""
    committed = os.path.join(root, os.path.basename(json_path))
    try:
        with open(committed, encoding='utf-8') as f:
            old = json.load(f)
        with open(json_path, encoding='utf-8') as f:
            new = json.load(f)
    except (OSError, ValueError) as e:
        return ['cannot compare with %s: %s' % (committed, e)]
    return ['%s is %s, committed %s has %s' % (key, json.dumps(fresh),
                                               committed, json.dumps(was))
            for key, was, fresh in diff_keys(old, new)]


def run_bench(binary_path, json_path):
    print('==== %s -> %s ====' % (os.path.basename(binary_path), json_path))
    sys.stdout.flush()
    proc = subprocess.run([binary_path, '--json', json_path])
    return proc.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument('--build-dir', default='build',
                        help='CMake build tree holding bench/ binaries')
    parser.add_argument('--out-dir', default=None,
                        help='where BENCH_*.json land (default: repo root)')
    parser.add_argument('--check', action='store_true',
                        help='write results to a temporary directory and '
                             'fail when one differs from the committed '
                             'BENCH_<name>.json')
    parser.add_argument('benches', nargs='*',
                        help='bench binary names (default: all bench_* '
                             'under <build-dir>/bench)')
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if args.check:
        if args.out_dir:
            parser.error('--check writes to a temporary directory; '
                         'drop --out-dir')
        scratch = tempfile.TemporaryDirectory(prefix='collect_bench.')
        out_dir = scratch.name
    else:
        out_dir = os.path.abspath(args.out_dir or root)
    build_bench_dir = os.path.join(os.path.abspath(args.build_dir), 'bench')
    names = args.benches or discover(build_bench_dir)
    if not names:
        sys.exit('collect_bench: no bench_* binaries under %s (build first)'
                 % build_bench_dir)

    failures = []
    written = []
    for name in names:
        binary = os.path.join(build_bench_dir, name)
        if not os.path.isfile(binary):
            failures.append((name, 'binary not found: %s' % binary))
            continue
        json_path = os.path.join(out_dir,
                                 'BENCH_%s.json' % result_name(name))
        rc = run_bench(binary, json_path)
        if rc != 0:
            failures.append((name, 'exit code %d' % rc))
        elif not os.path.isfile(json_path):
            failures.append((name, 'did not write %s' % json_path))
        else:
            written.append(json_path)
            if args.check:
                failures.extend((name, why) for why in
                                check_against_committed(json_path, root))

    # One summary file: per-bench scalar headlines (arrays stay in the
    # per-bench files — the summary is for quick diffs, not raw data).
    if not args.check:
        summary_path = os.path.join(out_dir, 'BENCH_SUMMARY.json')
        summary = {}
        for path in written:
            try:
                with open(path, encoding='utf-8') as f:
                    data = json.load(f)
            except (OSError, ValueError) as e:
                failures.append((os.path.basename(path),
                                 'unparseable: %s' % e))
                continue
            scalars = {k: v for k, v in data.items()
                       if not isinstance(v, (list, dict))}
            summary[data.get('bench', os.path.basename(path))] = scalars
        fresh = len(summary)
        try:
            if os.path.isfile(summary_path):
                with open(summary_path, encoding='utf-8') as f:
                    summary = dict(json.load(f), **summary)
            with open(summary_path, 'w', encoding='utf-8') as f:
                json.dump(summary, f, indent=2, sort_keys=True)
                f.write('\n')
            print('summary: %s (%d bench(es), %d fresh)'
                  % (summary_path, len(summary), fresh))
        except (OSError, ValueError) as e:
            # An unreadable summary is left as it is, not replaced by this
            # run's subset.
            failures.append(('BENCH_SUMMARY.json', str(e)))

    if failures:
        for name, why in failures:
            print('collect_bench: FAILED %s: %s' % (name, why))
        return 1
    if args.check:
        print('collect_bench: %d result(s) match the committed files'
              % len(written))
    return 0


if __name__ == '__main__':
    sys.exit(main())
