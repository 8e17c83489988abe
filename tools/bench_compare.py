#!/usr/bin/env python3
"""CI bench-baseline ratio gate.

Compares Google-Benchmark ``--benchmark_format=json`` results against the
pinned reference numbers in ``bench/baselines.json`` (derived from
docs/BASELINES.md) and fails on a >threshold throughput regression.

Each benchmark is gated on the median of all its non-aggregate entries
across the given files: several passes, or ``--benchmark_repetitions``,
let a majority outvote one noisy pass.

Because CI runners are not the pinned reference machine, absolute times
are meaningless there; the gate therefore normalises by the MEDIAN
current/baseline ratio across all matched benchmarks (the machine-speed
factor) and flags benchmarks whose own ratio exceeds the median by more
than ``--threshold``. A uniform slowdown (slower machine) passes; one
benchmark regressing relative to the others (the case a code change
causes) fails. ``--warn-only`` downgrades failures to warnings for
unpinned/noisy runners.

A change that speeds up most benchmarks drags that median down with it,
and its untouched benchmarks then read as regressions. ``--parent``
takes the parent's results from the same sitting instead: the machine
factor is then the median parent/baseline ratio, which the change cannot
move.

Usage:
  bench_compare.py [--baseline bench/baselines.json] [--threshold 0.25]
                   [--warn-only] results.json [more.json ...]
                   [--parent parent.json [more.json ...]]
  bench_compare.py --self-test

The self-test fabricates a clean result set (must pass) and one with a
single 2x slowdown injected (must fail), then three passes in which one
pass carries a 2x outlier (must pass) and three in which every pass
does (must fail), and a change that halves three of four benchmarks
(the fourth is flagged without ``--parent`` and passes with it),
exercising the gate logic without running any benchmark; CTest runs it
as ``tools.bench_compare_selftest``.
"""

import argparse
import json
import statistics
import sys

TIME_UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def load_results(paths):
    """name -> [real_time in ns], every non-aggregate entry of every file."""
    results = {}
    for path in paths:
        with open(path) as f:
            doc = json.load(f)
        for entry in doc.get("benchmarks", []):
            if entry.get("run_type") == "aggregate":
                continue
            unit = TIME_UNIT_NS[entry.get("time_unit", "ns")]
            results.setdefault(entry["name"], []).append(
                float(entry["real_time"]) * unit)
    return results


def median_times(samples):
    """name -> median of that benchmark's entries."""
    return {name: statistics.median(times) for name, times in samples.items()}


def load_baseline(path):
    with open(path) as f:
        doc = json.load(f)
    return {name: float(entry["real_time_ns"])
            for name, entry in doc["benchmarks"].items()}


def compare(current, baseline, threshold, parent=None):
    """Return (rows, regressions, machine_factor, missing).

    Rows: (name, ratio, normalized, flag). `missing` lists baseline
    benchmarks absent from the results -- lost coverage (a rename, or a
    gated binary dropped from the CI step) must fail the gate too, or a
    regression simply hides by renaming. With `parent` (name -> time,
    the parent's medians from the same sitting) the machine factor is
    the median parent/baseline ratio instead of current/baseline.
    """
    matched = sorted(name for name in current if name in baseline)
    missing = sorted(name for name in baseline if name not in current)
    if not matched:
        raise SystemExit(
            "bench_compare: no benchmark names match the baseline "
            "(refresh bench/baselines.json?)")
    ratios = {name: current[name] / baseline[name] for name in matched}
    if parent is None:
        machine = statistics.median(ratios.values())
    else:
        own = [parent[name] / baseline[name] for name in matched
               if name in parent]
        if not own:
            raise SystemExit("bench_compare: no parent result matches the "
                             "baseline")
        machine = statistics.median(own)
    rows, regressions = [], []
    for name in matched:
        normalized = ratios[name] / machine
        flag = ""
        if normalized > 1.0 + threshold:
            flag = "REGRESSION"
            regressions.append(name)
        elif normalized < 1.0 / (1.0 + threshold):
            flag = "improved"
        rows.append((name, ratios[name], normalized, flag))
    return rows, regressions, machine, missing


def run_gate(args):
    current = median_times(load_results(args.results))
    baseline = load_baseline(args.baseline)
    parent = median_times(load_results(args.parent)) if args.parent else None
    rows, regressions, machine, missing = compare(
        current, baseline, args.threshold, parent)

    width = max(len(name) for name, *_ in rows)
    print(f"bench_compare: {len(rows)} benchmark(s) vs {args.baseline}, "
          f"machine-speed factor {machine:.3f}x"
          f"{' (from the parent)' if parent else ''}, "
          f"threshold {args.threshold:.0%}")
    for name, ratio, normalized, flag in rows:
        print(f"  {name:<{width}}  ratio {ratio:7.3f}x  "
              f"normalized {normalized:6.3f}x  {flag}")

    verb = "warning" if args.warn_only else "error"
    for name in missing:
        print(f"::{verb} ::bench gate: baseline benchmark {name} missing "
              "from the results (renamed, or its binary not run?)")
    if regressions:
        for name in regressions:
            print(f"::{verb} ::bench gate: {name} regressed "
                  f">{args.threshold:.0%} vs baseline (normalized)")
    if regressions or missing:
        if not args.warn_only:
            return 1
    else:
        print("bench_compare: gate PASSED")
    return 0


def self_test():
    baseline = {f"BM_X/{i}": 100.0 * (i + 1) for i in range(4)}
    # Uniformly 3x slower machine: the ratio gate must PASS.
    clean = {name: 3.0 * ns for name, ns in baseline.items()}
    rows, regressions, _, missing = compare(clean, baseline, 0.25)
    assert not regressions, f"clean run flagged: {regressions}"
    assert not missing, f"clean run missing: {missing}"
    assert len(rows) == 4

    # Same machine factor, but one benchmark 2x slower: must FAIL.
    injected = dict(clean)
    injected["BM_X/2"] *= 2.0
    _, regressions, _, _ = compare(injected, baseline, 0.25)
    assert regressions == ["BM_X/2"], f"2x slowdown missed: {regressions}"

    # An improvement must not trip the gate.
    improved = dict(clean)
    improved["BM_X/1"] /= 2.0
    _, regressions, _, _ = compare(improved, baseline, 0.25)
    assert not regressions, f"improvement flagged: {regressions}"

    # A renamed/dropped benchmark is lost coverage, not a silent pass.
    renamed = dict(clean)
    del renamed["BM_X/3"]
    _, regressions, _, missing = compare(renamed, baseline, 0.25)
    assert missing == ["BM_X/3"], f"dropped benchmark missed: {missing}"
    assert not regressions

    # Three passes: one pass's 2x outlier is outvoted by the median...
    passes = [dict(clean) for _ in range(3)]
    passes[1]["BM_X/2"] *= 2.0
    samples = {name: [p[name] for p in passes] for name in clean}
    _, regressions, _, _ = compare(median_times(samples), baseline, 0.25)
    assert not regressions, f"one-pass outlier flagged: {regressions}"

    # ... but a slowdown every pass shows is not.
    for p in passes:
        p["BM_X/2"] = 2.0 * clean["BM_X/2"]
    samples = {name: [p[name] for p in passes] for name in clean}
    _, regressions, _, _ = compare(median_times(samples), baseline, 0.25)
    assert regressions == ["BM_X/2"], f"3-pass 2x slowdown missed: {regressions}"

    # A change that halves three of four benchmarks drags the median
    # factor down with it: the untouched BM_X/3 reads 2x slow. Taken
    # from the parent's own results, the factor stays put and it passes.
    faster = {name: ns / 2.0 if name != "BM_X/3" else ns
              for name, ns in clean.items()}
    _, regressions, _, _ = compare(faster, baseline, 0.25)
    assert regressions == ["BM_X/3"], f"median factor moved: {regressions}"
    rows, regressions, machine, _ = compare(faster, baseline, 0.25, clean)
    assert not regressions, f"parent factor flagged: {regressions}"
    assert machine == 3.0, f"parent factor {machine}"
    assert [flag for *_, flag in rows] == ["improved"] * 3 + [""], rows

    print("bench_compare: self-test PASSED (clean passes, injected 2x "
          "slowdown fails, dropped benchmark detected, one-pass outlier "
          "outvoted, every-pass slowdown fails, parent factor ignores "
          "a broad speedup)")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("results", nargs="*",
                        help="--benchmark_out JSON files; entries of one "
                             "benchmark across them gate on their median")
    parser.add_argument("--baseline", default="bench/baselines.json")
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="allowed normalized slowdown (default 0.25)")
    parser.add_argument("--warn-only", action="store_true",
                        help="report regressions without failing "
                             "(non-pinned runners)")
    parser.add_argument("--parent", nargs="+", metavar="FILE",
                        help="the parent's --benchmark_out JSON files from "
                             "the same sitting; the machine factor comes "
                             "from them")
    parser.add_argument("--self-test", action="store_true",
                        help="verify the gate logic and exit")
    args = parser.parse_args()

    if args.self_test:
        return self_test()
    if not args.results:
        parser.error("no result files given (or use --self-test)")
    return run_gate(args)


if __name__ == "__main__":
    sys.exit(main())
