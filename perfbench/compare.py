#!/usr/bin/env python3
"""Compare two sets of benchmark results.

    python3 perfbench/compare.py parent.jsonl change.jsonl

Each file holds the stdout of several `perfbench/run.py` invocations
(provenance line + result line per run, in any order). Per workload and
metric it prints both medians and the change, and marks a regression
beyond the metric's bound in BENCHMARK.json. It refuses to compare sets
whose build type or SIMD dispatch differ: a Debug or CBUS_SIMD=off build
is never gated against a Release AVX-512 one. Exit status 1 means a
regression, 2 a refused comparison.
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GATED = ("build_type", "simd")


def load(path):
    """{workload: {metric: [values]}} and the set's build identity."""
    runs, identity, pending = {}, set(), None
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line.startswith("{"):
            continue
        doc = json.loads(line)
        if "provenance" in doc:
            pending = doc["provenance"]
            identity.add(tuple(pending[k] for k in GATED))
        elif "metrics" in doc and pending is not None:
            per = runs.setdefault(pending["workload"], {})
            for name, metric in doc["metrics"].items():
                per.setdefault(name, []).append(metric["value"])
            pending = None
    if len(identity) != 1:
        raise SystemExit(f"compare: {path}: mixed or missing build identity {identity}")
    return runs, identity.pop()


def main():
    if len(sys.argv) != 3:
        raise SystemExit(__doc__)
    base, base_id = load(sys.argv[1])
    change, change_id = load(sys.argv[2])
    if base_id != change_id:
        print(f"compare: refusing: {dict(zip(GATED, base_id))} vs "
              f"{dict(zip(GATED, change_id))}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    regressed = False
    for workload in sorted(set(base) & set(change)):
        for name, meta in bounds.items():
            a, b = base[workload].get(name), change[workload].get(name)
            if not a or not b:
                continue
            ma, mb = statistics.median(a), statistics.median(b)
            worse = (mb - ma) / ma if meta["better"] == "lower" else (ma - mb) / ma
            flag = "REGRESSION" if worse > meta["bound"] else ""
            regressed |= bool(flag)
            print(f"{workload:12s} {name:18s} {ma:12.6g} -> {mb:12.6g} "
                  f"{-worse:+8.2%} (n={len(a)}/{len(b)}, bound {meta['bound']:.0%}) {flag}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
