#!/usr/bin/env python3
"""End-to-end throughput of cbus_sim on the shipped paper experiments.

Runs ``cbus_sim --experiment`` on paper_iso, paper_con and
mesh_congestion at every --threads x --batch point, each in a fresh
directory, and reports per point the median wall time of the process,
runs/s and simulated cycles/s. Simulated cycles are the sum of the
TuA's execution times (the per-run ``cycles`` column of the experiment's
CSV), the quantity perfbench reports as sim_mcycles_per_s.

The result is one JSON row; --append adds it to a trajectory file
(BENCH_e2e.json at the repo root, recipe in docs/BASELINES.md).

Usage:
  bench_e2e.py --sim build/tools/cbus_sim --label NAME [--commit HASH]
               [--repeats 3] [--threads 1 4] [--batch 1 8]
               [--append BENCH_e2e.json]
"""

import argparse
import csv
import datetime
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

EXPERIMENTS = ("paper_iso", "paper_con", "mesh_congestion")


def host():
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cpu": model, "nproc": os.cpu_count(),
            "system": platform.system()}


def csv_path(exp_text):
    for line in exp_text.splitlines():
        key, _, value = line.partition("=")
        if key.strip() == "csv":
            return value.split("#", 1)[0].strip()
    raise ValueError("experiment has no csv sink")


def run_once(sim, exp_path, args):
    """Wall seconds, runs and the sum of TuA cycles of one cbus_sim run."""
    with open(exp_path) as f:
        text = f.read()
    work = tempfile.mkdtemp(prefix="cbus-e2e-")
    try:
        start = time.perf_counter()
        subprocess.run([sim, "--experiment", exp_path] + args, cwd=work,
                       stdout=subprocess.DEVNULL, check=True)
        wall = time.perf_counter() - start
        runs = 0
        cycles = 0
        with open(os.path.join(work, csv_path(text))) as f:
            for row in csv.DictReader(f):
                runs += 1
                if row["cycles"]:
                    cycles += int(row["cycles"])
        return wall, runs, cycles
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(sim, exp_path, args, repeats):
    walls = []
    runs = cycles = None
    for _ in range(repeats):
        wall, r, c = run_once(sim, exp_path, args)
        walls.append(wall)
        if runs is None:
            runs, cycles = r, c
        elif (r, c) != (runs, cycles):
            raise RuntimeError(f"{exp_path} {args}: output changed between "
                               "repeats")
    wall = statistics.median(walls)
    return {"wall_s": round(wall, 3),
            "runs": runs,
            "runs_per_s": round(runs / wall, 1),
            "sim_cycles": cycles,
            "sim_mcycles_per_s": round(cycles / wall / 1e6, 2)}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sim", required=True, help="cbus_sim binary")
    ap.add_argument("--label", required=True)
    ap.add_argument("--commit", default="")
    ap.add_argument("--experiments-dir",
                    default=os.path.join(os.path.dirname(__file__), "..",
                                         "examples", "experiments"))
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--threads", type=int, nargs="+", default=[1, 4])
    ap.add_argument("--batch", type=int, nargs="+", default=[1, 8])
    ap.add_argument("--append", help="trajectory file to append the row to")
    opt = ap.parse_args()

    sim = os.path.abspath(opt.sim)
    row = {"label": opt.label, "commit": opt.commit,
           "date": datetime.date.today().isoformat(), "host": host(),
           "repeats": opt.repeats, "results": []}
    for name in EXPERIMENTS:
        exp_path = os.path.abspath(
            os.path.join(opt.experiments_dir, name + ".exp"))
        for threads in opt.threads:
            for batch in opt.batch:
                point = measure(sim, exp_path,
                                ["--threads", str(threads),
                                 "--batch", str(batch)], opt.repeats)
                point = {"experiment": name, "threads": threads,
                         "batch": batch, **point}
                row["results"].append(point)
                print(json.dumps(point), file=sys.stderr)

    if opt.append:
        trajectory = {
            "about": "cbus_sim end-to-end trajectory, one row per "
                     "measured commit; written by tools/bench_e2e.py, "
                     "recipe in docs/BASELINES.md",
            "schema": 1, "rows": []}
        if os.path.exists(opt.append):
            with open(opt.append) as f:
                trajectory = json.load(f)
        trajectory["rows"].append(row)
        with open(opt.append, "w") as f:
            json.dump(trajectory, f, indent=1)
            f.write("\n")
    else:
        print(json.dumps(row, indent=1))


if __name__ == "__main__":
    main()
