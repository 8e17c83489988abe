#!/usr/bin/env python3
"""A/B a change against its parent: byte identity, then paired timing.

    python3 tools/ab.py --parent REV [--change REV] [--workdir DIR]
        [--skip-identity] [--workloads all | NAME ...] [--seeds S ...]
        [--experiments NAME ...] [--pairs 10] [--seconds S] [--json FILE]

Exports the parent revision (git archive) and the change (the working
tree's tracked and untracked, non-ignored files, or --change REV) into
DIR/parent and DIR/change, and builds each side from its own sources
into its own build trees: DIR/<side>/build for cbus_sim and
DIR/<side>/.bench_build for perfbench. A build tree copied from
elsewhere keeps its origin's CMAKE_HOME_DIRECTORY and would measure that
tree's sources, so the script refuses any tree configured from another
directory. A kept --workdir is re-synced file by file, so a second call
rebuilds only what changed.

It refuses to run if perfbench/ or BENCHMARK.json differ between the
sides: a change that claims a gain is measured by the parent's
benchmark.

1. Byte identity: every shipped examples/experiments/*.exp at --threads
   {1,4} x --batch {1,8}, each side in a fresh directory. stdout,
   stderr, exit code, every output file (CSV, JSON) and the telemetry's
   simulated lane-cycles must match. Executed lane-cycles are reported
   in their own block, each point that moved as parent -> change with
   the ratio: a change that adds a horizon lowers them on purpose, so
   they do not decide identity.
2. Timing: --pairs alternating pairs per perfbench workload and seed
   (the parent runs first on odd pairs), and per named experiment
   (one cbus_sim process at --threads 1 --batch 1, wall and CPU
   seconds). Per metric it prints both medians and quartile spreads,
   the change's wins, the claim rule (wins in at least 9/10 of the
   pairs and a median gap above the parent's IQR) and, for the
   end-to-end metrics, the bound check from BENCHMARK.json.

Exit status: 0 when every identity check passed and no metric regressed
beyond its bound, 1 otherwise, 2 when the comparison was refused. It
changes no gate, bound or pin.

    python3 tools/ab.py --self-test

checks the identity verdict and the timing judgement on fabricated runs
without building anything; CTest runs it as ``tools.ab_selftest``.
"""

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True
SIDES = ("parent", "change")
# Build trees that live inside an exported side and are never synced.
BUILD_DIRS = ("build", ".bench_build")


def log(message):
    print(f"ab: {message}", file=sys.stderr, flush=True)


def git(*args, binary=False):
    out = subprocess.run(["git", "-C", str(ROOT)] + list(args), check=True,
                         stdout=subprocess.PIPE).stdout
    return out if binary else out.decode()


# --- sources ------------------------------------------------------------------

def revision_files(rev):
    """{relative path: bytes} of a committed revision."""
    data = git("archive", "--format=tar", rev, binary=True)
    files = {}
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        for member in tar.getmembers():
            if member.isfile():
                files[member.name] = tar.extractfile(member).read()
    return files


def working_tree_files():
    """{relative path: bytes} of the working tree: tracked and untracked
    files that git does not ignore (deleted ones are skipped)."""
    names = git("ls-files", "-z", "--cached", "--others",
                "--exclude-standard").split("\0")
    files = {}
    for name in names:
        path = ROOT / name
        if name and path.is_file():
            files[name] = path.read_bytes()
    return files


def sync_tree(files, dest):
    """Make `dest` hold exactly `files` outside its build trees, writing
    only what differs so that kept build trees rebuild only that."""
    dest.mkdir(parents=True, exist_ok=True)
    for name, data in files.items():
        path = dest / name
        if path.is_file() and path.read_bytes() == data:
            continue
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
    for path in sorted(dest.rglob("*"), reverse=True):
        rel = path.relative_to(dest)
        if rel.parts[0] in BUILD_DIRS:
            continue
        if path.is_file() and rel.as_posix() not in files:
            path.unlink()
        elif path.is_dir() and not any(path.iterdir()):
            path.rmdir()


def benchmark_diff(parent, change):
    """Paths under perfbench/ or BENCHMARK.json that differ."""
    def bench(files):
        return {k: v for k, v in files.items()
                if k == "BENCHMARK.json" or k.startswith("perfbench/")}
    a, b = bench(parent), bench(change)
    return sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))


# --- builds -------------------------------------------------------------------

def configured_from(build_dir):
    cache = build_dir / "CMakeCache.txt"
    if not cache.is_file():
        return None
    for line in cache.read_text().splitlines():
        if line.startswith("CMAKE_HOME_DIRECTORY:"):
            return Path(line.split("=", 1)[1]).resolve()
    return None


def cmake_build(source, build_dir, target, options):
    home = configured_from(build_dir)
    if home is not None and home != source.resolve():
        raise SystemExit(f"ab: {build_dir} was configured from {home}, not "
                         f"{source}; remove it")
    if home is None:
        cmd = ["cmake", "-S", str(source), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=Release"] + options
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
    cmd = ["cmake", "--build", str(build_dir), "-j", str(os.cpu_count() or 1)]
    if target:
        cmd += ["--target", target]
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)


def build_side(side_dir, need_sim, need_bench):
    """Builds a side; returns its cbus_sim path (None when not built)."""
    sim = None
    if need_sim:
        cmake_build(side_dir, side_dir / "build", "cbus_sim_tool",
                    ["-DCBUS_BUILD_TESTS=OFF", "-DCBUS_BUILD_EXAMPLES=OFF",
                     "-DCBUS_BUILD_BENCHMARKS=OFF"])
        sim = side_dir / "build" / "tools" / "cbus_sim"
    if need_bench:
        # Where perfbench/run.py builds with CARGO_TARGET_DIR=.bench_build.
        cmake_build(side_dir / "perfbench",
                    side_dir / ".bench_build" / "perfbench", None, [])
    return sim


def bench_env():
    env = dict(os.environ)
    env["CARGO_TARGET_DIR"] = ".bench_build"  # each side's own tree
    return env


# --- byte identity ------------------------------------------------------------

def run_experiment(sim, exp, workdir, args):
    """One cbus_sim process in a fresh directory: everything it shows."""
    if workdir.exists():
        shutil.rmtree(workdir)
    out_dir = workdir / "out"
    out_dir.mkdir(parents=True)
    telemetry = workdir / "telemetry.json"
    proc = subprocess.run([str(sim), "--experiment", str(exp),
                           "--telemetry", str(telemetry)] + args,
                          cwd=out_dir, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE)
    files = {p.relative_to(out_dir).as_posix(): p.read_bytes()
             for p in sorted(out_dir.rglob("*")) if p.is_file()}
    cycles = {}
    if telemetry.is_file():
        cycles = json.loads(telemetry.read_text()).get("lane_cycles", {})
    return {"stdout": proc.stdout, "stderr": proc.stderr,
            "exit": proc.returncode, "files": files,
            "simulated lane-cycles": cycles.get("simulated"),
            "executed lane-cycles": cycles.get("executed")}


def compare_points(points):
    """The identity verdict over (point, parent run, change run) triples,
    each run as run_experiment returns it. Returns the mismatches and the
    points whose executed lane-cycles moved, as (point, parent, change);
    those do not decide identity."""
    failures, moved = [], []
    for point, a, b in points:
        a, b = dict(a), dict(b)
        executed = (a.pop("executed lane-cycles"),
                    b.pop("executed lane-cycles"))
        if executed[0] != executed[1]:
            moved.append((point,) + executed)
        bad = []
        for key in a:
            if a[key] == b[key]:
                continue
            small = key in ("exit", "simulated lane-cycles")
            bad.append(f"{key} {a[key]} -> {b[key]}" if small else key)
        if a["exit"] != 0:
            bad.append(f"exit code {a['exit']}")
        status = "ok" if not bad else "DIFFERS: " + ", ".join(bad)
        log(f"identity {point}: {status}")
        if bad:
            failures.append(f"{point}: {', '.join(bad)}")
    return failures, moved


def identity(dirs, sims, workdir):
    """Runs every shipped experiment on both sides at threads {1,4} x
    batch {1,8}; returns compare_points' verdict over the matrix."""
    exps = {side: sorted(p.name for p in (dirs[side] / "examples" /
                                          "experiments").glob("*.exp"))
            for side in SIDES}
    failures = []
    if exps["parent"] != exps["change"]:
        failures.append(f"experiment sets differ: {exps['parent']} vs "
                        f"{exps['change']}")

    def points():
        for name in sorted(set(exps["parent"]) & set(exps["change"])):
            for threads in (1, 4):
                for batch in (1, 8):
                    args = ["--threads", str(threads), "--batch", str(batch)]
                    seen = {
                        side: run_experiment(
                            sims[side],
                            dirs[side] / "examples" / "experiments" / name,
                            workdir / side / f"{name}-t{threads}-b{batch}",
                            args)
                        for side in SIDES}
                    yield (f"{name} threads {threads} batch {batch}",
                           seen["parent"], seen["change"])

    mismatches, moved = compare_points(points())
    return failures + mismatches, moved


def identity_report(failures, moved):
    """The identity lines main prints."""
    lines = [f"identity: {'PASS' if not failures else 'FAIL'} "
             f"({len(failures)} mismatches)"]
    lines += [f"  {f}" for f in failures]
    lines.append(f"executed lane-cycles: {len(moved)} points moved")
    for point, a, b in moved:
        ratio = f"{b / a:.3f}x" if a and b is not None else "n/a"
        lines.append(f"  {point}: {a} -> {b}  {ratio}")
    return lines


# --- timing -------------------------------------------------------------------

def perfbench_once(side_dir, workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(side_dir / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=side_dir, env=bench_env(), stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    values = {name: m["value"] for name, m in result["metrics"].items()}
    return values, bool(result["correct"])


def experiment_once(sim, exp, workdir):
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    proc = subprocess.run([str(sim), "--experiment", str(exp), "--threads",
                           "1", "--batch", "1"], cwd=workdir,
                          stdout=subprocess.PIPE, check=True)
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = ((after.ru_utime - before.ru_utime) +
           (after.ru_stime - before.ru_stime))
    shutil.rmtree(workdir)
    return {"wall_s": wall, "cpu_s": cpu}, proc.stdout


def paired(n_pairs, run):
    """Alternating pairs: the parent first on odd pairs. `run(side)`
    returns one sample; returns {side: [samples]} in pair order."""
    samples = {side: [] for side in SIDES}
    for i in range(1, n_pairs + 1):
        order = SIDES if i % 2 == 1 else SIDES[::-1]
        for side in order:
            samples[side].append(run(side))
        log(f"  pair {i}/{n_pairs} done")
    return samples


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def judge(name, parent, change, better, bound):
    """One report line and whether the metric regressed beyond `bound`."""
    mp, mc = statistics.median(parent), statistics.median(change)
    p1, p3 = quartiles(parent)
    c1, c3 = quartiles(change)
    sign = 1 if better == "higher" else -1
    wins = sum(1 for a, b in zip(parent, change) if sign * (b - a) > 0)
    pairs = len(parent)
    gap = sign * (mc - mp)
    claim = wins >= math.ceil(0.9 * pairs) and gap > (p3 - p1)
    ratio = mc / mp if mp else float("nan")
    line = (f"  {name:22s} {mp:12.6g} [{p1:.6g}..{p3:.6g}] -> "
            f"{mc:12.6g} [{c1:.6g}..{c3:.6g}]  {ratio:6.3f}x  "
            f"wins {wins}/{pairs}  {'CLAIM' if claim else 'no claim'}")
    regressed = False
    if bound is not None and mp:
        worse = -gap / abs(mp)
        spread = (p3 - p1) / abs(mp)
        every_better = all(sign * (b - a) > 0 for a in parent for b in change)
        if worse > bound:
            regressed = True
            verdict = f"REGRESSION beyond {bound:.0%}"
        elif spread > bound and not every_better:
            verdict = f"unresolved: parent IQR {spread:.0%} > bound {bound:.0%}"
        else:
            verdict = f"within {bound:.0%}"
        line += f"  ({verdict})"
    return line, regressed


def report_workload(title, runs, bounds):
    """Prints one workload's verdict over its paired perfbench runs
    ({side: [(metric values, correct)]}); returns 1 when a run was not
    correct or an end-to-end metric regressed beyond its bound, else 0."""
    correct = {side: all(ok for _, ok in runs[side]) for side in SIDES}
    print(f"{title}: correct parent={correct['parent']} "
          f"change={correct['change']}")
    status = 0 if all(correct.values()) else 1
    for name, meta in bounds.items():
        line, regressed = judge(name, [v[name] for v, _ in runs["parent"]],
                                [v[name] for v, _ in runs["change"]],
                                meta["better"], meta["bound"])
        print(line)
        status = 1 if regressed else status
    return status


# --- self-test ----------------------------------------------------------------

def self_test():
    """The identity verdict and the timing judgement on fabricated runs."""
    def verdict(parent, change, bound=0.05):
        runs = {"parent": [({"m": v}, True) for v in parent],
                "change": [({"m": v}, True) for v in change]}
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = report_workload("w", runs,
                                     {"m": {"better": "higher",
                                            "bound": bound}})
        return out.getvalue().splitlines()[-1], status

    parent = [100.0 + i for i in range(10)]  # median 104.5, IQR 4.5
    # 9/10 wins and a median gap of 10 above the parent's IQR: a claim.
    nine = [99.0] + [p + 10 for p in parent[1:]]
    line, status = verdict(parent, nine)
    assert "  CLAIM" in line and "within 5%" in line and status == 0, line
    # 8/10 wins: no claim, whatever the gap.
    eight = [99.0, 100.0] + [p + 10 for p in parent[2:]]
    line, status = verdict(parent, eight)
    assert "no claim" in line and status == 0, line
    # A median 10% worse than a 5% bound regresses and fails the run.
    line, status = verdict(parent, [0.9 * p for p in parent])
    assert "REGRESSION beyond 5%" in line and status == 1, line
    # A parent IQR wider than the bound leaves a small move unresolved...
    wide = [80.0, 85.0, 90.0, 95.0, 100.0, 100.0, 105.0, 110.0, 115.0, 120.0]
    line, status = verdict(wide, [p + 1 for p in wide])
    assert "unresolved: parent IQR" in line and status == 0, line
    # ...unless every change run beats every parent run.
    line, status = verdict(wide, [200.0 + p for p in wide])
    assert "within 5%" in line and "  CLAIM" in line, line

    run = {"stdout": b"ok\n", "stderr": b"", "exit": 0,
           "files": {"out.csv": b"a,b\n1,2\n"},
           "simulated lane-cycles": 1000, "executed lane-cycles": 400}
    # Only executed lane-cycles differ: identity passes, moves listed.
    failures, moved = compare_points(
        [("p1", run, {**run, "executed lane-cycles": 100}),
         ("p2", run, {**run, "executed lane-cycles": 200})])
    lines = identity_report(failures, moved)
    assert lines == ["identity: PASS (0 mismatches)",
                     "executed lane-cycles: 2 points moved",
                     "  p1: 400 -> 100  0.250x",
                     "  p2: 400 -> 200  0.500x"], lines
    # One stdout byte differs on one of two points: identity fails.
    failures, moved = compare_points(
        [("p1", run, run), ("p2", run, {**run, "stdout": b"ok!\n"})])
    lines = identity_report(failures, moved)
    assert lines[:2] == ["identity: FAIL (1 mismatches)", "  p2: stdout"], \
        lines
    assert not moved, moved

    print("ab: self-test PASSED (claim at 9/10 wins, none at 8/10, "
          "regression fails, wide parent IQR unresolved unless every run "
          "is better, executed lane-cycle moves pass, one stdout byte "
          "fails)")
    return 0


# --- main ---------------------------------------------------------------------

def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", help="parent revision")
    ap.add_argument("--change", help="change revision (default: the "
                    "working tree)")
    ap.add_argument("--workdir", help="kept work directory (default: a "
                    "temporary one, removed at exit)")
    ap.add_argument("--skip-identity", action="store_true")
    ap.add_argument("--workloads", nargs="*", default=[],
                    help="perfbench workloads to time, or `all`")
    ap.add_argument("--seeds", nargs="+", type=int, default=[2026])
    ap.add_argument("--experiments", nargs="*", default=[],
                    help="shipped experiments to time (names without .exp)")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float,
                    help="perfbench --seconds (default: BENCHMARK.json's "
                    "run_seconds)")
    ap.add_argument("--json", help="write every sample to this file")
    ap.add_argument("--self-test", action="store_true",
                    help="check the verdicts on fabricated runs and exit")
    opt = ap.parse_args()
    if opt.self_test:
        return self_test()
    if not opt.parent:
        ap.error("--parent is required")

    files = {"parent": revision_files(opt.parent),
             "change": (revision_files(opt.change) if opt.change
                        else working_tree_files())}
    differ = benchmark_diff(files["parent"], files["change"])
    if differ:
        log("refusing: the benchmark differs between the sides: " +
            ", ".join(differ))
        return 2
    spec = json.loads(files["change"]["BENCHMARK.json"])
    workloads = opt.workloads
    if workloads == ["all"]:
        workloads = [w["name"] for w in spec["workloads"]]
    seconds = opt.seconds if opt.seconds is not None else spec["run_seconds"]
    bounds = {m["name"]: m for m in spec["end_to_end"]}

    temp = None
    if opt.workdir:
        workdir = Path(opt.workdir).resolve()
    else:
        temp = tempfile.mkdtemp(prefix="cbus-ab-")
        workdir = Path(temp)
    status = 0
    report = {"parent": opt.parent, "change": opt.change or "working tree",
              "identity": None, "workloads": {}, "experiments": {}}
    try:
        dirs = {side: workdir / side for side in SIDES}
        sims = {}
        need_sim = not opt.skip_identity or bool(opt.experiments)
        for side in SIDES:
            sync_tree(files[side], dirs[side])
            log(f"building {side} in {dirs[side]}")
            sims[side] = build_side(dirs[side], need_sim, bool(workloads))

        if not opt.skip_identity:
            failures, moved = identity(dirs, sims, workdir / "identity")
            report["identity"] = failures
            report["executed_lane_cycles"] = [
                {"point": point, "parent": a, "change": b}
                for point, a, b in moved]
            print("\n".join(identity_report(failures, moved)))
            if failures:
                status = 1

        for workload in workloads:
            for seed in opt.seeds:
                log(f"timing {workload} seed {seed}: {opt.pairs} pairs at "
                    f"{seconds} s")
                runs = paired(opt.pairs, lambda side: perfbench_once(
                    dirs[side], workload, seed, seconds))
                report["workloads"][f"{workload}/{seed}"] = runs
                if report_workload(f"{workload} seed {seed} ({opt.pairs} "
                                   f"pairs, {seconds} s)", runs, bounds):
                    status = 1

        for name in opt.experiments:
            log(f"timing experiment {name}: {opt.pairs} pairs")
            outputs = {}

            def once(side):
                exp = dirs[side] / "examples" / "experiments" / f"{name}.exp"
                sample, stdout = experiment_once(
                    sims[side], exp, workdir / "timing" / side)
                outputs.setdefault(side, stdout)
                return sample

            runs = paired(opt.pairs, once)
            report["experiments"][name] = runs
            same = outputs["parent"] == outputs["change"]
            print(f"experiment {name} (threads 1, batch 1, {opt.pairs} "
                  f"pairs): stdout {'identical' if same else 'DIFFERS'}")
            if not same:
                status = 1
            for metric in ("wall_s", "cpu_s"):
                line, _ = judge(metric, [r[metric] for r in runs["parent"]],
                                [r[metric] for r in runs["change"]],
                                "lower", None)
                print(line)
    finally:
        if temp is not None:
            shutil.rmtree(temp, ignore_errors=True)
    if opt.json:
        Path(opt.json).write_text(json.dumps(report, indent=1) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
