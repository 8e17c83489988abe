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
   simulated and executed lane-cycles must match.
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
"""

import argparse
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


def identity(dirs, sims, workdir):
    """Returns the list of mismatches over the whole matrix."""
    exps = {side: sorted(p.name for p in (dirs[side] / "examples" /
                                          "experiments").glob("*.exp"))
            for side in SIDES}
    failures = []
    if exps["parent"] != exps["change"]:
        failures.append(f"experiment sets differ: {exps['parent']} vs "
                        f"{exps['change']}")
    for name in sorted(set(exps["parent"]) & set(exps["change"])):
        for threads in (1, 4):
            for batch in (1, 8):
                args = ["--threads", str(threads), "--batch", str(batch)]
                point = f"{name} threads {threads} batch {batch}"
                seen = {}
                for side in SIDES:
                    exp = dirs[side] / "examples" / "experiments" / name
                    seen[side] = run_experiment(
                        sims[side], exp,
                        workdir / side / f"{name}-t{threads}-b{batch}", args)
                a, b = seen["parent"], seen["change"]
                bad = []
                for key in a:
                    if a[key] == b[key]:
                        continue
                    small = key == "exit" or key.endswith("lane-cycles")
                    bad.append(f"{key} {a[key]} -> {b[key]}" if small
                               else key)
                if a["exit"] != 0:
                    bad.append(f"exit code {a['exit']}")
                status = "ok" if not bad else "DIFFERS: " + ", ".join(bad)
                log(f"identity {point}: {status}")
                if bad:
                    failures.append(f"{point}: {', '.join(bad)}")
    return failures


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


# --- main ---------------------------------------------------------------------

def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="parent revision")
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
    opt = ap.parse_args()

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
            failures = identity(dirs, sims, workdir / "identity")
            report["identity"] = failures
            print(f"identity: {'PASS' if not failures else 'FAIL'} "
                  f"({len(failures)} mismatches)")
            for f in failures:
                print(f"  {f}")
            if failures:
                status = 1

        for workload in workloads:
            for seed in opt.seeds:
                log(f"timing {workload} seed {seed}: {opt.pairs} pairs at "
                    f"{seconds} s")
                runs = paired(opt.pairs, lambda side: perfbench_once(
                    dirs[side], workload, seed, seconds))
                report["workloads"][f"{workload}/{seed}"] = runs
                correct = {side: all(ok for _, ok in runs[side])
                           for side in SIDES}
                print(f"{workload} seed {seed} ({opt.pairs} pairs, "
                      f"{seconds} s): correct parent={correct['parent']} "
                      f"change={correct['change']}")
                if not all(correct.values()):
                    status = 1
                for name, meta in bounds.items():
                    line, regressed = judge(
                        name, [v[name] for v, _ in runs["parent"]],
                        [v[name] for v, _ in runs["change"]],
                        meta["better"], meta["bound"])
                    print(line)
                    status = 1 if regressed else status

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
