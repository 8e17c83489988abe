#!/usr/bin/env python3
"""The repository benchmark: one command per workload.

    python3 perfbench/run.py --workload con_wcet --seed 1 --seconds 30 --trace 0

Builds the simulator and the in-process bench binary (perfbench/CMakeLists.txt,
Release) into $CARGO_TARGET_DIR (default .bench_build) under the checkout,
generates the workload's experiment file from the seed, and runs it:

  --trace 0  untraced end-to-end measurement through the calls cbus_sim
             makes, then the output check; prints the end-to-end metrics,
             timings scaled by a host-speed probe (see PROBE_REF_S).
  --trace 1  the traced single-threaded replay alternating with untraced
             single-threaded passes; prints the per-layer metrics.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics. The line before it carries the build provenance.
See perfbench/README.md.
"""

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402  (perfbench/workloads.py)

# End-to-end and per-layer metric names and units, in report order.
END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("sim_mcycles_per_s", "Mcycle/s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_run_frac", "frac"),
]

# The host probe's median time on the reference box (4-vCPU KVM Xeon,
# Sapphire Rapids). The shared host's speed drifts by tens of percent over
# minutes, so end-to-end timings are scaled to it: a time is multiplied by
# PROBE_REF_S / (this run's median probe time), a rate divided by that.
# The probe is fixed benchmark code, so a simulator change moves the
# scaled figures exactly as much as the raw ones.
PROBE_REF_S = 0.19

PER_LAYER = [
    ("exp.setup_s", "s"),
    ("workloads.build_s", "s"),
    ("platform.build_s", "s"),
    ("platform.harvest_s", "s"),
    ("platform.slice_ms_p50", "ms"),
    ("platform.slice_ms_p90", "ms"),
    ("sim.loop_s", "s"),
    ("sim.component_ticks", "count"),
    ("sim.lane_cycles", "count"),
    ("sim.ns_per_lane_cycle", "ns"),
    ("sim.other_tick_s", "s"),
    ("bus.events_per_kcycle", "1/kcycle"),
    ("cpu.tick_s", "s"),
    ("cpu.ops", "count"),
    ("cpu.ns_per_op", "ns"),
    ("cpu.bus_stall_frac", "frac"),
    ("cache.l1_accesses", "count"),
    ("cache.l1_hit_ratio", "frac"),
    ("core.engine_s", "s"),
    ("core.contender_tick_s", "s"),
    ("core.engine_cycle_frac", "frac"),
    ("core.credit_underflows", "count"),
    ("bus.tick_s", "s"),
    ("bus.grants", "count"),
    ("bus.ns_per_grant", "ns"),
    ("mem.l2_transactions", "count"),
    ("mem.l2_hit_ratio", "frac"),
    ("mem.dram_accesses", "count"),
    ("seg.bridge_hops", "count"),
    ("seg.backpressure_stalls", "count"),
    ("metrics.fold_s", "s"),
    ("exp.checkpoint_s", "s"),
    ("mbpta.analyze_s", "s"),
    ("exp.sinks_s", "s"),
    ("exp.slices", "count"),
    ("trace.wall_s", "s"),
    ("trace.untimed_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead", "ratio"),
]


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def median(values):
    values = sorted(values)
    n = len(values)
    if n == 0:
        raise ValueError("no samples")
    mid = n // 2
    return values[mid] if n % 2 else 0.5 * (values[mid - 1] + values[mid])


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def build():
    """Configure (once) and build the bench binary; returns the binary path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise SystemExit("perfbench: simulator sources not found next to perfbench/")
    out = build_dir()
    if not (out / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(os.cpu_count() or 1)
    subprocess.run(["cmake", "--build", str(out), "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return out / "cbus_perfbench"


def run_binary(binary, args):
    proc = subprocess.run([str(binary)] + args, stdout=subprocess.PIPE,
                          stderr=sys.stderr, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def pinned_digest(workload, seed):
    pins = json.loads((HERE / "pins.json").read_text())
    return pins["digests"].get(workload, {}).get(str(seed))


def measure(binary, spec, workdir, workload, seed, seconds, checkpoint):
    """Untraced run plus the output check; returns (result, raw bench-binary output)."""
    extra = ["--checkpoint"] if checkpoint else []
    m = run_binary(binary, ["measure", "--spec", str(spec), "--workdir",
                            str(workdir / "measure"), "--seconds", str(seconds)]
                   + extra)
    checks = {
        "passes_identical": m["repeats_identical"],
        "resume_identical": m["resume_identical"],
    }
    pin = pinned_digest(workload, seed)
    if pin is not None:
        checks["pinned_digest"] = m["sink_digest"] == pin
    else:
        r = run_binary(binary, ["replay", "--once", "--spec", str(spec),
                                "--workdir", str(workdir / "check")] + extra)
        checks["replay_identical"] = (
            r["sink_digest"] == m["sink_digest"]
            and r["records_digest"] == m["records_digest"]
            and r["resume_identical"])
    correct = all(checks.values())
    for name, ok in checks.items():
        if not ok:
            log(f"{workload} seed {seed}: check {name} FAILED")
    attempted = m["attempted_runs"]
    failed = attempted if not correct else m["failed_runs"]
    rates = [m["lane_cycles"] / t / 1e6 for t in m["run_s"]]
    raw = {
        "setup_s": median(m["setup_s"]),
        "wall_s": median(m["wall_s"]),
        "sim_mcycles_per_s": median(rates),
        "cpu_s": median(m["cpu_s"]),
    }
    probe_s = median(m["probe_s"])
    scale = PROBE_REF_S / probe_s
    values = {
        "setup_s": raw["setup_s"] * scale,
        "wall_s": raw["wall_s"] * scale,
        "sim_mcycles_per_s": raw["sim_mcycles_per_s"] / scale,
        "cpu_s": raw["cpu_s"] * scale,
        "peak_rss_mb": m["peak_rss_kb"] / 1024.0,
        "ok_run_frac": (attempted - failed) / attempted,
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    host = {"probe_s": probe_s, "scale": scale, "unscaled": raw}
    return (correct, attempted, failed, metrics), dict(m, host=host)


def trace(binary, spec, workdir, workload, seed, seconds, checkpoint):
    """Traced replay; returns (result, raw bench-binary output)."""
    extra = ["--checkpoint"] if checkpoint else []
    r = run_binary(binary, ["replay", "--spec", str(spec), "--workdir",
                            str(workdir / "replay"), "--seconds", str(seconds)]
                   + extra)
    correct = r["identical"]
    pin = pinned_digest(workload, seed)
    if pin is not None and r["sink_digest"] != pin:
        log(f"{workload} seed {seed}: check pinned_digest FAILED")
        correct = False
    if not r["identical"]:
        log(f"{workload} seed {seed}: check replay_identical FAILED")
    attempted = r["attempted_runs"]
    failed = attempted if not correct else r["failed_runs"]
    metrics = {name: {"value": r[name], "unit": unit} for name, unit in PER_LAYER}
    return (correct, attempted, failed, metrics), r


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    spec_text, checkpoint = workloads.generate(args.workload, args.seed)
    workdir = build_dir() / "runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    try:
        spec = workdir / f"{args.workload}.exp"
        spec.write_text(spec_text)
        step = trace if args.trace else measure
        (correct, attempted, failed, metrics), raw = step(
            binary, spec, workdir, args.workload, args.seed, args.seconds, checkpoint)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    provenance = {key: raw[key] for key in
                  ("git_hash", "build_type", "simd", "compiler", "hardware_threads")}
    provenance.update({"nproc": os.cpu_count(), "cpu_model": cpu_model(),
                       "workload": args.workload, "seed": args.seed,
                       "seconds": args.seconds, "trace": args.trace})
    if "host" in raw:
        provenance["host"] = raw["host"]
    print(json.dumps({"provenance": provenance}))
    print(json.dumps({"correct": bool(correct), "attempted": int(attempted),
                      "failed": int(failed), "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
