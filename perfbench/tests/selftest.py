#!/usr/bin/env python3
"""Fast self-test of the benchmark (about a minute on 4 cores).

    python3 perfbench/tests/selftest.py

Runs every workload at tiny run counts through the untraced and the
traced paths and checks:
  * the traced replay reproduces the untraced sink bytes and per-run
    records (and the checkpoint resume reproduces the first pass);
  * every per-layer metric is reported, and the timed spans plus the
    untimed remainder add up to the traced wall time;
  * the workloads split the layers as designed: batch-engine work only
    on con_wcet, bus events per kcycle iso_stream < con_wcet < mesh_corun;
  * the output check fails a run whose digest does not match its pin;
  * a leftover file in a pass directory fails the run instead of being
    resumed (checkpoint hygiene).
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
sys.path.insert(0, str(HERE.parent))

import run  # noqa: E402
import workloads  # noqa: E402

# Runs per job: two lanes keep the batch credit engine engaged on con_wcet.
TINY_RUNS = {"con_wcet": 2, "iso_stream": 1, "mesh_corun": 1}
SEED = 5


def fail(message):
    raise SystemExit(f"selftest: FAIL: {message}")


def tiny_spec(name, workdir):
    text, checkpoint = workloads.generate(name, SEED)
    text = re.sub(r"^runs\s*=.*$", f"runs     = {TINY_RUNS[name]}", text,
                  flags=re.M)
    workdir.mkdir(parents=True, exist_ok=True)
    spec = workdir / f"{name}.exp"
    spec.write_text(text)
    return spec, ["--checkpoint"] if checkpoint else []


def check_workload(binary, name, workdir):
    spec, extra = tiny_spec(name, workdir)
    m = run.run_binary(binary, ["measure", "--spec", str(spec), "--workdir",
                                str(workdir / "m"), "--seconds", "0",
                                "--min-passes", "1"] + extra)
    once = run.run_binary(binary, ["replay", "--once", "--spec", str(spec),
                                   "--workdir", str(workdir / "o")] + extra)
    if (once["sink_digest"], once["records_digest"]) != (
            m["sink_digest"], m["records_digest"]):
        fail(f"{name}: traced replay differs from the untraced run")
    if not (m["repeats_identical"] and m["resume_identical"]
            and once["resume_identical"]):
        fail(f"{name}: passes or resume not byte-identical")
    if m["failed_runs"] != 0:
        fail(f"{name}: {m['failed_runs']} runs failed")

    r = run.run_binary(binary, ["replay", "--spec", str(spec), "--workdir",
                                str(workdir / "r"), "--seconds", "0",
                                "--min-passes", "1"] + extra)
    if not r["identical"]:
        fail(f"{name}: replay mode reports a mismatch")
    missing = [k for k, _ in run.PER_LAYER if k not in r]
    if missing:
        fail(f"{name}: per-layer metrics missing: {missing}")
    spans = ["exp.setup_s", "workloads.build_s", "platform.build_s",
             "platform.harvest_s", "sim.loop_s", "cpu.tick_s", "bus.tick_s",
             "core.engine_s", "core.contender_tick_s", "sim.other_tick_s",
             "metrics.fold_s", "exp.checkpoint_s", "mbpta.analyze_s",
             "exp.sinks_s", "trace.untimed_s"]
    total = sum(r[k] for k in spans)
    if abs(total - r["trace.wall_s"]) > 1e-6 * max(1.0, r["trace.wall_s"]):
        fail(f"{name}: spans sum to {total}, traced wall is {r['trace.wall_s']}")
    return r


def check_pin_mismatch(binary, workdir):
    spec, extra = tiny_spec("iso_stream", workdir)
    original = run.pinned_digest
    run.pinned_digest = lambda workload, seed: "0" * 16
    try:
        (correct, attempted, failed, _), _ = run.measure(
            binary, spec, workdir / "pin", "iso_stream", SEED, 0, bool(extra))
    finally:
        run.pinned_digest = original
    if correct or failed != attempted:
        fail("a digest mismatch did not fail the run")


def check_leftover_refused(binary, workdir):
    spec, extra = tiny_spec("iso_stream", workdir)
    leftover = workdir / "left" / "pass0"
    leftover.mkdir(parents=True)
    (leftover / "slices.ckpt").write_bytes(b"stale")
    proc = subprocess.run([str(binary), "measure", "--spec", str(spec),
                           "--workdir", str(workdir / "left"), "--seconds",
                           "0", "--min-passes", "0"] + extra,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    if proc.returncode == 0:
        fail("a leftover checkpoint was accepted")


def main():
    binary = run.build()
    workdir = run.build_dir() / "runs" / "selftest"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        layers = {name: check_workload(binary, name, workdir / name)
                  for name in sorted(workloads.WORKLOADS)}
        for name, r in layers.items():
            engine = r["core.engine_cycle_frac"] > 0
            if engine != (name == "con_wcet"):
                fail(f"{name}: core.engine_cycle_frac = {r['core.engine_cycle_frac']}")
        events = {n: r["bus.events_per_kcycle"] for n, r in layers.items()}
        if not events["iso_stream"] < events["con_wcet"] < events["mesh_corun"]:
            fail(f"bus.events_per_kcycle ordering: {events}")
        check_pin_mismatch(binary, workdir)
        check_leftover_refused(binary, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"selftest": "ok", "bus.events_per_kcycle": events}))


if __name__ == "__main__":
    main()
