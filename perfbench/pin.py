#!/usr/bin/env python3
"""Pin the sink digest (stdout + CSV + JSON bytes) of every workload for a
range of seeds into perfbench/pins.json.

    python3 perfbench/pin.py --seeds 0-31

Run it only when the simulator's outputs change on purpose; run.py fails
any run whose untraced output differs from its seed's pinned digest.
"""

import argparse
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="e.g. 0-31")
    args = parser.parse_args()

    binary = run.build()
    pins_path = HERE / "pins.json"
    pins = json.loads(pins_path.read_text())
    workdir = run.build_dir() / "runs" / "pin"
    for name in sorted(workloads.WORKLOADS):
        for seed in parse_seeds(args.seeds):
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir(parents=True)
            text, checkpoint = workloads.generate(name, seed)
            spec = workdir / f"{name}.exp"
            spec.write_text(text)
            m = run.run_binary(binary, ["measure", "--spec", str(spec),
                                        "--workdir", str(workdir / "out"),
                                        "--seconds", "0", "--min-passes", "0"]
                               + (["--checkpoint"] if checkpoint else []))
            if m["failed_runs"] or not m["resume_identical"]:
                raise SystemExit(f"{name} seed {seed}: refusing to pin a failing run")
            pins["digests"].setdefault(name, {})[str(seed)] = m["sink_digest"]
            run.log(f"{name} seed {seed}: {m['sink_digest']}")
    shutil.rmtree(workdir, ignore_errors=True)
    pins_path.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
