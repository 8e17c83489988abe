#!/usr/bin/env bash
# Dispatch-parity check: the same campaigns run under --simd native (the
# configured ISA + batch credit engine), --simd scalar (engine with the
# portable kernels) and --simd off (the classic lane-major path, what a
# CBUS_SIMD=off build runs) must produce byte-identical output -- stdout,
# CSV and streaming JSON alike. This is the local half of the contract;
# the CI dispatch-parity leg repeats it across two separately configured
# builds (CBUS_SIMD=off vs the widest ISA) with cmp.
#
# The engine ticks every cycle while the classic path fast-forwards over
# quiet cycles, so the same comparison also pins the skipping kernel
# against the ticking one. The Figure-1 grid spec below covers both
# scenarios, all three bus setups (H-CBA rates, Table-I COMP-latch and
# always-compete contenders) and, at 3 runs under --batch 2, a one-lane
# tail slice, which runs the classic path even under the engine.
#
# Usage: dispatch_parity_test.sh CBUS_SIM SMOKE_EXP STREAM_EXP
set -euo pipefail

sim="$1"
smoke="$2"
stream="$3"

work="$(mktemp -d "${TMPDIR:-/tmp}/cbus-simd-XXXXXX")"
trap 'rm -rf "$work"' EXIT

grid="$work/figure1_grid.exp"
cat > "$grid" <<'EOF'
name     = figure1-grid
kernel   = matrix
sweep scenario = iso con
sweep setup    = rp cba hcba
cores    = 4
runs     = 3
seed     = 0xC0FFEE
csv      = figure1_grid.csv
json     = figure1_grid.json
EOF

for mode in native scalar off; do
  dir="$work/$mode"
  mkdir "$dir"
  cd "$dir"
  # Threads x batch exercises the sliced engine path; batch 4 with 5
  # runs also covers the tail stripe (5 % 4 != 0).
  "$sim" --experiment "$smoke" --simd "$mode" --threads 2 --batch 4 \
    > stdout_smoke.txt
  "$sim" --experiment "$stream" --simd "$mode" --threads 2 \
    > stdout_stream.txt
  "$sim" --experiment "$grid" --simd "$mode" --threads 2 --batch 2 \
    > stdout_grid.txt
done

for mode in scalar off; do
  for f in stdout_smoke.txt smoke.csv stdout_stream.txt stream_shard.json \
           stdout_grid.txt figure1_grid.csv figure1_grid.json
  do
    if ! cmp -s "$work/native/$f" "$work/$mode/$f"; then
      echo "FAIL: $f differs between --simd native and --simd $mode"
      diff "$work/native/$f" "$work/$mode/$f" | head -20
      exit 1
    fi
  done
  echo "ok: --simd $mode byte-identical to native"
done

echo "PASS"
