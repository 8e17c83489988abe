#!/usr/bin/env bash
# Batch/threads identity check: the same experiments run at threads
# {1,4} x batch {1,8} must render the bytes of threads 1 x batch 1 --
# stdout, CSV and JSON alike. A slice of `batch` runs executes them one
# machine at a time, so batch only moves the checkpoint/shard unit and
# threads only the slice order; neither may change an output byte.
#
# The Figure-1 grid spec below covers both scenarios and all three bus
# setups (H-CBA rates, Table-I COMP-latch and always-compete
# contenders); at 3 runs under batch 8 a job is one short slice.
# smoke.exp adds per-run CSV rows, stream_shard.exp the streaming
# digests merged across slices.
#
# Usage: batch_identity_test.sh CBUS_SIM SMOKE_EXP STREAM_EXP
set -euo pipefail

sim="$1"
smoke="$2"
stream="$3"

work="$(mktemp -d "${TMPDIR:-/tmp}/cbus-batch-XXXXXX")"
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

for threads in 1 4; do
  for batch in 1 8; do
    dir="$work/t${threads}_b${batch}"
    mkdir "$dir"
    cd "$dir"
    for spec in "$smoke" "$stream" "$grid"; do
      "$sim" --experiment "$spec" --threads "$threads" --batch "$batch" \
        > "stdout_$(basename "$spec" .exp).txt"
    done
  done
done

reference="$work/t1_b1"
for dir in "$work"/t*_b*; do
  [ "$dir" = "$reference" ] && continue
  for f in stdout_smoke.txt smoke.csv stdout_stream_shard.txt \
           stream_shard.json stdout_figure1_grid.txt figure1_grid.csv \
           figure1_grid.json
  do
    if ! cmp -s "$reference/$f" "$dir/$f"; then
      echo "FAIL: $f differs between t1_b1 and $(basename "$dir")"
      diff "$reference/$f" "$dir/$f" | head -20
      exit 1
    fi
  done
  echo "ok: $(basename "$dir") byte-identical to t1_b1"
done

echo "PASS"
