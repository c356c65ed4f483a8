#!/usr/bin/env bash
# Write every byte-compared smoke output of the repository into one
# directory, so two checkouts can be compared with `diff -r`.
#
#   scripts/smoke_outputs.sh OUT_DIR [SRC_DIR]
#
# SRC_DIR defaults to the `src` directory next to this script. Wall-time
# reports go to stderr and are discarded; every file written is a pure
# function of the checkout.
set -euo pipefail

out=${1:?usage: smoke_outputs.sh OUT_DIR [SRC_DIR]}
src=${2:-$(cd "$(dirname "$0")/.." && pwd)/src}
mkdir -p "$out"
out=$(cd "$out" && pwd)
export PYTHONPATH="$src"
repro() { python -m repro "$@"; }

repro chaos --scenarios 5 --seed 0 > "$out/chaos.txt" 2> /dev/null
repro fuzz --smoke > "$out/fuzz.json" 2> /dev/null
repro fuzz --smoke --parallel > "$out/fuzz-parallel.json" 2> /dev/null
repro fuzz --smoke --disk > "$out/fuzz-disk.json" 2> /dev/null
repro heal --smoke > "$out/heal.json" 2> /dev/null
# The --out path is echoed in the report, so run from inside OUT_DIR.
(cd "$out" && repro trace --scheme dssmr --seed 7 --out spans.jsonl \
    > trace.txt 2> /dev/null)
repro profile --smoke > "$out/profile.json" 2> /dev/null
repro perfcheck --smoke > "$out/perfcheck.json" 2> /dev/null
repro qos --smoke --json > "$out/qos.json" 2> /dev/null
repro durability --smoke > "$out/durability.json" 2> /dev/null
repro parallelexec --smoke > "$out/parallelexec.json" 2> /dev/null
repro reconfig --seed 0 --json --out "$out/reconfig.json" \
    > /dev/null 2>&1
