#!/usr/bin/env bash
# Write every byte-compared smoke output of the repository into one
# directory, so two checkouts can be compared with `diff -r`.
#
#   scripts/smoke_outputs.sh OUT_DIR [SRC_DIR [REPORT_DIR]]
#
# SRC_DIR defaults to the `src` directory next to this script. Every file
# written to OUT_DIR is a pure function of the checkout. The human reports
# (stderr, with wall times) are discarded, or kept in REPORT_DIR when it
# is given. Any command's non-zero exit fails the script.
set -euo pipefail

out=${1:?usage: smoke_outputs.sh OUT_DIR [SRC_DIR [REPORT_DIR]]}
src=${2:-$(cd "$(dirname "$0")/.." && pwd)/src}
reports=${3:-}
mkdir -p "$out" ${reports:+"$reports"}
out=$(cd "$out" && pwd)
if [ -n "$reports" ]; then reports=$(cd "$reports" && pwd); fi
export PYTHONPATH="$src"
repro() { python -m repro "$@"; }
# Where the report of smoke NAME goes.
report() { if [ -n "$reports" ]; then echo "$reports/$1.txt"; else echo /dev/null; fi; }

repro chaos --scenarios 5 --seed 0 > "$out/chaos.txt" 2> "$(report chaos)"
repro fuzz --smoke > "$out/fuzz.json" 2> "$(report fuzz)"
repro fuzz --smoke --parallel > "$out/fuzz-parallel.json" \
    2> "$(report fuzz-parallel)"
repro fuzz --smoke --disk > "$out/fuzz-disk.json" 2> "$(report fuzz-disk)"
repro heal --smoke > "$out/heal.json" 2> "$(report heal)"
# The --out path is echoed in the report, so run from inside OUT_DIR.
(cd "$out" && repro trace --scheme dssmr --seed 7 --out spans.jsonl \
    > trace.txt 2> "$(report trace)")
repro profile --smoke > "$out/profile.json" 2> "$(report profile)"
repro perfcheck --smoke > "$out/perfcheck.json" 2> "$(report perfcheck)"
repro qos --smoke --json > "$out/qos.json" 2> "$(report qos)"
repro durability --smoke > "$out/durability.json" 2> "$(report durability)"
repro parallelexec --smoke > "$out/parallelexec.json" \
    2> "$(report parallelexec)"
repro reconfig --seed 0 --json --out "$out/reconfig.json" \
    > /dev/null 2> "$(report reconfig)"
