#!/usr/bin/env bash
# Compares two BENCH_sim.json files written by `perf --out` and fails when
# the candidate's throughput regresses below the baseline by more than the
# tolerance — overall or for any single design.
#
#   usage: bench_compare.sh <baseline.json> <candidate.json> [tolerance_pct]
#
# The tolerance defaults to $TOLERANCE or 15 (percent). Exit codes:
#   0  no regression beyond tolerance
#   1  at least one regression
#   2  usage / unreadable or unparseable input
#
# scripts/check.sh runs this advisorily (two back-to-back smoke runs):
# machine noise means a red result there is a hint, not a gate. Comparing a
# committed baseline against a fresh run is the intended strict use.
set -eu

if [ "$#" -lt 2 ] || [ "$#" -gt 3 ]; then
    echo "usage: bench_compare.sh <baseline.json> <candidate.json> [tolerance_pct]" >&2
    exit 2
fi
baseline="$1"
candidate="$2"
tolerance="${3:-${TOLERANCE:-15}}"

for f in "$baseline" "$candidate"; do
    if [ ! -r "$f" ]; then
        echo "bench_compare: cannot read $f" >&2
        exit 2
    fi
    # Every section perf emits must be present in both files; a silent
    # partial comparison would report "ok" while skipping whole sections
    # (e.g. a baseline written before the profile section existed).
    for section in '"total"' '"profile"' '"designs"'; do
        if ! grep -q "$section" "$f"; then
            echo "bench_compare: $f is missing the $section section" \
                "(stale baseline? regenerate with: perf --out)" >&2
            exit 2
        fi
    done
done

# Emits "<key> <requests_per_sec>" lines: one TOTAL plus one per design.
# BENCH_sim.json keeps each design entry on its own line and the total
# block's requests_per_sec appears before any design line.
extract() {
    awk '
        /"design":/ {
            name = $0
            sub(/.*"design": *"/, "", name); sub(/".*/, "", name)
            rps = $0
            sub(/.*"requests_per_sec": */, "", rps); sub(/[^0-9].*/, "", rps)
            if (name != "" && rps != "") print name, rps
            next
        }
        /"requests_per_sec":/ && !seen_total {
            rps = $0
            sub(/.*"requests_per_sec": */, "", rps); sub(/[^0-9].*/, "", rps)
            if (rps != "") { print "TOTAL", rps; seen_total = 1 }
        }
    ' "$1"
}

base_rows="$(extract "$baseline")"
cand_rows="$(extract "$candidate")"
if [ -z "$base_rows" ] || [ -z "$cand_rows" ]; then
    echo "bench_compare: no requests_per_sec rows found (not a perf --out file?)" >&2
    exit 2
fi

printf '%-12s %14s %14s %9s\n' "key" "baseline" "candidate" "delta%"
status=0
while read -r key base_rps; do
    cand_rps="$(printf '%s\n' "$cand_rows" | awk -v k="$key" '$1 == k { print $2 }')"
    if [ -z "$cand_rps" ]; then
        echo "bench_compare: $key present in baseline but missing from candidate" >&2
        status=1
        continue
    fi
    verdict="$(awk -v b="$base_rps" -v c="$cand_rps" -v tol="$tolerance" 'BEGIN {
        delta = (c - b) * 100.0 / b
        printf "%+.1f %s", delta, (delta < -tol ? "REGRESSION" : "ok")
    }')"
    delta="${verdict% *}"
    flag="${verdict#* }"
    printf '%-12s %14s %14s %9s %s\n' "$key" "$base_rps" "$cand_rps" "$delta" \
        "$([ "$flag" = REGRESSION ] && echo "<-- beyond ${tolerance}% tolerance" || true)"
    if [ "$flag" = REGRESSION ]; then
        status=1
    fi
done <<EOF
$base_rows
EOF

if [ "$status" -ne 0 ]; then
    echo "bench_compare: throughput regression beyond ${tolerance}%" >&2
fi
exit "$status"
