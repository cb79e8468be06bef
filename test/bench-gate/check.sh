#!/usr/bin/env bash
# Perf-regression gate assertions for the @bench-gate alias.
set -eu
MAIN="$1"

run_bench() {
  "$MAIN" --tables-only --smoke --no-timings "$@"
}

# Fresh record + first history line.
run_bench --json fresh.json --history hist.jsonl >/dev/null
test "$(wc -l < hist.jsonl)" -eq 1
grep -q '"bench":"tables"' hist.jsonl
grep -q '"stages":{' hist.jsonl

# A clean self-comparison passes the gate (generous threshold: the two
# runs are seconds apart on the same machine, but CI boxes are noisy).
run_bench --history hist.jsonl --baseline fresh.json --check --check-threshold 50 \
  > clean.out
grep -q 'perf gate: PASS' clean.out
test "$(wc -l < hist.jsonl)" -eq 2

# Doctor one measurable stage down to ~zero: the rerun now looks like a
# huge regression on E1 and the gate must trip with a non-zero exit.
sed 's/"name": "E1", "seconds": [0-9.]*/"name": "E1", "seconds": 0.000001/' \
  fresh.json > doctored.json
if run_bench --no-history --baseline doctored.json --check --check-threshold 3 \
  > doctored.out; then
  echo "gate failed to trip on a doctored baseline" >&2
  exit 1
fi
grep -q 'SLOW' doctored.out
grep -q 'perf gate: FAIL' doctored.out

# --no-history really skipped the append.
test "$(wc -l < hist.jsonl)" -eq 2

# The JSON record carries the per-stage GC-pressure fields.
grep -q '"minor_words":' fresh.json
grep -q '"major_words":' fresh.json
