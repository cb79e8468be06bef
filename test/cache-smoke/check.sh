#!/usr/bin/env bash
# Canonical-shape cache smoke assertions for the @cache-smoke alias.
set -eu

# one result line per input line, in input order
test "$(grep -c '^[0-9]*: n=31 ' cache-smoke.out)" -eq 6
for i in 0 1 2 3 4 5; do
  grep -q "^$i: n=31 " cache-smoke.out
done

# identical shapes must report identical embeddings
test "$(grep '^0: ' cache-smoke.out | sed 's/^0//')" = \
  "$(grep '^2: ' cache-smoke.out | sed 's/^2//')"

grep -q '^batch: trees=6 unique=2$' cache-smoke.out

# the dedupe shows up in the counters: one miss per unique shape, and
# every served line a hit
grep -q '^cache.misses = 2$' cache-smoke.out
grep -q '^cache.hits = 6$' cache-smoke.out
