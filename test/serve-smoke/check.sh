#!/usr/bin/env bash
# Embedding-service smoke assertions for the @serve-smoke alias.
set -eu

# the wire round-trip changes nothing: a loadgen replay against a spawned
# server prints byte-for-byte what embed-batch prints on the same stream
diff -u loadgen.out embed.out

# the report is the one we expect, not an empty file that trivially diffs
test "$(grep -c '^[0-9]*: n=' loadgen.out)" -eq 24
grep -q '^0: n=' loadgen.out
grep -q '^23: n=' loadgen.out
grep -q '^batch: trees=24 unique=3$' loadgen.out

# serve steady state is a cache hit, not a pipeline re-run
grep -q '^guard PASS$' guard.out

# a warm server answers a hot request from its bytes: no parse, no re-encode
grep -q '^serve guard PASS$' guard.out
