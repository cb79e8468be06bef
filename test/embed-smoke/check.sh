#!/usr/bin/env bash
# Embedding smoke assertions for the @embed-smoke alias.
set -eu

# parallel-vs-sequential equivalence: the whole embed report (dilation,
# load, congestion, fallbacks, condition counts) must be byte-identical
diff -u embed-jobs1.out embed-jobs4.out

# the report is the one we expect, not an empty file that trivially diffs
grep -q '^theorem1: ' embed-jobs1.out
grep -q '^host: X(' embed-jobs1.out

# workspace hot path allocates nothing; components allocates only its output
grep -q '^guard PASS$' guard.out

# SPLIT's fill re-forms at most 20 guest nodes per node it lays
grep -q '^reform guard PASS$' guard.out
