#!/usr/bin/env bash
# Embedding smoke assertions for the @embed-smoke alias.
set -eu

# the embed report (dilation, load, congestion, fallbacks, condition
# counts) is printed in full
grep -q '^theorem1: ' embed.out
grep -q '^host: X(' embed.out
grep -q "^condition (3'): " embed.out

# the Lemma 2 carve and components allocate only their output
grep -q '^guard PASS$' guard.out

# SPLIT's fill re-forms at most 20 guest nodes per node it lays
grep -q '^reform guard PASS$' guard.out

# a Theorem 1 embed allocates at most 106 minor words per guest node
grep -q '^alloc guard PASS$' guard.out
