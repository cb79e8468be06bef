#!/usr/bin/env bash
# Embedding smoke assertions for the @embed-smoke alias.
set -eu

# the embed report (dilation, load, congestion, fallbacks, condition
# counts) is printed in full
grep -q '^theorem1: ' embed.out
grep -q '^host: X(' embed.out
grep -q "^condition (3'): " embed.out

# the Lemma 2 carve allocates a constant, components only their output
grep -q '^guard PASS$' guard.out

# a Theorem 1 embed, whose re-forms read subtree ranges and list no
# nodes, allocates at most 60 minor words per guest node
grep -q '^reform guard PASS$' guard.out

# a Theorem 1 embed allocates at most 106 minor words per guest node
grep -q '^alloc guard PASS$' guard.out
