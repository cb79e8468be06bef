#!/usr/bin/env bash
# Simulator smoke assertions for the @sim-smoke alias.
set -eu

grep -q '^== workload suite on uniform (n=496)' sim-smoke.out
for w in reduction broadcast all-reduce pingpong-sweep permutation; do
  grep -q "^$w " sim-smoke.out
done

# conservation: everything sent was delivered, and something was sent
sent=$(sed -n 's/^netsim.sent = //p' sim-smoke.out)
delivered=$(sed -n 's/^netsim.delivered = //p' sim-smoke.out)
test "$sent" -gt 0
test "$sent" -eq "$delivered"

# route sharing: the five embedded cases share one next-hop table on
# their X(4) host, so at most one BFS row per host vertex (31) is built
rows=$(sed -n 's/^netsim.route_rows = //p' sim-smoke.out)
test "$rows" -gt 0
test "$rows" -le 31
