#!/usr/bin/env bash
# Byte-stability assertions for the @trace-smoke alias.
set -eu

# Same command, same fake clock: the whole trace (and hence the whole
# report) must be byte-identical across runs.
diff -u trace1.json trace2.json
diff -u report1.txt report2.txt

# The full report carries every analytics section for a traced embed.
grep -q '^== spans ==' report1.txt
grep -q '^== domains ==' report1.txt
grep -q 'theorem1.embed' report1.txt

# The deterministic projection drops schedule-dependent content.
grep -q '^== spans (deterministic) ==' det1.txt
! grep -q 'wall_ms' det1.txt
! grep -q '^== domains ==' det1.txt
