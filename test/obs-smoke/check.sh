#!/usr/bin/env bash
# Telemetry smoke assertions for the @obs-smoke alias.
set -eu

grep -q '^theorem1.rounds = [1-9]' obs-smoke.out
grep -q '^split.calls = [1-9]' obs-smoke.out
grep -q 'trace written to obs-smoke-trace.json' obs-smoke.out

head -c 16 obs-smoke-trace.json | grep -q '{"traceEvents":\['
begins=$(grep -c '"ph":"B"' obs-smoke-trace.json)
ends=$(grep -c '"ph":"E"' obs-smoke-trace.json)
test "$begins" -gt 0
test "$begins" -eq "$ends"
