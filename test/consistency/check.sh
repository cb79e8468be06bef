#!/usr/bin/env bash
# Docs/code consistency for instrument names (counters, gauges,
# histograms, spans). Names live in one flat namespace of the form
# <subsystem>.<name>; the docs and the code must agree on the full set.
set -eu
DOCS="$1"
LIB="$2"

names_in_docs() {
  grep -ohE '\b(obs|parallel|state|cache|netsim|congestion|serve|loadgen)(\.[a-z_0-9]+)+\b' "$DOCS" \
    | sort -u
}

names_in_lib() {
  grep -rohE '"(obs|parallel|state|cache|netsim|congestion|serve|loadgen)(\.[a-z_0-9]+)+"' \
    --include='*.ml' "$LIB" \
    | tr -d '"' | sort -u
}

names_in_docs > docs.names
names_in_lib > lib.names

status=0

# Forward: everything the docs talk about must exist in the code.
if ! comm -23 docs.names lib.names > docs.only || [ -s docs.only ]; then
  echo "instrument names documented in EXPERIMENTS.md but absent from lib/:" >&2
  cat docs.only >&2
  status=1
fi

# Reverse: everything the code emits must be documented.
if ! comm -13 docs.names lib.names > lib.only || [ -s lib.only ]; then
  echo "instrument names emitted in lib/ but undocumented in EXPERIMENTS.md:" >&2
  cat lib.only >&2
  status=1
fi

exit $status
