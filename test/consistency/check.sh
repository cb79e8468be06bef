#!/usr/bin/env bash
# Docs/code consistency for instrument names (counters, gauges,
# histograms, spans). Names live in one flat namespace of the form
# <subsystem>.<name>, where a name may contain hyphens; the docs and the
# code must agree on the full set.
#
# usage: check.sh DOCS SRC_DIR...
set -eu
DOCS="$1"
shift

# Every subsystem prefix the sources emit (lib/ and the CLI's guest span).
PREFIXES='obs|parallel|state|cache|netsim|congestion|serve|loadgen|adjust|split|theorem1|theorem3|repair|embedding|conditions|guest|universal'

names_in_docs() {
  grep -ohE "\\b($PREFIXES)(\\.[a-z_0-9-]+)+\\b" "$DOCS" \
    | sort -u
}

names_in_src() {
  grep -rohE "\"($PREFIXES)(\\.[a-z_0-9-]+)+\"" --include='*.ml' "$@" \
    | tr -d '"' | sort -u
}

names_in_docs > docs.names
names_in_src "$@" > src.names

status=0

# Forward: everything the docs talk about must exist in the code.
if ! comm -23 docs.names src.names > docs.only || [ -s docs.only ]; then
  echo "instrument names documented in EXPERIMENTS.md but absent from the sources:" >&2
  cat docs.only >&2
  status=1
fi

# Reverse: everything the code emits must be documented.
if ! comm -13 docs.names src.names > src.only || [ -s src.only ]; then
  echo "instrument names emitted in the sources but undocumented in EXPERIMENTS.md:" >&2
  cat src.only >&2
  status=1
fi

exit $status
