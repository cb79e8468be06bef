#!/usr/bin/env bash
# Docs/code consistency for instrument names (counters, histograms,
# spans). Names live in one flat namespace of the form
# <subsystem>.<name>, where a name may contain hyphens; the docs and the
# code must agree on the full set. A file path or an OCaml file name in
# the docs, such as lib/prelude/cache.ml, is not an instrument name.
#
# usage: check.sh DOCS SRC_DIR...
set -eu
DOCS="$1"
shift

# Every subsystem prefix the sources emit (lib/ and the CLI's guest span).
PREFIXES='obs|parallel|state|cache|netsim|congestion|serve|loadgen|adjust|split|theorem1|theorem3|repair|embedding|conditions|guest|universal'

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# A match that takes in a slash on either side is part of a path, and
# one ending in .ml or .mli names an OCaml file.
names_in_docs() {
  grep -ohE "/?\\b($PREFIXES)(\\.[a-z_0-9-]+)+\\b/?" "$DOCS" \
    | grep -vE '/|\.mli?$' | sort -u
}

names_in_src() {
  grep -rohE "\"($PREFIXES)(\\.[a-z_0-9-]+)+\"" --include='*.ml' "$@" \
    | tr -d '"' | sort -u
}

names_in_docs > "$tmp/docs.names"
names_in_src "$@" > "$tmp/src.names"

status=0

# Forward: everything the docs talk about must exist in the code.
comm -23 "$tmp/docs.names" "$tmp/src.names" > "$tmp/docs.only"
if [ -s "$tmp/docs.only" ]; then
  echo "instrument names documented in $DOCS but absent from the sources:" >&2
  cat "$tmp/docs.only" >&2
  status=1
fi

# Reverse: everything the code emits must be documented.
comm -13 "$tmp/docs.names" "$tmp/src.names" > "$tmp/src.only"
if [ -s "$tmp/src.only" ]; then
  echo "instrument names emitted in the sources but undocumented in $DOCS:" >&2
  cat "$tmp/src.only" >&2
  status=1
fi

exit $status
