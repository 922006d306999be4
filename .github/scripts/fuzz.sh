#!/usr/bin/env bash
# Runs one fuzz target for a fixed time, failing when the target does
# not exist: `go test -fuzz` with a pattern that matches nothing prints
# a warning and exits 0, so a renamed or moved target would otherwise
# turn the fuzz step green without fuzzing anything.
#
#   .github/scripts/fuzz.sh FuzzParseSpec 10s ./internal/service/
set -euo pipefail
target=$1 fuzztime=$2 pkg=$3
listed=$(go test -list "^${target}\$" "$pkg")
if ! grep -qx "$target" <<<"$listed"; then
  echo "fuzz target $target not found in $pkg" >&2
  exit 1
fi
go test -run='^$' -fuzz="^${target}\$" -fuzztime="$fuzztime" "$pkg"
