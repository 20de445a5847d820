#!/usr/bin/env bash
# Build the benchmark from source in this checkout, then run it:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Build output goes to stderr; stdout ends with the JSON result line.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "perfbench: $root holds no polygeist-cpu sources (dune-project, lib/)" >&2
  exit 2
fi
# Every build artefact stays in this checkout: no shared dune cache.
export DUNE_CACHE=disabled
dune build --root . ./perfbench/main.exe >&2
exec ./_build/default/perfbench/main.exe "$@"
