#!/usr/bin/env bash
# Build the benchmark from this checkout's sources, then run it with the
# given arguments:
#
#   bash perfbench/run.sh --workload oltp-point --seed 1 --seconds 20 --trace 0
#
# Build output goes to _build/ and run files to .perfbench-run/<pid>/, both in
# the checkout; dune's shared cache is off so nothing is written outside.
set -euo pipefail
cd "$(dirname "$0")/.."
export DUNE_CACHE=disabled
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env 2>/dev/null)" || true
fi
dune build --root . --display quiet ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
