#!/usr/bin/env bash
# Build the benchmark from source, then run it with every argument passed on:
#   bash benchmark/run.sh --workload paper-pool --seed 1985 --seconds 20 --trace 0
# Build output goes to stderr, so the last line of stdout stays the JSON
# result line. Fails (non-zero, no result line) when the tree does not build.
set -euo pipefail
cd "$(dirname "$0")/.."
command -v dune >/dev/null 2>&1 || eval "$(opam env 2>/dev/null)"
dune build --root . --cache=disabled --display=quiet ./benchmark/main.exe 1>&2
exec ./_build/default/benchmark/main.exe "$@"
