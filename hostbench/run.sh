#!/usr/bin/env bash
# Builds the host-time benchmark from source, then runs it with the given
# flags, from the root of the source tree:
#   bash hostbench/run.sh --workload paper_matrix --seed 1 --seconds 20 --trace 0
# Build output goes to stderr; the last stdout line is the JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
export DUNE_CACHE=disabled
dune build --root . --display quiet ./hostbench/main.exe 1>&2
exec ./_build/default/hostbench/main.exe "$@"
