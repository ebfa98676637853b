#!/usr/bin/env bash
# Builds the daemon and the benchmark from source, then runs the
# benchmark with the given arguments, from the root of the source tree:
#
#   bash perfbench/run.sh --workload serve_small --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh --smoke
#
# Build output goes to stderr so that the last line on stdout is the
# benchmark's JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
export DUNE_CACHE=disabled
dune build --root . ./bin/omq_tool.exe ./perfbench/omqbench.exe 1>&2
exec ./_build/default/perfbench/omqbench.exe "$@"
