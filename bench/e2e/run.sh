#!/usr/bin/env bash
# Build flix_serve and flixbench from this source tree, then run
# flixbench with the given arguments, e.g.
#
#   bash bench/e2e/run.sh --workload mem-read --seed 1 --seconds 20 --trace 0
#   bash bench/e2e/run.sh run --seed 1 --out results.json
#
# Build output goes to stderr, so the last line flixbench prints stays
# the last line of stdout. The dune cache is off so the build reads and
# writes nothing outside the tree.
set -eu
cd "$(dirname "$0")/../.."
DUNE_CACHE=disabled dune build --root . ./bin/flix_serve.exe ./bench/e2e/flixbench.exe >&2
exec ./_build/default/bench/e2e/flixbench.exe "$@"
