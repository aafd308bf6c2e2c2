#!/bin/sh
# Build the benchmark and the xtwigd server from this checkout's sources,
# then run the benchmark with the given arguments, e.g.
#   sh benchmark/bench.sh --workload estimate --seed 1 --seconds 10 --trace 0
#   sh benchmark/bench.sh run --seed 1
# Run from the repository root. The build stays inside the checkout:
# dune's shared cache is off, the output goes to _build/ and temporary
# files to .benchmark-tmp/.
set -e
export DUNE_CACHE=disabled
mkdir -p .benchmark-tmp
TMPDIR="$(pwd)/.benchmark-tmp"
export TMPDIR
dune build --root . ./benchmark/run.exe ./bin/xtwigd.exe 1>&2
exec ./_build/default/benchmark/run.exe "$@"
