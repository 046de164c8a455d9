#!/bin/sh
# Build the benchmark from source, then run it; from the repository
# root:
#
#   sh bench/perf/run.sh --workload table1 --seed 1 --seconds 10 --trace 0
#
# Arguments go to perf.exe unchanged (see README.md).  The dune cache
# is disabled so the build writes nothing outside the working tree.
set -e
dune build --root . --cache=disabled --display=quiet ./bench/perf/perf.exe
exec ./_build/default/bench/perf/perf.exe "$@"
