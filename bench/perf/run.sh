#!/bin/sh
# Build xbench from this checkout's sources, then run one benchmark run:
#
#   sh bench/perf/run.sh --workload hot --seed 1 --seconds 10 --trace 0
#
# Run from the repository root.  Build output goes to standard error, so
# the last line of standard output is the run's JSON result.  The dune
# cache is off so that nothing is written outside the checkout.
set -eu
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "run.sh: run from the repository root (no dune-project or lib/ here)" >&2
  exit 2
fi
DUNE_CACHE=disabled dune build --root . ./bench/perf/xbench.exe 1>&2
exec ./_build/default/bench/perf/xbench.exe run "$@"
