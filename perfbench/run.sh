#!/usr/bin/env bash
# Builds the sweep benchmark from source and runs it.
#
#   bash perfbench/run.sh --workload W --seed S --seconds T --trace 0|1
#
# Run from the repository root, or from anywhere: the script moves
# there.  Build output goes to stderr; the benchmark's result is the
# last line of stdout.  Exits non-zero without a result when the
# program's sources are not beside the benchmark.
set -euo pipefail
cd "$(dirname "$0")/.."
for f in dune-project lib bin; do
  if [ ! -e "$f" ]; then
    echo "perfbench: $f is missing; the benchmark needs the full source tree" >&2
    exit 2
  fi
done
export DUNE_CACHE=disabled
dune build --root . ./perfbench/bench.exe 1>&2
exec ./_build/default/perfbench/bench.exe "$@"
