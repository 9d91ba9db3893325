#!/usr/bin/env bash
# Build the benchmark and chlsc from source, then run one workload:
#   bash perfbench/run.sh --workload W --seed N --seconds S --trace 0|1
# Run from the root of a checkout.  Build output goes to stderr; the
# last stdout line is the run's JSON result.
set -euo pipefail
# keep every build artifact inside the checkout's _build
export DUNE_CACHE=disabled
dune build --root . perfbench/main.exe bin/chlsc.exe >&2
exec ./_build/default/perfbench/main.exe "$@"
