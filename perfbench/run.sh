#!/usr/bin/env bash
# Build cec_tool and the benchmark from this checkout, then run the
# benchmark:  bash perfbench/run.sh --workload W --seed N --seconds S --trace T
# Build output goes to stderr; the dune cache stays off so the build
# reads and writes only inside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
export DUNE_CACHE=disabled
dune build --root . ./bin/cec_tool.exe ./perfbench/perfbench.exe 1>&2
exec ./_build/default/perfbench/perfbench.exe --tool ./_build/default/bin/cec_tool.exe "$@"
