#!/usr/bin/env bash
# Builds the benchmark harness from source with dune and runs it with the
# given arguments, from the checkout root. Build output goes to stderr so
# the harness's JSON result stays the last line of stdout. Dune's shared
# cache is disabled so the build reads and writes only inside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
dune build --root . --cache=disabled --display=quiet benchmark/main.exe 1>&2
exec ./_build/default/benchmark/main.exe "$@"
