#!/usr/bin/env bash
# Build the end-to-end admission benchmark from source and run it.
#
#   bash bench/e2e/run.sh --workload W --seed N --seconds S --trace 0|1
#
# Run from anywhere inside a checkout of the repository; build output goes
# to the checkout's _build directory and is kept out of the shared dune
# cache. Exits 2 without building when the repository sources are absent.
set -eu
cd "$(dirname "$0")/../.."
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "bench/e2e/run.sh: the repository sources are missing; cannot build the benchmark" >&2
  exit 2
fi
export DUNE_CACHE=disabled
dune build --root . --display quiet bench/e2e/main.exe >&2
exec ./_build/default/bench/e2e/main.exe "$@"
