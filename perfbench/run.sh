#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the root of the
# repository:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Build output stays in the checkout: dune's own _build/, with its shared
# cache off and the compiler's temporary files under .bench_build/.
set -euo pipefail

if [[ ! -f dune-project || ! -d lib/sim || ! -f perfbench/dune ]]; then
  echo "perfbench: run from the repository root (dune-project, lib/ and perfbench/ are needed)" >&2
  exit 2
fi

export DUNE_CACHE=disabled
export TMPDIR="$PWD/.bench_build/tmp"
mkdir -p "$TMPDIR"

dune build --root . --display quiet ./perfbench/main.exe >&2
exec ./_build/default/perfbench/main.exe "$@"
