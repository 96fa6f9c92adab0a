#!/usr/bin/env bash
# Build the benchmark and the serve daemon from source, then run one
# workload. Run from the root of a checkout:
#
#   bash perfbench/run.sh --workload serve-hot|serve-churn|sweep|classify \
#     --seed N --seconds S --trace 0|1
#
# Build output goes to stderr; the last line of stdout is the JSON result.
set -euo pipefail

if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "perfbench: no sources here (dune-project, lib/ and bin/ are needed); run from the repository root" >&2
  exit 2
fi

if ! command -v dune >/dev/null 2>&1; then
  if command -v opam >/dev/null 2>&1; then
    eval "$(opam env 2>/dev/null)" || true
  fi
fi

dune build --root . ./perfbench/main.exe ./bin/cnfet_tool.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
