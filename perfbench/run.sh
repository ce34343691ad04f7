#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root;
# every argument is passed through, e.g.
#   bash perfbench/run.sh --workload wide-n64 --seed 1 --seconds 35 --trace 0
# The build goes to $CARGO_TARGET_DIR (default .bench_build), which also
# receives the traced runs' span dumps and the runtime-events ring.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "perfbench: needs a full checkout of the repository (dune-project, lib/)" >&2
  exit 1
fi
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env 2>/dev/null)" || true
fi
out="${CARGO_TARGET_DIR:-.bench_build}"
dune build --root . --build-dir "$out" ./perfbench/main.exe 1>&2
mkdir -p "$out/perfbench"
export OCAML_RUNTIME_EVENTS_DIR="$out/perfbench"
exec "$out/default/perfbench/main.exe" --out-dir "$out/perfbench" "$@"
