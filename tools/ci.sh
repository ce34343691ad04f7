#!/bin/sh
# The full gate: build, then the marlin_lint static-analysis pass
# (`dune build @lint` — the Parsetree determinism/protocol-safety idioms
# over lib/ bench/ test/ PLUS the typed interprocedural pass over every
# lib/ .cmt: effect inference, quorum-arithmetic provenance, linearity,
# exhaustive payload dispatch — and both seeded-violation fixture
# checks), then tier-1 tests, then the bench smoke pipeline with its
# regression check against the committed baselines
# (bench/baselines/*.json). Any tolerance violation fails the script.
# Lint runs before the tests because it is the cheapest gate with the
# highest signal-per-second: a raw `2*f` or a nested broadcast should
# fail CI in seconds, not after the full suite.
#
# After the alias gate, the lint runs once more with a real clock to
# write _build/lint-report.json — the marlin-lint/1 document with
# per-rule timings, kept as a CI artifact for lint-performance tracking.
# (The alias runs themselves use the null clock so their JSON stays
# byte-identical run to run.)
#
# The four bench gates (@bench-smoke, @bench-scaling, @bench-load,
# @bench-attribution) share one runner: the `gates` table in
# bench/main.ml lists each target's baseline, wall budget and check list
# (which metrics are exact, which get a fixed bound, which get the 15%
# timing tolerance), and Marlin_obs.Gate does the comparison. Smoke
# covers the traced profiles, view changes and a leader-crash fault;
# scaling the n-sweep up to 64; load the open-loop offered-load sweep;
# attribution the bottleneck verdicts at each protocol's knee.
# @bench-smoke also checks that the gate fails on a perturbed baseline.
#
# To re-bless the baselines after an intentional performance change:
#   dune exec bench/main.exe -- smoke --json bench/baselines/BENCH_smoke.json
#   dune exec bench/main.exe -- scaling --smoke --json bench/baselines/BENCH_scaling.json
#   dune exec bench/main.exe -- load --smoke --json bench/baselines/BENCH_load.json
#   dune exec bench/main.exe -- attribution --smoke --json bench/baselines/BENCH_attribution.json
set -eu
cd "$(dirname "$0")/.."

dune build
dune build @lint
(cd _build/default \
 && ./tools/lint/main.exe --quiet --time --json ../lint-report.json \
      lib bench test --typed lib)
echo "ci: lint report with per-rule timings at _build/lint-report.json"
dune runtest
dune build @bench-smoke
dune build @bench-scaling
dune build @bench-load
dune build @bench-attribution

echo "ci: build + lint + tests + bench-smoke + bench-scaling + bench-load + bench-attribution gates all green"
