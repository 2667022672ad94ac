#!/usr/bin/env sh
# The static-analysis gate (CI's "lint-gate" job runs this script):
#   1. omnc-lint check        — determinism / panic-freedom / unsafe-audit /
#                               float-hygiene / kernel-hygiene rules over
#                               crates/, with hot-path obligation propagation
#   2. omnc-lint check-scenario — model invariants of the two committed
#                               gate scenarios, single- and multi-session
#                               (probabilities, capacity condition)
#   3. cargo clippy -D warnings under the workspace lint table
# Exits nonzero on any deny-level finding. See DESIGN.md ("Determinism &
# static analysis policy") for the rule table and escape hatches.
#
# --changed-only: report findings only for .rs files that differ from the
# merge base with origin/main (analysis still covers the whole workspace so
# blame chains stay correct). Any other arguments pass through to
# `omnc-lint check` (e.g. --sarif, --json).
set -eu
cd "$(dirname "$0")/.."

only_args=""
passthrough=""
for arg in "$@"; do
  if [ "$arg" = "--changed-only" ]; then
    base=$(git merge-base origin/main HEAD 2>/dev/null || git rev-parse HEAD~1)
    changed=$(git diff --name-only "$base" -- 'crates/*.rs' 'crates/**/*.rs')
    if [ -z "$changed" ]; then
      echo "lint gate: no changed .rs files vs $(git rev-parse --short "$base")"
    fi
    for f in $changed; do
      only_args="$only_args --only $f"
    done
  else
    passthrough="$passthrough $arg"
  fi
done

# shellcheck disable=SC2086 # word splitting of the flag lists is intended
cargo run --release -p omnc-lint -- check $only_args $passthrough
cargo run --release -p omnc-lint -- check-scenario \
  crates/omnc-lint/tests/fixtures/scenarios/good_diamond.json \
  crates/omnc-lint/tests/fixtures/scenarios/good_multi_diamond.json
cargo clippy --workspace --all-targets -- -D warnings
echo "lint gate: clean"
