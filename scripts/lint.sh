#!/usr/bin/env sh
# The static-analysis gate (CI's "lint-gate" job runs this script):
#   1. cargo clippy -D warnings over the workspace: the lint table in
#      Cargo.toml, the disallowed paths in crates/clippy.toml and the
#      module-level denies (DESIGN.md §6c, "Determinism & static analysis
#      policy", has the rule table and the escape hatch)
#   2. the same clippy over the clippy-bites fixture, which must fail and
#      name every adopted lint: proof that the configuration still applies
#      (omnc-lint's rule tests check its findings item by item)
#   3. rustdoc over the crates/ packages (not vendor/, not benchmark/) with
#      warnings as errors, so a doc link to a deleted or private item fails
# Exits nonzero on any finding.
set -eu
cd "$(dirname "$0")/.."

cargo clippy --workspace --all-targets -- -D warnings

fixture=crates/omnc-lint/tests/fixtures/clippy-bites
if out=$(cargo clippy --manifest-path "$fixture/Cargo.toml" --all-targets \
  --target-dir target/clippy-bites -- -D warnings 2>&1); then
  echo "lint gate: clippy accepted $fixture; the lint configuration no longer applies" >&2
  exit 1
fi
for lint in disallowed_methods disallowed_types iter_over_hash_type unwrap_used \
  undocumented_unsafe_blocks float_cmp cast_possible_truncation; do
  case "$out" in
    *"#$lint"*) ;;
    *)
      echo "$out" >&2
      echo "lint gate: clippy did not report $lint on $fixture" >&2
      exit 1
      ;;
  esac
done

packages=
for manifest in crates/*/Cargo.toml; do
  packages="$packages -p $(sed -n 's/^name = "\(.*\)"/\1/p' "$manifest" | head -n 1)"
done
# shellcheck disable=SC2086 # one word per -p flag and package
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps $packages
echo "lint gate: clean"
