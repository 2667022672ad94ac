#!/usr/bin/env sh
# Footprint gate: the span profile and the per-op allocation counts of
# fixed seeded workloads (see crates/bench/src/bin/footprint.rs). Both
# are exact across identical runs — virtual clock, counting allocator —
# so the binary runs twice and the two runs must agree byte for byte
# before anything is compared: span *call counts* against the committed
# PROFILE_baseline.json, per-op allocs/bytes against ALLOC_baseline.json.
# Wall-clock time is not measured here; that is benchmark/'s job.
#
# After an intentional instrumentation or workload change, regenerate the
# baselines with `scripts/footprint.sh --regen` and commit the result.
# Artifacts left behind for upload: profile.json, profile.folded,
# profile.txt, alloc.json, alloc_gate.json.
set -eu
cd "$(dirname "$0")/.."
cargo build --release -p omnc-bench -p omnc-report
again="$(mktemp -d)"
trap 'rm -rf "$again"' EXIT
./target/release/footprint \
  --profile profile.json --profile-folded profile.folded --alloc-out alloc.json
# Same flags both times: the logger's own allocations fall inside the
# counted scopes.
./target/release/footprint \
  --profile "$again/profile.json" --alloc-out "$again/alloc.json" >/dev/null 2>&1
cmp profile.json "$again/profile.json"
cmp alloc.json "$again/alloc.json"
echo "two runs byte-identical: profile.json, alloc.json"
./target/release/omnc-report profile profile.json --top 15 | tee profile.txt
if [ "${1:-}" = "--regen" ]; then
  cp profile.json PROFILE_baseline.json
  cp alloc.json ALLOC_baseline.json
  echo "wrote PROFILE_baseline.json and ALLOC_baseline.json"
else
  ./target/release/omnc-report profile compare \
    --baseline PROFILE_baseline.json --current profile.json --metric calls
  # Per-op allocs/bytes are lower-is-better metrics; 25% headroom still
  # catches a new hot-path alloc. --strict also fails if a family
  # disappears from the current run.
  ./target/release/omnc-report compare \
    --baseline ALLOC_baseline.json --current alloc.json \
    --threshold 0.25 --strict --json alloc_gate.json
fi
