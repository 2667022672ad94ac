#!/usr/bin/env sh
# Footprint gate: the span profile and the per-op allocation counts of
# fixed seeded workloads (see crates/bench/src/bin/footprint.rs). Both
# are exact across identical runs — virtual clock, counting allocator —
# so the binary runs twice and the two runs must agree byte for byte.
# Then the folded span stacks are diffed against the committed
# PROFILE_baseline.folded: under the virtual clock a span's self ticks
# are its calls plus its direct children's calls, so any change in any
# call count moves a line. Per-op allocs/bytes may differ between
# toolchains, so `footprint --alloc-baseline` checks them against
# ALLOC_baseline.json with 25% headroom; it also fails if a baseline
# metric disappears. Wall-clock time is not measured here; that is
# benchmark/'s job.
#
# After an intentional instrumentation or workload change, regenerate the
# committed files with `scripts/footprint.sh --regen` and commit them.
# Artifacts left behind for upload: profile.json, profile.folded,
# profile.txt, alloc.json.
set -eu
cd "$(dirname "$0")/.."
cargo build --release -p omnc-bench -p omnc-report
again="$(mktemp -d)"
trap 'rm -rf "$again"' EXIT
check="--alloc-baseline ALLOC_baseline.json"
[ "${1:-}" = "--regen" ] && check=""
# $check is unquoted on purpose: it is a flag and its value, or nothing.
# shellcheck disable=SC2086
./target/release/footprint \
  --profile profile.json --profile-folded profile.folded --alloc-out alloc.json $check
# Same log level both times (the logger's own allocations fall inside
# the counted scopes); the other flags only name files read or written
# after them.
./target/release/footprint \
  --profile "$again/profile.json" --alloc-out "$again/alloc.json" >/dev/null 2>&1
cmp profile.json "$again/profile.json"
cmp alloc.json "$again/alloc.json"
echo "two runs byte-identical: profile.json, alloc.json"
./target/release/omnc-report profile profile.json --top 15 | tee profile.txt
if [ "${1:-}" = "--regen" ]; then
  cp profile.folded PROFILE_baseline.folded
  cp alloc.json ALLOC_baseline.json
  echo "wrote PROFILE_baseline.folded and ALLOC_baseline.json"
else
  diff -u PROFILE_baseline.folded profile.folded
  echo "footprint: profile.folded byte-identical to PROFILE_baseline.folded"
fi
