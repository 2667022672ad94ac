#!/usr/bin/env sh
# Campaign smoke: run the committed 8-cell smoke campaign (2 variants x
# 2 protocols x 2 sessions, see crates/omnc-campaign/specs/smoke.json)
# with two workers, then gate the merged omnc-report analysis against
# the committed CAMPAIGN_baseline.json. Cells run under the virtual
# clock, so the merged report is identical on any host and for any
# --jobs; a diff beyond the threshold means the simulation itself
# changed.
#
# The multi-session smoke (crates/omnc-campaign/specs/multi-smoke.json,
# 2 variants x 2 protocols, each cell running 3 coupled sessions on one
# shared mesh) rides along under the same determinism contract: its
# merged report gates against CAMPAIGN_MULTI_baseline.json, and the
# bench-style --jobs 1 vs --jobs 2 byte-compare below proves coupled
# cells schedule as deterministically as classic ones.
#
# Last, the 16-cell bench campaign (crates/omnc-campaign/specs/bench.json)
# runs at --jobs 1 vs --jobs 4 under the same byte-compare; its timings
# are printed, not gated.
#
# After an intentional model or scenario change, regenerate the
# baselines with `scripts/campaign.sh --regen` and commit the result.
# Artifacts left behind for upload: campaign-out/, campaign-multi-out/.
set -eu
cd "$(dirname "$0")/.."
cargo build --release -p omnc-campaign -p omnc-report
out="campaign-out"
rm -rf "$out"
./target/release/omnc-campaign run \
  --spec crates/omnc-campaign/specs/smoke.json --out "$out" --jobs 2
multi_out="campaign-multi-out"
rm -rf "$multi_out"
# `bench` runs the campaign at --jobs 1 and --jobs 2 and fails hard if
# any merged artifact differs by a byte: the multi-cell determinism gate.
./target/release/omnc-campaign bench \
  --spec crates/omnc-campaign/specs/multi-smoke.json --out "$multi_out" --jobs 2
rm -rf campaign-bench
./target/release/omnc-campaign bench \
  --spec crates/omnc-campaign/specs/bench.json --out campaign-bench --jobs 4
if [ "${1:-}" = "--regen" ]; then
  cp "$out/report.json" CAMPAIGN_baseline.json
  cp "$multi_out/jobs1/report.json" CAMPAIGN_MULTI_baseline.json
  echo "wrote CAMPAIGN_baseline.json and CAMPAIGN_MULTI_baseline.json"
else
  ./target/release/omnc-report compare \
    --baseline CAMPAIGN_baseline.json --current "$out/report.json" \
    --threshold 0.15
  ./target/release/omnc-report compare \
    --baseline CAMPAIGN_MULTI_baseline.json --current "$multi_out/jobs1/report.json" \
    --threshold 0.15
fi
