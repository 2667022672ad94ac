#!/usr/bin/env sh
# Campaign smoke: run the committed 8-cell smoke campaign (2 variants x
# 2 protocols x 2 sessions, see crates/omnc-campaign/specs/smoke.json)
# with two workers, render its merged trace with `omnc-report analyze`
# and diff the text against the committed CAMPAIGN_baseline.txt. Cells
# are seeded and run in simulated time, so the render is identical on
# any host and for any --jobs; any difference means the simulation
# itself changed.
#
# The multi-session smoke (crates/omnc-campaign/specs/multi-smoke.json,
# 2 variants x 2 protocols, each cell running 3 coupled sessions on one
# shared mesh) rides along under the same determinism contract: its
# render is diffed against CAMPAIGN_MULTI_baseline.txt, and the
# bench-style --jobs 1 vs --jobs 2 byte-compare below proves coupled
# cells schedule as deterministically as classic ones.
#
# Last, the 16-cell bench campaign (crates/omnc-campaign/specs/bench.json)
# runs at --jobs 1 vs --jobs 4 under the same byte-compare; its timings
# are printed, not gated.
#
# After an intentional model or scenario change, regenerate the
# committed files with `scripts/campaign.sh --regen` and commit them.
# Artifacts left behind for upload: campaign-out/ and campaign-multi-out/,
# each with its merged outcomes.jsonl and trace.jsonl and the report.txt
# rendered from the trace (journal.jsonl and cells/ are resume state).
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
# either merged artifact (outcomes.jsonl, trace.jsonl) differs by a byte:
# the multi-cell determinism gate.
./target/release/omnc-campaign bench \
  --spec crates/omnc-campaign/specs/multi-smoke.json --out "$multi_out" --jobs 2
rm -rf campaign-bench
./target/release/omnc-campaign bench \
  --spec crates/omnc-campaign/specs/bench.json --out campaign-bench --jobs 4
./target/release/omnc-report analyze --trace "$out/trace.jsonl" >"$out/report.txt"
./target/release/omnc-report analyze --trace "$multi_out/jobs1/trace.jsonl" \
  >"$multi_out/jobs1/report.txt"
if [ "${1:-}" = "--regen" ]; then
  cp "$out/report.txt" CAMPAIGN_baseline.txt
  cp "$multi_out/jobs1/report.txt" CAMPAIGN_MULTI_baseline.txt
  echo "wrote CAMPAIGN_baseline.txt and CAMPAIGN_MULTI_baseline.txt"
else
  diff -u CAMPAIGN_baseline.txt "$out/report.txt"
  diff -u CAMPAIGN_MULTI_baseline.txt "$multi_out/jobs1/report.txt"
  echo "campaign: both renders byte-identical to the committed files"
fi
