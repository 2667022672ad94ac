#!/usr/bin/env sh
# Report gate: replay a seeded scenario with causal tracing, analyze the
# stream, and fail if any simulated-time metric regressed beyond 15% of
# the committed BENCH_baseline.json. The run is seeded and measured in
# simulated time, so it reproduces bit-exactly on any host.
#
# After an *intentional* performance change, regenerate the baseline
# with `scripts/report.sh --regen` and commit the result.
# Artifacts left behind for upload: report.txt, report.json,
# forwarders.csv and the timeline.* files of the last step.
set -eu
cd "$(dirname "$0")/.."
cargo build --release -p omnc -p omnc-report
./target/release/omnc-sim --nodes 30 --sessions 2 --duration 30 \
  --protocols all --seed 2008 --trace trace.jsonl --format json
./target/release/omnc-report analyze --trace trace.jsonl \
  --json report.json --csv forwarders.csv | tee report.txt
if [ "${1:-}" = "--regen" ]; then
  cp report.json BENCH_baseline.json
  echo "wrote BENCH_baseline.json"
else
  ./target/release/omnc-report compare \
    --baseline BENCH_baseline.json --current report.json --threshold 0.15
fi
# Not gated: the windowed dynamics timeline of a seeded smoke run, so
# every CI run carries queue/rank/goodput trajectories as artifacts.
./target/release/omnc-sim --nodes 20 --sessions 1 --duration 10 \
  --protocols all --seed 2008 --timeline timeline.json --format json
./target/release/omnc-report timeline timeline.json \
  --csv timeline.csv --json timeline_summary.json | tee timeline.txt
