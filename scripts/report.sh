#!/usr/bin/env sh
# Report gate: replay a seeded scenario with causal tracing, analyze the
# stream, and diff the rendered report — tables plus every metric in
# full precision — against the committed BENCH_baseline.txt. The run is
# seeded and measured in simulated time, so it reproduces byte for byte
# on any host; any difference is a change in what the code computes.
#
# After an intentional model change, regenerate the file with
# `scripts/report.sh --regen` and commit the result.
# Artifacts left behind: trace.jsonl and report.txt (CI uploads
# report.txt).
set -eu
cd "$(dirname "$0")/.."
cargo build --release -p omnc -p omnc-report
./target/release/omnc-sim --nodes 30 --sessions 2 --duration 30 \
  --protocols all --seed 2008 --trace trace.jsonl --format json
./target/release/omnc-report analyze --trace trace.jsonl >report.txt
if [ "${1:-}" = "--regen" ]; then
  cp report.txt BENCH_baseline.txt
  echo "wrote BENCH_baseline.txt"
else
  diff -u BENCH_baseline.txt report.txt
  echo "report: report.txt byte-identical to BENCH_baseline.txt"
fi
