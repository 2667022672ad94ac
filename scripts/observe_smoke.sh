#!/usr/bin/env sh
# Flight-recorder smoke: prove the black box works end to end, the way
# CI consumes it.
#
# Run the committed expected-failure campaign
# (crates/omnc-campaign/specs/flight-smoke.json, one cell whose hop
# bounds are unsatisfiable): it must exit non-zero, leave a readable
# flight-*.jsonl black box, and `omnc-report flight` must render it
# with the recorded panic.
#
# Artifacts left behind for upload: flight_run.log,
# flight-out/flight-*.jsonl, flight.txt.
set -eu
cd "$(dirname "$0")/.."
cargo build --release -p omnc-campaign -p omnc-report

flight_out="flight-out"
rm -rf "$flight_out" flight.txt
if ./target/release/omnc-campaign run \
  --spec crates/omnc-campaign/specs/flight-smoke.json --out "$flight_out" \
  --jobs 1 >flight_run.log 2>&1; then
  echo "FAIL: flight-smoke campaign unexpectedly succeeded" >&2
  cat flight_run.log >&2
  exit 1
fi
dump="$flight_out/flight-bad__OMNC__0000000000.jsonl"
if [ ! -f "$dump" ]; then
  echo "FAIL: expected flight dump $dump" >&2
  cat flight_run.log >&2
  exit 1
fi
./target/release/omnc-report flight "$dump" | tee flight.txt
grep -q '^panic: ' flight.txt
grep -q 'cell/start' flight.txt
echo "observability smoke passed"
