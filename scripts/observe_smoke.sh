#!/usr/bin/env sh
# Observability smoke: prove the live plane and the flight recorder work
# end to end, the way CI consumes them.
#
# 1. Start the 16-cell bench campaign with `--serve 127.0.0.1:0`, read
#    the bound address from the run log, and scrape `/progress` and
#    `/metrics` while cells are still running: the progress snapshot
#    must carry a "total" and the exposition must carry the
#    campaign_cells_* series. The run must still exit 0.
# 2. Run the committed expected-failure campaign
#    (crates/omnc-campaign/specs/flight-smoke.json, one cell whose hop
#    bounds are unsatisfiable): it must exit non-zero, leave a readable
#    flight-*.jsonl black box, and `omnc-report flight` must render it
#    with the recorded panic.
#
# Artifacts left behind for upload: observe_run.log,
# flight-out/flight-*.jsonl, flight.txt.
set -eu
cd "$(dirname "$0")/.."
cargo build --release -p omnc-campaign -p omnc-report

out="observe-out"
rm -rf "$out" observe_run.log
./target/release/omnc-campaign run \
  --spec crates/omnc-campaign/specs/bench.json --out "$out" \
  --jobs 2 --serve 127.0.0.1:0 >observe_run.log 2>&1 &
pid=$!

# The observer line is logged before the worker pool starts, so the
# address appears (and the endpoints answer) while cells are in flight.
addr=""
i=0
while [ "$i" -lt 100 ]; do
  addr=$(sed -n 's|.*observer serving.*http://\([0-9.:]*\).*|\1|p' observe_run.log | head -n 1)
  [ -n "$addr" ] && break
  i=$((i + 1))
  sleep 0.1
done
if [ -z "$addr" ]; then
  echo "FAIL: observer address never appeared in observe_run.log" >&2
  cat observe_run.log >&2
  exit 1
fi
echo "observer at $addr"

progress=$(curl -sf "http://$addr/progress")
case "$progress" in
  *'"total"'*) echo "mid-flight /progress: $progress" ;;
  *)
    echo "FAIL: /progress snapshot missing \"total\": $progress" >&2
    exit 1
    ;;
esac

metrics=$(curl -sf "http://$addr/metrics")
if ! printf '%s\n' "$metrics" | grep -q '^campaign_cells_total'; then
  echo "FAIL: campaign_cells_total missing from /metrics:" >&2
  printf '%s\n' "$metrics" >&2
  exit 1
fi
printf '%s\n' "$metrics" | grep '^campaign_cells'
curl -sf "http://$addr/series" >/dev/null

wait "$pid" || {
  echo "FAIL: served campaign run exited non-zero" >&2
  cat observe_run.log >&2
  exit 1
}
echo "served campaign finished clean"

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
