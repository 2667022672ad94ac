#!/usr/bin/env sh
# Every deterministic gate, one script each, in CI's job order. With
# --regen the gates that own a committed baseline (or results/) rewrite
# it instead of comparing against it (the lint and flight-recorder
# smokes have none).
set -eu
cd "$(dirname "$0")"
./lint.sh
./report.sh "$@"
./campaign.sh "$@"
./observe_smoke.sh
./footprint.sh "$@"
./figures.sh "$@"
echo "all gates passed"
