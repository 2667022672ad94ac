#!/usr/bin/env sh
# Every deterministic gate, one script each, in CI's job order. With
# --regen the gates that own a committed baseline (or results/) rewrite
# it instead of comparing against it (the lint and flight-recorder
# smokes have none). The standalone benchmark crate is checked too: root
# `cargo test` never compiles it, so a library signature change that
# breaks it would otherwise pass every other gate.
set -eu
cd "$(dirname "$0")"
./lint.sh
sh ../benchmark/check.sh
./report.sh "$@"
./campaign.sh "$@"
./observe_smoke.sh
./footprint.sh "$@"
./figures.sh "$@"
echo "all gates passed"
