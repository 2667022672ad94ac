#!/usr/bin/env sh
# Figures gate: every results/*.txt is the output of one row below and of
# nothing else. A row is the target file, the figure binary and its exact
# arguments; each binary prints that command as its first stdout line, so
# a committed file names what produced it. The script runs every row into
# a temporary directory and diffs each output byte for byte against the
# committed file. Every output is seeded and simulated, so any difference
# is a change in what the code computes.
#
# After an intentional model change, regenerate the files with
# `scripts/figures.sh --regen` and commit the result.
#
# Coverage: the gate also fails when a crates/bench/src/bin/*.rs has no
# row (footprint has its own gate, coding_speed reads a wall clock) or a
# results/*.txt has no producing row.
set -eu
cd "$(dirname "$0")/.."

ROWS='fig1 fig1_convergence
fig2_lossy fig2_gain --nodes 300 --sessions 100
fig2_high fig2_gain --nodes 300 --sessions 100 --quality high
fig3 fig3_queue --nodes 300 --sessions 60
fig4 fig4_utility --nodes 300 --sessions 60
ablate_primal_recovery ablate_primal_recovery
ablate_step_size ablate_step_size
ablate_rate_control ablate_rate_control --sessions 16
fault_tolerance fault_tolerance --nodes 300
multi_unicast multi_unicast_bench
opt_vs_emulated opt_vs_emulated'
EXEMPT='footprint coding_speed'

missing=0
for src in crates/bench/src/bin/*.rs; do
  bin="$(basename "$src" .rs)"
  case " $EXEMPT " in *" $bin "*) continue ;; esac
  if ! printf '%s\n' "$ROWS" | awk '{ print $2 }' | grep -qx "$bin"; then
    echo "figures: $src has no row" >&2
    missing=1
  fi
done
for txt in results/*.txt; do
  if ! printf '%s\n' "$ROWS" | awk '{ print $1 }' | grep -qx "$(basename "$txt" .txt)"; then
    echo "figures: $txt has no producing row" >&2
    missing=1
  fi
done
[ "$missing" -eq 0 ] || exit 1

cargo build --release -p omnc-bench
out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT
while read -r file bin args; do
  echo "figures: $file.txt <- $bin${args:+ $args}"
  # $args is unquoted on purpose: it is the row's argument list.
  # shellcheck disable=SC2086
  "./target/release/$bin" $args </dev/null >"$out/$file.txt"
done <<EOF
$ROWS
EOF

if [ "${1:-}" = "--regen" ]; then
  cp "$out"/*.txt results/
  echo "wrote results/*.txt"
else
  differ=0
  for f in "$out"/*.txt; do
    diff -u "results/$(basename "$f")" "$f" || differ=1
  done
  if [ "$differ" -ne 0 ]; then
    echo "figures: results/ differs from what the rows print" >&2
    exit 1
  fi
  echo "figures: every results/*.txt byte-identical"
fi
