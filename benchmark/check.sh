#!/bin/sh
# Format, lint and test the standalone benchmark crate. Root CI does not see
# this package (it is its own workspace), so run this after touching it.
set -eu
cd "$(dirname "$0")"
cargo fmt --check
cargo clippy --offline --all-targets -- -D warnings
cargo test --offline
