#!/usr/bin/env bash
# Builds the benchmark and the `qssd` it drives from source, then runs one
# workload. Run from the repository root:
#
#   bash ledger/run.sh --workload compile_search --seed 1 --seconds 30 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default: ledger/target); the
# result line is the last line of standard output.
set -euo pipefail
manifest="$(dirname "$0")/Cargo.toml"
cargo build --release --offline --quiet --manifest-path "$manifest" --bins >&2
target="${CARGO_TARGET_DIR:-$(dirname "$0")/target}"
exec "$target/release/ledger" "$@"
