#!/usr/bin/env bash
# Build the riskroute CLI and the benchmark from source, then run the
# benchmark with the given arguments, from the repository root:
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   bash benchmark/run.sh --seed 42          # every workload, both passes
#
# Build output goes to stderr; stdout carries only the benchmark's lines.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet -p riskroute-cli --bin riskroute >&2
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
"$CARGO_TARGET_DIR/release/benchmark" \
    --riskroute "$CARGO_TARGET_DIR/release/riskroute" \
    --out "$CARGO_TARGET_DIR/benchmark" \
    "$@"
