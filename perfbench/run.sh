#!/usr/bin/env bash
# Builds kbpd (from the repository's workspace) and the benchmark runner
# (a workspace of its own), then runs the runner with the given
# arguments: --workload witness|muddy --seed N --seconds S --trace 0|1.
# Run it from the root of the repository.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p kbp-service --bin kbpd
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml
exec "$CARGO_TARGET_DIR/release/kbp-perfbench" --kbpd "$CARGO_TARGET_DIR/release/kbpd" "$@"
