#!/usr/bin/env bash
# Builds the codesign CLI and the benchmark in release mode from source,
# then runs one benchmark workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Build output goes to $CARGO_TARGET_DIR (default .bench_build); the
# benchmark's scratch files go to its perfbench-work/ subdirectory.
set -euo pipefail

target="${CARGO_TARGET_DIR:-.bench_build}"
export CARGO_TARGET_DIR="$target"

# Build logs go to stderr so the result stays the last line of stdout.
cargo build --release --offline --quiet -p codesign-cli >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2

exec "$target/release/perfbench" \
    --codesign "$target/release/codesign" \
    --work "$target/perfbench-work" \
    "$@"
