#!/usr/bin/env bash
# Builds the release `dpc` server and the benchmark, then runs one
# workload; every argument is passed through to the benchmark:
#
#   bash svcbench/run.sh --workload cold-prove --seed 1 --seconds 10 --trace 0
#
# Run it from the root of the repository. Build output goes to
# $CARGO_TARGET_DIR (default: .bench_build).
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --quiet --manifest-path Cargo.toml --bin dpc >&2
cargo build --release --quiet --manifest-path svcbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/svcbench" "$@"
