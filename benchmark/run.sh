#!/usr/bin/env bash
# Build the benchmark package and run it. Every argument goes to the
# benchmark binary (see `run.sh --help`). Run from anywhere; the driver
# runs it from the root of a checkout with CARGO_TARGET_DIR set.
set -euo pipefail
dir="$(dirname "${BASH_SOURCE[0]}")"
# A relative CARGO_TARGET_DIR keeps meaning "relative to where we were
# started"; without one the build lands in benchmark/target.
target="${CARGO_TARGET_DIR:-$dir/target}"
cargo build --release --offline --quiet \
    --manifest-path "$dir/Cargo.toml" --target-dir "$target" >&2
exec "$target/release/ffr-benchmark" --bench-dir "$dir" "$@"
