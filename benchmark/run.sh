#!/usr/bin/env bash
# Build the benchmark and run it.
#
#   benchmark/run.sh [--seed N] [--seconds S] [--smoke] [--aa]
#       every workload, each in its own process, untraced then traced;
#       --aa runs the untraced set twice and compares the two
#   benchmark/run.sh --workload <name> --seed N --seconds S --trace 0|1
#       one workload; the last line of stdout is the JSON result
#
# Exits non-zero if the build fails or any output is wrong.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# cargo reports on stderr, so stdout stays the benchmark's own.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "${CARGO_TARGET_DIR:-$here/target}/release/owbench" "$@"
