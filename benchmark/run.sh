#!/usr/bin/env bash
# The benchmark's one command: build, then measure.
#
#   benchmark/run.sh                      every workload, end-to-end metrics
#   benchmark/run.sh --trace 1            every workload, per-layer ledger
#   benchmark/run.sh --workload fast_poll --seed 7 --seconds 28 --trace 0
#   benchmark/run.sh --smoke              tiny populations, checks only
#   benchmark/run.sh --check-repeat       two sets, compared under the bounds
#
# See benchmark/README.md for the flags and what is printed.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"

# Two invocations, so that the counting allocator `harness-alloc` turns on
# is not unified into `harness` and `fleet-shard`. Build output goes to
# stderr: the last line of stdout is the result.
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml \
    -p harness -p fleet-wire >&2
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml \
    -p harness-alloc >&2

exec "$CARGO_TARGET_DIR/release/harness" "$@"
