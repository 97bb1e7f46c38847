#!/usr/bin/env bash
# Builds the benchmark (release, offline) and runs it. See README.md.
#
#   benchmark/run.sh [--workload NAME|all] [--seed N|0xHEX] [--seconds S]
#                    [--trace 0|1 | --traced] [--scale tiny|bench|full]
#                    [--out FILE] [--update-expected]
#   benchmark/run.sh compare A.json B.json
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# The driver sets CARGO_TARGET_DIR; otherwise share the repo's build cache.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/../target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
CHIPMUNK_BENCH_HOME="$here" exec "$CARGO_TARGET_DIR/release/chipmunk-benchmark" "$@"
