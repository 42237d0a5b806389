#!/usr/bin/env bash
# The one command: build the benchmark (release, offline), run all five
# workloads round-robin with the correctness gate and the noise guard,
# then one traced pass per workload; print every metric by name with its
# unit and write benchmark/out/results.json.
#
#   benchmark/run.sh [--seed <n>] [--quick] [--out <path>]
#
# Run from anywhere; exits non-zero on a failed check.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
exec cargo run --release --offline --quiet --manifest-path "$here/Cargo.toml" -- run "$@"
