#!/usr/bin/env bash
# The one command of the repo benchmark.
#
#   benchmark/run.sh                        every workload, untraced then traced, each in a
#                                           fresh process; merged into benchmark/out/results.json
#   benchmark/run.sh --workload W --seed N  the same for one workload / another seed
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                           one run; its last stdout line is the result object
#                                           BENCHMARK.json describes (what the driver calls)
#   benchmark/run.sh --smoke                every workload with a 2 s window
#   benchmark/run.sh --calibrate N          N untraced sets; per-metric median/quartiles/spread
#   benchmark/run.sh --check-agreement A.json B.json
#
# Builds offline in release mode first (a no-op when fresh) into
# $CARGO_TARGET_DIR, or benchmark/target when that is unset. A build failure
# exits non-zero before anything is printed on stdout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "${CARGO_TARGET_DIR:-$here/target}/release/aeris-benchmark" --bench-dir "$here" "$@"
