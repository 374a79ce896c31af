#!/usr/bin/env bash
# Build the benchmark package and run it. See perf/README.md.
#
#   perf/run.sh [--workload W] [--seed N] [--seconds S] [--trace [0|1]] [--quick]
#
# Without --workload every workload runs, each in a process of its own, and
# the results are merged into perf/out/<seed>.json (perf/out/trace-<seed>.json
# with --trace). With --workload the last line of standard output is one JSON
# object {"correct", "attempted", "failed", "metrics"}.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"

# Cargo reports progress on standard error; standard output stays the benchmark's.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --target-dir "$target"

commit="$(git -C "$here" rev-parse --short HEAD 2>/dev/null || echo unknown)"
exec "$target/release/semcc-perf" \
    --root "$here" --rustc "$(rustc --version)" --commit "$commit" "$@"
