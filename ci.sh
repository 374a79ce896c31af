#!/bin/sh
# Repository CI gate: formatting, lints, build, tests.
#
#   ./ci.sh            full gate (what the driver runs)
#   ./ci.sh --fast     skip the release build
set -eu

cd "$(dirname "$0")"

# `step "title"` opens a step; `step_done` prints the open step's elapsed
# seconds. The last line gives the whole run's.
ci_start=$(date +%s)
step_start=
step_done() {
    now=$(date +%s)
    [ -z "$step_start" ] || echo "   ($((now - step_start)) s)"
}
step() {
    step_done
    step_start=$now
    echo "== $1 =="
}

step "cargo fmt --check"
cargo fmt --check

step "cargo clippy (all targets, warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

if [ "${1:-}" != "--fast" ]; then
    step "cargo build --release"
    cargo build --release
fi

step "cargo test"
cargo test --workspace -q

step "examples compile and run"
for ex in anomaly_tour choose_isolation_levels quickstart write_skew_demo; do
    cargo run -q -p semcc --example "$ex" > /dev/null
    echo "   example $ex: OK"
done

# The CLI is pinned by crates/cli/tests/cli.rs (in the workspace tests
# above): every invocation form, its exit code and its stdout.
tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT

# `repeat n what cmd...` runs `cmd` n times and fails unless all n pass:
# the gate for tests whose failures are races.
repeat() {
    n=$1
    what=$2
    shift 2
    pass=0
    for _ in $(seq 1 "$n"); do
        if "$@" > /dev/null 2>&1; then
            pass=$((pass + 1))
        fi
    done
    if [ "$pass" -ne "$n" ]; then
        echo "ci: $what passed only $pass/$n" >&2
        exit 1
    fi
    echo "   $what: $n/$n"
}

step "orders dynamic validation x25 (Imax flake regression gate)"
# Before the WriteItemMax fix this test flaked ~3/25 (two concurrent
# New_Orders at RC clobbering maximum_date backwards); require 25/25.
repeat 25 orders_assigned_levels_hold_dynamically \
    cargo test -q -p semcc --test dynamic_validation \
    orders_assigned_levels_hold_dynamically -- --exact

step "lock stress x20 (lost-wakeup regression gate)"
# The lock table wakes a shard only when requests are queued there; a lost
# wakeup shows up as an intermittent failure, so require 20/20.
repeat 20 tests/lock_stress.rs cargo test -q -p semcc --test lock_stress

step "serve retry x10 (contended submissions never give up)"
# Two clients on two banking accounts: deadlock and FCW losers retry, the
# first retry at once, later ones after a backoff; require 10/10.
repeat 10 tests/serve_retry.rs cargo test -q -p semcc --test serve_retry

if [ "${1:-}" != "--fast" ]; then
    step "tables refine smoke (precision asserted, jobs 1 vs 4 byte-identical)"
    # The table itself asserts: >0 prunes, >0 STATIC-OVERAPPROX -> AGREE
    # conversions, schedules saved, zero soundness violations.
    cargo run -q --release -p semcc-bench -- refine --jobs 1 \
        > "$tmpdir/table_refine.1.txt"
    cargo run -q --release -p semcc-bench -- refine --jobs 4 \
        > "$tmpdir/table_refine.4.txt"
    if ! cmp -s "$tmpdir/table_refine.1.txt" "$tmpdir/table_refine.4.txt"; then
        echo "ci: tables refine differs between --jobs 1 and --jobs 4" >&2
        diff "$tmpdir/table_refine.1.txt" "$tmpdir/table_refine.4.txt" >&2 || true
        exit 1
    fi
    echo "   tables refine: precision assertions hold, byte-identical at jobs 1 vs 4"

    step "tables serve (serve throughput rows + in-table determinism asserts)"
    # The table asserts per row: same-seed JSON byte-identity, nonzero
    # commits, zero invariant violations, quiescence.
    cargo run -q --release -p semcc-bench -- serve --quick \
        > "$tmpdir/table_serve.txt"
    echo "   tables serve: all rows committed, audited clean, deterministic"

    step "perf/ (the benchmark package: a workspace of its own)"
    # perf/ reaches ../crates by path from outside this workspace, so
    # nothing above compiles it; a crate API change would otherwise break
    # the benchmark silently. Either command exits nonzero on a failed op.
    cargo test -q --offline --manifest-path perf/Cargo.toml > /dev/null
    perf/run.sh --quick > "$tmpdir/perf_quick.txt"
    echo "   perf: package tests pass, run.sh --quick exits 0 on all workloads"
fi

step "rustdoc (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet
echo "   cargo doc: no warnings"

step_done
echo "ci: all green in $((now - ci_start)) s"
