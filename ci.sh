#!/bin/sh
# Repository CI gate: formatting, lints, build, tests.
#
#   ./ci.sh            full gate (what the driver runs)
#   ./ci.sh --fast     skip the release build
set -eu

cd "$(dirname "$0")"

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo clippy (all targets, warnings are errors) =="
cargo clippy --workspace --all-targets -- -D warnings

if [ "${1:-}" != "--fast" ]; then
    echo "== cargo build --release =="
    cargo build --release
fi

echo "== cargo test =="
cargo test --workspace -q

echo "== examples compile and run =="
for ex in anomaly_tour choose_isolation_levels quickstart write_skew_demo; do
    cargo run -q -p semcc --example "$ex" > /dev/null
    echo "   example $ex: OK"
done

echo "== certificate round trip (certify -> independent verify-cert) =="
# `certify` exits 1 when some (txn, level) is rejected — expected for these
# workloads; only exit 2 (usage/IO/internal error) fails the gate.
tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT
for w in banking orders orders-strict payroll tpcc; do
    cargo run -q -p semcc-cli -- export "$w" "$tmpdir/$w.json" > /dev/null
    rc=0
    cargo run -q -p semcc-cli -- certify "$tmpdir/$w.json" \
        --out "$tmpdir/$w.cert.json" > /dev/null || rc=$?
    if [ "$rc" -ge 2 ]; then
        echo "ci: certify $w failed (exit $rc)" >&2
        exit 1
    fi
    cargo run -q -p semcc-cli -- verify-cert "$tmpdir/$w.cert.json" > /dev/null
    echo "   $w: certificate VERIFIED"
done

echo "== schedule-space explorer smoke (static vs exhaustive, Examples 2 & 3) =="
# Paper Example 2 (payroll dirty read): divergent at READ UNCOMMITTED
# (exit 1), clean at SERIALIZABLE (exit 0).
explore_expect() {
    want=$1; shift
    rc=0
    cargo run -q -p semcc-cli -- explore "$@" > /dev/null || rc=$?
    if [ "$rc" -ne "$want" ]; then
        echo "ci: explore $* exited $rc, expected $want" >&2
        exit 1
    fi
}
explore_expect 1 "$tmpdir/payroll.json" \
    --txns Hours,Print_Records --levels RU,RU --seed emp.rate=10
explore_expect 0 "$tmpdir/payroll.json" \
    --txns Hours,Print_Records --levels SER,SER --seed emp.rate=10
echo "   payroll Hours/Print_Records: DIVERGENT at RU, CLEAN at SER"
# Paper Example 3 (banking write skew): divergent at SNAPSHOT, clean at
# REPEATABLE READ.
explore_expect 1 "$tmpdir/banking.json" \
    --txns Withdraw_sav,Withdraw_ch --levels SI,SI
explore_expect 0 "$tmpdir/banking.json" \
    --txns Withdraw_sav,Withdraw_ch --levels RR,RR
echo "   banking Withdraw_sav/Withdraw_ch: DIVERGENT at SI, CLEAN at RR"
# Seventh level: SSI's dangerous-structure abort kills every racy
# interleaving, so the same pair that write-skews at SNAPSHOT is clean
# at the all-SSI vector, and Example 2 stays clean too (the SSI
# condition is vacuously safe; zero divergent schedules is its gate).
explore_expect 0 "$tmpdir/banking.json" \
    --txns Withdraw_sav,Withdraw_ch --levels SSI,SSI
explore_expect 0 "$tmpdir/payroll.json" \
    --txns Hours,Print_Records --levels SSI,SSI --seed emp.rate=10
echo "   Examples 2 & 3 at SSI,SSI: CLEAN (dangerous-structure aborts)"

echo "== edge refinement gate (--refine must not move any Example 2/3 verdict) =="
# The prover-refined dependence relation only deletes proven-infeasible
# conflicts: every paper-example verdict must be identical with it on.
explore_expect 1 "$tmpdir/payroll.json" \
    --txns Hours,Print_Records --levels RU,RU --seed emp.rate=10 --refine
explore_expect 0 "$tmpdir/payroll.json" \
    --txns Hours,Print_Records --levels SER,SER --seed emp.rate=10 --refine
explore_expect 1 "$tmpdir/banking.json" \
    --txns Withdraw_sav,Withdraw_ch --levels SI,SI --refine
explore_expect 0 "$tmpdir/banking.json" \
    --txns Withdraw_sav,Withdraw_ch --levels RR,RR --refine
echo "   explore --refine: verdicts unchanged on Examples 2 & 3"
lint_expect() {
    want=$1; shift
    rc=0
    cargo run -q -p semcc-cli -- lint "$@" > /dev/null || rc=$?
    if [ "$rc" -ne "$want" ]; then
        echo "ci: lint $* exited $rc, expected $want" >&2
        exit 1
    fi
}
lint_expect 1 "$tmpdir/banking.json"
lint_expect 1 "$tmpdir/banking.json" --refine
lint_expect 0 "$tmpdir/orders.json"
lint_expect 0 "$tmpdir/orders.json" --refine
echo "   lint --refine: verdicts unchanged (banking diagnosed, orders clean)"
# SSI lint: the all-SSI vector is vacuously clean; a sweep mixing SSI
# with weaker partners must degrade the SSI types to SNAPSHOT
# obligations (SI,SI,SSI,SSI diagnoses the write-skew pair) and be
# verdict-stable: two runs of the same sweep print identical bytes.
lint_expect 0 "$tmpdir/banking.json" --levels SSI,SSI,SSI,SSI
ssi_sweep="SSI,SSI,SSI,SSI;SI,SI,SSI,SSI;RR,RR,SSI,SSI"
rc=0
cargo run -q -p semcc-cli -- lint "$tmpdir/banking.json" \
    "--levels" "$ssi_sweep" > "$tmpdir/lint.ssi.1.txt" || rc=$?
if [ "$rc" -ne 1 ]; then
    echo "ci: SSI lint sweep exited $rc, expected 1 (mixed vector diagnosed)" >&2
    exit 1
fi
cargo run -q -p semcc-cli -- lint "$tmpdir/banking.json" \
    "--levels" "$ssi_sweep" > "$tmpdir/lint.ssi.2.txt" || true
if ! cmp -s "$tmpdir/lint.ssi.1.txt" "$tmpdir/lint.ssi.2.txt"; then
    echo "ci: SSI lint sweep is not verdict-stable across runs" >&2
    diff "$tmpdir/lint.ssi.1.txt" "$tmpdir/lint.ssi.2.txt" >&2 || true
    exit 1
fi
if ! grep -q "at levels: SI,SI,SSI,SSI" "$tmpdir/lint.ssi.1.txt"; then
    echo "ci: SSI lint sweep must attribute the skew to the mixed vector" >&2
    cat "$tmpdir/lint.ssi.1.txt" >&2
    exit 1
fi
echo "   lint --levels SSI sweep: all-SSI clean, mixed degraded, verdict-stable"
# A refined certificate's pruning justifications replay in the
# independent checker.
cargo run -q -p semcc-cli -- certify "$tmpdir/orders.json" --refine \
    --out "$tmpdir/orders.refine.cert.json" > /dev/null || true
cargo run -q -p semcc-cli -- verify-cert "$tmpdir/orders.refine.cert.json" > /dev/null
echo "   certify --refine: prune proofs replay in semcc-cert"

echo "== parallel determinism (explore --jobs 8 byte-matches --jobs 1) =="
# The work-sharing frontier must be invisible in the output: the full JSON
# report — schedule counts, verdicts, step-by-step divergent witnesses —
# must be byte-identical at any worker count. Exit 1 (divergence found) is
# the expected verdict on the RU/SI cells; only exit 2 fails the gate.
jobs_match() {
    rc=0
    cargo run -q -p semcc-cli -- explore "$@" --jobs 1 --json \
        > "$tmpdir/jobs.1.json" || rc=$?
    if [ "$rc" -ge 2 ]; then
        echo "ci: explore $* --jobs 1 failed (exit $rc)" >&2
        exit 1
    fi
    rc=0
    cargo run -q -p semcc-cli -- explore "$@" --jobs 8 --json \
        > "$tmpdir/jobs.8.json" || rc=$?
    if [ "$rc" -ge 2 ]; then
        echo "ci: explore $* --jobs 8 failed (exit $rc)" >&2
        exit 1
    fi
    if ! cmp -s "$tmpdir/jobs.1.json" "$tmpdir/jobs.8.json"; then
        echo "ci: explore $* JSON differs between --jobs 1 and --jobs 8" >&2
        diff "$tmpdir/jobs.1.json" "$tmpdir/jobs.8.json" >&2 || true
        exit 1
    fi
}
# Paper Example 2 (payroll) at the divergent level and as a level-vector
# sweep; paper Example 3 (banking) at the write-skew level.
jobs_match "$tmpdir/payroll.json" \
    --txns Hours,Print_Records --levels RU,RU --seed emp.rate=10
jobs_match "$tmpdir/payroll.json" \
    --txns Hours,Print_Records "--levels" "RU,RU;RC,RC;SER,SER" --seed emp.rate=10
jobs_match "$tmpdir/banking.json" \
    --txns Withdraw_sav,Withdraw_ch --levels SI,SI
jobs_match "$tmpdir/banking.json" \
    --txns Withdraw_sav,Withdraw_ch --levels SSI,SSI
echo "   explore: byte-identical JSON at jobs 1 vs 8 (Examples 2 & 3 + sweep + SSI)"

echo "== whole-mix synthesis (Figures 2-5, policy determinism, certificates) =="
# The primary Pareto-minimal vector must project to the paper's per-type
# assignments: Figure 2 (Mailing_List -> RU), Figure 3 (New_Order -> RC,
# strict New_Order -> RC+FCW), Figure 4 (Delivery -> RR), Figure 5
# (Audit -> SER).
cargo run -q -p semcc-cli -- synth "$tmpdir/orders.json" > "$tmpdir/synth.orders.txt"
for want in \
    "Mailing_List: READ UNCOMMITTED" \
    "Mailing_List_strict: READ COMMITTED" \
    "New_Order: READ COMMITTED" \
    "Delivery: REPEATABLE READ" \
    "Audit: SERIALIZABLE"; do
    if ! grep -qF "$want" "$tmpdir/synth.orders.txt"; then
        echo "ci: synth orders missing \"$want\"" >&2
        cat "$tmpdir/synth.orders.txt" >&2
        exit 1
    fi
done
cargo run -q -p semcc-cli -- synth "$tmpdir/orders-strict.json" \
    > "$tmpdir/synth.orders-strict.txt"
if ! grep -qF "New_Order_strict: READ COMMITTED+FCW" "$tmpdir/synth.orders-strict.txt"; then
    echo "ci: synth orders-strict: New_Order_strict must assign RC+FCW" >&2
    cat "$tmpdir/synth.orders-strict.txt" >&2
    exit 1
fi
echo "   synth: Figures 2-5 per-type assignments reproduced"
# The admission-policy artifact must be byte-identical across --jobs 1 /
# --jobs 8 and across repeated runs, and the synthesis certificate's
# predecessor refutations must replay in the independent checker.
cargo run -q -p semcc-cli -- synth "$tmpdir/orders.json" --jobs 1 \
    --out "$tmpdir/policy.1.json" --cert "$tmpdir/synth.orders.cert.json" > /dev/null
cargo run -q -p semcc-cli -- synth "$tmpdir/orders.json" --jobs 8 \
    --out "$tmpdir/policy.8.json" > /dev/null
cargo run -q -p semcc-cli -- synth "$tmpdir/orders.json" --jobs 1 \
    --out "$tmpdir/policy.1b.json" > /dev/null
if ! cmp -s "$tmpdir/policy.1.json" "$tmpdir/policy.8.json"; then
    echo "ci: policy.json differs between --jobs 1 and --jobs 8" >&2
    diff "$tmpdir/policy.1.json" "$tmpdir/policy.8.json" >&2 || true
    exit 1
fi
if ! cmp -s "$tmpdir/policy.1.json" "$tmpdir/policy.1b.json"; then
    echo "ci: policy.json differs between repeated runs" >&2
    diff "$tmpdir/policy.1.json" "$tmpdir/policy.1b.json" >&2 || true
    exit 1
fi
echo "   synth: policy.json byte-identical across --jobs 1/8 and repeated runs"
# The lattice now includes the off-ladder SSI level: the deterministic
# policy artifact must carry SSI minimal vectors (e.g. Delivery on SSI).
if ! grep -q '"SSI"' "$tmpdir/policy.1.json"; then
    echo "ci: policy.json carries no SSI vectors (SSI missing from the lattice)" >&2
    exit 1
fi
echo "   synth: SSI present in the policy artifact's minimal vectors"
cargo run -q -p semcc-cli -- verify-cert "$tmpdir/synth.orders.cert.json" > /dev/null
# Banking's refutations are scalar: the certificate must carry FM
# countermodels the independent checker re-evaluates (not just trusted
# refutation traces).
cargo run -q -p semcc-cli -- synth "$tmpdir/banking.json" \
    --cert "$tmpdir/synth.banking.cert.json" > /dev/null
bank_verify=$(cargo run -q -p semcc-cli -- verify-cert "$tmpdir/synth.banking.cert.json")
echo "$bank_verify" | grep -q "certificate VERIFIED" || {
    echo "ci: banking synthesis certificate failed verification" >&2
    echo "$bank_verify" >&2
    exit 1
}
if echo "$bank_verify" | grep -q " 0 synthesis countermodel"; then
    echo "ci: banking synthesis certificate carries no countermodels" >&2
    echo "$bank_verify" >&2
    exit 1
fi
echo "   synth: certificates replay clean under verify-cert (countermodels checked)"

echo "== serve (policy-gated server: digest refusal, deterministic bench, panic drill) =="
# A synthesized policy admits the server; validation mode exits 0 and
# prints the admission table.
cargo run -q -p semcc-cli -- synth "$tmpdir/banking.json" \
    --out "$tmpdir/banking.policy.json" > /dev/null
cargo run -q -p semcc-cli -- serve --policy "$tmpdir/banking.policy.json" \
    > "$tmpdir/serve.validate.txt"
grep -q "admission policy verified" "$tmpdir/serve.validate.txt" || {
    echo "ci: serve validation did not verify the policy" >&2
    cat "$tmpdir/serve.validate.txt" >&2
    exit 1
}
# Two same-seed bench runs must print byte-identical JSON, commit
# nonzero work, and audit clean.
cargo run -q -p semcc-cli -- serve --bench --policy "$tmpdir/banking.policy.json" \
    --workers 4 --txns 25 --seed 7 --scale 4 --json > "$tmpdir/serve.1.json"
cargo run -q -p semcc-cli -- serve --bench --policy "$tmpdir/banking.policy.json" \
    --workers 4 --txns 25 --seed 7 --scale 4 --json > "$tmpdir/serve.2.json"
if ! cmp -s "$tmpdir/serve.1.json" "$tmpdir/serve.2.json"; then
    echo "ci: serve --bench --seed 7 is not deterministic" >&2
    diff "$tmpdir/serve.1.json" "$tmpdir/serve.2.json" >&2 || true
    exit 1
fi
if grep -q '"committed": 0,' "$tmpdir/serve.1.json"; then
    echo "ci: serve --bench committed no transactions (vacuous run)" >&2
    exit 1
fi
grep -q '"invariant_violations": 0,' "$tmpdir/serve.1.json" || {
    echo "ci: serve --bench reported invariant violations" >&2
    cat "$tmpdir/serve.1.json" >&2
    exit 1
}
grep -q '"quiescent": true' "$tmpdir/serve.1.json" || {
    echo "ci: serve --bench left the engine non-quiescent" >&2
    exit 1
}
echo "   serve --bench seed 7: DETERMINISTIC, nonzero commits, audits CLEAN"
# A tampered artifact (one flipped digest nibble) must be refused with
# exit 2 — the server never starts on an unproven policy.
sed 's/fnv1a:0/fnv1a:f/' "$tmpdir/banking.policy.json" \
    > "$tmpdir/banking.policy.tampered.json"
rc=0
cargo run -q -p semcc-cli -- serve --policy "$tmpdir/banking.policy.tampered.json" \
    > /dev/null 2>&1 || rc=$?
if [ "$rc" -ne 2 ]; then
    echo "ci: serve accepted a tampered policy (exit $rc, expected 2)" >&2
    exit 1
fi
echo "   serve: tampered policy digest REFUSED (exit 2)"
# The panic drill: deterministically injected worker panics must be
# contained — the run completes, reports them, and still audits clean.
cargo run -q -p semcc-cli -- serve --bench --policy "$tmpdir/banking.policy.json" \
    --inject-panics --workers 4 --txns 25 --seed 7 --scale 4 --json \
    > "$tmpdir/serve.panic.json" 2> /dev/null
if grep -q '"panics": 0,' "$tmpdir/serve.panic.json"; then
    echo "ci: serve --inject-panics fired no panics (vacuous drill)" >&2
    exit 1
fi
grep -q '"quiescent": true' "$tmpdir/serve.panic.json" || {
    echo "ci: panicked submissions leaked locks or live transactions" >&2
    exit 1
}
echo "   serve --inject-panics: panics contained, engine quiescent"

echo "== fault-injection smoke (determinism + audited abort paths) =="
# Two runs with the same seed must print bit-for-bit identical JSON
# (including the fault-event trail), inject a nonzero number of faults,
# and exit 0 (the auditor found no violation).
cargo run -q -p semcc-cli -- faultsim "$tmpdir/payroll.json" --seed 42 --json \
    > "$tmpdir/faultsim.1.json"
cargo run -q -p semcc-cli -- faultsim "$tmpdir/payroll.json" --seed 42 --json \
    > "$tmpdir/faultsim.2.json"
if ! cmp -s "$tmpdir/faultsim.1.json" "$tmpdir/faultsim.2.json"; then
    echo "ci: faultsim --seed 42 is not deterministic" >&2
    diff "$tmpdir/faultsim.1.json" "$tmpdir/faultsim.2.json" >&2 || true
    exit 1
fi
if ! grep -q '"clean": true' "$tmpdir/faultsim.1.json"; then
    echo "ci: faultsim --seed 42 reported auditor violations" >&2
    exit 1
fi
if grep -q '"injected": 0,' "$tmpdir/faultsim.1.json"; then
    echo "ci: faultsim --seed 42 injected no faults (vacuous run)" >&2
    exit 1
fi
echo "   faultsim seed 42: DETERMINISTIC, injected faults, auditor CLEAN"
# The injected-abort schedule sweep: rollback visible at RU, not at RC.
explore_expect 1 "$tmpdir/payroll.json" \
    --txns Hours,Print_Records --levels RU,RU --seed emp.rate=10 --faults Hours
explore_expect 0 "$tmpdir/payroll.json" \
    --txns Hours,Print_Records --levels RC,RC --seed emp.rate=10 --faults Hours
echo "   injected-abort sweep: rollback VISIBLE at RU, CLEAN at RC"

# The parallel seed sweep must also be byte-identical at any worker count
# (each run stays single-threaded inside; only the sweep fans out).
cargo run -q -p semcc-cli -- faultsim "$tmpdir/payroll.json" \
    --seed 42 --seeds 4 --jobs 1 --json > "$tmpdir/fsweep.1.json"
cargo run -q -p semcc-cli -- faultsim "$tmpdir/payroll.json" \
    --seed 42 --seeds 4 --jobs 8 --json > "$tmpdir/fsweep.8.json"
if ! cmp -s "$tmpdir/fsweep.1.json" "$tmpdir/fsweep.8.json"; then
    echo "ci: faultsim --seeds 4 differs between --jobs 1 and --jobs 8" >&2
    diff "$tmpdir/fsweep.1.json" "$tmpdir/fsweep.8.json" >&2 || true
    exit 1
fi
echo "   faultsim --seeds 4: byte-identical JSON at jobs 1 vs 8"

echo "== durable crash recovery (WAL + recovery-audited fault harness) =="
# Durable mode: every injected crash snapshots the surviving WAL prefix,
# replays it onto a fresh engine, and requires bit-for-bit equality with
# the committed-prefix reference. Two runs must print identical JSON.
cargo run -q -p semcc-cli -- faultsim "$tmpdir/payroll.json" --seed 42 --durable --json \
    > "$tmpdir/durable.1.json"
cargo run -q -p semcc-cli -- faultsim "$tmpdir/payroll.json" --seed 42 --durable --json \
    > "$tmpdir/durable.2.json"
if ! cmp -s "$tmpdir/durable.1.json" "$tmpdir/durable.2.json"; then
    echo "ci: faultsim --durable --seed 42 is not deterministic" >&2
    diff "$tmpdir/durable.1.json" "$tmpdir/durable.2.json" >&2 || true
    exit 1
fi
if ! grep -q '"clean": true' "$tmpdir/durable.1.json"; then
    echo "ci: faultsim --durable --seed 42 reported recovery violations" >&2
    exit 1
fi
if grep -q '"recoveries_audited": 0,' "$tmpdir/durable.1.json"; then
    echo "ci: faultsim --durable --seed 42 audited no recoveries (vacuous run)" >&2
    exit 1
fi
echo "   faultsim --durable seed 42: DETERMINISTIC, recoveries audited, CLEAN"

# Torn-tail at every commit: the crash rips the final log record, so every
# driven transaction's recovery must roll it back cleanly.
cargo run -q -p semcc-cli -- faultsim "$tmpdir/payroll.json" --seed 42 --durable \
    --mix torn-tail=1.0 --json > "$tmpdir/torn.json"
if ! grep -q '"clean": true' "$tmpdir/torn.json"; then
    echo "ci: faultsim --durable --mix torn-tail=1.0 reported violations" >&2
    exit 1
fi
if ! grep -q '"torn-tail"' "$tmpdir/torn.json"; then
    echo "ci: faultsim --mix torn-tail=1.0 fired no torn-tail crash" >&2
    exit 1
fi
echo "   torn-tail=1.0: every commit's torn log tail recovered CLEAN"

# Payroll crash sweep at every isolation level: durable recovery is a
# per-level contract (snapshot installs, locking promotes, SSI pivots all
# feed the same log).
for lvl in RU RC RC+FCW RR SI SSI SER; do
    if ! cargo run -q -p semcc-cli -- faultsim "$tmpdir/payroll.json" \
        --seed 42 --durable --levels "$lvl" --json > "$tmpdir/durable.lvl.json"; then
        echo "ci: faultsim --durable --levels $lvl exited nonzero" >&2
        exit 1
    fi
    if ! grep -q '"clean": true' "$tmpdir/durable.lvl.json"; then
        echo "ci: faultsim --durable --levels $lvl reported violations" >&2
        exit 1
    fi
done
echo "   payroll crash sweep: recovery CLEAN at all 7 levels"

# The durable seed sweep must stay byte-identical at any worker count.
cargo run -q -p semcc-cli -- faultsim "$tmpdir/payroll.json" \
    --seed 42 --seeds 4 --durable --jobs 1 --json > "$tmpdir/dsweep.1.json"
cargo run -q -p semcc-cli -- faultsim "$tmpdir/payroll.json" \
    --seed 42 --seeds 4 --durable --jobs 8 --json > "$tmpdir/dsweep.8.json"
if ! cmp -s "$tmpdir/dsweep.1.json" "$tmpdir/dsweep.8.json"; then
    echo "ci: durable faultsim --seeds 4 differs between --jobs 1 and --jobs 8" >&2
    diff "$tmpdir/dsweep.1.json" "$tmpdir/dsweep.8.json" >&2 || true
    exit 1
fi
echo "   durable sweep --seeds 4: byte-identical JSON at jobs 1 vs 8"

echo "== orders dynamic validation x25 (Imax flake regression gate) =="
# Before the WriteItemMax fix this test flaked ~3/25 (two concurrent
# New_Orders at RC clobbering maximum_date backwards); require 25/25.
pass=0
for i in $(seq 1 25); do
    if cargo test -q -p semcc --test dynamic_validation \
        orders_assigned_levels_hold_dynamically -- --exact \
        > /dev/null 2>&1; then
        pass=$((pass + 1))
    fi
done
if [ "$pass" -ne 25 ]; then
    echo "ci: orders_assigned_levels_hold_dynamically passed only $pass/25" >&2
    exit 1
fi
echo "   orders_assigned_levels_hold_dynamically: 25/25"

if [ "${1:-}" != "--fast" ]; then
    echo "== table_par (parallel scaling rows + runtime identity assertion) =="
    cargo run -q --release -p semcc-bench --bin table_par > "$tmpdir/table_par.txt"
    echo "   table_par: results identical at jobs 1/2/4/8"

    echo "== table_refine smoke (precision asserted, jobs 1 vs 4 byte-identical) =="
    # The binary itself asserts: >0 prunes, >0 STATIC-OVERAPPROX -> AGREE
    # conversions, schedules saved, zero soundness violations.
    cargo run -q --release -p semcc-bench --bin table_refine -- --jobs 1 \
        > "$tmpdir/table_refine.1.txt"
    cargo run -q --release -p semcc-bench --bin table_refine -- --jobs 4 \
        > "$tmpdir/table_refine.4.txt"
    if ! cmp -s "$tmpdir/table_refine.1.txt" "$tmpdir/table_refine.4.txt"; then
        echo "ci: table_refine differs between --jobs 1 and --jobs 4" >&2
        diff "$tmpdir/table_refine.1.txt" "$tmpdir/table_refine.4.txt" >&2 || true
        exit 1
    fi
    echo "   table_refine: precision assertions hold, byte-identical at jobs 1 vs 4"

    echo "== table_serve (serve throughput rows + in-binary determinism asserts) =="
    # The binary asserts per row: same-seed JSON byte-identity, nonzero
    # commits, zero invariant violations, quiescence.
    cargo run -q --release -p semcc-bench --bin table_serve -- --quick \
        > "$tmpdir/table_serve.txt"
    echo "   table_serve: all rows committed, audited clean, deterministic"

    echo "== perf/ (the benchmark package: a workspace of its own) =="
    # perf/ reaches ../crates by path from outside this workspace, so
    # nothing above compiles it; a crate API change would otherwise break
    # the benchmark silently. Either command exits nonzero on a failed op.
    cargo test -q --offline --manifest-path perf/Cargo.toml > /dev/null
    perf/run.sh --quick > "$tmpdir/perf_quick.txt"
    echo "   perf: package tests pass, run.sh --quick exits 0 on all workloads"
fi

echo "== rustdoc (warnings are errors) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet
echo "   cargo doc: no warnings"

echo "ci: all green"
