//! Two clients on two banking accounts through `Server::submit`, at the
//! banking ladder policy (`RR RR RC+FCW RC+FCW`) and the default retry
//! policy (50 attempts, the first retry at once, later ones after a
//! jittered backoff).
//!
//! The REPEATABLE READ withdrawals deadlock on their S→X upgrades and the
//! READ COMMITTED+FCW deposits lose first-committer-wins, so the retry loop
//! runs. Every submission must still commit, the bank must hold exactly the
//! initial money plus every applied delta, and the engine must end
//! quiescent: no grant, no waiter, no live transaction.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use semcc::engine::audit::audit_quiescent;
use semcc::engine::IsolationLevel;
use semcc::workloads::banking;
use semcc_json::Json;
use semcc_serve::policy::POLICY_ARTIFACT;
use semcc_serve::{AdmissionPolicy, ServeConfig, Server, SubmitError};
use semcc_synth::policy::seal_policy;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Barrier;

const CLIENTS: usize = 2;
const SUBMITS_PER_CLIENT: usize = 2_000;
const ACCOUNTS: usize = 2;
const INITIAL: i64 = 1_000;
const SEED: u64 = 36;

/// The banking types at the levels synthesis assigns them.
fn ladder_policy() -> AdmissionPolicy {
    let rr = IsolationLevel::RepeatableRead;
    let fcw = IsolationLevel::ReadCommittedFcw;
    let levels =
        [("Withdraw_sav", rr), ("Withdraw_ch", rr), ("Deposit_sav", fcw), ("Deposit_ch", fcw)];
    let assignments = levels.into_iter().map(|(txn, level)| {
        Json::obj([
            ("txn", Json::str(txn)),
            ("level", Json::str(level.name())),
            ("snapshot_ok", Json::Bool(level == fcw)),
        ])
    });
    let artifact = seal_policy(Json::obj([
        ("app", Json::str("banking")),
        ("artifact", Json::str(POLICY_ARTIFACT)),
        ("version", Json::Int(1)),
        ("assignments", Json::Arr(assignments.collect())),
    ]));
    AdmissionPolicy::from_json(&artifact, "ladder").expect("sealed policy verifies")
}

#[test]
fn two_clients_on_two_accounts_never_give_up() {
    let server = Server::start(ladder_policy(), banking::app().programs, ServeConfig::default())
        .expect("server");
    banking::setup(server.engine(), ACCOUNTS, INITIAL);
    let types = server.types().into_iter().map(String::from).collect::<Vec<_>>();
    assert_eq!(types.len(), 4);

    let applied = AtomicI64::new(0);
    let gave_up = AtomicU64::new(0);
    let absorbed = AtomicU64::new(0);
    let start = Barrier::new(CLIENTS);
    std::thread::scope(|scope| {
        for client in 0..CLIENTS {
            let (server, types, start) = (&server, &types, &start);
            let (applied, gave_up, absorbed) = (&applied, &gave_up, &absorbed);
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(SEED ^ client as u64);
                start.wait();
                for req in 0..SUBMITS_PER_CLIENT {
                    let name = &types[rng.gen_range(0..types.len())];
                    let b = banking::bindings(name, ACCOUNTS, &mut rng);
                    let param = |k: &str| b.get(k).and_then(|v| v.as_int()).expect("int param");
                    let salt = (client as u64) << 32 | req as u64;
                    match server.submit(name, &b, salt) {
                        Ok(done) => {
                            absorbed.fetch_add(done.aborts as u64, Ordering::Relaxed);
                            let local = |k: &str| {
                                done.outcome.locals.get(k).and_then(|v| v.as_int()).expect(k)
                            };
                            let delta = if name.starts_with("Deposit") {
                                param("d")
                            } else if local("Sav") + local("Ch") >= param("w") {
                                -param("w")
                            } else {
                                0
                            };
                            applied.fetch_add(delta, Ordering::Relaxed);
                        }
                        Err(SubmitError::GaveUp { .. }) => {
                            gave_up.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e) => panic!("`{name}` must commit or give up, got: {e}"),
                    }
                }
            });
        }
    });

    assert_eq!(gave_up.load(Ordering::Relaxed), 0, "a submission exhausted 50 attempts");
    let stats = server.stats();
    let counted: u64 = stats.values().flat_map(|s| s.aborts_by_class.values()).sum();
    let absorbed = absorbed.load(Ordering::Relaxed);
    assert_eq!(counted, absorbed, "per-type abort counts against the submissions' own");
    assert!(absorbed >= 1, "no abort on two contended accounts: the retry path never ran");
    let committed: u64 = stats.values().map(|s| s.committed).sum();
    assert_eq!(committed, (CLIENTS * SUBMITS_PER_CLIENT) as u64);

    let expected = INITIAL * 2 * ACCOUNTS as i64 + applied.load(Ordering::Relaxed);
    assert_eq!(banking::total_money(server.engine(), ACCOUNTS), expected);
    let audit = audit_quiescent(server.engine());
    assert!(audit.clean(), "not quiescent after the run: {:?}", audit.violations);
}
