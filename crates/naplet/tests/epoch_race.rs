//! Epoch-atomicity acceptance: an epoch flip racing concurrent `decide`
//! calls must never yield a decision that mixes tables from two epochs.
//! The observable contract is the verdict's epoch stamp — every verdict
//! carries exactly one activated epoch, bounded by the epochs active
//! just before and just after its call, and one object's consecutive
//! decisions never see the epoch move backwards.
//!
//! Property-test style: many trials, live decider threads and a flipper,
//! randomized only by OS scheduling — the assertions hold for *every*
//! interleaving, so flaky scheduling can only make the test less sharp,
//! never wrong.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use stacl_coalition::ProofStore;
use stacl_naplet::guard::{CoordinatedGuard, GuardRequest};
use stacl_rbac::policy::parse_policy;
use stacl_rbac::ExtendedRbac;
use stacl_sral::builder::access;
use stacl_sral::Access;
use stacl_temporal::TimePoint;
use stacl_trace::AccessTable;

const OBJECTS: usize = 4;
/// Decider threads; each owns `OBJECTS / DECIDERS` objects, so one
/// object's decisions stay sequential on one thread.
const DECIDERS: usize = 2;
const FLIPS: u64 = 12;

/// The policy for one epoch. Every epoch keeps the same users and roles
/// (sessions survive the flip) but widens the spatial cap, so each epoch
/// compiles a *different* constraint automaton — a mixed-table decision
/// would be observable, not just stamped wrong.
fn policy_for(epoch: u64) -> String {
    let mut policy = String::new();
    for i in 0..OBJECTS {
        policy.push_str(&format!("user n{i}\n"));
    }
    policy.push_str(&format!(
        "role worker\npermission p grants=exec:rsw:* \
         spatial=\"count(0, {}, resource=rsw)\"\ngrant worker p\n",
        1000 + epoch
    ));
    for i in 0..OBJECTS {
        policy.push_str(&format!("assign n{i} worker\n"));
    }
    policy
}

/// Decide once for `object` against `guard`.
fn decide(
    guard: &CoordinatedGuard,
    object: &str,
    time: f64,
    proofs: &ProofStore,
    table: &mut AccessTable,
) -> stacl_coalition::Verdict {
    let a = Access::new("exec", "rsw", "s1");
    let prog = access("exec", "rsw", "s1");
    let req = GuardRequest {
        object,
        access: &a,
        remaining: &prog,
        time: TimePoint::new(time),
    };
    guard.decide(&req, proofs, table)
}

#[test]
fn epoch_flip_racing_decide_never_mixes_epochs() {
    let guard = CoordinatedGuard::new(ExtendedRbac::new(parse_policy(&policy_for(0)).unwrap()));
    for i in 0..OBJECTS {
        guard.enroll(format!("n{i}"), ["worker"]);
    }
    let names: Vec<String> = (0..OBJECTS).map(|i| format!("n{i}")).collect();
    let proofs = ProofStore::new();

    let stop = AtomicBool::new(false);
    // Highest epoch known activated; stored *after* activate_epoch
    // returns, so `activated ≤ guard epoch` always holds.
    let activated = AtomicU64::new(0);

    std::thread::scope(|s| {
        let deciders: Vec<_> = (0..DECIDERS)
            .map(|d| {
                let (guard, names, proofs) = (&guard, &names, &proofs);
                let (stop, activated) = (&stop, &activated);
                s.spawn(move || {
                    let mut table = AccessTable::new();
                    // (object, floor, ceil, verdict epoch, granted) per call.
                    let mut calls = Vec::new();
                    let mut k = 0usize;
                    while !stop.load(Ordering::Acquire) {
                        for obj in names.iter().skip(d).step_by(DECIDERS) {
                            let floor = activated.load(Ordering::Acquire);
                            let v = decide(guard, obj, k as f64 * 0.001, proofs, &mut table);
                            let ceil = guard.with_rbac_read(|r| r.epoch());
                            calls.push((obj.as_str(), floor, ceil, v.epoch, v.is_granted()));
                        }
                        k += 1;
                    }
                    calls
                })
            })
            .collect();

        let mut table = AccessTable::new();
        for epoch in 1..=FLIPS {
            let prepared = guard
                .with_rbac_read(|r| {
                    r.prepare_epoch(
                        parse_policy(&policy_for(epoch)).unwrap(),
                        [],
                        epoch,
                        &mut table,
                    )
                })
                .expect("strictly increasing epochs prepare");
            guard
                .with_rbac(|r| r.activate_epoch(prepared))
                .expect("prepared epoch activates");
            activated.store(epoch, Ordering::Release);
            // Let a few decisions run inside each epoch.
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        stop.store(true, Ordering::Release);

        for decider in deciders {
            let calls = decider.join().expect("decider thread must not panic");
            assert!(!calls.is_empty(), "a decider never completed a call");
            let mut last: HashMap<&str, u64> = HashMap::new();
            for (obj, floor, ceil, epoch, granted) in calls {
                assert!(granted, "caps were sized to grant everything");
                // Mixing tables would stamp an epoch outside the window
                // of epochs activated around this call.
                assert!(
                    (floor..=ceil).contains(&epoch),
                    "verdict epoch {epoch} outside activation window [{floor}, {ceil}]"
                );
                // One object's sequential decisions: epoch never regresses.
                let prev = last.insert(obj, epoch).unwrap_or(0);
                assert!(
                    prev <= epoch,
                    "object {obj} saw the epoch move backwards ({prev} -> {epoch})"
                );
            }
        }
    });

    // Quiescent state: every decision now runs under the final epoch.
    let mut table = AccessTable::new();
    for obj in &names {
        assert_eq!(decide(&guard, obj, 100.0, &proofs, &mut table).epoch, FLIPS);
    }
}
