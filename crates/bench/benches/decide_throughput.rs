//! E12 — decide throughput: the incremental cursor fast path vs the
//! pre-PR from-scratch residual core on the 64-object × 1000-access
//! fleet workload (DESIGN.md §8).
//!
//! Each iteration drives the *entire* fleet workload against a fresh
//! reactive guard, round-robin across objects (the harshest
//! interleaving for a from-scratch core: every object's proof history
//! grows between its consecutive decisions). The machine-readable
//! counterpart with percentiles is the `bench_decide` binary.

use stacl::naplet::guard::GuardRequest;
use stacl::prelude::*;
use stacl_bench::criterion::Criterion;
use stacl_bench::{criterion_group, criterion_main, fleet_model};
use std::hint::black_box;
use std::time::Duration;

const OBJECTS: usize = 64;
const ACCESSES: usize = 1000;

fn fixture(incremental: bool) -> (CoordinatedGuard, Vec<String>, Vec<Access>, Vec<Program>) {
    let guard = CoordinatedGuard::new(ExtendedRbac::new(fleet_model(OBJECTS, "rsw", ACCESSES + 2)))
        .with_mode(EnforcementMode::Reactive);
    guard.with_rbac(|r| r.set_incremental(incremental));
    let names: Vec<String> = (0..OBJECTS).map(|i| format!("n{i}")).collect();
    for n in &names {
        guard.enroll(n, ["licensee"]);
    }
    let vocab: Vec<Access> = (0..4)
        .map(|s| Access::new("exec", "rsw", format!("s{s}")))
        .collect();
    let programs: Vec<Program> = vocab.iter().map(|a| Program::Access(a.clone())).collect();
    (guard, names, vocab, programs)
}

/// Run the whole fleet workload sequentially; returns the grant count
/// (must equal OBJECTS × ACCESSES — the workload is all-grant).
fn run_fleet(incremental: bool) -> usize {
    let (guard, names, vocab, programs) = fixture(incremental);
    let proofs = ProofStore::new();
    let mut table = AccessTable::new();
    for a in &vocab {
        table.intern(a);
    }
    let mut grants = 0;
    for k in 0..ACCESSES {
        let a = &vocab[k % vocab.len()];
        let prog = &programs[k % vocab.len()];
        let time = TimePoint::new(k as f64);
        for obj in &names {
            let req = GuardRequest {
                object: obj,
                access: a,
                remaining: prog,
                time,
            };
            if guard.decide(&req, &proofs, &mut table).is_granted() {
                grants += 1;
                proofs.issue(obj, a.clone(), time);
            }
        }
    }
    grants
}

fn bench_decide_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("E12/decide-throughput/64x1000");
    // One full fleet run takes seconds; keep the shim to one warm run
    // plus two measured runs per mode.
    group.sample_size(2);
    group.warm_up_time(Duration::from_millis(1));
    group.measurement_time(Duration::from_millis(2));
    group.bench_function("incremental-sequential", |b| {
        b.iter(|| {
            let grants = run_fleet(true);
            assert_eq!(grants, OBJECTS * ACCESSES);
            black_box(grants)
        })
    });
    group.bench_function("from-scratch-sequential", |b| {
        b.iter(|| {
            let grants = run_fleet(false);
            assert_eq!(grants, OBJECTS * ACCESSES);
            black_box(grants)
        })
    });
    group.finish();
}

criterion_group!(e12, bench_decide_throughput);
criterion_main!(e12);
