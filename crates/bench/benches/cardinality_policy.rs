//! E6 (intro example 1): the cross-site cardinality policy — residual
//! checking cost as the access history grows, and as the cap grows (the
//! counting-automaton size).

use stacl_bench::criterion::{BenchmarkId, Criterion};
use stacl_bench::{criterion_group, criterion_main};
use std::hint::black_box;

use stacl::prelude::*;
use stacl::srac::check::{check_residual, Semantics};
use stacl::srac::Constraint;
use stacl::sral::Program;

fn history_of(len: usize, table: &mut AccessTable) -> Trace {
    Trace::from_ids(
        (0..len).map(|i| table.intern(&Access::new("exec", "rsw", format!("s{}", i % 4)))),
    )
}

fn bench_history_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("E6/history-scaling(cap=1000)");
    let constraint = Constraint::at_most(1000, Selector::any().with_resources(["rsw"]));
    for h in [0usize, 10, 100, 1_000, 10_000] {
        let mut table = AccessTable::new();
        let history = history_of(h.min(1000), &mut table);
        // Replays beyond the cap would simply fail; keep within.
        let program = Program::Access(Access::new("exec", "rsw", "s9"));
        group.bench_with_input(BenchmarkId::from_parameter(h), &h, |bch, _| {
            bch.iter(|| {
                let mut t = table.clone();
                black_box(check_residual(
                    &history,
                    &program,
                    &constraint,
                    &mut t,
                    Semantics::ForAll,
                ))
            })
        });
    }
    group.finish();
}

fn bench_cap_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("E6/cap-scaling(history=50)");
    for cap in [5usize, 50, 500, 5_000] {
        let constraint = Constraint::at_most(cap, Selector::any().with_resources(["rsw"]));
        let mut table = AccessTable::new();
        let history = history_of(50.min(cap), &mut table);
        let program = Program::Access(Access::new("exec", "rsw", "s9"));
        group.bench_with_input(BenchmarkId::from_parameter(cap), &cap, |bch, _| {
            bch.iter(|| {
                let mut t = table.clone();
                black_box(check_residual(
                    &history,
                    &program,
                    &constraint,
                    &mut t,
                    Semantics::ForAll,
                ))
            })
        });
    }
    group.finish();
}

/// The end-to-end policy scenario: an agent that uses the resource up to
/// the cap across sites, then attempts one more. Measures the full run.
fn bench_overuse_scenario(c: &mut Criterion) {
    let mut group = c.benchmark_group("E6/overuse-run");
    for cap in [5usize, 25, 100] {
        let mut env = CoalitionEnv::new();
        env.add_resource("s1", "rsw", ["exec"]);
        env.add_resource("s2", "rsw", ["exec"]);
        let prog = stacl::sral::builder::seq(
            (0..cap)
                .map(|_| stacl::sral::builder::access("exec", "rsw", "s1"))
                .chain([stacl::sral::builder::access("exec", "rsw", "s2")]),
        );
        group.bench_with_input(BenchmarkId::from_parameter(cap), &cap, |bch, _| {
            bch.iter(|| {
                let guard = CoordinatedGuard::new(ExtendedRbac::new(stacl_bench::licensee_model(
                    "device", "rsw", cap,
                )))
                .with_mode(EnforcementMode::Reactive);
                guard.enroll("device", ["licensee"]);
                let mut sys = NapletSystem::new(env.clone(), Box::new(guard));
                sys.spawn(NapletSpec::new("device", "s1", prog.clone()).with_on_deny(OnDeny::Skip));
                let r = sys.run();
                assert_eq!(sys.log().denied_count(), 1);
                black_box(r.steps)
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_history_scaling,
    bench_cap_scaling,
    bench_overuse_scenario
);
criterion_main!(benches);
