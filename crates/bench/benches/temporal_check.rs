//! E3 (Theorem 4.1) + E7: permission-validity checking on timelines with
//! growing numbers of state transitions, under both base-time schemes,
//! plus Duration-Calculus formula evaluation (including chop search) and
//! the newspaper-deadline policy query.

use stacl_bench::criterion::{BenchmarkId, Criterion};
use stacl_bench::{criterion_group, criterion_main};
use std::hint::black_box;

use stacl::prelude::*;
use stacl::temporal::dc::{eval, DurCmp, Formula, Interpretation, StateExpr};
use stacl::temporal::PermissionTimeline;

/// A timeline with `k` activate/deactivate pairs and periodic migrations.
fn timeline_with(k: usize, scheme: BaseTimeScheme) -> PermissionTimeline {
    let mut tl = PermissionTimeline::new(1e7, scheme);
    tl.arrive_at_server(TimePoint::new(0.0));
    let mut t = 0.0;
    for i in 0..k {
        t += 1.0;
        tl.activate(TimePoint::new(t));
        t += 0.5;
        tl.deactivate(TimePoint::new(t));
        if i % 16 == 15 {
            t += 0.25;
            tl.arrive_at_server(TimePoint::new(t));
        }
    }
    tl
}

fn bench_validity_derivation(c: &mut Criterion) {
    let mut group = c.benchmark_group("E3/valid-fn-derivation");
    for k in [10usize, 100, 1_000, 10_000] {
        for (label, scheme) in [
            ("whole-lifetime", BaseTimeScheme::WholeLifetime),
            ("current-server", BaseTimeScheme::CurrentServer),
        ] {
            let tl = timeline_with(k, scheme);
            group.bench_with_input(BenchmarkId::new(label, k), &k, |bch, _| {
                bch.iter(|| black_box(tl.valid_fn()))
            });
        }
    }
    group.finish();
}

fn bench_validity_query(c: &mut Criterion) {
    let mut group = c.benchmark_group("E3/is-valid-at");
    for k in [10usize, 100, 1_000, 10_000] {
        let tl = timeline_with(k, BaseTimeScheme::WholeLifetime);
        let probe = TimePoint::new(k as f64 * 0.75);
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |bch, _| {
            bch.iter(|| black_box(tl.is_valid_at(black_box(probe))))
        });
    }
    group.finish();
}

fn bench_integral(c: &mut Criterion) {
    let mut group = c.benchmark_group("E3/integral");
    for k in [10usize, 100, 1_000, 10_000, 100_000] {
        let changes: Vec<TimePoint> = (0..2 * k).map(|i| TimePoint::new(i as f64)).collect();
        let f = StepFn::from_changes(false, changes);
        let (b, e) = (TimePoint::new(0.0), TimePoint::new(2.0 * k as f64));
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |bch, _| {
            bch.iter(|| black_box(f.integral(black_box(b), black_box(e))))
        });
    }
    group.finish();
}

fn bench_dc_chop(c: &mut Criterion) {
    let mut group = c.benchmark_group("E3/dc-chop-decision");
    for k in [10usize, 50, 250] {
        let changes: Vec<TimePoint> = (0..2 * k).map(|i| TimePoint::new(i as f64)).collect();
        let busy = StepFn::from_changes(false, changes);
        let interp = Interpretation::new().bind("busy", busy);
        let half = k as f64 / 2.0;
        // "the busy time splits in half" — forces a full chop-point search.
        let f = Formula::Dur(StateExpr::atom("busy"), DurCmp::Eq, half).chop(Formula::Dur(
            StateExpr::atom("busy"),
            DurCmp::Eq,
            half,
        ));
        let (b, e) = (TimePoint::new(0.0), TimePoint::new(2.0 * k as f64));
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |bch, _| {
            bch.iter(|| assert!(eval(black_box(&f), &interp, b, e)))
        });
    }
    group.finish();
}

/// E7: the 3am-deadline policy query as the gate performs it.
fn bench_deadline_policy(c: &mut Criterion) {
    let mut group = c.benchmark_group("E7/newspaper-deadline");
    let mut tl = PermissionTimeline::new(21_600.0, BaseTimeScheme::WholeLifetime);
    tl.arrive_at_server(TimePoint::new(0.0));
    tl.activate(TimePoint::new(0.0));
    group.bench_function("query-before-deadline", |bch| {
        bch.iter(|| black_box(tl.is_valid_at(TimePoint::new(20_000.0))))
    });
    group.bench_function("query-after-deadline", |bch| {
        bch.iter(|| black_box(tl.is_valid_at(TimePoint::new(30_000.0))))
    });
    group.bench_function("expiry-forecast", |bch| {
        bch.iter(|| black_box(tl.expiry_after(TimePoint::new(1_000.0))))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_validity_derivation,
    bench_validity_query,
    bench_integral,
    bench_dc_chop,
    bench_deadline_policy
);
criterion_main!(benches);
