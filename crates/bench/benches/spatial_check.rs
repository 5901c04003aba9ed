//! E1 (Theorem 3.2): `P ⊨ C` checking scales ~linearly in the program
//! size `m` and the constraint size `n` on conjunctive policies.
//!
//! Two sweeps: `m` with `n` fixed, and `n` with `m` fixed. The companion
//! `experiments` binary fits the log-log slopes; here Criterion records
//! the raw timings.

use stacl_bench::criterion::{BenchmarkId, Criterion};
use stacl_bench::{criterion_group, criterion_main};
use std::hint::black_box;

use stacl::prelude::*;
use stacl::srac::check::{check_program, Semantics};
use stacl_bench::{conjunctive_policy, random_control_program, Vocab};

fn bench_m_scaling(c: &mut Criterion) {
    let vocab = Vocab::new(3, 6, 6);
    let constraint = conjunctive_policy(8, &vocab, 11);
    let mut group = c.benchmark_group("E1/m-scaling(n=8-conjuncts)");
    for m in [16usize, 32, 64, 128, 256, 512] {
        let program = random_control_program(m, &vocab, 42 + m as u64);
        group.bench_with_input(BenchmarkId::from_parameter(m), &m, |bch, _| {
            bch.iter(|| {
                let mut table = AccessTable::new();
                black_box(check_program(
                    black_box(&program),
                    black_box(&constraint),
                    &mut table,
                    Semantics::ForAll,
                ))
            })
        });
    }
    group.finish();
}

fn bench_n_scaling(c: &mut Criterion) {
    let vocab = Vocab::new(3, 6, 6);
    let program = random_control_program(96, &vocab, 7);
    let mut group = c.benchmark_group("E1/n-scaling(m~96)");
    for n in [2usize, 4, 8, 16, 32, 64] {
        let constraint = conjunctive_policy(n, &vocab, 13 + n as u64);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bch, _| {
            bch.iter(|| {
                let mut table = AccessTable::new();
                black_box(check_program(
                    black_box(&program),
                    black_box(&constraint),
                    &mut table,
                    Semantics::ForAll,
                ))
            })
        });
    }
    group.finish();
}

fn bench_semantics_modes(c: &mut Criterion) {
    let vocab = Vocab::new(3, 6, 6);
    let program = random_control_program(128, &vocab, 3);
    let constraint = conjunctive_policy(8, &vocab, 5);
    let mut group = c.benchmark_group("E1/semantics");
    for (label, sem) in [("forall", Semantics::ForAll), ("exists", Semantics::Exists)] {
        group.bench_function(label, |bch| {
            bch.iter(|| {
                let mut table = AccessTable::new();
                black_box(check_program(&program, &constraint, &mut table, sem))
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_m_scaling,
    bench_n_scaling,
    bench_semantics_modes
);
criterion_main!(benches);
