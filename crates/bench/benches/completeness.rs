//! E2 (Theorem 3.1): regular completeness as a measured pipeline —
//! synthesize an SRAL program from a regular trace model, re-derive its
//! trace model, and verify DFA language equality, across model sizes.

use stacl_bench::criterion::{BenchmarkId, Criterion};
use stacl_bench::{criterion_group, criterion_main};
use std::hint::black_box;

use stacl::prelude::*;
use stacl::trace::abstraction::{traces, AbstractionConfig};
use stacl::trace::synthesis::synthesize;
use stacl::trace::Regex;
use stacl_bench::{random_program, Vocab};

/// Derive a regular trace model of roughly the requested size by
/// abstracting a random program (guaranteed non-void).
fn model_of_size(size: usize, seed: u64) -> (Regex, AccessTable) {
    let vocab = Vocab::new(3, 5, 5);
    let mut table = AccessTable::new();
    let p = random_program(size, &vocab, seed);
    let re = traces(&p, &mut table, AbstractionConfig::default());
    (re, table)
}

fn bench_synthesis(c: &mut Criterion) {
    let mut group = c.benchmark_group("E2/synthesize");
    for size in [16usize, 64, 256, 1024] {
        let (re, table) = model_of_size(size, size as u64);
        group.bench_with_input(BenchmarkId::from_parameter(size), &size, |bch, _| {
            bch.iter(|| black_box(synthesize(black_box(&re), &table).unwrap()))
        });
    }
    group.finish();
}

fn bench_roundtrip_verification(c: &mut Criterion) {
    let mut group = c.benchmark_group("E2/roundtrip-equivalence");
    for size in [16usize, 64, 256] {
        let (re, table) = model_of_size(size, 1000 + size as u64);
        group.bench_with_input(BenchmarkId::from_parameter(size), &size, |bch, _| {
            bch.iter(|| {
                let p = synthesize(&re, &table).unwrap();
                let mut t2 = table.clone();
                let re2 = traces(&p, &mut t2, AbstractionConfig::default());
                assert!(Dfa::equivalent_regexes(&re, &re2));
                black_box(re2)
            })
        });
    }
    group.finish();
}

fn bench_dfa_construction(c: &mut Criterion) {
    let mut group = c.benchmark_group("E2/regex-to-min-dfa");
    // Shuffle-heavy random models make subset construction explode past
    // ~256 nodes (the E8-measured phenomenon); cap the sweep there.
    for size in [16usize, 64, 256] {
        let (re, _) = model_of_size(size, 77 + size as u64);
        group.bench_with_input(BenchmarkId::from_parameter(size), &size, |bch, _| {
            bch.iter(|| black_box(Dfa::from_regex(black_box(&re))))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_synthesis,
    bench_roundtrip_verification,
    bench_dfa_construction
);
criterion_main!(benches);
