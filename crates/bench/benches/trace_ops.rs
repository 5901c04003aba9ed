//! E8: the trace-model operators of Definition 3.2 — interleaving
//! blow-up, Kleene closure, subset construction, Hopcroft minimisation
//! and language equivalence, at growing sizes.

use stacl_bench::criterion::{BenchmarkId, Criterion};
use stacl_bench::{criterion_group, criterion_main};
use std::hint::black_box;

use stacl::prelude::*;
use stacl::trace::model::TraceModel;
use stacl::trace::Regex;

fn sym(i: u32) -> Regex {
    Regex::Sym(AccessId(i))
}

/// A chain a0·a1·…·a(k-1) as a regex.
fn chain(k: u32, offset: u32) -> Regex {
    Regex::cat_all((0..k).map(|i| sym(offset + i)))
}

fn bench_explicit_interleave(c: &mut Criterion) {
    // The finite-set oracle: interleaving two k-traces is C(2k, k) — the
    // exponential blow-up that motivates the symbolic pipeline.
    let mut group = c.benchmark_group("E8/explicit-interleave");
    for k in [2usize, 4, 6, 8] {
        let t1 = Trace::from_ids((0..k as u32).map(AccessId));
        let t2 = Trace::from_ids((k as u32..2 * k as u32).map(AccessId));
        let m1 = TraceModel::from_traces([t1]);
        let m2 = TraceModel::from_traces([t2]);
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |bch, _| {
            bch.iter(|| black_box(m1.interleave(&m2)).len())
        });
    }
    group.finish();
}

fn bench_symbolic_shuffle(c: &mut Criterion) {
    // The same interleavings symbolically: shuffle-product DFA.
    let mut group = c.benchmark_group("E8/symbolic-shuffle-dfa");
    for k in [2u32, 4, 6, 8, 12] {
        let re = Regex::shuffle(chain(k, 0), chain(k, k));
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |bch, _| {
            bch.iter(|| black_box(Dfa::from_regex(black_box(&re))).num_states())
        });
    }
    group.finish();
}

fn bench_star_and_union(c: &mut Criterion) {
    let mut group = c.benchmark_group("E8/star-of-union");
    for k in [4u32, 16, 64, 256] {
        let re = Regex::star(Regex::alt_all((0..k).map(sym)));
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |bch, _| {
            bch.iter(|| black_box(Dfa::from_regex(black_box(&re))).num_states())
        });
    }
    group.finish();
}

fn bench_minimization(c: &mut Criterion) {
    let mut group = c.benchmark_group("E8/hopcroft-minimize");
    for k in [4u32, 8, 16, 32] {
        // A deliberately redundant regex: (a0…ak) ∪ (a0…ak) ∪ prefix-closed
        // variants — subset construction yields duplicates to merge.
        let re = Regex::alt(
            chain(k, 0),
            Regex::alt(
                chain(k, 0),
                Regex::cat(chain(k / 2, 0), chain(k - k / 2, k / 2)),
            ),
        );
        let al = re.alphabet();
        let nfa = stacl::trace::nfa::Nfa::from_regex(&re, &al);
        let dfa = Dfa::from_nfa(&nfa, al);
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |bch, _| {
            bch.iter(|| black_box(dfa.minimize()).num_states())
        });
    }
    group.finish();
}

fn bench_equivalence(c: &mut Criterion) {
    let mut group = c.benchmark_group("E8/equivalence");
    for k in [4u32, 8, 16, 32] {
        // Two syntactically different, semantically equal models:
        // (a*)* ∪ chain vs a* ∪ chain.
        let a = Regex::alt(Regex::star(Regex::star(sym(0))), chain(k, 1));
        let b = Regex::alt(Regex::star(sym(0)), chain(k, 1));
        let da = Dfa::from_regex(&a);
        let db = Dfa::from_regex(&b);
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |bch, _| {
            bch.iter(|| assert!(black_box(da.equivalent(&db))))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_explicit_interleave,
    bench_symbolic_shuffle,
    bench_star_and_union,
    bench_minimization,
    bench_equivalence
);
criterion_main!(benches);
