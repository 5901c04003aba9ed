//! E9 (ablation): symbolic constraint checking versus explicit trace
//! enumeration — the design decision DESIGN.md calls out.
//!
//! On programs whose trace sets explode (parallel blocks: `C(2k, k)`
//! interleavings; loops: infinitely many traces), enumeration degrades
//! combinatorially or becomes impossible while the symbolic product stays
//! polynomial. Enumeration sizes are capped to keep the bench finite;
//! the `experiments` binary reports the crossover.

use stacl_bench::criterion::{BenchmarkId, Criterion};
use stacl_bench::{criterion_group, criterion_main};
use std::hint::black_box;

use stacl::prelude::*;
use stacl::srac::check::{check_program, Semantics};
use stacl::srac::trace_sat::{trace_satisfies, ProofOracle};
use stacl::srac::Constraint;
use stacl::sral::builder as b;
use stacl::sral::Program;
use stacl::trace::abstraction::{traces, AbstractionConfig};
use stacl::trace::enumerate::enumerate_traces;

/// Two parallel chains of length k: C(2k, k) interleavings.
fn par_chains(k: usize) -> Program {
    let left = b::seq((0..k).map(|i| b::access("a", format!("r{i}"), "s1")));
    let right = b::seq((0..k).map(|i| b::access("b", format!("r{i}"), "s2")));
    left.par(right)
}

fn the_constraint() -> Constraint {
    // First left-chain access before last right-chain access.
    Constraint::ordered(Access::new("a", "r0", "s1"), Access::new("b", "r0", "s2")).or(
        Constraint::ordered(Access::new("b", "r0", "s2"), Access::new("a", "r0", "s1")),
    )
}

fn bench_symbolic(c: &mut Criterion) {
    let mut group = c.benchmark_group("E9/symbolic-check");
    for k in [2usize, 4, 6, 8] {
        let p = par_chains(k);
        let cons = the_constraint();
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |bch, _| {
            bch.iter(|| {
                let mut table = AccessTable::new();
                black_box(check_program(&p, &cons, &mut table, Semantics::ForAll))
            })
        });
    }
    group.finish();
}

fn bench_enumeration(c: &mut Criterion) {
    let mut group = c.benchmark_group("E9/enumerate-then-check");
    for k in [2usize, 4, 6, 8] {
        let p = par_chains(k);
        let cons = the_constraint();
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |bch, _| {
            bch.iter(|| {
                let mut table = AccessTable::new();
                let re = traces(&p, &mut table, AbstractionConfig::default());
                for a in cons.mentioned_accesses() {
                    table.intern(a);
                }
                let d = Dfa::from_regex(&re);
                // Enumerate ALL traces (C(2k, k) of them) and check each
                // directly per Definition 3.6.
                let all = enumerate_traces(&d, 2 * k, usize::MAX);
                let oracle = ProofOracle::assume_all();
                let ok = all
                    .iter()
                    .all(|t| trace_satisfies(t, &cons, &table, &oracle));
                black_box((all.len(), ok))
            })
        });
    }
    group.finish();
}

/// The case enumeration cannot handle at all: a loop makes the trace set
/// infinite; the symbolic checker decides it anyway.
fn bench_symbolic_on_infinite_model(c: &mut Criterion) {
    let mut group = c.benchmark_group("E9/symbolic-on-loops");
    for k in [1usize, 4, 16] {
        let body = b::seq((0..k).map(|i| b::access("a", format!("r{i}"), "s1")));
        let p = b::while_do(
            stacl::sral::Cond::cmp(
                stacl::sral::expr::CmpOp::Gt,
                stacl::sral::Expr::var("x"),
                stacl::sral::Expr::Int(0),
            ),
            body,
        );
        let cons = Constraint::atom("a", "r0", "s1").implies(Constraint::atom("a", "r0", "s1"));
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |bch, _| {
            bch.iter(|| {
                let mut table = AccessTable::new();
                let v = check_program(&p, &cons, &mut table, Semantics::ForAll);
                assert!(v.holds);
                black_box(v.program_states)
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_symbolic,
    bench_enumeration,
    bench_symbolic_on_infinite_model
);
criterion_main!(benches);
