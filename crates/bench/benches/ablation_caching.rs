//! E10 (ablation): the two gate optimisations — constraint-automaton
//! memoisation and monotone spatial-approval reuse — measured against the
//! unoptimised baseline on the §6 audit workload.
//!
//! | variant | what it does per access |
//! |---|---|
//! | `uncached`   | recompiles every conjunct, re-checks everything |
//! | `cached`     | memoised leaf automata, full re-check |
//! | `reuse`      | full check once, then Eq. 3.1 approval persistence |

use stacl_bench::criterion::{BenchmarkId, Criterion};
use stacl_bench::{criterion_group, criterion_main};
use std::hint::black_box;

use stacl::integrity::ModuleGraph;
use stacl::prelude::*;
use stacl::srac::check::{check_residual, check_residual_cached, ConstraintCache, Semantics};
use stacl::srac::Constraint;

fn audit_guard(g: &ModuleGraph, reuse: bool) -> CoordinatedGuard {
    let mut model = RbacModel::new();
    model.add_user("auditor");
    model.add_role("aud");
    model
        .add_permission(
            Permission::new("p", AccessPattern::parse("verify:*:*").unwrap())
                .with_spatial(g.dependency_constraint()),
        )
        .unwrap();
    model.assign_permission("aud", "p").unwrap();
    model.assign_user("auditor", "aud").unwrap();
    // Both variants run the Eq. 3.1 preventive gate; `reuse` toggles the
    // monotone approval persistence (the optimisation under ablation).
    let guard = CoordinatedGuard::new(ExtendedRbac::new(model))
        .with_mode(EnforcementMode::Preventive)
        .with_approval_reuse(reuse);
    guard.enroll("auditor", ["aud"]);
    guard
}

fn coalition_for(g: &ModuleGraph) -> CoalitionEnv {
    let mut env = CoalitionEnv::new();
    for m in g.modules() {
        env.add_resource(&m.server, &m.name, ["verify"]);
    }
    env
}

/// Full audit runs: approval reuse vs per-access re-checking.
fn bench_audit_variants(c: &mut Criterion) {
    let mut group = c.benchmark_group("E10/audit-gate-variants");
    for n in [16usize, 48] {
        let g = ModuleGraph::generate_layered(n, 4, 4, 3, 31);
        for (label, reuse) in [("reuse", true), ("recheck", false)] {
            group.bench_with_input(BenchmarkId::new(label, n), &n, |bch, _| {
                bch.iter(|| {
                    let mut sys =
                        NapletSystem::new(coalition_for(&g), Box::new(audit_guard(&g, reuse)));
                    sys.spawn(NapletSpec::new(
                        "auditor",
                        "s0",
                        g.audit_program_sequential(),
                    ));
                    let r = sys.run();
                    assert_eq!(r.finished, 1);
                    black_box(r.steps)
                })
            });
        }
    }
    group.finish();
}

/// Raw checker calls: cached vs uncached constraint compilation, repeated
/// against the same policy (the gate's actual call pattern).
fn bench_checker_caching(c: &mut Criterion) {
    let mut group = c.benchmark_group("E10/checker-caching");
    for k in [8usize, 32, 128] {
        let g = ModuleGraph::generate_layered(k, 4, 4, 3, 32);
        let constraint: Constraint = g.dependency_constraint();
        let program = g.audit_program_sequential();
        group.bench_with_input(BenchmarkId::new("uncached", k), &k, |bch, _| {
            bch.iter(|| {
                let mut table = AccessTable::new();
                for _ in 0..3 {
                    black_box(check_residual(
                        &Trace::empty(),
                        &program,
                        &constraint,
                        &mut table,
                        Semantics::ForAll,
                    ));
                }
            })
        });
        group.bench_with_input(BenchmarkId::new("cached", k), &k, |bch, _| {
            bch.iter(|| {
                let mut table = AccessTable::new();
                let mut cache = ConstraintCache::new();
                for _ in 0..3 {
                    black_box(check_residual_cached(
                        &Trace::empty(),
                        &program,
                        &constraint,
                        &mut table,
                        Semantics::ForAll,
                        &mut cache,
                    ));
                }
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_audit_variants, bench_checker_caching);
criterion_main!(benches);
