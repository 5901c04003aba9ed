//! E5 (§6, Figure 1): the module-integrity audit at growing scales —
//! constraint construction, audit-program generation, the end-to-end
//! emulated run under the coordinated guard, and the post-run
//! classification.

use stacl_bench::criterion::{BenchmarkId, Criterion};
use stacl_bench::{criterion_group, criterion_main};
use std::hint::black_box;

use stacl::integrity::{evaluate_audit, ModuleGraph};
use stacl::prelude::*;

fn coalition_for(g: &ModuleGraph) -> CoalitionEnv {
    let mut env = CoalitionEnv::new();
    for m in g.modules() {
        env.add_resource(&m.server, &m.name, ["verify"]);
    }
    env
}

fn audit_guard(g: &ModuleGraph) -> CoordinatedGuard {
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
    let guard = CoordinatedGuard::new(ExtendedRbac::new(model));
    guard.enroll("auditor", ["aud"]);
    guard
}

fn bench_constraint_construction(c: &mut Criterion) {
    let mut group = c.benchmark_group("E5/dependency-constraint-build");
    for n in [8usize, 64, 512, 4096] {
        let g = ModuleGraph::generate_layered(n, 8, 5, 3, 21);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bch, _| {
            bch.iter(|| black_box(g.dependency_constraint()).size())
        });
    }
    group.finish();
}

fn bench_program_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("E5/audit-program-build");
    for n in [8usize, 64, 512, 4096] {
        let g = ModuleGraph::generate_layered(n, 8, 5, 3, 22);
        group.bench_with_input(BenchmarkId::new("sequential", n), &n, |bch, _| {
            bch.iter(|| black_box(g.audit_program_sequential()).size())
        });
        group.bench_with_input(BenchmarkId::new("layered-parallel", n), &n, |bch, _| {
            bch.iter(|| black_box(g.audit_program_layered()).size())
        });
    }
    group.finish();
}

fn bench_full_audit_run(c: &mut Criterion) {
    let mut group = c.benchmark_group("E5/full-audit-run");
    for (n, servers) in [(8usize, 2usize), (32, 4), (128, 8)] {
        let g = ModuleGraph::generate_layered(n, servers, 4, 3, 23);
        let manifest = g.manifest();
        group.bench_with_input(
            BenchmarkId::new(format!("{servers}srv-coordinated"), n),
            &n,
            |bch, _| {
                bch.iter(|| {
                    let mut sys = NapletSystem::new(coalition_for(&g), Box::new(audit_guard(&g)));
                    sys.spawn(NapletSpec::new(
                        "auditor",
                        "s0",
                        g.audit_program_sequential(),
                    ));
                    let r = sys.run();
                    assert_eq!(r.finished, 1);
                    let audit = evaluate_audit("auditor", sys.proofs(), &g, &manifest);
                    assert!(audit.all_verified());
                    black_box(r.steps)
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new(format!("{servers}srv-permissive"), n),
            &n,
            |bch, _| {
                bch.iter(|| {
                    let mut sys = NapletSystem::new(coalition_for(&g), Box::new(PermissiveGuard));
                    sys.spawn(NapletSpec::new(
                        "auditor",
                        "s0",
                        g.audit_program_sequential(),
                    ));
                    let r = sys.run();
                    assert_eq!(r.finished, 1);
                    black_box(r.steps)
                })
            },
        );
    }
    group.finish();
}

fn bench_classification(c: &mut Criterion) {
    let mut group = c.benchmark_group("E5/post-run-classification");
    for n in [32usize, 256, 2048] {
        let mut g = ModuleGraph::generate_layered(n, 8, 5, 3, 24);
        let manifest = g.manifest();
        let victim = g.modules().nth(n / 4).unwrap().name.clone();
        g.tamper(&victim);
        let proofs = ProofStore::new();
        for (i, m) in g.modules().enumerate() {
            proofs.issue(
                "auditor",
                ModuleGraph::verify_access(m),
                TimePoint::new(i as f64),
            );
        }
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bch, _| {
            bch.iter(|| {
                let r = evaluate_audit("auditor", &proofs, &g, &manifest);
                assert!(r.corrupted.contains(&victim));
                black_box(r.verified.len())
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_constraint_construction,
    bench_program_generation,
    bench_full_audit_run,
    bench_classification
);
criterion_main!(benches);
