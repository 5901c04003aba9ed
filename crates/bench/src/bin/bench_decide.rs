//! `bench_decide` — the E12 decide-throughput ablation (DESIGN.md §8,
//! EXPERIMENTS.md E12) and the ratio phases built on its workload,
//! emitted as machine-readable JSON and checked against their bounds.
//!
//! Drives a fleet of `--objects` mobile objects, each performing
//! `--accesses` granted accesses against a reactive [`CoordinatedGuard`]
//! whose single permission carries a cardinality constraint (so every
//! decision runs a real spatial `P ⊨ C` check), and measures four
//! decision-path configurations, every one through
//! [`CoordinatedGuard::decide`]:
//!
//! | mode | core | concurrency |
//! |---|---|---|
//! | `from-scratch-sequential`      | pre-PR residual re-check | 1 thread |
//! | `incremental-sequential`       | cursor fast path         | 1 thread |
//! | `incremental-global-lock`      | cursor fast path         | N threads behind one global mutex (pre-PR locking) |
//! | `incremental-snapshot-parallel`| cursor fast path         | N threads, per-object gate shards only |
//!
//! Every number comes from `stacl_bench::measure`: each mode is timed
//! over repeated runs, each on a fresh guard, and reported as the median
//! ops/sec with its interquartile range (`<key>_iqr`), plus p50/p99
//! per-decision latency (µs) of the mode's last run. The ratio phases
//! run their two sides as interleaved pairs (`measure_pair`) and report
//! the median per-pair ratio:
//!
//! * **E13** — the `stacl-obs` telemetry overhead: the
//!   incremental-sequential mode with telemetry on vs off; the overhead
//!   and the full `MetricsSnapshot` of one telemetry-on run go to
//!   `--obs-out` (default `BENCH_obs.json`). The E12 modes run with
//!   telemetry on — the production default.
//! * **E15** — live policy rollouts: the steady workload with and
//!   without a background thread performing 8 complete `prepare_epoch`
//!   → `activate_epoch` rollouts. A pair counts only if all 8 landed;
//!   with too few counted pairs the ratio is `null`.
//! * **E17** — coalition vocabulary width: the access table padded to
//!   64→4096 interned ids the constraint never selects, compressed leaf
//!   alphabets (the default) vs `set_alphabet_compression(false)`. The
//!   4096-id pair yields `ops_per_sec_large_vocab` /
//!   `alphabet_compression_x`.
//! * **E19** — the attribute front-end: a guard built from a hand-written
//!   SRAC/temporal policy vs one built from an `stacl-abac` attribute
//!   policy that lowers to the same primitives (the phase asserts the
//!   lowered constraint/validity are structurally the promised ones, so
//!   the comparison can't silently go vacuous).
//!
//! Both JSONs carry a `run` object (grid, repetitions per phase, cores,
//! git revision). After writing them the binary checks the documented
//! bounds — E12 speedup ≥ 5×, E13 overhead ≤ 2 %, E15 flip ratio ≥ 0.9,
//! E17 compression at 4096 ids ≥ 2×, E19 lowered/hand-written within
//! [0.95, 1.05] — and exits 1 if any ratio's whole IQR lies past its
//! bound or the ratio is `null`. The bounds are documented for the
//! default 64 × 1000 grid.
//!
//! Usage: `bench_decide [--objects 64] [--accesses 1000] [--threads 0] [--out BENCH_decide.json]
//! [--obs-out BENCH_obs.json]` (`--threads 0` = available parallelism).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use stacl::prelude::*;
use stacl_bench::measure::{
    breaches, field_run, field_spread, measure, measure_pair, quantile, round3, Bound, Pair, Spread,
};
use stacl_bench::{fleet_model, Fleet};
use stacl_ids::json::JsonWriter;

/// One measured configuration.
struct Mode {
    name: &'static str,
    ops: Spread,
    /// Per-decision latency percentiles (µs) of the mode's last run.
    p50_us: f64,
    p99_us: f64,
}

impl Mode {
    fn new(name: &'static str, ops: Spread, mut lat_us: Vec<f64>) -> Mode {
        lat_us.sort_by(f64::total_cmp);
        Mode {
            name,
            ops,
            p50_us: quantile(&lat_us, 0.50),
            p99_us: quantile(&lat_us, 0.99),
        }
    }
}

/// Rollouts per E15 flip run.
const FLIPS: u64 = 8;

/// E17 table widths.
const VOCAB_SIZES: [usize; 4] = [64, 256, 1024, 4096];

fn main() {
    let mut objects = 64usize;
    let mut accesses = 1000usize;
    let mut threads = 0usize;
    let mut out = String::from("BENCH_decide.json");
    let mut obs_out = String::from("BENCH_obs.json");

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let key = args[i].as_str();
        let val = args.get(i + 1).unwrap_or_else(|| {
            eprintln!("missing value for {key}");
            std::process::exit(2);
        });
        match key {
            "--objects" => objects = val.parse().expect("--objects"),
            "--accesses" => accesses = val.parse().expect("--accesses"),
            "--threads" => threads = val.parse().expect("--threads"),
            "--out" => out = val.clone(),
            "--obs-out" => obs_out = val.clone(),
            _ => {
                eprintln!(
                    "unknown flag {key} (expected --objects/--accesses/--threads/--out/--obs-out)"
                );
                std::process::exit(2);
            }
        }
        i += 2;
    }
    if threads == 0 {
        threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
    }
    threads = threads.min(objects.max(1));
    let fleet = Fleet::new(objects, accesses);
    let grid = format!("{objects}x{accesses}");

    eprintln!("bench_decide: {objects} objects x {accesses} accesses, {threads} threads");

    // ---- E12: the four decision-path modes ----
    let mut modes = vec![
        sequential_mode("from-scratch-sequential", &fleet, false),
        sequential_mode("incremental-sequential", &fleet, true),
        parallel_mode("incremental-global-lock", &fleet, threads, true),
        parallel_mode("incremental-snapshot-parallel", &fleet, threads, false),
    ];

    // ---- E15: live-rollout cost (DESIGN.md §12) ----
    // The rollouts are spaced so all of them land within two thirds of
    // a median-speed run; a flip run they did not all land in does not
    // count (its pair is dropped).
    let steady_s = fleet.decisions() as f64 / modes[1].ops.median;
    let flip_every = Duration::from_secs_f64((steady_s / 12.0).max(0.0005));
    let (mut lat_base, mut lat_flip) = (Vec::new(), Vec::new());
    let mut epoch_flips = 0;
    let flips = measure_pair(
        || Some(run_sequential(&fleet, &fleet.guard(), 0, &mut lat_base)),
        || {
            let (ops, landed) = run_under_flips(&fleet, flip_every, &mut lat_flip);
            epoch_flips = epoch_flips.max(landed);
            (landed == FLIPS).then_some(ops)
        },
    );
    match flips.ratio {
        Some(r) => eprintln!(
            "  epoch-flip phase: {} counted pairs, throughput ratio {:.3} (acceptance: >= 0.9)",
            r.n, r.median
        ),
        None => eprintln!("  epoch-flip phase: too few pairs with all {FLIPS} rollouts landed"),
    }
    modes.push(Mode::new("steady-no-flip", flips.a, lat_base));
    modes.push(Mode::new("steady-under-flips", flips.b, lat_flip));

    // ---- E17: alphabet-size sweep (DESIGN.md §14, EXPERIMENTS.md E17) ----
    // The per-run table is padded with filler ids the constraint never
    // selects — the large-coalition shape where any one permission
    // mentions a sliver of the vocabulary. Side `a` compiles full leaf
    // alphabets, side `b` compressed ones; the flag is restored after.
    eprintln!("bench_decide: E17 alphabet-size sweep (compressed vs full leaf alphabets)");
    let sequential =
        |ids: usize| Some(run_sequential(&fleet, &fleet.guard(), ids, &mut Vec::new()));
    let sweep: Vec<(usize, Pair)> = VOCAB_SIZES
        .into_iter()
        .map(|ids| {
            let p = measure_pair(
                || {
                    stacl::srac::set_alphabet_compression(false);
                    sequential(ids)
                },
                || {
                    stacl::srac::set_alphabet_compression(true);
                    sequential(ids)
                },
            );
            let r = p.ratio.expect("every E17 pair counts");
            eprintln!(
                "  {ids:>5} table ids: {:>12.0} ops/s compressed  {:>12.0} ops/s full  ({:.2}x)",
                p.b.median, p.a.median, r.median
            );
            (ids, p)
        })
        .collect();
    stacl::srac::set_alphabet_compression(true);

    // ---- E19: attribute front-end vs hand-written policies ----
    eprintln!("bench_decide: E19 lowered-attribute vs hand-written policy");
    let (hand_text, lowered_text) = attr_policy_pair(objects);
    let attr = measure_pair(
        || Some(run_policy_text(&fleet, &hand_text)),
        || Some(run_policy_text(&fleet, &lowered_text)),
    );
    let attr_ratio = attr.ratio.expect("every E19 pair counts");
    eprintln!(
        "  attr phase: {:>12.0} ops/s hand-written  {:>12.0} ops/s lowered  (ratio {:.3}, \
         acceptance: within 5% of 1.0)",
        attr.a.median, attr.b.median, attr_ratio.median
    );

    // ---- E13: telemetry overhead (DESIGN.md §10, EXPERIMENTS.md E13) ----
    // One untimed telemetry-on run first: its snapshot is the exported
    // metrics payload, exercising every grant-path counter and the
    // decide histogram exactly once.
    eprintln!("bench_decide: E13 telemetry overhead (on vs off)");
    stacl::obs::set_telemetry(true);
    stacl::obs::reset();
    sequential(0);
    let metrics = stacl::obs::snapshot();
    let obs = measure_pair(
        || {
            stacl::obs::set_telemetry(true);
            sequential(0)
        },
        || {
            stacl::obs::set_telemetry(false);
            sequential(0)
        },
    );
    stacl::obs::set_telemetry(true);
    // Overhead in percent: how much slower on is than off.
    let overhead = obs
        .ratio
        .expect("every E13 pair counts")
        .map(|r| (r - 1.0) * 100.0);
    eprintln!(
        "  obs on {:>12.0} ops/s  off {:>12.0} ops/s  overhead {:.2}%",
        obs.a.median, obs.b.median, overhead.median
    );

    for m in &modes {
        eprintln!(
            "  {:<30} {:>12.0} ops/s  p50 {:>8.2} us  p99 {:>8.2} us",
            m.name, m.ops.median, m.p50_us, m.p99_us
        );
    }

    let mut reps: Vec<(String, usize)> = modes
        .iter()
        .take(4)
        .map(|m| (m.name.to_string(), m.ops.n))
        .collect();
    reps.push(("e15-pairs".to_string(), flips.a.n));
    for (ids, p) in &sweep {
        reps.push((format!("e17-table-{ids}-pairs"), p.a.n));
    }
    reps.push(("e19-pairs".to_string(), attr.a.n));
    let mut w = JsonWriter::object();
    w.field_str("experiment", "E12-decide-throughput");
    w.field_usize("objects", objects);
    w.field_usize("accesses_per_object", accesses);
    w.field_usize("threads", threads);
    let find = |n: &str| &modes.iter().find(|m| m.name == n).expect("mode").ops;
    let scratch = find("from-scratch-sequential");
    let inc = find("incremental-sequential");
    // "Best" ranges over the E12 ablation modes only — the steady E15
    // runs re-measure one of them, they don't compete with it.
    let best = modes[..4]
        .iter()
        .map(|m| &m.ops)
        .max_by(|a, b| a.median.total_cmp(&b.median))
        .expect("four modes");
    w.open_object("modes");
    for m in &modes {
        w.open_object(m.name);
        field_spread(&mut w, "ops_per_sec", Some(&m.ops));
        w.field_f64("p50_us", round3(m.p50_us));
        w.field_f64("p99_us", round3(m.p99_us));
        w.field_f64("elapsed_s", round3(fleet.decisions() as f64 / m.ops.median));
        w.field_usize("decisions", fleet.decisions());
        w.close();
    }
    w.close();
    let speedup = inc.over(scratch);
    field_spread(
        &mut w,
        "speedup_incremental_vs_from_scratch",
        Some(&speedup),
    );
    field_spread(
        &mut w,
        "speedup_snapshot_vs_global_lock",
        Some(&find("incremental-snapshot-parallel").over(find("incremental-global-lock"))),
    );
    field_spread(
        &mut w,
        "speedup_best_vs_from_scratch",
        Some(&best.over(scratch)),
    );
    w.field_u64("epoch_flips", epoch_flips);
    field_spread(&mut w, "flip_throughput_ratio", flips.ratio.as_ref());
    // E17: per-width pairs plus the 4096-id headline keys.
    w.open_object("vocab_sweep");
    for (ids, p) in &sweep {
        w.open_object(&format!("table-{ids}"));
        w.field_usize("table_ids", *ids);
        field_spread(&mut w, "ops_per_sec_compressed", Some(&p.b));
        field_spread(&mut w, "ops_per_sec_full_alphabet", Some(&p.a));
        field_spread(&mut w, "compression_x", p.ratio.as_ref());
        w.close();
    }
    w.close();
    let (_, large) = sweep.last().expect("sweep is non-empty");
    field_spread(&mut w, "ops_per_sec_large_vocab", Some(&large.b));
    field_spread(&mut w, "alphabet_compression_x", large.ratio.as_ref());
    // E19: the attribute front-end must be free at decide time.
    field_spread(&mut w, "ops_per_sec_handwritten", Some(&attr.a));
    field_spread(&mut w, "ops_per_sec_lowered_attr", Some(&attr.b));
    field_spread(&mut w, "lowered_vs_handwritten_ratio", Some(&attr_ratio));
    field_run(&mut w, &grid, &reps);
    std::fs::write(&out, w.finish()).expect("write --out");
    eprintln!("wrote {out}");

    let mut w = JsonWriter::object();
    w.field_str("experiment", "E13-telemetry-overhead");
    w.field_usize("objects", objects);
    w.field_usize("accesses_per_object", accesses);
    w.open_object("modes");
    w.open_object("incremental-sequential");
    field_spread(&mut w, "ops_per_sec_telemetry_on", Some(&obs.a));
    field_spread(&mut w, "ops_per_sec_telemetry_off", Some(&obs.b));
    field_spread(&mut w, "overhead_pct", Some(&overhead));
    w.close();
    w.close();
    // Headline number: the per-decision path, where the record calls are
    // proportionally largest.
    field_spread(&mut w, "overhead_pct", Some(&overhead));
    w.field_raw("metrics", metrics.to_json().trim_end());
    field_run(&mut w, &grid, &[("e13-pairs".to_string(), obs.a.n)]);
    std::fs::write(&obs_out, w.finish()).expect("write --obs-out");
    eprintln!("wrote {obs_out}");

    let gates = [
        (
            "E12 speedup_incremental_vs_from_scratch",
            Some(speedup),
            Bound::AtLeast(5.0),
        ),
        ("E13 overhead_pct", Some(overhead), Bound::AtMost(2.0)),
        (
            "E15 flip_throughput_ratio",
            flips.ratio,
            Bound::AtLeast(0.9),
        ),
        (
            "E17 alphabet_compression_x",
            large.ratio,
            Bound::AtLeast(2.0),
        ),
        (
            "E19 lowered_vs_handwritten_ratio",
            Some(attr_ratio),
            Bound::Within(0.95, 1.05),
        ),
    ];
    let mut breached = false;
    for (key, ratio, bound) in &gates {
        if breaches(ratio.as_ref(), *bound) {
            breached = true;
            match ratio {
                Some(r) => eprintln!(
                    "bench_decide: BREACH {key} = {:.3} (IQR {:.3}..{:.3}) against {bound:?} at {grid}",
                    r.median, r.q1, r.q3
                ),
                None => eprintln!("bench_decide: BREACH {key} is null (vacuous) at {grid}"),
            }
        }
    }
    if breached {
        std::process::exit(1);
    }
}

/// One measured single-threaded mode on fresh guards.
fn sequential_mode(name: &'static str, fleet: &Fleet, incremental: bool) -> Mode {
    let mut lat = Vec::new();
    let ops = measure(|| {
        let guard = fleet.guard();
        guard.with_rbac(|r| r.set_incremental(incremental));
        run_sequential(fleet, &guard, 0, &mut lat)
    });
    Mode::new(name, ops, lat)
}

/// One single-threaded run of the whole fleet against `guard`, with the
/// table padded to `table_ids` (0 = the workload's own 4 accesses).
/// Timing starts before the first decision, so the run carries the real
/// cold-start bill — leaf compile plus per-object residual products —
/// which is exactly the cost E17's compressed alphabet decouples from
/// table width. Returns ops/sec; `lat` receives each decision's latency
/// (µs).
fn run_sequential(
    fleet: &Fleet,
    guard: &CoordinatedGuard,
    table_ids: usize,
    lat: &mut Vec<f64>,
) -> f64 {
    let proofs = ProofStore::new();
    let mut table = fleet.table(table_ids);
    lat.clear();
    lat.reserve(fleet.decisions());
    let start = Instant::now();
    fleet.for_each(0..fleet.objects, |req| {
        let t0 = Instant::now();
        let v = guard.decide(req, &proofs, &mut table);
        lat.push(t0.elapsed().as_secs_f64() * 1e6);
        assert!(v.is_granted(), "fleet workload must be all-grant");
        proofs.issue(req.object, req.access.clone(), req.time);
    });
    fleet.rate(start)
}

/// The steady workload with a background thread performing up to
/// [`FLIPS`] complete two-phase rollouts, one every `flip_every`: the
/// epoch-`e` model is prepared under the read lock (decisions keep
/// flowing) and activated under the write lock (a pointer swap plus
/// cache resets). Returns ops/sec and how many rollouts landed.
fn run_under_flips(fleet: &Fleet, flip_every: Duration, lat: &mut Vec<f64>) -> (f64, u64) {
    let guard = fleet.guard();
    let model = || fleet_model(fleet.objects, "rsw", fleet.accesses + 2);
    let mut flip_table = fleet.table(0);
    // One throwaway prepare before the clock starts: compiled automata
    // are cached per (constraint, table version) and `flip_table` is
    // fresh, so the first prepare against it pays the one-time compile a
    // long-lived daemon paid at boot. The measured phase starts from
    // that steady state — rollout cost, not cold-start cost.
    let _ =
        guard.with_rbac_read(|r| r.prepare_epoch(model(), std::iter::empty(), 1, &mut flip_table));
    let stop = AtomicBool::new(false);
    let flips = AtomicU64::new(0);
    let ops = std::thread::scope(|s| {
        // The `move` closure takes `flip_table`; everything else goes in
        // by shared reference.
        let (guard, stop, flips, model) = (&guard, &stop, &flips, &model);
        s.spawn(move || {
            // Bounded: the cadence is fixed, so without a bound a
            // slowed-down run would admit ever more flips and measure a
            // feedback loop instead of the rollout cost.
            for epoch in 1..=FLIPS {
                std::thread::sleep(flip_every);
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                let prepared = guard
                    .with_rbac_read(|r| {
                        r.prepare_epoch(model(), std::iter::empty(), epoch, &mut flip_table)
                    })
                    .expect("bench epochs strictly increase");
                guard
                    .with_rbac(|r| r.activate_epoch(prepared))
                    .expect("prepared epoch activates");
                flips.fetch_add(1, Ordering::Relaxed);
            }
        });
        let ops = run_sequential(fleet, guard, 0, lat);
        stop.store(true, Ordering::Relaxed);
        ops
    });
    (ops, flips.load(Ordering::Relaxed))
}

/// N threads, the fleet partitioned round-robin across them, measured
/// on fresh guards; with `global_lock`, every decide+issue runs under
/// one external mutex — the former `Mutex<ExtendedRbac>` locking
/// discipline. Without it, the only serialization is the per-object
/// gate shard inside the core.
fn parallel_mode(name: &'static str, fleet: &Fleet, threads: usize, global_lock: bool) -> Mode {
    let mut lat_us: Vec<f64> = Vec::new();
    let ops = measure(|| {
        let guard = fleet.guard();
        let proofs = ProofStore::new();
        let lock = Mutex::new(());
        lat_us.clear();
        let start = Instant::now();
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let (guard, proofs, lock) = (&guard, &proofs, &lock);
                    s.spawn(move || {
                        // Each thread owns a fixed slice of the fleet, so
                        // an object's cursor is always advanced under the
                        // same thread-local table and stays in sync.
                        let mut table = fleet.table(0);
                        let mut lat = Vec::with_capacity(fleet.decisions() / threads + 1);
                        fleet.for_each((t..fleet.objects).step_by(threads), |req| {
                            let t0 = Instant::now();
                            let held = global_lock.then(|| lock.lock().expect("global lock"));
                            let v = guard.decide(req, proofs, &mut table);
                            if v.is_granted() {
                                proofs.issue(req.object, req.access.clone(), req.time);
                            }
                            drop(held);
                            lat.push(t0.elapsed().as_secs_f64() * 1e6);
                            assert!(v.is_granted(), "fleet workload must be all-grant");
                        });
                        lat
                    })
                })
                .collect();
            for h in handles {
                lat_us.extend(h.join().expect("bench worker"));
            }
        });
        fleet.rate(start)
    });
    Mode::new(name, ops, lat_us)
}

/// E19 fixture: a hand-written policy and an attribute policy that
/// lowers to the *same* SRAC/temporal primitives, both as pushable
/// policy text. The fleet's four workload servers sit inside the
/// allowed 10.0.0.0/8 block; a fifth server `s4` sits outside it, so
/// the CIDR rule lowers to a real `count(0, 0, server=s4)` constraint
/// (every decision runs a spatial check) while the workload stays
/// all-grant. The always-on cron window clamps to the one-week budget,
/// which the hand-written side carries literally.
fn attr_policy_pair(objects: usize) -> (String, String) {
    use stacl_abac::{lower_policy, AttributePolicy, MAX_VALIDITY_SECS};

    let mut hand = String::new();
    let mut toml = String::from("[servers]\n");
    for s in 0..4 {
        toml.push_str(&format!("s{s} = \"10.0.0.{}\"\n", 4 + s));
    }
    toml.push_str("s4 = \"192.168.1.9\"\n\n[[role]]\nname = \"licensee\"\nusers = [");
    for i in 0..objects {
        hand.push_str(&format!("user n{i}\n"));
        if i > 0 {
            toml.push_str(", ");
        }
        toml.push_str(&format!("\"n{i}\""));
    }
    toml.push_str(
        "]\n\n[[rule]]\nname = \"p\"\nroles = [\"licensee\"]\nop = \"exec\"\n\
         resource = \"rsw\"\nallow = [\"10.0.0.0/8\"]\ncron = \"* * * * *\"\nduration = \"7d\"\n",
    );
    hand.push_str(&format!(
        "role licensee\npermission p grants=exec:rsw:* validity={MAX_VALIDITY_SECS} \
         scheme=whole-lifetime spatial=\"count(0, 0, server=s4)\"\ngrant licensee p\n"
    ));
    for i in 0..objects {
        hand.push_str(&format!("assign n{i} licensee\n"));
    }

    let attr = AttributePolicy::parse(&toml).expect("bench attribute policy parses");
    let lowered = lower_policy(&attr, 0.0).expect("bench attribute policy lowers");
    assert!(lowered.notes.is_empty(), "{:?}", lowered.notes);
    // Guard against a vacuous comparison: the lowered permission must be
    // exactly the primitives the hand-written side spells out.
    let p = lowered.model.permission("p").expect("lowered permission");
    assert_eq!(
        p.spatial.as_ref().expect("lowered constraint").to_string(),
        "count(0, 0, server=s4)"
    );
    assert_eq!(p.validity, Some(MAX_VALIDITY_SECS));
    (hand, stacl::rbac::policy::render_policy(&lowered.model))
}

/// E19 measurement: one steady sequential run against a reactive guard
/// built from policy text (the same construction path a daemon uses for
/// a pushed policy).
fn run_policy_text(fleet: &Fleet, text: &str) -> f64 {
    let model = stacl::rbac::policy::parse_policy(text).expect("bench policy text parses");
    run_sequential(
        fleet,
        &fleet.enroll(ExtendedRbac::new(model)),
        0,
        &mut Vec::new(),
    )
}
