//! `coalbench` — end-to-end and per-layer benchmark of a loopback
//! `stacl-net` coalition.
//!
//! ```text
//! cargo run --release --offline --manifest-path coalbench/Cargo.toml -- \
//!     --workload decide|itinerary|rollout --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` the run measures the workload end to end and prints
//! the end-to-end metrics; with `--trace 1` it records spans around each
//! layer call, replays the workload's inputs through the layers in
//! process and prints the per-layer metrics. The last line of standard
//! output is the result object; a fuller record (run facts, spans) is
//! written under `coalbench/out/`. See `WORKLOADS.md`.

mod fleet;
mod gen;
mod itinerary;
mod layers;
mod spans;
mod stats;
mod tally;

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use stacl_obs::{Counter, MetricsSnapshot};

use crate::gen::{Fleet, Itinerary, Vocab};
use crate::layers::Layers;
use crate::spans::Tracer;
use crate::stats::{log2_quantile, median, peak_rss_mb, trimmed_mean, Reservoir, Slices};
use crate::tally::Tally;

/// Window of the pipelined phase.
const WINDOW: usize = 64;
/// Set-ups per `decide`/`rollout` run; `setup_s` is their median.
const FLEET_SETUPS: usize = 5;
/// Rollout every this many verdicts on the `rollout` workload.
const ROLLOUT_EVERY: u64 = 4096;
/// Slices per untraced `decide`/`rollout` run (see [`Slices`]).
const SLICES: usize = 50;
/// Spans written to the trace file.
const SPANS_WRITTEN: usize = 20_000;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("coalbench: {msg}");
    eprintln!(
        "usage: coalbench --workload decide|itinerary|rollout --seed N --seconds S --trace 0|1"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut a = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    for pair in argv.chunks(2) {
        let [k, v] = pair else {
            usage("every flag takes a value")
        };
        match k.as_str() {
            "--workload" => a.workload = v.clone(),
            "--seed" => {
                a.seed = v
                    .parse()
                    .unwrap_or_else(|_| usage("--seed wants an integer"))
            }
            "--seconds" => {
                a.seconds = v
                    .parse()
                    .unwrap_or_else(|_| usage("--seconds wants a number"))
            }
            "--trace" => a.trace = v == "1",
            _ => usage(&format!("unknown flag {k}")),
        }
    }
    if !matches!(a.workload.as_str(), "decide" | "itinerary" | "rollout") {
        usage("--workload must be decide, itinerary or rollout");
    }
    if a.seconds.is_nan() || a.seconds <= 0.0 {
        usage("--seconds must be positive");
    }
    a
}

/// One run's outcome.
struct Report {
    tally: Tally,
    /// (name, value, unit), in print order.
    metrics: Vec<(&'static str, f64, &'static str)>,
    /// Run facts for the result file.
    facts: Vec<(&'static str, String)>,
    trace_json: Option<String>,
}

impl Report {
    fn new(tally: Tally) -> Report {
        Report {
            tally,
            metrics: Vec::new(),
            facts: Vec::new(),
            trace_json: None,
        }
    }

    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    /// Report every per-layer metric of `l`; if one is missing (a failed
    /// round ended the run early) report none and count the run broken.
    fn layers(&mut self, l: &Layers) {
        if let Some((name, _)) = PER_LAYER.iter().find(|(n, _)| !l.contains_key(n)) {
            self.tally
                .broke(format!("per-layer metric {name} not measured"));
            return;
        }
        debug_assert_eq!(l.len(), PER_LAYER.len(), "unlisted per-layer metric");
        for (name, unit) in PER_LAYER {
            self.metric(name, l[name], unit);
        }
    }
}

/// Every per-layer metric of a traced run, with its unit, in print order.
const PER_LAYER: &[(&str, &str)] = &[
    ("net.encode_ns", "ns"),
    ("net.decode_ns", "ns"),
    ("net.bytes_per_op", "B/op"),
    ("net.frames_per_wakeup", "frames"),
    ("net.frames_per_flush", "frames"),
    ("net.client_wait_share", "share"),
    ("net.handoff_p50_us", "us"),
    ("net.handoff_p99_us", "us"),
    ("net.handoff_bytes_first", "bytes"),
    ("net.handoff_bytes_last", "bytes"),
    ("net.retries", "count"),
    ("net.handoff_failed", "count"),
    ("net.failsafe_denials", "count"),
    ("net.self_us", "us"),
    ("naplet.decide_ns_p50", "ns"),
    ("naplet.decide_ns_p99", "ns"),
    ("naplet.self_ns", "ns"),
    ("naplet.export_us", "us"),
    ("naplet.import_us", "us"),
    ("naplet.note_arrival_ns", "ns"),
    ("rbac.decide_ns_p50", "ns"),
    ("rbac.self_ns", "ns"),
    ("rbac.warm_cursor_us", "us"),
    ("rbac.parse_policy_ms", "ms"),
    ("rbac.prepare_ms", "ms"),
    ("rbac.activate_us", "us"),
    ("srac.cursor_hit_ratio", "ratio"),
    ("srac.cursor_declines_per_op", "1/op"),
    ("srac.cache_miss_per_op", "1/op"),
    ("srac.compile_ms", "ms"),
    ("temporal.permission_state_ns", "ns"),
    ("coalition.proof_issue_ns", "ns"),
    ("coalition.live_proofs", "count"),
    ("coalition.resident_objects", "count"),
    ("bench.client_self_us", "us"),
    ("trace.overhead_share", "share"),
];

fn main() {
    let args = parse_args();
    // Telemetry at its production default: on.
    stacl_obs::set_telemetry(true);
    let vocab = Vocab::new();
    let outcome = match args.workload.as_str() {
        "itinerary" => run_itinerary(&args, &vocab),
        w => run_fleet(&args, &vocab, w == "rollout"),
    };
    let report = outcome.unwrap_or_else(|(e, mut tally)| {
        tally.fail(format!("run aborted: {e}"));
        Report::new(tally)
    });
    finish(&args, report);
}

/// Facts every result records.
fn common_facts(args: &Args, r: &mut Report) {
    let cfg = stacl_net::DaemonConfig::new("d0");
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    r.facts.extend([
        ("workload", args.workload.clone()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("nproc", nproc.to_string()),
        ("git_revision", stats::git_revision()),
        ("telemetry", stacl_obs::enabled().to_string()),
        (
            "build_profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .to_string(),
        ),
        ("windows", format!("1,{WINDOW}")),
        ("compact_after", cfg.compact_after.to_string()),
        ("handoff_retries", cfg.handoff_retries.to_string()),
        (
            "handoff_backoff_ms",
            cfg.handoff_backoff.as_millis().to_string(),
        ),
    ]);
}

fn finish(args: &Args, mut r: Report) {
    common_facts(args, &mut r);
    let t = &r.tally;
    for n in &t.notes {
        eprintln!("coalbench: FAILED {n}");
    }
    let mut line = format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
        t.correct(),
        t.attempted.max(1),
        if t.correct() { 0 } else { t.failed.max(1) }
    );
    for (i, (name, v, unit)) in r.metrics.iter().enumerate() {
        let v = if v.is_finite() { *v } else { 0.0 };
        let _ = write!(
            line,
            "{}\"{name}\":{{\"value\":{v:?},\"unit\":\"{unit}\"}}",
            if i > 0 { "," } else { "" }
        );
    }
    line.push_str("}}");

    let mut record = String::from("{\"facts\":{");
    for (i, (k, v)) in r.facts.iter().enumerate() {
        let _ = write!(record, "{}\"{k}\":\"{v}\"", if i > 0 { "," } else { "" });
        eprintln!("coalbench: {k} = {v}");
    }
    let _ = write!(record, "}},\"result\":{line}");
    if let Some(tj) = &r.trace_json {
        let _ = write!(record, ",\"trace\":{tj}");
    }
    record.push('}');
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    let path = format!(
        "{dir}/{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    if std::fs::create_dir_all(dir)
        .and_then(|_| std::fs::write(&path, record))
        .is_err()
    {
        eprintln!("coalbench: could not write {path}");
    }
    println!("{line}");
    std::process::exit(if t.correct() { 0 } else { 1 });
}

type Outcome = Result<Report, (String, Tally)>;

fn secs(s: f64) -> Duration {
    Duration::from_secs_f64(s)
}

/// Net/srac/coalition per-layer metrics from an obs diff over a wire
/// phase. `requests` are the frames the load thread sent (each answered
/// by one reply), `client_flushes` its own pipelined flushes.
#[allow(clippy::too_many_arguments)]
fn wire_layers(
    l: &mut Layers,
    d: &MetricsSnapshot,
    ops: u64,
    wall_s: f64,
    wait_ns: u64,
    requests: u64,
    client_flushes: u64,
) {
    let c = |k| d.counter(k) as f64;
    let ops = ops.max(1) as f64;
    // Daemon event loops receive the load thread's requests plus, per pull,
    // the puller's Hello and HandoffRequest; they send one reply each.
    let pulls = c(Counter::NetHandoffApplied) + c(Counter::NetHandoffFailed);
    let loop_frames = requests as f64 + 2.0 * pulls;
    let loop_flushes = (c(Counter::NetWriteFlush) - client_flushes as f64).max(1.0);
    l.insert("net.bytes_per_op", c(Counter::NetBytesTx) / ops);
    l.insert(
        "net.frames_per_wakeup",
        loop_frames / c(Counter::NetWakeup).max(1.0),
    );
    l.insert("net.frames_per_flush", loop_frames / loop_flushes);
    l.insert(
        "net.client_wait_share",
        wait_ns as f64 / (wall_s * 1e9).max(1.0),
    );
    l.insert(
        "net.handoff_p50_us",
        log2_quantile(&d.handoff_ns, 0.5) / 1e3,
    );
    l.insert(
        "net.handoff_p99_us",
        log2_quantile(&d.handoff_ns, 0.99) / 1e3,
    );
    l.insert("net.retries", c(Counter::NetRetry));
    l.insert("net.handoff_failed", c(Counter::NetHandoffFailed));
    l.insert("net.failsafe_denials", c(Counter::NetFailsafeDenial));
    let hits = c(Counter::CursorFastPathHit);
    let attempts = hits + c(Counter::CursorColdStart) + d.decline_total() as f64;
    l.insert("srac.cursor_hit_ratio", hits / attempts.max(1.0));
    l.insert(
        "srac.cursor_declines_per_op",
        d.decline_total() as f64 / ops,
    );
    l.insert("srac.cache_miss_per_op", c(Counter::CacheMiss) / ops);
}

/// The `decide` and `rollout` workloads.
fn run_fleet(args: &Args, vocab: &Vocab, with_rollouts: bool) -> Outcome {
    let f = Fleet::generate(args.seed);
    let mut tally = Tally::default();
    let every = with_rollouts.then_some(ROLLOUT_EVERY);
    let setups = if args.trace { 1 } else { FLEET_SETUPS };
    let mut setup_s = Vec::with_capacity(setups);
    let mut rig = None;
    for _ in 0..setups {
        drop(rig.take());
        let t0 = Instant::now();
        match fleet::setup(&f, vocab, &mut tally) {
            Ok(r) => rig = Some(r),
            Err(e) => return Err((e, tally)),
        }
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let mut rig = rig.expect("at least one set-up");
    let mut next = 0usize;
    let s = args.seconds;
    let desync0 = stacl_obs::snapshot().counter(Counter::EpochDesync);

    let mut r;
    if !args.trace {
        // Window-1 and window-64 slices alternate, so the two phases
        // see the same machine conditions.
        let mut off = Tracer::new(false);
        let (mut w1s, mut w64s) = (Slices::default(), Slices::default());
        let mut rollout_ms = Vec::new();
        let slice = s / SLICES as f64;
        for _ in 0..SLICES {
            let mut lat = Reservoir::new();
            let w1 = fleet::window1(
                &mut rig,
                &f,
                vocab,
                secs(0.3 * slice),
                every,
                &mut next,
                &mut lat,
                &mut tally,
                &mut off,
            );
            w1s.push(w1.ops, w1.secs, &lat);
            rollout_ms.extend(w1.rollout_ms);
            let mut lat = Reservoir::new();
            let p = fleet::pipelined(
                &mut rig,
                &f,
                vocab,
                WINDOW,
                secs(0.7 * slice),
                every,
                &mut next,
                &mut lat,
                &mut tally,
                &mut off,
            );
            w64s.push(p.ops, p.secs, &lat);
            rollout_ms.extend(p.rollout_ms);
        }
        check_desync(desync0, &mut tally);
        r = Report::new(tally);
        r.metric("setup_s", median(&setup_s), "s");
        r.metric("ops_per_s", w64s.rate(), "op/s");
        r.metric("p50_us", w64s.p50(), "us");
        r.metric("rtt_p50_us", w1s.p50(), "us");
        r.metric("peak_rss_mb", peak_rss_mb(), "MiB");
        r.facts.extend([
            // The tails and the rollout time: too host-bound to gate (see
            // WORKLOADS.md).
            ("p90_us", w64s.p90().to_string()),
            ("p99_us", w64s.p99().to_string()),
            ("rtt_p90_us", w1s.p90().to_string()),
            ("rtt_p99_us", w1s.p99().to_string()),
            ("slices", SLICES.to_string()),
            ("slices_window1", w1s.describe()),
            ("slices_window64", w64s.describe()),
            ("requests", next.to_string()),
            ("setups", setup_s.len().to_string()),
        ]);
        if with_rollouts {
            r.facts.extend([
                ("rollout_mean_ms", trimmed_mean(&rollout_ms).to_string()),
                ("rollouts", rollout_ms.len().to_string()),
                ("rollout_ms", format!("{rollout_ms:.2?}")),
            ]);
        }
    } else {
        let mut tr = Tracer::new(true);
        let mut off = Tracer::new(false);
        let mut rtt = Reservoir::new();
        let mut lat = Reservoir::new();
        fleet::window1(
            &mut rig,
            &f,
            vocab,
            secs(0.2 * s),
            every,
            &mut next,
            &mut rtt,
            &mut tally,
            &mut tr,
        );
        let plain = fleet::pipelined(
            &mut rig,
            &f,
            vocab,
            WINDOW,
            secs(0.25 * s),
            every,
            &mut next,
            &mut lat,
            &mut tally,
            &mut off,
        );
        let before = stacl_obs::snapshot();
        let traced = fleet::pipelined(
            &mut rig,
            &f,
            vocab,
            WINDOW,
            secs(0.25 * s),
            every,
            &mut next,
            &mut lat,
            &mut tally,
            &mut tr,
        );
        let d = stacl_obs::snapshot().diff(&before);
        check_desync(desync0, &mut tally);
        let mut l = Layers::new();
        wire_layers(
            &mut l,
            &d,
            traced.ops,
            traced.secs,
            traced.wait_ns,
            traced.requests,
            traced.client_flushes,
        );
        l.insert(
            "coalition.live_proofs",
            rig.handle.proofs().live_proof_total() as f64,
        );
        l.insert(
            "coalition.resident_objects",
            rig.handle.guard().resident_objects().len() as f64,
        );
        // No handoff runs on this workload's path; time the pull of some
        // of its objects to a second member instead.
        let before = stacl_obs::snapshot();
        if let Err(e) = fleet::handoff_probe(&rig, &f, &mut tally) {
            return Err((e, tally));
        }
        let d = stacl_obs::snapshot().diff(&before);
        l.insert(
            "net.handoff_p50_us",
            log2_quantile(&d.handoff_ns, 0.5) / 1e3,
        );
        l.insert(
            "net.handoff_p99_us",
            log2_quantile(&d.handoff_ns, 0.99) / 1e3,
        );
        drop(rig);
        l.extend(layers::replay_fleet(
            &f,
            vocab,
            gen::STREAM_LEN,
            &mut tr,
            &mut tally,
        ));
        self_times(&mut l, rtt.quantile(0.5), "op.decide", &tr);
        let plain_rate = plain.ops as f64 / plain.secs;
        let traced_rate = traced.ops as f64 / traced.secs;
        l.insert("trace.overhead_share", 1.0 - traced_rate / plain_rate);
        r = Report::new(tally);
        r.layers(&l);
        r.facts.extend([
            ("ops_per_s_untraced", plain_rate.to_string()),
            ("ops_per_s_traced", traced_rate.to_string()),
            ("replayed_requests", gen::STREAM_LEN.to_string()),
        ]);
        r.trace_json = Some(tr.to_json(SPANS_WRITTEN));
    }
    r.facts.extend([
        ("objects", gen::FLEET_OBJECTS.to_string()),
        (
            "rollout_every",
            every.map_or("none".to_string(), |n| n.to_string()),
        ),
    ]);
    Ok(r)
}

fn check_desync(before: u64, tally: &mut Tally) {
    let after = stacl_obs::snapshot().counter(Counter::EpochDesync);
    if after != before {
        tally.broke(format!("{} epoch.desync during the run", after - before));
    }
}

/// Self times along the blocking steps of one lone request: the wire
/// round trip minus the guard, the guard minus the gate, the gate, and
/// the load thread's own time around its calls.
fn self_times(l: &mut Layers, rtt_p50_us: f64, root: &str, tr: &Tracer) {
    let naplet = l.get("naplet.decide_ns_p50").copied().unwrap_or(0.0);
    let rbac = l.get("rbac.decide_ns_p50").copied().unwrap_or(0.0);
    l.insert("net.self_us", rtt_p50_us - naplet / 1e3);
    l.insert("naplet.self_ns", naplet - rbac);
    l.insert("rbac.self_ns", rbac);
    let own = tr.self_times().get(root).map_or(0.0, |v| median(v));
    l.insert("bench.client_self_us", own / 1e3);
}

/// The `itinerary` workload: fixed-work rounds (every hop of the seeded
/// itinerary) on a freshly set-up coalition, repeated until the run's
/// seconds are spent.
fn run_itinerary(args: &Args, vocab: &Vocab) -> Outcome {
    let it = Itinerary::generate(args.seed);
    let mut tally = Tally::default();
    let mut setup_s = Vec::new();
    let (mut hop, mut rtt) = (Slices::default(), Slices::default());
    let (mut hops, mut hop_secs) = (0u64, 0.0f64);
    let mut tr = Tracer::new(false);
    let mut traced_layers = Layers::new();
    let mut traced_rtt_p50 = 0.0;
    let mut rates = Vec::new();
    let mut rounds = 0;
    // A traced run makes two rounds, the second traced; an untraced run
    // makes rounds until its seconds of hops are spent.
    while if args.trace {
        rounds < 2
    } else {
        rounds == 0 || hop_secs < args.seconds
    } {
        let t0 = Instant::now();
        let mut rig = match itinerary::setup(&it, vocab) {
            Ok(r) => r,
            Err(e) => return Err((e, tally)),
        };
        setup_s.push(t0.elapsed().as_secs_f64());
        if args.trace && rounds == 1 {
            tr = Tracer::new(true);
        }
        let before = stacl_obs::snapshot();
        let out = itinerary::run_hops(&mut rig, &it, vocab, &mut tally, &mut tr);
        let d = stacl_obs::snapshot().diff(&before);
        rates.push(out.hops as f64 / out.secs);
        rounds += 1;
        if tr.on() {
            wire_layers(
                &mut traced_layers,
                &d,
                out.hops,
                out.secs,
                out.wait_ns,
                out.requests,
                0,
            );
            traced_layers.insert(
                "coalition.live_proofs",
                rig.handles
                    .iter()
                    .map(|h| h.proofs().live_proof_total())
                    .sum::<usize>() as f64,
            );
            traced_layers.insert(
                "coalition.resident_objects",
                rig.handles
                    .iter()
                    .map(|h| h.guard().resident_objects().len())
                    .sum::<usize>() as f64,
            );
            traced_rtt_p50 = out.rtt.p50();
        } else if !args.trace {
            hops += out.hops;
            hop_secs += out.secs;
            hop.extend(&out.hop);
            rtt.extend(&out.rtt);
        }
        if out.hops < it.hops.len() as u64 {
            break; // a failed round already counted its failure
        }
    }

    let mut r;
    if !args.trace {
        r = Report::new(tally);
        r.metric("setup_s", median(&setup_s), "s");
        r.metric("ops_per_s", hop.rate(), "op/s");
        r.metric("p50_us", hop.p50(), "us");
        r.metric("rtt_p50_us", rtt.p50(), "us");
        r.metric("peak_rss_mb", peak_rss_mb(), "MiB");
        r.facts.extend([
            ("rounds", rounds.to_string()),
            ("hops", hops.to_string()),
            ("p90_us", hop.p90().to_string()),
            ("p99_us", hop.p99().to_string()),
            ("rtt_p90_us", rtt.p90().to_string()),
            ("rtt_p99_us", rtt.p99().to_string()),
            ("slices", hop.len().to_string()),
            ("slices_hop", hop.describe()),
            ("slices_rtt", rtt.describe()),
            ("hops_per_slice", itinerary::CHUNK.to_string()),
        ]);
    } else {
        let mut l = traced_layers;
        l.extend(layers::replay_itinerary(&it, vocab, &mut tr, &mut tally));
        self_times(&mut l, traced_rtt_p50, "op.hop", &tr);
        let (plain, traced) = (rates[0], *rates.get(1).unwrap_or(&rates[0]));
        l.insert("trace.overhead_share", 1.0 - traced / plain);
        r = Report::new(tally);
        r.layers(&l);
        r.facts.extend([
            ("ops_per_s_untraced", plain.to_string()),
            ("ops_per_s_traced", traced.to_string()),
        ]);
        r.trace_json = Some(tr.to_json(SPANS_WRITTEN));
    }
    r.facts.extend([
        ("objects", gen::ITIN_OBJECTS.to_string()),
        ("hops_per_round", it.hops.len().to_string()),
        ("cap", gen::ITIN_CAP.to_string()),
    ]);
    Ok(r)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn passing_report() -> Report {
        let mut tally = Tally::default();
        tally.ok();
        Report::new(tally)
    }

    #[test]
    fn every_per_layer_metric_is_reported() {
        let mut r = passing_report();
        let l: Layers = PER_LAYER.iter().map(|&(n, _)| (n, 1.0)).collect();
        r.layers(&l);
        assert_eq!(r.metrics.len(), PER_LAYER.len());
        assert!(r.tally.correct());
    }

    #[test]
    fn a_missing_per_layer_metric_fails_the_run_instead_of_panicking() {
        // What a traced run sees when a failed round ends it early.
        let mut r = passing_report();
        let mut l = Layers::new();
        l.insert("net.encode_ns", 1.0);
        r.layers(&l);
        assert!(r.metrics.is_empty());
        assert!(!r.tally.correct());
    }
}
