//! `bench_net` — the E14 wire-overhead and E16 pipelining experiments
//! (DESIGN.md §11/§13, EXPERIMENTS.md E14/E16), emitted as
//! machine-readable JSON.
//!
//! Measures what the coalition protocol costs relative to calling the
//! guard in process. The same all-grant fleet workload runs four ways:
//!
//! | mode | path |
//! |---|---|
//! | `in-process`      | `CoordinatedGuard::decide` directly |
//! | `wire-sequential` | one `Decide2` round trip per decision over loopback TCP (window 1) |
//! | `wire-batch`      | one `DecideBatch2` frame per 32 time steps (all objects) |
//! | `wire-pipelined-wN` | E16: a window of N correlated `Decide2` frames in flight |
//!
//! The pipelined phase sweeps the window depth; the best window's
//! throughput lands in `ops_per_sec_wire_pipelined` / `pipeline_window`.
//!
//! Every mode is timed with `stacl_bench::measure` — repeated runs,
//! reported as the median ops/sec with its interquartile range
//! (`<key>_iqr`); the in-process mode runs each repetition on a fresh
//! guard. The report's `run` object records the grid, the repetitions
//! per mode, the core count and the git revision. The E18 placement
//! phase is one shot (`reps: 1`).
//!
//! All wire modes and all their repetitions share **one** daemon and
//! **one** vocabulary-synced connection — the realistic steady state,
//! where a member joins once and stays. The one-time connect +
//! vocabulary-sync cost is measured separately (`connect_sync_s`)
//! instead of being smeared into any mode's throughput.
//!
//! Telemetry runs for the wire modes, so the report also carries the
//! frame and byte counters — the per-decision wire footprint is
//! `bytes_tx / decisions` over the wire-sequential repetitions, which
//! quantifies the vocabulary-sync design (steady-state frames carry u32
//! ids, never names).
//!
//! Usage: `bench_net [--objects 32] [--accesses 500] [--out BENCH_net.json]`

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use stacl::coalition::Placement;
use stacl::obs::Counter;
use stacl::prelude::*;
use stacl_bench::measure::{field_run, field_spread, measure, quantile, round3, Spread};
use stacl_bench::{fleet_model, Fleet};
use stacl_ids::json::JsonWriter;
use stacl_net::{Client, DaemonConfig, DaemonHandle};

fn main() {
    let mut objects = 32usize;
    let mut accesses = 500usize;
    let mut placement_objects = 1_000_000usize;
    let mut placement_daemons = 8usize;
    let mut out = String::from("BENCH_net.json");

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
            "--placement-objects" => placement_objects = val.parse().expect("--placement-objects"),
            "--placement-daemons" => placement_daemons = val.parse().expect("--placement-daemons"),
            "--out" => out = val.clone(),
            _ => {
                eprintln!(
                    "unknown flag {key} (expected --objects/--accesses/--placement-objects/--placement-daemons/--out)"
                );
                std::process::exit(2);
            }
        }
        i += 2;
    }

    stacl::obs::set_telemetry(true);
    stacl::obs::reset();

    let fleet = Fleet::new(objects, accesses);
    let decisions = fleet.decisions();
    let mut modes: Vec<(String, Spread)> = Vec::new();

    let local = measure(|| {
        let guard = fleet.guard();
        let proofs = ProofStore::new();
        let mut table = fleet.table(0);
        let start = Instant::now();
        fleet.for_each(0..objects, |req| {
            let v = guard.decide(req, &proofs, &mut table);
            assert!(v.is_granted(), "fleet workload must be all-grant");
        });
        fleet.rate(start)
    });
    modes.push(("in-process".to_string(), local));

    // One daemon, one session: every wire mode reuses the same
    // vocabulary-synced connection, and the one-time join cost is
    // measured on its own.
    let mut handle = stacl_net::spawn(fleet.guard(), ProofStore::new(), DaemonConfig::new("bench"))
        .expect("bind loopback");
    let join = Instant::now();
    let mut client = Client::connect(handle.addr(), "bench-driver", Some(Duration::from_secs(10)))
        .expect("connect");
    client.sync_vocab(fleet.wire_names()).expect("vocab sync");
    let connect_sync_s = join.elapsed().as_secs_f64();

    let before_wire = stacl::obs::snapshot();
    let wire_seq = measure(|| {
        let start = Instant::now();
        fleet.for_each(0..objects, |req| {
            let rem = std::slice::from_ref(req.access);
            let v = client
                .decide(req.object, req.access, rem, req.time.seconds())
                .expect("decide");
            assert!(v.is_granted(), "fleet workload must be all-grant");
        });
        fleet.rate(start)
    });
    let wire_stats = stacl::obs::snapshot().diff(&before_wire);
    let wire_decisions = decisions * (wire_seq.n + 1);
    modes.push(("wire-sequential".to_string(), wire_seq));
    let wire_batch = measure(|| run_wire_batch(&mut client, &fleet));
    modes.push(("wire-batch".to_string(), wire_batch));

    // E16: sweep the pipeline window depth over the same workload.
    let windows = [16usize, 64, 256, 1024];
    let before_pipe = stacl::obs::snapshot();
    let sweep: Vec<Spread> = windows
        .iter()
        .map(|&win| measure(|| run_wire_pipelined(&mut client, win, &fleet)))
        .collect();
    let pipe_stats = stacl::obs::snapshot().diff(&before_pipe);
    for (win, s) in windows.iter().zip(&sweep) {
        modes.push((format!("wire-pipelined-w{win}"), *s));
    }
    drop(client);
    handle.shutdown();

    let (best_window, best) = windows
        .iter()
        .zip(&sweep)
        .max_by(|a, b| a.1.median.total_cmp(&b.1.median))
        .expect("non-empty sweep");

    let frames_tx = wire_stats.counter(Counter::NetFrameTx);
    let bytes_tx = wire_stats.counter(Counter::NetBytesTx);
    // Frames-per-wakeup and frames-per-flush over the whole pipelined
    // sweep: how much readiness batching and write coalescing the event
    // loop actually achieved.
    let wakeups = pipe_stats.counter(Counter::NetWakeup).max(1);
    let flushes = pipe_stats.counter(Counter::NetWriteFlush).max(1);
    let pipe_frames_rx = pipe_stats.counter(Counter::NetFrameRx);
    let pipe_frames_tx = pipe_stats.counter(Counter::NetFrameTx);

    let mut w = JsonWriter::object();
    w.field_str("experiment", "E14-wire-overhead");
    w.field_usize("objects", objects);
    w.field_usize("accesses_per_object", accesses);
    w.open_object("modes");
    for (name, s) in &modes {
        w.open_object(name);
        field_spread(&mut w, "ops_per_sec", Some(s));
        w.field_f64("elapsed_s", round3(decisions as f64 / s.median));
        w.field_usize("decisions", decisions);
        w.close();
    }
    w.close();
    field_spread(&mut w, "ops_per_sec_in_process", Some(&local));
    field_spread(&mut w, "ops_per_sec_wire", Some(&wire_seq));
    field_spread(&mut w, "ops_per_sec_wire_batch", Some(&wire_batch));
    field_spread(&mut w, "ops_per_sec_wire_pipelined", Some(best));
    w.field_usize("pipeline_window", *best_window);
    field_spread(&mut w, "overhead_x", Some(&local.over(&wire_seq)));
    field_spread(
        &mut w,
        "batch_recovery_x",
        Some(&wire_batch.over(&wire_seq)),
    );
    field_spread(&mut w, "pipeline_recovery_x", Some(&best.over(&wire_seq)));
    w.field_f64(
        "pipeline_frames_per_wakeup",
        round3(pipe_frames_rx as f64 / wakeups as f64),
    );
    w.field_f64(
        "pipeline_frames_per_flush",
        round3(pipe_frames_tx as f64 / flushes as f64),
    );
    w.field_f64("connect_sync_s", connect_sync_s);
    w.field_u64("frames_tx", frames_tx);
    w.field_u64("bytes_tx", bytes_tx);
    w.field_f64(
        "bytes_per_decision",
        round3(bytes_tx as f64 / wire_decisions as f64),
    );
    // E18: the million-object placement phase — custody pinned by the
    // rendezvous ring across a full coalition, decide throughput with the
    // whole population resident, churn drain rate and tail latency, and
    // the compaction-bounded proof memory proxy.
    run_placement(&mut w, placement_objects, placement_daemons);
    let mut reps: Vec<(String, usize)> = modes.iter().map(|(n, s)| (n.clone(), s.n)).collect();
    reps.push(("placement".to_string(), 1));
    field_run(
        &mut w,
        &format!(
            "{objects}x{accesses}, placement {placement_objects} objects / {placement_daemons} daemons"
        ),
        &reps,
    );
    let s = w.finish();

    std::fs::write(&out, &s).expect("write report");
    print!("{s}");
    eprintln!("wrote {out}");
}

/// E18: the million-object / 8-daemon placement phase.
///
/// * **Claims** — every one of `objects` custodies is computed from the
///   rendezvous ring (O(members), no broadcast) and claimed on its home
///   daemon; `claims_per_sec` is that placement rate.
/// * **Steady state** — a hot set of objects decides over the wire at
///   their ring homes, replicating one proof per grant, with
///   watermark-based compaction sealing consumed prefixes
///   (`ops_per_sec_1m_objects` counts decisions; the measured loop also
///   carries the proof traffic).
/// * **Churn** — the last member leaves and rejoins; only the keys whose
///   home moved drain through the rebalance pull. `handoff_rate` is
///   drained keys per second, and `p99_us_churn` is the tail of
///   fail-safe decide latency sampled *during* the drains (in-flight
///   custody resolves to the counted `DeniedCoordination`, never a hang).
/// * **Proof memory** — `live_proof_count` (unsealed proofs summed over
///   members) is the RSS proxy; the phase asserts it stays under 2× the
///   live-cursor working set (`hot × compact_after`, the window the
///   warm cursors are configured to need).
///
/// Writes the full detail as the nested `placement` object of `w`, then
/// the schema-checked headline keys at top level.
fn run_placement(w: &mut JsonWriter, objects: usize, daemons: usize) {
    assert!(daemons >= 2, "the churn phase needs a member to leave");
    let fleet = Fleet::new(512.min(objects), 192);
    let (hot, steps) = (fleet.objects, fleet.accesses);
    let compact_after = 64usize;

    // Members: identical hot-set policy replicas, custody enforced,
    // compaction on. The at_most cap compiles to a counting automaton
    // (one state per count), so size it to the per-object history it
    // must admit — each hot object accrues `steps` proofs.
    let mut handles: Vec<DaemonHandle> = Vec::with_capacity(daemons);
    for i in 0..daemons {
        let guard = fleet.enroll(ExtendedRbac::new(fleet_model(hot, "rsw", 2 * steps + 2)));
        guard.set_custody_enforcement(true);
        let mut cfg = DaemonConfig::new(format!("d{i}"));
        cfg.compact_after = compact_after;
        handles.push(stacl_net::spawn(guard, ProofStore::new(), cfg).expect("bind loopback"));
    }
    let peers: Vec<(String, SocketAddr)> = handles
        .iter()
        .map(|h| (h.name().to_string(), h.addr()))
        .collect();
    for h in &handles {
        for (n, a) in &peers {
            if n != h.name() {
                h.add_peer(n, *a);
            }
        }
        h.set_members(&peers);
    }
    let ring = Placement::new(peers.iter().map(|(n, _)| n.clone()));
    let member_idx = |m: &str| -> usize {
        peers
            .iter()
            .position(|(n, _)| n == m)
            .expect("home comes from the peer ring")
    };

    // Phase 1: place and claim the full population. The same
    // ring-validated call the daemon's arrival path makes, driven
    // in-process so the rate measures placement, not 1M TCP round trips.
    let leaver = daemons - 1;
    let mut on_leaver = 0usize;
    let start = Instant::now();
    for k in 0..objects {
        let name = format!("n{k}");
        let d = member_idx(ring.home_of(&name).expect("nonempty ring"));
        handles[d]
            .guard()
            .take_custody(&name)
            .expect("ring-valid claim");
        if d == leaver {
            on_leaver += 1;
        }
    }
    let claims_per_sec = objects as f64 / start.elapsed().as_secs_f64();
    eprintln!("placement: claimed {objects} custodies ({claims_per_sec:.0}/s), {on_leaver} on the churn leaver");

    // One vocabulary-synced client per member; the hot names group by
    // their ring home.
    let timeout = Some(Duration::from_secs(10));
    let mut clients: Vec<Client> = Vec::with_capacity(daemons);
    for h in &handles {
        let mut c = Client::connect(h.addr(), "bench-placement", timeout).expect("connect");
        c.sync_vocab(fleet.wire_names()).expect("vocab sync");
        clients.push(c);
    }
    let mut hot_by_home: Vec<Vec<&str>> = vec![Vec::new(); daemons];
    for name in &fleet.names {
        hot_by_home[member_idx(ring.home_of(name).expect("nonempty ring"))].push(name);
    }

    // Phase 2: steady-state decide throughput at ring homes — one proof
    // replicated per grant (that's what compaction bounds), one batched
    // decide frame per time step per member.
    let decisions = fleet.decisions();
    let start = Instant::now();
    for k in 0..steps {
        let (a, _) = fleet.step(k);
        let rem = std::slice::from_ref(a);
        for (d, names) in hot_by_home.iter().enumerate() {
            if names.is_empty() {
                continue;
            }
            for obj in names {
                clients[d].issue_proof(obj, a, k as f64).expect("proof");
            }
            let items: Vec<(&str, &Access, &[Access], f64)> =
                names.iter().map(|obj| (*obj, a, rem, k as f64)).collect();
            for v in clients[d].decide_batch(&items).expect("batch decide") {
                assert!(v.is_granted(), "placement workload must be all-grant");
            }
        }
    }
    let ops_per_sec = decisions as f64 / start.elapsed().as_secs_f64();
    eprintln!("placement: {decisions} decisions at ring homes ({ops_per_sec:.0}/s)");

    // Phase 3: churn. The last member leaves (draining exactly the keys
    // it homed) and rejoins (pulling them back); fail-safe decide latency
    // is sampled concurrently at the current ring homes.
    let before = stacl::obs::snapshot();
    let expected = (2 * on_leaver) as u64;
    let mut latencies_us: Vec<f64> = Vec::new();
    let t0 = Instant::now();
    let left = peers[..leaver].to_vec();
    for h in &handles {
        h.set_members(&left);
    }
    let ring_left = Placement::new(left.iter().map(|(n, _)| n.clone()));
    let mut rejoined = false;
    let mut s = 0usize;
    loop {
        let obj = &fleet.names[s % hot];
        let r = if rejoined { &ring } else { &ring_left };
        let d = member_idx(r.home_of(obj).expect("nonempty ring"));
        let (a, _) = fleet.step(s);
        let t = Instant::now();
        let _ = clients[d].decide_failsafe(obj, a, std::slice::from_ref(a), steps as f64);
        latencies_us.push(t.elapsed().as_secs_f64() * 1e6);
        s += 1;

        let applied = stacl::obs::snapshot()
            .diff(&before)
            .counter(Counter::NetHandoffApplied);
        if !rejoined && applied >= expected / 2 {
            // Leave drain complete: rejoin, draining the keys back.
            for h in &handles {
                h.set_members(&peers);
            }
            rejoined = true;
        } else if rejoined && applied >= expected {
            break;
        }
        if s.is_multiple_of(50_000) {
            let d = stacl::obs::snapshot().diff(&before);
            eprintln!(
                "placement: churn sample {s}, applied {applied}/{expected}, failed {}, retry {}, rebalance {}, rejoined={rejoined}",
                d.counter(Counter::NetHandoffFailed),
                d.counter(Counter::NetRetry),
                d.counter(Counter::PlacementRebalance),
            );
        }
        assert!(
            t0.elapsed() < Duration::from_secs(600),
            "churn drain stalled: {applied}/{expected} handoffs after {s} samples"
        );
    }
    let churn_elapsed_s = t0.elapsed().as_secs_f64();
    eprintln!("placement: churn drained {expected} handoffs in {churn_elapsed_s:.1}s");
    let handoffs = stacl::obs::snapshot()
        .diff(&before)
        .counter(Counter::NetHandoffApplied);
    latencies_us.sort_by(f64::total_cmp);

    // Phase 4: the RSS proxy. Unsealed proofs across all members against
    // the configured live-cursor working set — the acceptance bound.
    let live_proof_count: usize = handles.iter().map(|h| h.proofs().live_proof_total()).sum();
    let live_cursor_working_set = hot * compact_after;
    assert!(
        live_proof_count < 2 * live_cursor_working_set,
        "compaction failed to bound proof memory: {live_proof_count} live vs working set {live_cursor_working_set}"
    );

    drop(clients);
    for mut h in handles {
        h.shutdown();
    }

    let handoff_rate = handoffs as f64 / churn_elapsed_s;
    let p99_us_churn = quantile(&latencies_us, 0.99);
    w.open_object("placement");
    w.field_usize("objects", objects);
    w.field_usize("daemons", daemons);
    w.field_usize("hot_objects", hot);
    w.field_usize("steps", steps);
    w.field_usize("compact_after", compact_after);
    w.field_f64("claims_per_sec", round3(claims_per_sec));
    w.field_f64("ops_per_sec", round3(ops_per_sec));
    w.field_usize("decisions", decisions);
    w.field_f64("p50_us_churn", round3(quantile(&latencies_us, 0.50)));
    w.field_f64("p99_us_churn", round3(p99_us_churn));
    w.field_usize("churn_samples", latencies_us.len());
    w.field_u64("handoffs", handoffs);
    w.field_f64("churn_elapsed_s", round3(churn_elapsed_s));
    w.field_f64("handoff_rate", round3(handoff_rate));
    w.field_usize("proofs_issued", decisions);
    w.field_usize("live_proof_count", live_proof_count);
    w.field_usize("live_cursor_working_set", live_cursor_working_set);
    w.field_f64(
        "live_to_working_set_x",
        round3(live_proof_count as f64 / live_cursor_working_set.max(1) as f64),
    );
    w.close();
    w.field_f64("ops_per_sec_1m_objects", round3(ops_per_sec));
    w.field_f64("p99_us_churn", round3(p99_us_churn));
    w.field_f64("handoff_rate", round3(handoff_rate));
    w.field_usize("live_proof_count", live_proof_count);
}

/// One `DecideBatch2` frame per 32 time steps (all objects): batching
/// exists to amortize the round trip and the per-frame codec work, so a
/// realistic client coalesces aggressively. Returns ops/sec.
fn run_wire_batch(client: &mut Client, fleet: &Fleet) -> f64 {
    const STEPS_PER_FRAME: usize = 32;
    let start = Instant::now();
    for k0 in (0..fleet.accesses).step_by(STEPS_PER_FRAME) {
        let items: Vec<(&str, &Access, &[Access], f64)> = (k0..(k0 + STEPS_PER_FRAME)
            .min(fleet.accesses))
            .flat_map(|k| {
                let (a, _) = fleet.step(k);
                fleet
                    .names
                    .iter()
                    .map(move |obj| (obj.as_str(), a, std::slice::from_ref(a), k as f64))
            })
            .collect();
        for v in client.decide_batch(&items).expect("batch decide") {
            assert!(v.is_granted(), "fleet workload must be all-grant");
        }
    }
    fleet.rate(start)
}

/// E16: drive the workload through a pipelined window of correlated
/// `Decide2` frames, claiming completions as they land. The submit path
/// applies backpressure when the window fills, so in-flight depth never
/// exceeds `window`. Returns ops/sec.
fn run_wire_pipelined(client: &mut Client, window: usize, fleet: &Fleet) -> f64 {
    let start = Instant::now();
    let mut granted = 0usize;
    let mut p = client.pipeline(window).expect("pipeline");
    fleet.for_each(0..fleet.objects, |req| {
        let rem = std::slice::from_ref(req.access);
        p.submit(req.object, req.access, rem, req.time.seconds())
            .expect("pipelined submit");
        for (_, v) in p.take() {
            assert!(v.is_granted(), "fleet workload must be all-grant");
            granted += 1;
        }
    });
    for (_, v) in p.finish().expect("pipeline drain") {
        assert!(v.is_granted(), "fleet workload must be all-grant");
        granted += 1;
    }
    assert_eq!(granted, fleet.decisions(), "every request must resolve");
    fleet.rate(start)
}
