//! The `decide` and `rollout` load generators: one daemon, a fleet of enrolled
//! objects with seeded histories, closed-loop `Decide2` traffic and
//! count-scheduled policy rollouts on a second connection.

use std::time::{Duration, Instant};

use stacl_coalition::ProofStore;
use stacl_naplet::guard::{CoordinatedGuard, EnforcementMode};
use stacl_net::{Client, DaemonConfig, DaemonHandle};
use stacl_rbac::policy::parse_policy;
use stacl_rbac::ExtendedRbac;

use crate::gen::{Fleet, Vocab, OP_EXEC, SERVERS};
use crate::spans::Tracer;
use crate::stats::Reservoir;
use crate::tally::Tally;

/// Client I/O timeout: a stalled daemon fails the run instead of hanging it.
pub const IO_TIMEOUT: Duration = Duration::from_secs(20);

/// Time step between requests (seconds of modelled time).
const TICK: f64 = 1e-4;

/// A running fleet daemon with its data and control connections.
pub struct FleetRig {
    /// The daemon.
    pub handle: DaemonHandle,
    /// The decide connection.
    pub client: Client,
    /// The policy-rollout connection.
    pub ctl: Client,
    /// The active policy epoch.
    pub epoch: u64,
    /// Modelled time of the next request.
    pub clock: f64,
    /// The two rollout policies; epoch `e` of the `rollout` workload runs
    /// `policies[e % 2]`.
    pub policies: [String; 2],
}

/// Spawn a reactive guard daemon for `policy`, with the production
/// default daemon config.
pub fn spawn(policy: &str, name: &str, custody: bool) -> Result<DaemonHandle, String> {
    let model = parse_policy(policy).map_err(|e| format!("policy: {e}"))?;
    let guard =
        CoordinatedGuard::new(ExtendedRbac::new(model)).with_mode(EnforcementMode::Reactive);
    guard.set_custody_enforcement(custody);
    stacl_net::spawn(guard, ProofStore::new(), DaemonConfig::new(name))
        .map_err(|e| format!("spawn {name}: {e}"))
}

/// Set-up: spawn, policy load, vocabulary sync, enrolment, history
/// seeding through `IssueProof`, and one warm-up decide per object so
/// every cursor is warm mid-automaton before the first measured request.
pub fn setup(f: &Fleet, vocab: &Vocab, tally: &mut Tally) -> Result<FleetRig, String> {
    let policies = [f.policy(0), f.policy(1)];
    let handle = spawn(&policies[0], "d0", false)?;
    let mut client = Client::connect(handle.addr(), "coalbench", Some(IO_TIMEOUT))
        .map_err(|e| format!("connect: {e}"))?;
    let names = vocab.names();
    client
        .sync_vocab(
            f.objects
                .iter()
                .map(String::as_str)
                .chain(["licensee", "capped"])
                .chain(names.iter().map(String::as_str)),
        )
        .map_err(|e| format!("vocab: {e}"))?;
    for (i, o) in f.objects.iter().enumerate() {
        client
            .enroll(o, &[f.role(i)])
            .map_err(|e| format!("enroll {o}: {e}"))?;
    }
    for (o, hist) in f.objects.iter().zip(&f.history) {
        for (j, &s) in hist.iter().enumerate() {
            let a = &vocab.accesses[Vocab::index(false, s)];
            client
                .issue_proof(o, a, 0.5 * (j + 1) as f64 / hist.len() as f64)
                .map_err(|e| format!("seed {o}: {e}"))?;
        }
    }
    let mut clock = 1.0;
    for (i, o) in f.objects.iter().enumerate() {
        let k = Vocab::index(false, (i % SERVERS) as u8);
        let v = client
            .decide(o, &vocab.accesses[k], &vocab.remaining[k], clock)
            .map_err(|e| format!("warm {o}: {e}"))?;
        let want = if f.capped[i] {
            stacl_coalition::DecisionKind::DeniedSpatial
        } else {
            stacl_coalition::DecisionKind::Granted
        };
        if v.kind != want {
            tally.broke(format!("warm-up {o} {OP_EXEC}: got {}", v.kind.label()));
        }
        clock += TICK;
    }
    let ctl = Client::connect(handle.addr(), "coalbench-ctl", Some(IO_TIMEOUT))
        .map_err(|e| format!("connect ctl: {e}"))?;
    Ok(FleetRig {
        handle,
        client,
        ctl,
        epoch: 0,
        clock,
        policies,
    })
}

/// Objects whose custody the traced run pulls off the fleet daemon.
pub const PROBE_HANDOFFS: usize = 64;

/// Pull [`PROBE_HANDOFFS`] of the fleet's objects from the fleet daemon
/// into a fresh custody-enforcing member over the wire (`Arrive` with
/// `from = d0`), so the handoff layer is also measured on this
/// workload's state: warm cursors, short histories, a small licence.
pub fn handoff_probe(rig: &FleetRig, f: &Fleet, tally: &mut Tally) -> Result<(), String> {
    let probe = spawn(&rig.policies[(rig.epoch % 2) as usize], "d1", true)?;
    probe.add_peer(rig.handle.name(), rig.handle.addr());
    let mut c = Client::connect(probe.addr(), "coalbench-probe", Some(IO_TIMEOUT))
        .map_err(|e| format!("connect probe: {e}"))?;
    for (i, o) in f.objects.iter().take(PROBE_HANDOFFS).enumerate() {
        c.enroll(o, &[f.role(i)])
            .map_err(|e| format!("enroll {o} on probe: {e}"))?;
        match c.arrive(o, rig.clock, Some(rig.handle.name())) {
            Ok(()) => tally.ok(),
            Err(e) => tally.fail(format!("pull {o} from {}: {e}", rig.handle.name())),
        }
    }
    Ok(())
}

/// One measured phase's results.
#[derive(Default)]
pub struct PhaseOut {
    /// Verdicts completed.
    pub ops: u64,
    /// Wall time of the phase, s.
    pub secs: f64,
    /// Rollout round trips (prepare + activate), ms.
    pub rollout_ms: Vec<f64>,
    /// Load-thread time blocked on replies, ns (traced runs only).
    pub wait_ns: u64,
    /// Request frames the load thread sent.
    pub requests: u64,
    /// Pipelined write flushes the load thread issued.
    pub client_flushes: u64,
}

/// Roll the daemon to `policy` at the next epoch over the control
/// connection: `PolicyPrepare` then `PolicyActivate`, asserting the
/// acknowledged epochs. Returns the round trip in ms.
pub fn rollout(ctl: &mut Client, epoch: &mut u64, policy: &str, tally: &mut Tally) -> Option<f64> {
    let next = *epoch + 1;
    let t0 = Instant::now();
    let res = ctl
        .policy_prepare(next, policy, &[])
        .and_then(|e| Ok((e, ctl.policy_activate(next)?)));
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    match res {
        Ok((p, a)) if p == next && a == next => {
            *epoch = next;
            tally.ok();
            Some(ms)
        }
        Ok((p, a)) => {
            tally.fail(format!(
                "rollout to {next} acknowledged prepare {p}, activate {a}"
            ));
            None
        }
        Err(e) => {
            tally.fail(format!("rollout to {next}: {e}"));
            None
        }
    }
}

/// The window-1 phase: each request waits for its verdict before the
/// next is sent — what one lone object waits. Latencies (µs) go to `lat`. With `rollout_every`, a
/// rollout runs after every that many requests of the run.
#[allow(clippy::too_many_arguments)]
pub fn window1(
    rig: &mut FleetRig,
    f: &Fleet,
    vocab: &Vocab,
    dur: Duration,
    rollout_every: Option<u64>,
    next: &mut usize,
    lat: &mut Reservoir,
    tally: &mut Tally,
    tr: &mut Tracer,
) -> PhaseOut {
    let mut out = PhaseOut::default();
    let FleetRig {
        client,
        ctl,
        epoch,
        clock,
        policies,
        ..
    } = rig;
    let mut p = match client.pipeline(1) {
        Ok(p) => p,
        Err(e) => {
            tally.fail(format!("pipeline: {e}"));
            return out;
        }
    };
    let start = Instant::now();
    'run: while start.elapsed() < dur {
        for _ in 0..64 {
            let r = f.stream[*next % f.stream.len()];
            *next += 1;
            let (o, k) = (&f.objects[r.object as usize], r.access as usize);
            let op = tr.begin("op.decide", 0, out.ops);
            let rt = tr.begin("net.roundtrip", op, out.ops);
            let t0 = Instant::now();
            let got = p
                .submit(o, &vocab.accesses[k], &vocab.remaining[k], *clock)
                .and_then(|_| p.recv_some());
            let dt = t0.elapsed();
            tr.end(rt);
            *clock += TICK;
            out.requests += 1;
            out.client_flushes += 1;
            match got {
                Ok(vs) if vs.len() == 1 => {
                    lat.push(dt.as_secs_f64() * 1e6);
                    out.wait_ns += dt.as_nanos() as u64;
                    tally.verdict(&vs[0].1, r.expect, o);
                }
                Ok(vs) => tally.fail(format!("window-1 returned {} verdicts", vs.len())),
                Err(e) => {
                    tally.fail(format!("decide {o}: {e}"));
                    break 'run;
                }
            }
            tr.end(op);
            out.ops += 1;
            if rollout_every.is_some_and(|n| (*next as u64).is_multiple_of(n)) {
                let id = tr.begin("net.rollout", 0, out.ops);
                out.rollout_ms.extend(rollout(
                    ctl,
                    epoch,
                    &policies[(*epoch as usize + 1) % 2],
                    tally,
                ));
                tr.end(id);
                out.requests += 2;
            }
        }
    }
    out.secs = start.elapsed().as_secs_f64();
    out
}

/// The pipelined phase: a window of `window` correlated `Decide2`
/// requests in flight, a new request submitted as soon as one completes.
/// Latencies (µs, submit to completion) go to `lat`.
#[allow(clippy::too_many_arguments)]
pub fn pipelined(
    rig: &mut FleetRig,
    f: &Fleet,
    vocab: &Vocab,
    window: usize,
    dur: Duration,
    rollout_every: Option<u64>,
    next: &mut usize,
    lat: &mut Reservoir,
    tally: &mut Tally,
    tr: &mut Tracer,
) -> PhaseOut {
    const SLOTS: usize = 1024;
    assert!(window < SLOTS);
    let mut out = PhaseOut::default();
    let FleetRig {
        client,
        ctl,
        epoch,
        clock,
        policies,
        ..
    } = rig;
    let mut p = match client.pipeline(window) {
        Ok(p) => p,
        Err(e) => {
            tally.fail(format!("pipeline: {e}"));
            return out;
        }
    };
    let traced = tr.on();
    // In-flight bookkeeping by request id: submit instant, expected
    // kind, request index and span handle.
    let mut slots: Vec<Slot> =
        vec![(Instant::now(), stacl_coalition::DecisionKind::Granted, 0, 0); SLOTS];
    let mut submitted = 0u64;
    let mut queued = false;
    let start = Instant::now();
    let mut ops = 0u64;
    'run: while start.elapsed() < dur {
        for _ in 0..256 {
            let i = *next % f.stream.len();
            let r = f.stream[i];
            *next += 1;
            let (o, k) = (&f.objects[r.object as usize], r.access as usize);
            let blocking = p.in_flight() >= window;
            let w0 = if traced && blocking {
                Some(Instant::now())
            } else {
                None
            };
            if blocking && queued {
                out.client_flushes += 1;
            }
            let id = match p.submit(o, &vocab.accesses[k], &vocab.remaining[k], *clock) {
                Ok(id) => id,
                Err(e) => {
                    tally.fail(format!("submit {o}: {e}"));
                    break 'run;
                }
            };
            queued = true;
            if let Some(w0) = w0 {
                let d = w0.elapsed();
                out.wait_ns += d.as_nanos() as u64;
                tr.record("client.wait", 0, submitted, d.as_nanos() as u64);
            }
            *clock += TICK;
            out.requests += 1;
            let span = tr.begin("net.decide2", 0, submitted);
            slots[id as usize % SLOTS] = (Instant::now(), r.expect, i, span);
            submitted += 1;
            claim(p.take(), &slots, lat, f, tally, tr, &mut ops);
            if rollout_every.is_some_and(|n| (*next as u64).is_multiple_of(n)) {
                let id = tr.begin("net.rollout", 0, submitted);
                out.rollout_ms.extend(rollout(
                    ctl,
                    epoch,
                    &policies[(*epoch as usize + 1) % 2],
                    tally,
                ));
                tr.end(id);
                out.requests += 2;
            }
        }
    }
    let w0 = Instant::now();
    if queued {
        out.client_flushes += 1;
    }
    match p.finish() {
        Ok(done) => claim(done, &slots, lat, f, tally, tr, &mut ops),
        Err(e) => tally.fail(format!("drain: {e}")),
    }
    out.wait_ns += w0.elapsed().as_nanos() as u64;
    out.secs = start.elapsed().as_secs_f64();
    out.ops = ops;
    out
}

/// In-flight request: submit instant, expected kind, stream index, span.
type Slot = (Instant, stacl_coalition::DecisionKind, usize, u32);

/// Account completions: latency from submit, verdict against the oracle.
fn claim(
    done: Vec<(u64, stacl_coalition::Verdict)>,
    slots: &[Slot],
    lat: &mut Reservoir,
    f: &Fleet,
    tally: &mut Tally,
    tr: &mut Tracer,
    ops: &mut u64,
) {
    if done.is_empty() {
        return;
    }
    let now = Instant::now();
    for (id, v) in done {
        let (t0, want, idx, span) = slots[id as usize % slots.len()];
        lat.push(now.duration_since(t0).as_secs_f64() * 1e6);
        tr.end(span);
        tally.verdict(&v, want, &f.objects[f.stream[idx].object as usize]);
        *ops += 1;
    }
}
