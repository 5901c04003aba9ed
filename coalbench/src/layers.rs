//! The traced per-layer replay: a workload's recorded inputs driven
//! in process through each layer's public calls, each call timed from
//! outside (`net` codec, `naplet` guard, `rbac` gate and epochs, `srac`
//! compile, `temporal` state, `coalition` proof store).

use std::collections::BTreeMap;
use std::time::Instant;

use stacl_coalition::{DecisionKind, ProofStore, Verdict};
use stacl_naplet::guard::{CoordinatedGuard, EnforcementMode, GuardRequest};
use stacl_net::frames::{kind_to_u8, DecideItem, HandoffWire, WireAccess};
use stacl_net::{wire, Frame};
use stacl_rbac::policy::parse_policy;
use stacl_rbac::{AccessRequest, ExtendedRbac, SessionId};
use stacl_srac::compile::compile;
use stacl_srac::parser::parse_constraint;
use stacl_srac::SymbolClasses;
use stacl_sral::{Access, Program};
use stacl_temporal::{BaseTimeScheme, TimePoint};
use stacl_trace::AccessTable;

use crate::gen::{Fleet, Itinerary, Vocab, FLEET_CAP, ITIN_CAP, RESOURCE, SELECTORS};
use crate::spans::Tracer;
use crate::stats::{median, quantile};
use crate::tally::Tally;

/// Per-layer metric values by name.
pub type Layers = BTreeMap<&'static str, f64>;

/// Objects migrated between replicas in the fleet replay.
const FLEET_MIGRATIONS: usize = 256;
/// Repetitions of the policy and compile timings.
const REPS: usize = 5;

/// A replica member: guard, proof store and decide table.
struct Replica {
    guard: CoordinatedGuard,
    proofs: ProofStore,
    table: AccessTable,
}

fn replica(policy: &str, enrol: impl Iterator<Item = (String, &'static str)>) -> Replica {
    let model = parse_policy(policy).expect("generated policy parses");
    let guard =
        CoordinatedGuard::new(ExtendedRbac::new(model)).with_mode(EnforcementMode::Reactive);
    for (o, role) in enrol {
        guard.enroll(o, [role]);
    }
    let mut table = AccessTable::new();
    guard.with_rbac_read(|r| r.saturate_alphabet(&mut table));
    Replica {
        guard,
        proofs: ProofStore::new(),
        table,
    }
}

/// A standalone `rbac` gate with one open session per object.
struct Gate {
    rbac: ExtendedRbac,
    sessions: Vec<SessionId>,
    table: AccessTable,
}

fn gate(policy: &str, objects: &[String], role: impl Fn(usize) -> &'static str) -> Gate {
    let mut rbac = ExtendedRbac::new(parse_policy(policy).expect("generated policy parses"));
    let sessions = objects
        .iter()
        .enumerate()
        .map(|(i, o)| {
            let sid = rbac.open_session(o, vec![]).expect("user is in the policy");
            rbac.activate_role(sid, role(i)).expect("role is assigned");
            sid
        })
        .collect();
    let mut table = AccessTable::new();
    rbac.saturate_alphabet(&mut table);
    Gate {
        rbac,
        sessions,
        table,
    }
}

fn ns(t0: Instant) -> f64 {
    t0.elapsed().as_nanos() as f64
}

/// Seed `hist` into every store, timing each `ProofStore::issue`.
fn seed(stores: &[&ProofStore], o: &str, hist: &[u8], vocab: &Vocab, issue_ns: &mut Vec<f64>) {
    for (j, &s) in hist.iter().enumerate() {
        let a = &vocab.accesses[Vocab::index(false, s)];
        let t = TimePoint::new(0.5 * (j + 1) as f64 / hist.len() as f64);
        for p in stores {
            let t0 = Instant::now();
            p.issue(o, a.clone(), t);
            issue_ns.push(ns(t0));
        }
    }
}

/// Encoded `HandoffState` frame size for an export, as the daemon ships it.
fn handoff_bytes(o: &str, h: &stacl_naplet::guard::ObjectHandoff, proofs: &ProofStore) -> f64 {
    let sender_clock = h.gate.arrivals.last().map_or(0.0, |t| t.seconds());
    let state = HandoffWire::from_handoff(
        h,
        proofs.watermark_of(o) as u64,
        proofs.compaction_base(o) as u64,
        sender_clock,
        0.0,
    );
    (Frame::HandoffState {
        object: o.to_string(),
        state,
    }
    .encode()
    .len()
        + 4) as f64
}

/// Import a handoff the way the daemon's pull path does: import, then
/// warm the spatial cursors from the local proof store with a fresh
/// table. Returns (import ns, warm ns).
fn import(dst: &Replica, o: &str, h: &stacl_naplet::guard::ObjectHandoff) -> (f64, f64) {
    let t0 = Instant::now();
    dst.guard.import_object(o, h).expect("replica import");
    let import_ns = ns(t0);
    let t0 = Instant::now();
    dst.guard.with_rbac(|r| {
        let mut t = AccessTable::new();
        r.saturate_alphabet(&mut t);
        for (perm, _) in &h.gate.cursor_seeds {
            let _ = r.warm_cursor(o, perm, &dst.proofs, &mut t);
        }
    });
    (import_ns, ns(t0))
}

/// `parse_policy`, `prepare_epoch` and `activate_epoch` on the rollout
/// policies, alternating them for [`REPS`] epochs.
fn epochs(r: &mut Replica, policies: &[String; 2], out: &mut Layers) {
    let (mut parse, mut prepare, mut activate) = (vec![], vec![], vec![]);
    let first = r.guard.with_rbac_read(|g| g.epoch()) + 1;
    for e in first..first + REPS as u64 {
        let t0 = Instant::now();
        let model = parse_policy(&policies[(e % 2) as usize]).expect("generated policy parses");
        parse.push(ns(t0));
        let t0 = Instant::now();
        let table = &mut r.table;
        let prepared = r
            .guard
            .with_rbac_read(|g| {
                g.prepare_epoch(model, Vec::<(String, f64, BaseTimeScheme)>::new(), e, table)
            })
            .expect("fresh epoch prepares");
        prepare.push(ns(t0));
        let t0 = Instant::now();
        r.guard
            .with_rbac(|g| g.activate_epoch(prepared))
            .expect("prepared epoch activates");
        activate.push(ns(t0));
    }
    out.insert("rbac.parse_policy_ms", median(&parse) / 1e6);
    out.insert("rbac.prepare_ms", median(&prepare) / 1e6);
    out.insert("rbac.activate_us", median(&activate) / 1e3);
}

/// `srac::compile::compile` (over the constraint's symbol classes, then
/// minimised and canonicalised, as the constraint cache does) of the
/// workload's licence constraint.
fn compile_ms(cap: usize, table: &AccessTable, out: &mut Layers) {
    let c = parse_constraint(&format!("count(0, {cap}, {})", SELECTORS[0]))
        .expect("licence constraint parses");
    let mut v = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let t0 = Instant::now();
        let classes = SymbolClasses::for_constraint(&c, table);
        let dfa = compile(&c, &classes.alphabet(), table)
            .minimize()
            .canonicalize();
        std::hint::black_box(dfa);
        v.push(ns(t0));
    }
    out.insert("srac.compile_ms", median(&v) / 1e6);
}

/// Frame codec cost per operation: encode (`Frame::encode` +
/// `wire::put_frame`) and decode (`Frame::decode`) of one `Decide2`
/// request and its `Verdict2` reply.
fn codec(items: &[(DecideItem, Verdict)], out: &mut Layers) {
    let requests: Vec<Frame> = items
        .iter()
        .enumerate()
        .map(|(i, (item, _))| Frame::Decide2 {
            id: i as u64,
            item: item.clone(),
        })
        .collect();
    let replies: Vec<Frame> = items
        .iter()
        .enumerate()
        .map(|(i, (_, v))| Frame::Verdict2 {
            id: i as u64,
            kind: kind_to_u8(v.kind),
            epoch: v.epoch,
            reason: v.reason.clone(),
        })
        .collect();
    let mut buf = Vec::with_capacity(256);
    let mut payloads = Vec::with_capacity(2 * items.len());
    let t0 = Instant::now();
    for f in requests.iter().chain(&replies) {
        buf.clear();
        let p = f.encode();
        wire::put_frame(&mut buf, &p).expect("frame fits");
        std::hint::black_box(&buf);
        payloads.push(p);
    }
    let enc = ns(t0);
    let t0 = Instant::now();
    for p in &payloads {
        std::hint::black_box(Frame::decode(p).expect("round trip"));
    }
    let dec = ns(t0);
    let n = items.len().max(1) as f64;
    out.insert("net.encode_ns", enc / n);
    out.insert("net.decode_ns", dec / n);
}

fn wire_item(object: u32, k: usize, time: f64) -> DecideItem {
    // Ids as a synced client would assign them: objects first, then the
    // vocabulary names (op, resource, servers).
    let a = WireAccess {
        op: 10_000 + (k / crate::gen::SERVERS) as u32,
        resource: 10_002,
        server: 10_003 + (k % crate::gen::SERVERS) as u32,
    };
    DecideItem {
        object,
        time,
        access: a.clone(),
        remaining: vec![a],
    }
}

fn record_all(tr: &mut Tracer, name: &'static str, v: &[f64]) {
    for (i, d) in v.iter().enumerate() {
        tr.record(name, 0, i as u64, *d as u64);
    }
}

fn dist(out: &mut Layers, p50: &'static str, p99: Option<&'static str>, v: &[f64]) {
    out.insert(p50, quantile(v, 0.5));
    if let Some(p99) = p99 {
        out.insert(p99, quantile(v, 0.99));
    }
}

/// Replay the `decide`/`rollout` inputs: `n` requests of the stream
/// through the guard and through a bare `rbac` gate, the codec on their
/// frames, migrations of [`FLEET_MIGRATIONS`] objects between two
/// replicas, and the rollout policies.
pub fn replay_fleet(
    f: &Fleet,
    vocab: &Vocab,
    n: usize,
    tr: &mut Tracer,
    tally: &mut Tally,
) -> Layers {
    let mut out = Layers::new();
    let enrol = || {
        f.objects
            .iter()
            .cloned()
            .zip((0..f.objects.len()).map(|i| f.role(i)))
    };
    let policies = [f.policy(0), f.policy(1)];
    let mut a = replica(&policies[0], enrol());
    let b = replica(&policies[0], enrol());
    let mut issue_ns = Vec::new();
    for (o, hist) in f.objects.iter().zip(&f.history) {
        seed(&[&a.proofs, &b.proofs], o, hist, vocab, &mut issue_ns);
    }
    let programs: Vec<Program> = vocab
        .accesses
        .iter()
        .cloned()
        .map(Program::Access)
        .collect();

    // Guard replay, warm-up pass first (as the daemon's set-up does).
    let decide = |r: &mut Replica, o: &str, k: usize, t: f64| {
        let req = GuardRequest {
            object: o,
            access: &vocab.accesses[k],
            remaining: &programs[k],
            time: TimePoint::new(t),
        };
        r.guard.decide(&req, &r.proofs, &mut r.table)
    };
    for (i, o) in f.objects.iter().enumerate() {
        decide(
            &mut a,
            o,
            Vocab::index(false, (i % crate::gen::SERVERS) as u8),
            1.0,
        );
    }
    let mut naplet = Vec::with_capacity(n);
    let mut items = Vec::with_capacity(n.min(1 << 15));
    for i in 0..n {
        let r = f.stream[i % f.stream.len()];
        let (o, k, t) = (
            &f.objects[r.object as usize],
            r.access as usize,
            2.0 + i as f64 * 1e-4,
        );
        let t0 = Instant::now();
        let v = decide(&mut a, o, k, t);
        naplet.push(ns(t0));
        if v.kind != r.expect {
            tally.broke(format!(
                "replay {o}: got {}, expected {}",
                v.kind.label(),
                r.expect.label()
            ));
        }
        if items.len() < items.capacity() {
            items.push((wire_item(r.object, k, t), v));
        }
    }
    record_all(tr, "naplet.decide", &naplet);
    dist(
        &mut out,
        "naplet.decide_ns_p50",
        Some("naplet.decide_ns_p99"),
        &naplet,
    );

    // The bare gate on the same stream.
    let mut g = gate(&policies[0], &f.objects, |i| f.role(i));
    let rbac_ns = gate_replay(&mut g, &a.proofs, vocab, &programs, n, |i| {
        let r = f.stream[i % f.stream.len()];
        (
            r.object as usize,
            &f.objects[r.object as usize],
            r.access as usize,
            2.0 + i as f64 * 1e-4,
        )
    });
    record_all(tr, "rbac.decide", &rbac_ns);
    dist(&mut out, "rbac.decide_ns_p50", None, &rbac_ns);
    codec(&items, &mut out);

    // Migrations of warm objects from replica a to replica b.
    let (mut export, mut imports, mut warm, mut arrive, mut bytes) =
        (vec![], vec![], vec![], vec![], vec![]);
    for o in f.objects.iter().take(FLEET_MIGRATIONS) {
        let t0 = Instant::now();
        let h = a.guard.export_object(o);
        export.push(ns(t0));
        bytes.push(handoff_bytes(o, &h, &a.proofs));
        let (i, w) = import(&b, o, &h);
        imports.push(i);
        warm.push(w);
        let t0 = Instant::now();
        b.guard.note_arrival(o, TimePoint::new(3.0));
        arrive.push(ns(t0));
    }
    let mut state = Vec::new();
    for o in f.objects.iter().take(FLEET_MIGRATIONS) {
        let t0 = Instant::now();
        std::hint::black_box(
            b.guard
                .with_rbac_read(|r| r.permission_state(o, "p-exec", TimePoint::new(3.5))),
        );
        state.push(ns(t0));
    }
    migrations(
        &mut out, &export, &imports, &warm, &arrive, &bytes, &state, tr,
    );
    out.insert("coalition.proof_issue_ns", median(&issue_ns));
    epochs(&mut a, &policies, &mut out);
    compile_ms(FLEET_CAP, &a.table, &mut out);
    out
}

/// Time `n` requests through a bare gate; `req(i)` gives (object index,
/// name, access index, time).
fn gate_replay<'a>(
    g: &mut Gate,
    proofs: &ProofStore,
    vocab: &Vocab,
    programs: &[Program],
    n: usize,
    req: impl Fn(usize) -> (usize, &'a String, usize, f64),
) -> Vec<f64> {
    let mut v = Vec::with_capacity(n);
    for i in 0..n {
        let (oi, o, k, t) = req(i);
        let request = AccessRequest {
            object: o,
            session: g.sessions[oi],
            access: &vocab.accesses[k],
            program: &programs[k],
            time: TimePoint::new(t),
            reuse_spatial: false,
        };
        let t0 = Instant::now();
        std::hint::black_box(g.rbac.decide(&request, proofs, &mut g.table));
        v.push(ns(t0));
    }
    v
}

#[allow(clippy::too_many_arguments)]
fn migrations(
    out: &mut Layers,
    export: &[f64],
    imports: &[f64],
    warm: &[f64],
    arrive: &[f64],
    bytes: &[f64],
    state: &[f64],
    tr: &mut Tracer,
) {
    record_all(tr, "naplet.export_object", export);
    record_all(tr, "naplet.import_object", imports);
    record_all(tr, "rbac.warm_cursor", warm);
    record_all(tr, "naplet.note_arrival", arrive);
    out.insert("naplet.export_us", median(export) / 1e3);
    out.insert("naplet.import_us", median(imports) / 1e3);
    out.insert("rbac.warm_cursor_us", median(warm) / 1e3);
    out.insert("naplet.note_arrival_ns", median(arrive));
    out.insert(
        "net.handoff_bytes_first",
        bytes.first().copied().unwrap_or(0.0),
    );
    out.insert(
        "net.handoff_bytes_last",
        bytes.last().copied().unwrap_or(0.0),
    );
    out.insert("temporal.permission_state_ns", median(state));
}

/// Replay one itinerary round on two replica members: per hop, export
/// from the previous custodian, import and cursor warm-up at the next,
/// the arrival, the guard decide (and a bare-gate decide on the same
/// history), and the proof written to both stores on a grant.
pub fn replay_itinerary(
    it: &Itinerary,
    vocab: &Vocab,
    tr: &mut Tracer,
    tally: &mut Tally,
) -> Layers {
    let mut out = Layers::new();
    let policies = [it.policy(0), it.policy(1)];
    let enrol = || it.objects.iter().cloned().map(|o| (o, "licensee"));
    let mut reps = [
        replica(&policies[0], enrol()),
        replica(&policies[0], enrol()),
    ];
    let mut issue_ns = Vec::new();
    for (o, hist) in it.objects.iter().zip(&it.history) {
        seed(
            &[&reps[0].proofs, &reps[1].proofs],
            o,
            hist,
            vocab,
            &mut issue_ns,
        );
    }
    for (o, &m) in it.objects.iter().zip(&it.start) {
        reps[m as usize].guard.note_arrival(o, TimePoint::new(1.0));
    }
    let programs: Vec<Program> = vocab
        .accesses
        .iter()
        .cloned()
        .map(Program::Access)
        .collect();
    let mut g = gate(&policies[0], &it.objects, |_| "licensee");
    let (mut export, mut imports, mut warm, mut arrive, mut bytes) =
        (vec![], vec![], vec![], vec![], vec![]);
    let (mut naplet, mut rbac_ns) = (vec![], vec![]);
    for hop in &it.hops {
        let o = &it.objects[hop.object as usize];
        let k = Vocab::index(false, hop.server);
        let t0 = Instant::now();
        let h = reps[hop.from as usize].guard.export_object(o);
        export.push(ns(t0));
        bytes.push(handoff_bytes(o, &h, &reps[hop.from as usize].proofs));
        let dst = &mut reps[hop.to as usize];
        let (i, w) = import(dst, o, &h);
        imports.push(i);
        warm.push(w);
        let time = TimePoint::new(hop.time);
        let t0 = Instant::now();
        dst.guard.note_arrival(o, time);
        arrive.push(ns(t0));
        let req = GuardRequest {
            object: o,
            access: &vocab.accesses[k],
            remaining: &programs[k],
            time,
        };
        let t0 = Instant::now();
        let v = dst.guard.decide(&req, &dst.proofs, &mut dst.table);
        naplet.push(ns(t0));
        if v.kind != hop.expect {
            tally.broke(format!(
                "replay {o}: got {}, expected {}",
                v.kind.label(),
                hop.expect.label()
            ));
        }
        rbac_ns.extend(gate_replay(
            &mut g,
            &dst.proofs,
            vocab,
            &programs,
            1,
            |_| (hop.object as usize, o, k, hop.time),
        ));
        if v.kind == DecisionKind::Granted {
            for r in &reps {
                let t0 = Instant::now();
                r.proofs.issue(o, Access::clone(&vocab.accesses[k]), time);
                issue_ns.push(ns(t0));
            }
        }
    }
    record_all(tr, "naplet.decide", &naplet);
    record_all(tr, "rbac.decide", &rbac_ns);
    dist(
        &mut out,
        "naplet.decide_ns_p50",
        Some("naplet.decide_ns_p99"),
        &naplet,
    );
    dist(&mut out, "rbac.decide_ns_p50", None, &rbac_ns);
    let items: Vec<(DecideItem, Verdict)> = it
        .hops
        .iter()
        .map(|h| {
            (
                wire_item(h.object, Vocab::index(false, h.server), h.time),
                Verdict {
                    kind: h.expect,
                    epoch: 0,
                    reason: (h.expect != DecisionKind::Granted)
                        .then(|| format!("count(0, {ITIN_CAP}, resource={RESOURCE})")),
                },
            )
        })
        .collect();
    codec(&items, &mut out);
    // Permission state at each object's final custodian.
    let mut at: Vec<u8> = it.start.clone();
    for h in &it.hops {
        at[h.object as usize] = h.to;
    }
    let t_end = TimePoint::new(it.hops.last().map_or(1.0, |h| h.time) + 1.0);
    let state: Vec<f64> = it
        .objects
        .iter()
        .zip(&at)
        .map(|(o, &m)| {
            let t0 = Instant::now();
            std::hint::black_box(
                reps[m as usize]
                    .guard
                    .with_rbac_read(|r| r.permission_state(o, "p-exec", t_end)),
            );
            ns(t0)
        })
        .collect();
    migrations(
        &mut out, &export, &imports, &warm, &arrive, &bytes, &state, tr,
    );
    out.insert("coalition.proof_issue_ns", median(&issue_ns));
    let [r0, _] = &mut reps;
    epochs(r0, &policies, &mut out);
    compile_ms(ITIN_CAP, &r0.table, &mut out);
    out
}
