//! Pipeline correlation property tests against a *shuffling* fake
//! server: N interleaved in-flight requests get their responses back in
//! deliberately scrambled order, and every response must still land on
//! the request that asked for it. A window-full client must apply
//! backpressure (block) rather than drop requests, and a response
//! correlating to no in-flight request must be a clean protocol error.
//! Against a real daemon, an `Err2` in mid-window resolves only the
//! request it answers, and a `DecideBatch2` answers exactly what the
//! same requests get as window-1 `Decide2` calls, in request order.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use stacl_coalition::{DecisionKind, ProofStore, Verdict};
use stacl_ids::prop::forall;
use stacl_ids::rng::SplitMix64;
use stacl_naplet::guard::CoordinatedGuard;
use stacl_net::frames::{kind_to_u8, Frame};
use stacl_net::wire;
use stacl_net::{Client, DaemonConfig, FrameAssembler, NetError};
use stacl_obs::Counter;
use stacl_rbac::policy::parse_policy;
use stacl_rbac::{AccessPattern, ExtendedRbac, Permission, RbacModel};
use stacl_sral::Access;

/// How the fake server answers `Decide2` frames.
#[derive(Clone, Copy)]
enum ReplyMode {
    /// Buffer per read burst, then reply in shuffled order; the reason
    /// echoes the request's `time` field so order restoration is
    /// observable end to end.
    Shuffled { seed: u64 },
    /// Reply to every request with a request id that was never issued.
    BogusIds,
}

/// A single-connection fake daemon speaking just enough of the protocol
/// for pipelined clients: Hello/Vocab/Arrive get immediate replies,
/// `Decide2` replies are buffered per read burst and written back in
/// shuffled order. Flushing at read-idle keeps the exchange
/// deadlock-free no matter the client's window.
fn spawn_shuffler(mode: ReplyMode) -> (SocketAddr, JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    let handle = thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        let mut rng = SplitMix64::seed_from_u64(match mode {
            ReplyMode::Shuffled { seed } => seed,
            ReplyMode::BogusIds => 0,
        });
        let mut asm = FrameAssembler::new();
        let mut buf = [0u8; 65536];
        let mut pending: Vec<(u64, f64)> = Vec::new();
        let mut out = Vec::new();
        'conn: loop {
            let n = match stream.read(&mut buf) {
                Ok(0) | Err(_) => break 'conn,
                Ok(n) => n,
            };
            asm.feed(&buf[..n]).expect("well-formed client stream");
            while let Some(payload) = asm.next_frame().expect("client frames reassemble") {
                let frame = Frame::decode(&payload).expect("client frames decode");
                match frame {
                    Frame::Hello { proto, .. } => {
                        let ack = Frame::HelloAck {
                            proto: proto.min(2),
                            server: "shuffler".to_string(),
                        };
                        wire::put_frame(&mut out, &ack.encode()).unwrap();
                    }
                    Frame::Vocab { .. }
                    | Frame::Arrive { .. }
                    | Frame::Enroll { .. }
                    | Frame::IssueProof { .. } => {
                        wire::put_frame(&mut out, &Frame::Ok.encode()).unwrap();
                    }
                    Frame::Decide2 { id, item } => pending.push((id, item.time)),
                    Frame::Shutdown => {
                        wire::put_frame(&mut out, &Frame::Ok.encode()).unwrap();
                        let _ = stream.write_all(&out);
                        break 'conn;
                    }
                    other => panic!("fake server got unexpected {other:?}"),
                }
            }
            // Read-idle: answer everything buffered, scrambled.
            for i in (1..pending.len()).rev() {
                let j = (rng.next_u64() % (i as u64 + 1)) as usize;
                pending.swap(i, j);
            }
            for (id, time) in pending.drain(..) {
                let id = match mode {
                    ReplyMode::Shuffled { .. } => id,
                    ReplyMode::BogusIds => id + 1_000_000,
                };
                let v = Frame::Verdict2 {
                    id,
                    kind: kind_to_u8(DecisionKind::DeniedNoPermission),
                    epoch: 7,
                    reason: Some(format!("t-{time}")),
                };
                wire::put_frame(&mut out, &v.encode()).unwrap();
            }
            if stream.write_all(&out).is_err() {
                break 'conn;
            }
            out.clear();
        }
    });
    (addr, handle)
}

fn connect(addr: SocketAddr) -> Client {
    Client::connect(addr, "prop-client", Some(Duration::from_secs(5))).expect("connect")
}

const ACCESS_PARTS: (&str, &str, &str) = ("read", "db", "s0");

/// Every shuffled response lands on the request that asked for it: the
/// verdict claimed for request id `i` must carry the reason that echoes
/// request `i`'s payload.
#[test]
fn shuffled_replies_correlate_by_request_id() {
    forall("pipeline-correlation", 0x51AB, 24, |r| {
        let n = r.gen_range(4usize..40);
        let window = r.gen_range(2usize..12);
        let (addr, server) = spawn_shuffler(ReplyMode::Shuffled { seed: r.next_u64() });
        let mut client = connect(addr);
        let access = Access::new(ACCESS_PARTS.0, ACCESS_PARTS.1, ACCESS_PARTS.2);
        let remaining = [access.clone()];

        let mut expect: Vec<(u64, String)> = Vec::new();
        let mut got: Vec<(u64, Verdict)> = Vec::new();
        let mut p = client.pipeline(window).expect("pipeline");
        for i in 0..n {
            let id = p
                .submit("obj", &access, &remaining, i as f64)
                .expect("submit");
            assert!(
                p.in_flight() <= window,
                "window {window} exceeded: {} in flight",
                p.in_flight()
            );
            expect.push((id, format!("t-{}", i as f64)));
            got.extend(p.take());
        }
        got.extend(p.finish().expect("drain"));

        assert_eq!(got.len(), n, "responses dropped or duplicated");
        got.sort_by_key(|(id, _)| *id);
        expect.sort_by_key(|(id, _)| *id);
        for ((gid, v), (eid, reason)) in got.iter().zip(&expect) {
            assert_eq!(gid, eid, "request id lost");
            assert_eq!(
                v.reason.as_deref(),
                Some(reason.as_str()),
                "verdict for id {gid} correlates to the wrong request"
            );
        }
        drop(client);
        server.join().expect("server thread");
    });
}

/// `decide_stream_failsafe` returns verdicts in *request order* even
/// though the wire delivered them scrambled.
#[test]
fn stream_failsafe_restores_request_order_under_shuffle() {
    forall("pipeline-order", 0x51AC, 16, |r| {
        let n = r.gen_range(2usize..32);
        let window = r.gen_range(1usize..9);
        let (addr, server) = spawn_shuffler(ReplyMode::Shuffled { seed: r.next_u64() });
        let mut client = connect(addr);
        let access = Access::new(ACCESS_PARTS.0, ACCESS_PARTS.1, ACCESS_PARTS.2);
        let remaining = [access.clone()];
        let requests: Vec<(&str, &Access, &[Access], f64)> = (0..n)
            .map(|i| ("obj", &access, &remaining[..], i as f64))
            .collect();
        let verdicts = client.decide_stream_failsafe(&requests, window);
        assert_eq!(verdicts.len(), n);
        for (i, v) in verdicts.iter().enumerate() {
            assert_eq!(
                v.reason.as_deref(),
                Some(format!("t-{}", i as f64).as_str()),
                "slot {i} holds another request's verdict"
            );
            assert_eq!(v.epoch, 7);
        }
        drop(client);
        server.join().expect("server thread");
    });
}

/// A full window blocks the submitter until a slot frees — it never
/// discards a request. All N ≫ window requests must complete exactly
/// once with the window bound respected throughout.
#[test]
fn window_full_applies_backpressure_not_drop() {
    let (addr, server) = spawn_shuffler(ReplyMode::Shuffled { seed: 0xBEE5 });
    let mut client = connect(addr);
    let access = Access::new(ACCESS_PARTS.0, ACCESS_PARTS.1, ACCESS_PARTS.2);
    let remaining = [access.clone()];
    const N: usize = 64;
    const WINDOW: usize = 4;

    let mut p = client.pipeline(WINDOW).expect("pipeline");
    let mut done = 0usize;
    for i in 0..N {
        p.submit("obj", &access, &remaining, i as f64)
            .expect("submit");
        assert!(p.in_flight() <= WINDOW, "backpressure bound violated");
        done += p.take().len();
    }
    done += p.finish().expect("drain").len();
    assert_eq!(done, N, "requests dropped under backpressure");
    drop(client);
    server.join().expect("server thread");
}

/// A response correlating to no in-flight request is a protocol error —
/// not a silent drop, not a panic.
#[test]
fn unknown_request_id_is_a_protocol_error() {
    let (addr, server) = spawn_shuffler(ReplyMode::BogusIds);
    let mut client = connect(addr);
    let access = Access::new(ACCESS_PARTS.0, ACCESS_PARTS.1, ACCESS_PARTS.2);
    let remaining = [access.clone()];

    let mut p = client.pipeline(4).expect("pipeline");
    p.submit("obj", &access, &remaining, 0.0).expect("submit");
    let err = p.finish().expect_err("bogus id must not resolve");
    match err {
        NetError::Protocol(msg) => {
            assert!(
                msg.contains("no in-flight"),
                "unexpected protocol error: {msg}"
            );
        }
        other => panic!("expected protocol error, got {other}"),
    }
    drop(client);
    let _ = server.join();
}

/// Regression: an `Err2` in mid-window resolves only its own request.
/// The daemon refuses the request with a non-finite time; that one
/// request fails safe (counted), the other three keep their grants, and
/// no completion of this stream leaks into the next one on the same
/// connection.
#[test]
fn err2_mid_window_fails_only_its_own_request() {
    stacl_obs::set_telemetry(true);
    let mut model = RbacModel::new();
    model.add_role("staff");
    model
        .add_permission(Permission::new("p-any", AccessPattern::any()))
        .unwrap();
    model.assign_permission("staff", "p-any").unwrap();
    model.add_user("obj");
    model.assign_user("obj", "staff").unwrap();
    let guard = CoordinatedGuard::new(ExtendedRbac::new(model));
    guard.enroll("obj", ["staff"]);
    let mut h = stacl_net::spawn(guard, ProofStore::new(), DaemonConfig::new("err2-d0"))
        .expect("bind loopback");
    let mut client = connect(h.addr());
    let access = Access::new(ACCESS_PARTS.0, ACCESS_PARTS.1, ACCESS_PARTS.2);
    let remaining = [access.clone()];

    let baseline = stacl_obs::snapshot();
    let requests: Vec<(&str, &Access, &[Access], f64)> = [1.0, f64::NAN, 3.0, 4.0]
        .into_iter()
        .map(|t| ("obj", &access, &remaining[..], t))
        .collect();
    let kinds: Vec<DecisionKind> = client
        .decide_stream_failsafe(&requests, 4)
        .iter()
        .map(|v| v.kind)
        .collect();
    assert_eq!(
        kinds,
        [
            DecisionKind::Granted,
            DecisionKind::DeniedCoordination,
            DecisionKind::Granted,
            DecisionKind::Granted,
        ]
    );
    let d = stacl_obs::snapshot().diff(&baseline);
    assert_eq!(
        d.counter(Counter::NetFailsafeDenial),
        1,
        "one fail-safe denial"
    );

    let again = client.decide_stream_failsafe(&[("obj", &access, &remaining[..], 5.0)], 4);
    assert_eq!(again.len(), 1);
    assert!(again[0].is_granted(), "next stream grants: {:?}", again[0]);
    drop(client);
    h.shutdown();
}

/// A daemon whose per-object state makes verdicts order-dependent: a
/// cap-2 spatial constraint checked on every request (approval reuse
/// off) and a 10 s whole-lifetime validity that activates on the first
/// grant and refuses a request older than a recorded timeline event.
fn spawn_stateful(name: &str) -> stacl_net::DaemonHandle {
    let policy = "user x\nuser y\nuser z\nrole worker\n\
                  permission p grants=exec:rsw:* spatial=\"count(0, 2, resource=rsw)\" \
                  validity=10 scheme=whole-lifetime\n\
                  grant worker p\nassign x worker\nassign y worker\nassign z worker\n";
    let guard = CoordinatedGuard::new(ExtendedRbac::new(parse_policy(policy).unwrap()))
        .with_approval_reuse(false);
    for obj in ["x", "y", "z"] {
        guard.enroll(obj, ["worker"]);
    }
    stacl_net::spawn(guard, ProofStore::new(), DaemonConfig::new(name)).expect("bind loopback")
}

/// The real daemon decides a `DecideBatch2` item by item, in request
/// order, exactly as it decides window-1 `Decide2` calls: one batch that
/// repeats objects (a third spatial request over the cap, a temporal
/// budget running out, a clock regression) and mixes in an unenrolled
/// object gets the same verdicts, in the same order, as the same
/// requests sent one by one to a fresh daemon.
#[test]
fn decide_batch2_matches_window1_decide2_on_a_real_daemon() {
    let a = Access::new("exec", "rsw", "s1");
    let plan = |n: usize| vec![a.clone(); n];
    let (one, two, three) = (plan(1), plan(2), plan(3));
    let requests: Vec<(&str, &Access, &[Access], f64)> = vec![
        ("x", &a, &one, 0.0),
        ("y", &a, &one, 0.0),
        ("x", &a, &two, 1.0),
        ("z", &a, &one, 5.0),
        ("y", &a, &one, 4.0),
        ("x", &a, &three, 2.0),
        ("z", &a, &one, 2.0),
        ("y", &a, &one, 20.0),
        ("stranger", &a, &one, 0.0),
    ];

    let mut batched_daemon = spawn_stateful("batch-d0");
    let mut client = connect(batched_daemon.addr());
    let batched = client.decide_batch(&requests).expect("batch decide");
    drop(client);
    batched_daemon.shutdown();

    let mut single_daemon = spawn_stateful("single-d0");
    let mut client = connect(single_daemon.addr());
    let single: Vec<Verdict> = requests
        .iter()
        .map(|(o, a, r, t)| client.decide(o, a, r, *t).expect("decide"))
        .collect();
    drop(client);
    single_daemon.shutdown();

    let kinds: Vec<DecisionKind> = batched.iter().map(|v| v.kind).collect();
    assert_eq!(
        kinds,
        [
            DecisionKind::Granted,
            DecisionKind::Granted,
            DecisionKind::Granted,
            DecisionKind::Granted,
            DecisionKind::Granted,
            DecisionKind::DeniedSpatial,
            DecisionKind::DeniedTemporal,
            DecisionKind::DeniedTemporal,
            DecisionKind::DeniedNoPermission,
        ]
    );
    assert_eq!(batched, single, "batch and window-1 verdicts differ");
}
