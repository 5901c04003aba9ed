//! The per-server coalition daemon.
//!
//! One daemon hosts one [`CoordinatedGuard`] shard — the guard of one
//! coalition member — behind a [`std::net::TcpListener`]. A single
//! **readiness-driven event loop** (hand-rolled [`crate::sys::poll`],
//! nonblocking sockets) multiplexes every connection: per-connection
//! read reassembly via [`FrameAssembler`], per-connection coalesced
//! write buffers flushed in one syscall, and many in-flight correlated
//! decide frames per connection. Each connection keeps its own positional
//! vocabulary (names interned by [`Frame::Vocab`] announcements) and its
//! own [`AccessTable`] (verdicts are table-independent, so
//! per-connection interning is sound).
//!
//! ## Reply ordering
//!
//! Replies queue per connection as **slots**, of two kinds. Replies to
//! the synchronous control frames (`Hello`, `Vocab`, `Arrive`,
//! `PolicyPrepare`, …) are *ordered*: they flush strictly in request
//! order, which is how their caller pairs call and reply. Replies to
//! `Decide2`/`DecideBatch2` are *correlated*: they echo the request id,
//! so they need no position. The only slow operation (the custody
//! handoff pull, which dials a peer with retries and backoff) runs on a
//! helper thread and leaves a *pending* slot in the queue; later ordered
//! replies wait behind it, while correlated replies overtake it. The
//! event loop itself never blocks on a peer.
//!
//! A `Decide2` for an object this member does not hold, and which the
//! placement ring homes on another member, is answered
//! `Err2 { ERR_NOT_CUSTODIAN }` (counted `placement.redirect`); the
//! caller locates the home and takes one hop. A `DecideBatch2` with any
//! such item is refused whole, the same way.
//!
//! ## Custody and the handoff pull
//!
//! With custody enforcement on, the daemon only decides for objects whose
//! custody is [`Custody::Resident`]. An [`Frame::Arrive`] naming a
//! previous custodian triggers a **pull**: the receiving daemon marks the
//! object in-flight, dials the peer, and requests its
//! [`crate::frames::HandoffWire`] (proof watermark, temporal timelines,
//! spatial approvals, cursor seeds, clock fields). Only after the state
//! imports cleanly does the object become resident here — and the peer
//! marked it remote when it exported, so exactly one member ever decides
//! for the object. While the pull is in flight — or if the peer stays
//! unreachable after bounded retries with doubling backoff — decisions
//! fail safe to `DeniedCoordination`.
//!
//! Clock skew travels explicitly: the sender stamps its skewed clock view
//! into the payload and the receiver counts a `clock.regression` when
//! admitting the arrival would move its own skewed clock backwards.
//!
//! ## Slow-loris eviction
//!
//! A connection that stalls mid-frame (bytes of a header trickled in,
//! then silence) holds only its own [`FrameAssembler`] — other
//! connections keep flowing. Past [`DaemonConfig::partial_deadline`] the
//! loop evicts the stalled connection and counts `net.partial-eviction`.

use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use stacl_coalition::{DecisionKind, ProofStore, Verdict};
use stacl_ids::sync::{Mutex, RwLock};
use stacl_naplet::guard::{CoordinatedGuard, Custody, GuardRequest};
use stacl_obs::Counter;
use stacl_rbac::policy::parse_policy;
use stacl_rbac::PreparedEpoch;
use stacl_sral::ast::Access;
use stacl_sral::Program;
use stacl_temporal::TimePoint;
use stacl_trace::AccessTable;

use crate::frames::{
    scheme_from_u8, DecideItem, Frame, HandoffWire, WireAccess, ERR_BAD_REQUEST, ERR_HANDOFF,
    ERR_NOT_CUSTODIAN, ERR_STATE,
};
use crate::sys::{self, PollFd, POLLIN, POLLOUT};
use crate::wire::{self, FrameAssembler, PROTOCOL_VERSION};

/// Daemon configuration. `listen` defaults to an ephemeral loopback port
/// so tests and the sim driver can spawn coalitions without port math.
#[derive(Clone, Debug)]
pub struct DaemonConfig {
    /// This member's coalition server name.
    pub name: String,
    /// Bind address, e.g. `127.0.0.1:0`.
    pub listen: String,
    /// This member's clock skew in seconds (stamped into handoffs).
    pub skew: f64,
    /// Handoff retry attempts after the first try.
    pub handoff_retries: u32,
    /// Initial handoff retry backoff; doubles per retry.
    pub handoff_backoff: Duration,
    /// Connect/read/write timeout for daemon→daemon calls.
    pub io_timeout: Duration,
    /// How long a connection may sit stalled mid-frame before the event
    /// loop evicts it (counted `net.partial-eviction`).
    pub partial_deadline: Duration,
    /// Proof-history compaction trigger: once an object holds at least
    /// this many *live* (uncompacted) proofs, the daemon folds the
    /// prefix every warm cursor has consumed past into a sealed summary
    /// after issuing, bounding resident memory per object. `0` disables
    /// compaction.
    pub compact_after: usize,
}

impl DaemonConfig {
    /// Defaults: ephemeral loopback port, zero skew, 3 retries starting
    /// at 10 ms, 2 s peer-I/O timeout, 5 s stalled-partial eviction,
    /// compaction once 512 live proofs accumulate on an object.
    pub fn new(name: impl Into<String>) -> Self {
        DaemonConfig {
            name: name.into(),
            listen: "127.0.0.1:0".to_string(),
            skew: 0.0,
            handoff_retries: 3,
            handoff_backoff: Duration::from_millis(10),
            io_timeout: Duration::from_secs(2),
            partial_deadline: Duration::from_secs(5),
            compact_after: 512,
        }
    }
}

struct Shared {
    guard: CoordinatedGuard,
    proofs: ProofStore,
    cfg: DaemonConfig,
    addr: SocketAddr,
    peers: RwLock<HashMap<String, SocketAddr>>,
    shutdown: AtomicBool,
    /// Write side of the event loop's wake channel (a loopback TCP
    /// self-pair — the workspace has no `libc` for a real pipe). One
    /// byte unblocks a parked [`sys::poll`].
    wake_tx: TcpStream,
    /// The epoch built by the last `PolicyPrepare`, awaiting its
    /// `PolicyActivate` (two-phase coalition-wide rollout).
    pending_epoch: Mutex<Option<PreparedEpoch>>,
    /// Set when this member missed (or failed) a rollout phase another
    /// member completed: a `PolicyActivate` arrived with no matching
    /// prepared epoch. While set, decisions fail safe to
    /// `DeniedCoordination` — this member must never answer under an
    /// epoch the coalition has moved past, and must never mix epochs
    /// within one decision or batch. A subsequent complete
    /// prepare+activate round clears it.
    epoch_desync: AtomicBool,
}

/// A handle to a spawned daemon: its bound address, peer registration,
/// and termination. Dropping the handle shuts the daemon down.
pub struct DaemonHandle {
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
}

/// Build the event loop's wake channel: a connected loopback TCP pair.
fn wake_pair() -> io::Result<(TcpStream, TcpStream)> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let tx = TcpStream::connect(listener.local_addr()?)?;
    tx.set_nodelay(true)?;
    let (rx, _) = listener.accept()?;
    rx.set_nonblocking(true)?;
    Ok((rx, tx))
}

/// Spawn a daemon serving `guard`/`proofs` per `cfg`. Returns once the
/// listener is bound and accepting.
pub fn spawn(
    guard: CoordinatedGuard,
    proofs: ProofStore,
    cfg: DaemonConfig,
) -> io::Result<DaemonHandle> {
    let listener = TcpListener::bind(&cfg.listen)?;
    let addr = listener.local_addr()?;
    let (wake_rx, wake_tx) = wake_pair()?;
    let shared = Arc::new(Shared {
        guard,
        proofs,
        cfg,
        addr,
        peers: RwLock::new(HashMap::new()),
        shutdown: AtomicBool::new(false),
        wake_tx,
        pending_epoch: Mutex::new(None),
        epoch_desync: AtomicBool::new(false),
    });
    let accept = {
        let shared = Arc::clone(&shared);
        thread::Builder::new()
            .name(format!("stacl-net-{}", shared.cfg.name))
            .spawn(move || event_loop(&shared, listener, wake_rx))?
    };
    Ok(DaemonHandle {
        shared,
        accept: Some(accept),
    })
}

impl DaemonHandle {
    /// The bound listen address.
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// This member's coalition server name.
    pub fn name(&self) -> &str {
        &self.shared.cfg.name
    }

    /// Register (or update) a peer member's address for handoff pulls.
    pub fn add_peer(&self, name: &str, addr: SocketAddr) {
        self.shared.peers.write().insert(name.to_string(), addr);
    }

    /// Install the coalition membership: a placement ring over exactly
    /// the named members (this daemon included or not — leaving itself
    /// off the list is a graceful leave that drains everything it holds)
    /// plus their dial addresses. Then **rebalance**: every resident
    /// object whose ring home moved off this member is pushed to its new
    /// home with a [`Frame::Rebalance`], which makes the new home pull
    /// custody through the ordinary handoff machinery (helper threads,
    /// bounded retries, fail-safe `DeniedCoordination` while in flight).
    /// Only keys whose home actually moved drain; the rest never notice.
    ///
    /// Peer addresses accumulate — a departed member's address is kept so
    /// late pulls *from* it still resolve. Returns the number of objects
    /// whose drain was initiated.
    pub fn set_members(&self, members: &[(String, SocketAddr)]) -> usize {
        {
            let mut peers = self.shared.peers.write();
            for (name, addr) in members {
                if name != &self.shared.cfg.name {
                    peers.insert(name.clone(), *addr);
                }
            }
        }
        let ring = stacl_coalition::Placement::new(members.iter().map(|(n, _)| n.clone()));
        self.shared
            .guard
            .set_placement(&self.shared.cfg.name, ring.clone());
        if ring.is_empty() {
            return 0;
        }
        let moves: Vec<(String, String)> = self
            .shared
            .guard
            .resident_objects()
            .into_iter()
            .filter_map(|obj| {
                let home = ring.home_of(&obj)?.to_string();
                (home != self.shared.cfg.name).then_some((obj, home))
            })
            .collect();
        let n = moves.len();
        if n > 0 {
            let shared = Arc::clone(&self.shared);
            let _ = thread::Builder::new()
                .name("stacl-net-rebalance".to_string())
                .spawn(move || {
                    let peers = shared.peers.read().clone();
                    for (object, home) in moves {
                        let Some(addr) = peers.get(&home).copied() else {
                            continue;
                        };
                        if rebalance_push(&shared, addr, &object).is_ok() {
                            stacl_obs::count(Counter::PlacementRebalance);
                        }
                    }
                });
        }
        n
    }

    /// The hosted guard, for pre-wiring state (enrollments, custody
    /// enforcement) before traffic arrives.
    pub fn guard(&self) -> &CoordinatedGuard {
        &self.shared.guard
    }

    /// The hosted proof store — the million-object bench reads its live
    /// proof counts as the RSS proxy for compaction effectiveness.
    pub fn proofs(&self) -> &ProofStore {
        &self.shared.proofs
    }

    /// Stop accepting, sever live connections, and join the event loop.
    /// Idempotent.
    pub fn shutdown(&mut self) {
        initiate_shutdown(&self.shared);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }

    /// Fault injection: terminate abruptly. In-flight requests on severed
    /// connections observe an I/O error, which clients translate into the
    /// counted fail-safe `DeniedCoordination`.
    pub fn kill(&mut self) {
        self.shutdown();
    }

    /// Block until the daemon stops (a `Shutdown` frame or [`kill`]).
    /// Used by `stacl serve`.
    ///
    /// [`kill`]: DaemonHandle::kill
    pub fn wait(mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

impl Drop for DaemonHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn initiate_shutdown(shared: &Shared) {
    if shared.shutdown.swap(true, Ordering::SeqCst) {
        return;
    }
    wake(shared);
}

/// Unblock a parked event loop. Failures are ignored: a dead wake socket
/// means the loop already exited.
fn wake(shared: &Shared) {
    let _ = (&shared.wake_tx).write_all(&[1]);
}

/// One queued reply. Ordered slots flush strictly in order; a pending
/// slot (helper-thread handoff pull in flight) blocks later ordered
/// slots but not correlated ones, whose request id frees them from
/// positional ordering.
enum Slot {
    Ready { correlated: bool, payload: Vec<u8> },
    Pending { token: u64 },
}

/// Per-connection event-loop state.
struct Conn {
    serial: u64,
    stream: TcpStream,
    asm: FrameAssembler,
    /// Coalesced outbound bytes; one `write` flushes many frames.
    out: Vec<u8>,
    out_pos: usize,
    slots: VecDeque<Slot>,
    vocab: Vec<String>,
    table: AccessTable,
    /// When the connection first stalled mid-frame (slow-loris clock).
    partial_since: Option<Instant>,
    next_token: u64,
    dead: bool,
}

/// A helper thread finished a handoff pull for slot `token` of
/// connection `serial`.
struct Completion {
    serial: u64,
    token: u64,
    reply: Frame,
    /// Set when the pull imported custody successfully: the object name
    /// plus the arrival time to note (`None` for a verdict-neutral
    /// rebalance pull). The arrival is applied by the event loop at
    /// drain time — even when the requesting connection has since died —
    /// so an orphaned completion never strands imported custody.
    imported: Option<(String, Option<TimePoint>)>,
}

fn event_loop(shared: &Arc<Shared>, listener: TcpListener, wake_rx: TcpStream) {
    let _ = listener.set_nonblocking(true);
    let (ctx, crx) = mpsc::channel::<Completion>();
    let mut conns: Vec<Conn> = Vec::new();
    let mut next_serial: u64 = 0;

    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }

        let mut fds = Vec::with_capacity(conns.len() + 2);
        fds.push(PollFd::new(listener.as_raw_fd(), POLLIN));
        fds.push(PollFd::new(wake_rx.as_raw_fd(), POLLIN));
        for c in &conns {
            let mut ev = POLLIN;
            if !c.out.is_empty() {
                ev |= POLLOUT;
            }
            fds.push(PollFd::new(c.stream.as_raw_fd(), ev));
        }
        let n = match sys::poll(&mut fds, poll_timeout(&conns, shared.cfg.partial_deadline)) {
            Ok(n) => n,
            Err(_) => {
                thread::sleep(Duration::from_millis(1));
                continue;
            }
        };
        if n > 0 {
            stacl_obs::count(Counter::NetWakeup);
        }
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }

        if fds[1].readable() {
            drain_wake(&wake_rx);
        }

        // Helper-thread pull completions: resolve the pending slot and
        // flush whatever it unblocks. Custody side effects apply first,
        // unconditionally — a completion whose connection died mid-pull
        // must still land its imported object (counted
        // `net.orphaned-completion`), or custody would silently vanish
        // from the coalition.
        while let Ok(c) = crx.try_recv() {
            if let Some((object, Some(t))) = &c.imported {
                shared.guard.note_arrival(object, *t);
            }
            if let Some(conn) = conns.iter_mut().find(|k| k.serial == c.serial) {
                for slot in conn.slots.iter_mut() {
                    if matches!(slot, Slot::Pending { token } if *token == c.token) {
                        *slot = Slot::Ready {
                            correlated: false,
                            payload: c.reply.encode(),
                        };
                        break;
                    }
                }
                flush_conn(conn);
            } else {
                // The requester is gone; the import above already
                // re-parked the object as resident here, so only the
                // reply is lost.
                stacl_obs::count(Counter::NetOrphanedCompletion);
            }
        }

        if fds[0].readable() {
            accept_ready(shared, &listener, &mut conns, &mut next_serial);
        }

        let polled = conns.len().min(fds.len().saturating_sub(2));
        let mut shutdown_requested = false;
        for i in 0..polled {
            let (readable, writable) = (fds[2 + i].readable(), fds[2 + i].writable());
            let conn = &mut conns[i];
            if writable {
                write_out(conn);
            }
            if readable && !conn.dead {
                if !read_conn(conn) {
                    conn.dead = true;
                }
                // A read that hit EOF or an I/O error may still have left
                // complete frames in the assembler — but the peer is gone
                // and can never observe a reply, so processing them would
                // mutate guard state (verdict counters, custody) on
                // behalf of a severed client. Skip them.
                if !conn.dead && process_frames(shared, &ctx, conn) {
                    shutdown_requested = true;
                }
            }
            // Slow-loris clock: ticking only while a frame sits
            // incomplete in the assembler.
            if conn.asm.has_partial() {
                if conn.partial_since.is_none() {
                    conn.partial_since = Some(Instant::now());
                }
            } else {
                conn.partial_since = None;
            }
        }

        for c in conns.iter_mut() {
            if c.dead {
                continue;
            }
            if let Some(t0) = c.partial_since {
                if t0.elapsed() >= shared.cfg.partial_deadline {
                    c.dead = true;
                    stacl_obs::count(Counter::NetPartialEviction);
                }
            }
        }
        conns.retain(|c| !c.dead);

        if shutdown_requested {
            // Best-effort: let the Shutdown reply (and anything queued
            // before it) leave before severing connections.
            for _ in 0..50 {
                if conns.iter().all(|c| c.out.is_empty()) {
                    break;
                }
                for c in conns.iter_mut() {
                    write_out(c);
                }
                thread::sleep(Duration::from_millis(1));
            }
            initiate_shutdown(shared);
            break;
        }
    }
}

/// Milliseconds until the earliest stalled-partial eviction is due, or
/// `-1` (sleep until I/O or a wake byte) when nothing is stalled.
fn poll_timeout(conns: &[Conn], deadline: Duration) -> i32 {
    let mut best: Option<Duration> = None;
    for c in conns {
        if let Some(t0) = c.partial_since {
            let left = deadline.saturating_sub(t0.elapsed());
            best = Some(best.map_or(left, |b| b.min(left)));
        }
    }
    match best {
        Some(d) => (d.as_millis().min(60_000) as i32).saturating_add(1),
        None => -1,
    }
}

fn drain_wake(mut rx: &TcpStream) {
    let mut buf = [0u8; 64];
    loop {
        match rx.read(&mut buf) {
            Ok(0) => break,
            Ok(_) => continue,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => break,
        }
    }
}

fn accept_ready(
    shared: &Arc<Shared>,
    listener: &TcpListener,
    conns: &mut Vec<Conn>,
    next_serial: &mut u64,
) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                let _ = stream.set_nodelay(true);
                let _ = stream.set_nonblocking(true);
                // Per-connection interning state: positional vocabulary
                // plus an access table pre-saturated with the policy
                // alphabet (verdicts are table-independent, so
                // connections never share one).
                let mut table = AccessTable::new();
                shared
                    .guard
                    .with_rbac_read(|r| r.saturate_alphabet(&mut table));
                *next_serial += 1;
                conns.push(Conn {
                    serial: *next_serial,
                    stream,
                    asm: FrameAssembler::new(),
                    out: Vec::new(),
                    out_pos: 0,
                    slots: VecDeque::new(),
                    vocab: Vec::new(),
                    table,
                    partial_since: None,
                    next_token: 0,
                    dead: false,
                });
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(_) => break,
        }
    }
}

/// Drain the socket into the assembler. Returns `false` when the
/// connection is finished (EOF, I/O error, or hostile frame length).
fn read_conn(conn: &mut Conn) -> bool {
    let mut buf = [0u8; 65536];
    loop {
        match conn.stream.read(&mut buf) {
            Ok(0) => return false,
            Ok(n) => {
                if conn.asm.feed(&buf[..n]).is_err() {
                    return false;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return true,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return false,
        }
    }
}

/// Decode and handle every complete frame the assembler holds, then
/// flush the replies. Returns `true` when a `Shutdown` frame arrived.
fn process_frames(shared: &Arc<Shared>, ctx: &mpsc::Sender<Completion>, conn: &mut Conn) -> bool {
    let mut shutdown = false;
    while !shutdown && !conn.dead {
        match conn.asm.next_frame() {
            Ok(Some(payload)) => match Frame::decode(&payload) {
                Ok(frame) => shutdown = handle_frame(shared, ctx, conn, frame),
                Err(e) => push_ordered(conn, err_frame(ERR_BAD_REQUEST, e.to_string())),
            },
            Ok(None) => break,
            Err(_) => {
                conn.dead = true;
            }
        }
    }
    flush_conn(conn);
    shutdown
}

/// Move eligible reply slots into the coalesced out-buffer, then write.
fn flush_conn(conn: &mut Conn) {
    let mut blocked = false;
    let mut i = 0;
    while i < conn.slots.len() {
        let eligible = match &conn.slots[i] {
            Slot::Pending { .. } => {
                blocked = true;
                false
            }
            Slot::Ready { correlated, .. } => *correlated || !blocked,
        };
        if !eligible {
            i += 1;
            continue;
        }
        let Some(Slot::Ready { payload, .. }) = conn.slots.remove(i) else {
            unreachable!("slot {i} examined above");
        };
        if wire::put_frame(&mut conn.out, &payload).is_err() {
            conn.dead = true;
            return;
        }
    }
    write_out(conn);
}

/// Write as much of the out-buffer as the socket will take without
/// blocking; the remainder rides on `POLLOUT`.
fn write_out(conn: &mut Conn) {
    if conn.dead || conn.out.is_empty() {
        return;
    }
    loop {
        match conn.stream.write(&conn.out[conn.out_pos..]) {
            Ok(0) => {
                conn.dead = true;
                return;
            }
            Ok(n) => {
                conn.out_pos += n;
                if conn.out_pos == conn.out.len() {
                    conn.out.clear();
                    conn.out_pos = 0;
                    stacl_obs::count(Counter::NetWriteFlush);
                    return;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.dead = true;
                return;
            }
        }
    }
}

fn push_ordered(conn: &mut Conn, frame: Frame) {
    conn.slots.push_back(Slot::Ready {
        correlated: false,
        payload: frame.encode(),
    });
}

fn push_correlated(conn: &mut Conn, frame: Frame) {
    conn.slots.push_back(Slot::Ready {
        correlated: true,
        payload: frame.encode(),
    });
}

fn err_frame(code: u8, msg: impl Into<String>) -> Frame {
    Frame::Err {
        code,
        msg: msg.into(),
    }
}

/// A request rejection, kept small so `Result` stays cheap on the hot
/// path; converted into an `Err` frame at the reply boundary.
struct Reject {
    code: u8,
    msg: String,
}

impl Reject {
    fn bad(msg: impl Into<String>) -> Reject {
        Reject {
            code: ERR_BAD_REQUEST,
            msg: msg.into(),
        }
    }

    fn into_frame(self) -> Frame {
        err_frame(self.code, self.msg)
    }
}

fn name_of(vocab: &[String], id: u32) -> Result<&str, Reject> {
    vocab
        .get(id as usize)
        .map(String::as_str)
        .ok_or_else(|| Reject::bad(format!("unknown vocabulary id {id}")))
}

fn mk_access(vocab: &[String], a: &WireAccess) -> Result<Access, Reject> {
    Ok(Access::new(
        name_of(vocab, a.op)?,
        name_of(vocab, a.resource)?,
        name_of(vocab, a.server)?,
    ))
}

fn finite_time(t: f64) -> Result<TimePoint, Reject> {
    if !t.is_finite() {
        return Err(Reject::bad("non-finite time"));
    }
    Ok(TimePoint::new(t))
}

struct OwnedRequest {
    object: String,
    access: Access,
    remaining: Program,
    time: TimePoint,
}

fn own_request(vocab: &[String], it: &DecideItem) -> Result<OwnedRequest, Reject> {
    let object = name_of(vocab, it.object)?.to_string();
    let access = mk_access(vocab, &it.access)?;
    let time = finite_time(it.time)?;
    let parts = it
        .remaining
        .iter()
        .map(|a| Ok(Program::Access(mk_access(vocab, a)?)))
        .collect::<Result<Vec<_>, Reject>>()?;
    Ok(OwnedRequest {
        object,
        access,
        remaining: Program::seq_all(parts),
        time,
    })
}

fn verdict_frame(v: &Verdict) -> (u8, u64, Option<String>) {
    (crate::frames::kind_to_u8(v.kind), v.epoch, v.reason.clone())
}

/// The fail-safe verdict an epoch-desynchronized member answers with:
/// counted like any other decision outcome and stamped with the stale
/// epoch this member is stuck on.
fn desync_verdict(shared: &Shared) -> Verdict {
    stacl_obs::count(Counter::VerdictDeniedCoordination);
    Verdict::denied(
        DecisionKind::DeniedCoordination,
        "policy epoch desynchronized: this member missed a coalition rollout phase",
    )
    .with_epoch(shared.guard.with_rbac_read(|r| r.epoch()))
}

/// Decide one owned request against the guard (or fail safe under epoch
/// desync). Both `Decide2` and every `DecideBatch2` item land here.
fn decide_one(shared: &Shared, req: &OwnedRequest, table: &mut AccessTable) -> Verdict {
    if shared.epoch_desync.load(Ordering::SeqCst) {
        return desync_verdict(shared);
    }
    let greq = GuardRequest {
        object: &req.object,
        access: &req.access,
        remaining: &req.remaining,
        time: req.time,
    };
    deny_on_panic(|| shared.guard.decide(&greq, &shared.proofs, table))
}

/// Run one decision. A decision that panics must not take the event
/// loop (and with it every connection) down: the guard's locks recover
/// from poisoning, so the panic is caught, counted, and this one request
/// is denied fail-safe.
fn deny_on_panic(decide: impl FnOnce() -> Verdict) -> Verdict {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(decide)).unwrap_or_else(|_| {
        stacl_obs::count(Counter::DecidePanicRecovered);
        Verdict::denied(
            DecisionKind::DeniedNoPermission,
            "internal error: decision panicked; denied fail-safe",
        )
    })
}

/// Handle one decoded frame, queueing replies as slots. Returns `true`
/// when the frame was `Shutdown`.
fn handle_frame(
    shared: &Arc<Shared>,
    ctx: &mpsc::Sender<Completion>,
    conn: &mut Conn,
    frame: Frame,
) -> bool {
    match frame {
        Frame::Hello { proto, peer: _ } => {
            let reply = if proto == PROTOCOL_VERSION as u16 {
                Frame::HelloAck {
                    proto,
                    server: shared.cfg.name.clone(),
                }
            } else {
                err_frame(ERR_BAD_REQUEST, format!("unsupported protocol {proto}"))
            };
            push_ordered(conn, reply);
        }
        Frame::Vocab { names } => {
            conn.vocab.extend(names);
            push_ordered(conn, Frame::Ok);
        }
        Frame::Enroll { object, roles } => {
            let reply = match enroll(shared, &conn.vocab, object, &roles) {
                Ok(()) => Frame::Ok,
                Err(e) => e.into_frame(),
            };
            push_ordered(conn, reply);
        }
        Frame::Decide2 { id, item } => {
            // Wrong daemon, and the ring knows who is right: refuse
            // instead of burning a fail-safe denial, so the caller can
            // locate the home and resolve in one extra hop.
            let reply = match own_request(&conn.vocab, &item).and_then(|req| {
                misrouted(shared, &req.object)?;
                Ok(req)
            }) {
                Ok(req) => {
                    let (kind, epoch, reason) =
                        verdict_frame(&decide_one(shared, &req, &mut conn.table));
                    Frame::Verdict2 {
                        id,
                        kind,
                        epoch,
                        reason,
                    }
                }
                Err(e) => Frame::Err2 {
                    id,
                    code: e.code,
                    msg: e.msg,
                },
            };
            push_correlated(conn, reply);
        }
        Frame::DecideBatch2 { id, items } => {
            // A misrouted item refuses the whole batch, like a malformed
            // one: the caller re-routes, rather than reading a fail-safe
            // denial as the home member's answer.
            let reply = match items
                .iter()
                .map(|it| {
                    let req = own_request(&conn.vocab, it)?;
                    misrouted(shared, &req.object)?;
                    Ok(req)
                })
                .collect::<Result<Vec<_>, Reject>>()
            {
                Ok(owned) => Frame::VerdictBatch2 {
                    id,
                    verdicts: owned
                        .iter()
                        .map(|req| verdict_frame(&decide_one(shared, req, &mut conn.table)))
                        .collect(),
                },
                Err(e) => Frame::Err2 {
                    id,
                    code: e.code,
                    msg: e.msg,
                },
            };
            push_correlated(conn, reply);
        }
        Frame::IssueProof {
            object,
            access,
            time,
        } => {
            let reply = match (|| {
                let object = name_of(&conn.vocab, object)?;
                let access = mk_access(&conn.vocab, &access)?;
                let time = finite_time(time)?;
                shared.proofs.issue(object, access, time);
                maybe_compact(shared, object);
                Ok::<(), Reject>(())
            })() {
                Ok(()) => Frame::Ok,
                Err(e) => e.into_frame(),
            };
            push_ordered(conn, reply);
        }
        Frame::Arrive { object, time, from } => {
            match (|| {
                let object = name_of(&conn.vocab, object)?.to_string();
                let tp = finite_time(time)?;
                Ok::<(String, TimePoint), Reject>((object, tp))
            })() {
                Ok((object, tp)) => arrive(shared, ctx, conn, object, tp, from.as_deref()),
                Err(e) => push_ordered(conn, e.into_frame()),
            }
        }
        Frame::HandoffRequest { object } => {
            let reply = handoff_out(shared, &object);
            push_ordered(conn, reply);
        }
        Frame::MetricsRequest => push_ordered(
            conn,
            Frame::MetricsJson {
                json: stacl_obs::snapshot().to_json(),
            },
        ),
        Frame::PolicyPrepare {
            epoch,
            policy,
            classes,
        } => {
            let reply = policy_prepare(shared, &mut conn.table, epoch, &policy, &classes);
            push_ordered(conn, reply);
        }
        Frame::PolicyActivate { epoch } => {
            let reply = policy_activate(shared, epoch);
            push_ordered(conn, reply);
        }
        Frame::Locate { object } => {
            // Any member answers a locate purely from the ring: O(N)
            // arithmetic, no broadcast, no directory lookup.
            let reply = match shared.guard.placement_home(&object) {
                Some(home) => {
                    let addr = if home == shared.cfg.name {
                        Some(shared.addr.to_string())
                    } else {
                        shared.peers.read().get(&home).map(|a| a.to_string())
                    };
                    Frame::Redirect { object, home, addr }
                }
                None => err_frame(ERR_STATE, "no placement ring installed"),
            };
            push_ordered(conn, reply);
        }
        Frame::Rebalance { object, from } => {
            // A peer whose ring home for `object` moved here is draining
            // it to us: pull its custody state exactly like an Arrive
            // handoff, but verdict-neutrally (no arrival is noted — the
            // object did not move in the modelled world, only its
            // custodian did).
            shared.guard.begin_handoff(&object);
            let token = conn.next_token;
            conn.next_token += 1;
            conn.slots.push_back(Slot::Pending { token });
            spawn_pull(shared, ctx, conn.serial, token, from, object, None);
        }
        Frame::Shutdown => {
            push_ordered(conn, Frame::Ok);
            return true;
        }
        // Reply frames arriving as requests are protocol violations.
        other => push_ordered(
            conn,
            err_frame(ERR_BAD_REQUEST, format!("frame {other:?} is not a request")),
        ),
    }
    false
}

/// Phase 1 of the two-phase rollout: parse and build the replacement
/// epoch off the hot path (decisions keep flowing under the old policy),
/// then stash it for the coordinator's `PolicyActivate`. Re-preparing
/// replaces any earlier pending epoch.
fn policy_prepare(
    shared: &Arc<Shared>,
    table: &mut AccessTable,
    epoch: u64,
    policy: &str,
    classes: &[(String, f64, u8)],
) -> Frame {
    let model = match parse_policy(policy) {
        Ok(m) => m,
        Err(e) => return err_frame(ERR_BAD_REQUEST, format!("policy parse error: {e}")),
    };
    let classes = match classes
        .iter()
        .map(|(n, dur, s)| Ok((n.clone(), *dur, scheme_from_u8(*s)?)))
        .collect::<Result<Vec<_>, crate::wire::WireError>>()
    {
        Ok(c) => c,
        Err(e) => return err_frame(ERR_BAD_REQUEST, e.to_string()),
    };
    match shared
        .guard
        .with_rbac_read(|r| r.prepare_epoch(model, classes, epoch, table))
    {
        Ok(prepared) => {
            *shared.pending_epoch.lock() = Some(prepared);
            Frame::EpochAck { epoch }
        }
        Err(e) => err_frame(ERR_STATE, e.to_string()),
    }
}

/// Phase 2: flip to the prepared epoch. A daemon whose pending epoch is
/// missing or different missed phase 1 of this rollout — it marks itself
/// desynchronized (counted) and fail-safes decisions rather than
/// answering under a policy the coalition has moved past.
fn policy_activate(shared: &Arc<Shared>, epoch: u64) -> Frame {
    let pending = shared.pending_epoch.lock().take();
    match pending {
        Some(prepared) if prepared.epoch() == epoch => {
            match shared.guard.with_rbac(|r| r.activate_epoch(prepared)) {
                Ok(active) => {
                    shared.epoch_desync.store(false, Ordering::SeqCst);
                    Frame::EpochAck { epoch: active }
                }
                Err(e) => {
                    stacl_obs::count(Counter::EpochDesync);
                    shared.epoch_desync.store(true, Ordering::SeqCst);
                    err_frame(ERR_STATE, e.to_string())
                }
            }
        }
        pending => {
            let had = pending.map(|p| p.epoch());
            stacl_obs::count(Counter::EpochDesync);
            shared.epoch_desync.store(true, Ordering::SeqCst);
            err_frame(
                ERR_STATE,
                match had {
                    Some(p) => {
                        format!("activate for epoch {epoch} but epoch {p} was prepared")
                    }
                    None => format!("activate for epoch {epoch} with no prepared epoch"),
                },
            )
        }
    }
}

fn enroll(
    shared: &Arc<Shared>,
    vocab: &[String],
    object: u32,
    roles: &[u32],
) -> Result<(), Reject> {
    let object = name_of(vocab, object)?;
    let roles = roles
        .iter()
        .map(|r| name_of(vocab, *r))
        .collect::<Result<Vec<_>, Reject>>()?;
    shared.guard.enroll(object, roles);
    Ok(())
}

/// Admit an arrival. When custody enforcement is on and `from` names a
/// different member, the handoff pull runs on a helper thread: a pending
/// slot holds the reply position while the object stays in-flight
/// (fail-safe denials) until the pull lands.
fn arrive(
    shared: &Arc<Shared>,
    ctx: &mpsc::Sender<Completion>,
    conn: &mut Conn,
    object: String,
    time: TimePoint,
    from: Option<&str>,
) {
    if shared.guard.custody_enforced() {
        match from {
            Some(peer) if peer != shared.cfg.name => {
                shared.guard.begin_handoff(&object);
                let token = conn.next_token;
                conn.next_token += 1;
                conn.slots.push_back(Slot::Pending { token });
                spawn_pull(
                    shared,
                    ctx,
                    conn.serial,
                    token,
                    peer.to_string(),
                    object,
                    Some(time),
                );
                return;
            }
            _ => {
                // A first arrival claims custody — but under a placement
                // ring the claim must land on the object's ring home, or
                // two members could both believe themselves custodian.
                if let Err(e) = shared.guard.take_custody(&object) {
                    push_ordered(conn, err_frame(ERR_NOT_CUSTODIAN, e));
                    return;
                }
            }
        }
    }
    shared.guard.note_arrival(&object, time);
    push_ordered(conn, Frame::Ok);
}

/// Refuse a decide for `object` with `ERR_NOT_CUSTODIAN` instead of a
/// fail-safe denial when custody is enforced, the object is `Remote`
/// here, and the placement ring names a different member as its home.
/// Counted `placement.redirect`.
fn misrouted(shared: &Shared, object: &str) -> Result<(), Reject> {
    if !shared.guard.custody_enforced() || shared.guard.custody_of(object) != Custody::Remote {
        return Ok(());
    }
    match shared.guard.placement_home(object) {
        Some(home) if home != shared.cfg.name => {
            stacl_obs::count(Counter::PlacementRedirect);
            Err(Reject {
                code: ERR_NOT_CUSTODIAN,
                msg: format!("{object} is homed on {home}"),
            })
        }
        _ => Ok(()),
    }
}

/// Fold the compactable prefix of `object`'s proof history into its
/// sealed summary once enough live proofs accumulate. The watermark is
/// the minimum warm-cursor consumed count — no cursor ever needs to
/// re-read below it — falling back to the full history when the object
/// has no warm cursors at all.
fn maybe_compact(shared: &Shared, object: &str) {
    let trigger = shared.cfg.compact_after;
    if trigger == 0 || shared.proofs.live_proof_count(object) < trigger {
        return;
    }
    let watermark = shared.proofs.watermark_of(object);
    let upto = shared
        .guard
        .with_rbac_read(|r| r.min_cursor_consumed(object))
        .unwrap_or(watermark);
    shared.proofs.compact_prefix(object, upto);
}

/// Run a handoff pull off the event loop. `arrival` is `None` for a
/// verdict-neutral rebalance pull (custody moves; no arrival is noted).
/// The completion lands via the channel and a wake byte; the event loop
/// applies the arrival side effect at drain time so a completion for a
/// since-closed connection still lands its custody (counted
/// `net.orphaned-completion`) instead of being silently dropped.
fn spawn_pull(
    shared: &Arc<Shared>,
    ctx: &mpsc::Sender<Completion>,
    serial: u64,
    token: u64,
    peer: String,
    object: String,
    arrival: Option<TimePoint>,
) {
    let shared = Arc::clone(shared);
    let ctx = ctx.clone();
    let _ = thread::Builder::new()
        .name("stacl-net-pull".to_string())
        .spawn(move || {
            let (reply, imported) = match pull_handoff(&shared, &peer, &object, arrival) {
                Ok(()) => (Frame::Ok, Some((object, arrival))),
                Err(msg) => (err_frame(ERR_HANDOFF, msg), None),
            };
            let _ = ctx.send(Completion {
                serial,
                token,
                reply,
                imported,
            });
            wake(&shared);
        });
}

/// Serve a custody handoff to a pulling peer.
fn handoff_out(shared: &Arc<Shared>, object: &str) -> Frame {
    if shared.guard.custody_enforced() && shared.guard.custody_of(object) != Custody::Resident {
        return err_frame(
            ERR_NOT_CUSTODIAN,
            format!(
                "{object} custody is {} on {}",
                shared.guard.custody_of(object).label(),
                shared.cfg.name
            ),
        );
    }
    // Export marks the object remote here: from this point on, this
    // member fail-safes its decisions and the puller is the custodian.
    let h = shared.guard.export_object(object);
    let watermark = shared.proofs.watermark_of(object) as u64;
    let base = shared.proofs.compaction_base(object) as u64;
    let sender_clock = h.gate.arrivals.last().map(|t| t.seconds()).unwrap_or(0.0) + shared.cfg.skew;
    Frame::HandoffState {
        object: object.to_string(),
        state: HandoffWire::from_handoff(&h, watermark, base, sender_clock, shared.cfg.skew),
    }
}

/// Pull the object's custody state from `peer`, with bounded retries and
/// doubling backoff. Counts `net.retry` per re-attempt, and exactly one
/// of `net.handoff-applied` / `net.handoff-failed` per pull.
fn pull_handoff(
    shared: &Arc<Shared>,
    peer: &str,
    object: &str,
    arrival: Option<TimePoint>,
) -> Result<(), String> {
    let Some(addr) = shared.peers.read().get(peer).copied() else {
        stacl_obs::count(Counter::NetHandoffFailed);
        return Err(format!("unknown peer {peer}"));
    };
    let t0 = stacl_obs::handoff_timer();
    let mut backoff = shared.cfg.handoff_backoff;
    let mut last_err = String::new();
    for attempt in 0..=shared.cfg.handoff_retries {
        if attempt > 0 {
            stacl_obs::count(Counter::NetRetry);
            thread::sleep(backoff);
            backoff = backoff.saturating_mul(2);
        }
        match try_pull(shared, addr, object) {
            Ok(state) => {
                let outcome = apply_handoff(shared, object, arrival, &state);
                if outcome.is_err() {
                    stacl_obs::count(Counter::NetHandoffFailed);
                } else {
                    stacl_obs::count(Counter::NetHandoffApplied);
                    stacl_obs::observe_handoff(t0);
                }
                return outcome;
            }
            Err(e) => last_err = e,
        }
    }
    stacl_obs::count(Counter::NetHandoffFailed);
    Err(format!(
        "handoff of {object} from {peer} failed after {} attempts: {last_err}",
        shared.cfg.handoff_retries + 1
    ))
}

/// Validate and import a pulled handoff payload. A malformed payload is
/// not retried — the peer answered; its answer is bad.
fn apply_handoff(
    shared: &Arc<Shared>,
    object: &str,
    arrival: Option<TimePoint>,
    state: &HandoffWire,
) -> Result<(), String> {
    let handoff = state
        .to_handoff()
        .map_err(|e| format!("malformed handoff payload: {e}"))?;
    // Every cursor seed must sit at or above the sender's compaction
    // base: a seed below it would claim a cursor position inside history
    // the sender has already sealed, which no replay here can reproduce.
    if let Some((perm, n)) = handoff
        .gate
        .cursor_seeds
        .iter()
        .find(|(_, n)| *n < state.compaction_base)
    {
        return Err(format!(
            "cursor seed for {perm} at {n} is behind compaction base {}",
            state.compaction_base
        ));
    }
    // Wire-level clock check: admitting the arrival must not move this
    // member's skewed clock behind the sender's released clock view.
    // (A rebalance pull has no arrival: custody moves, the object's
    // modelled position does not.)
    if let Some(arrival) = arrival {
        if state.sender_clock.is_finite()
            && state.sender_clock > arrival.seconds() + shared.cfg.skew
        {
            stacl_obs::count(Counter::ClockRegression);
        }
    }
    shared.guard.import_object(object, &handoff)?;
    // Warm the receiver's cursors from the (replicated) local proof
    // history. Purely an optimisation seed: a cursor that fails to warm
    // leaves the decision path on its cold-start fallback.
    shared.guard.with_rbac(|r| {
        let mut t = AccessTable::new();
        r.saturate_alphabet(&mut t);
        for (perm, _) in &handoff.gate.cursor_seeds {
            let _ = r.warm_cursor(object, perm, &shared.proofs, &mut t);
        }
    });
    Ok(())
}

/// Tell the new home at `addr` to pull `object` from this member. The
/// reply (`Ok` once its pull lands, or an error) closes the drain for
/// this key.
fn rebalance_push(shared: &Shared, addr: SocketAddr, object: &str) -> Result<(), String> {
    let mut stream =
        TcpStream::connect_timeout(&addr, shared.cfg.io_timeout).map_err(|e| e.to_string())?;
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(shared.cfg.io_timeout));
    let _ = stream.set_write_timeout(Some(shared.cfg.io_timeout));
    send(
        &mut stream,
        &Frame::Hello {
            proto: PROTOCOL_VERSION as u16,
            peer: shared.cfg.name.clone(),
        },
    )?;
    match recv(&mut stream)? {
        Frame::HelloAck { .. } => {}
        other => return Err(format!("expected HelloAck, got {other:?}")),
    }
    send(
        &mut stream,
        &Frame::Rebalance {
            object: object.to_string(),
            from: shared.cfg.name.clone(),
        },
    )?;
    match recv(&mut stream)? {
        Frame::Ok => Ok(()),
        Frame::Err { code, msg } => Err(format!("rebalance refused (code {code}): {msg}")),
        other => Err(format!("expected Ok, got {other:?}")),
    }
}

fn send(stream: &mut TcpStream, frame: &Frame) -> Result<(), String> {
    wire::write_frame(stream, &frame.encode()).map_err(|e| e.to_string())
}

fn recv(stream: &mut TcpStream) -> Result<Frame, String> {
    let payload = wire::read_frame(stream).map_err(|e| e.to_string())?;
    Frame::decode(&payload).map_err(|e| e.to_string())
}

fn try_pull(shared: &Shared, addr: SocketAddr, object: &str) -> Result<HandoffWire, String> {
    let mut stream =
        TcpStream::connect_timeout(&addr, shared.cfg.io_timeout).map_err(|e| e.to_string())?;
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(shared.cfg.io_timeout));
    let _ = stream.set_write_timeout(Some(shared.cfg.io_timeout));
    send(
        &mut stream,
        &Frame::Hello {
            proto: PROTOCOL_VERSION as u16,
            peer: shared.cfg.name.clone(),
        },
    )?;
    match recv(&mut stream)? {
        Frame::HelloAck { .. } => {}
        other => return Err(format!("expected HelloAck, got {other:?}")),
    }
    send(
        &mut stream,
        &Frame::HandoffRequest {
            object: object.to_string(),
        },
    )?;
    match recv(&mut stream)? {
        Frame::HandoffState { object: o, state } if o == object => Ok(state),
        Frame::Err { code, msg } => Err(format!("peer refused handoff (code {code}): {msg}")),
        other => Err(format!("expected HandoffState, got {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_panicking_decision_is_denied_and_counted() {
        stacl_obs::set_telemetry(true);
        let before = stacl_obs::snapshot();
        let v = deny_on_panic(|| panic!("injected decision fault"));
        assert_eq!(v.kind, DecisionKind::DeniedNoPermission);
        assert!(v.reason.as_deref().unwrap_or("").contains("panicked"));
        let d = stacl_obs::snapshot().diff(&before);
        assert_eq!(d.counter(Counter::DecidePanicRecovered), 1);
        // A decision that returns is passed through untouched.
        assert!(deny_on_panic(Verdict::granted).is_granted());
    }
}
