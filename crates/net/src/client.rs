//! A synchronous protocol client.
//!
//! One [`Client`] owns one connection to one daemon and mirrors the
//! connection's positional vocabulary: the first time a name is used it
//! is announced via a `Vocab` frame (or pre-announced in bulk with
//! [`Client::sync_vocab`]); every steady-state frame after that carries
//! only `u32` ids.
//!
//! [`Client::decide_failsafe`] is the coalition's fail-safe edge: any
//! transport or protocol failure while asking a member for a decision
//! becomes a counted `DeniedCoordination` verdict instead of an error —
//! an unreachable guard never fails open.
//!
//! ## One correlated decide path
//!
//! Every decision travels as a request-id-correlated `Decide2` frame
//! (a batch as one `DecideBatch2`), matched to its `Verdict2` or `Err2`
//! reply by id, not arrival order. [`Client::pipeline`] keeps a window
//! of up to N of them in flight at once, written coalesced (one syscall
//! flushes many requests). A full window applies **backpressure** —
//! submit blocks until a reply frees a slot; nothing is ever dropped.
//! [`Client::decide`] is the same path at window 1.
//!
//! An `Err2` resolves only the request whose id it echoes: in a
//! pipeline that request becomes a counted fail-safe
//! `DeniedCoordination`, in [`Client::decide`] an error; the rest of the
//! window keeps its real verdicts. [`Client::decide_stream_failsafe`] is
//! the pipelined fail-safe driver: a transport failure resolves *every*
//! unresolved request to a counted `DeniedCoordination`.

use std::collections::HashMap;
use std::fmt;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use stacl_coalition::{DecisionKind, Verdict};
use stacl_obs::Counter;
use stacl_sral::ast::Access;

use crate::frames::{kind_from_u8, DecideItem, Frame, WireAccess, ERR_NOT_CUSTODIAN};
use crate::wire::{self, FrameAssembler, WireError, PROTOCOL_VERSION};

/// A client-side protocol failure.
#[derive(Debug)]
pub enum NetError {
    /// The transport failed (connect, read, write, timeout).
    Io(io::Error),
    /// A reply failed to decode.
    Wire(WireError),
    /// The daemon answered with an `Err` frame, or an `Err2` for this
    /// request (`ERR_NOT_CUSTODIAN` on a misrouted decide: [`Router`]
    /// locates the home and takes the hop).
    Daemon {
        /// The machine-readable code (`ERR_*`).
        code: u8,
        /// The daemon's detail message.
        msg: String,
    },
    /// The daemon answered with a frame the request does not admit.
    Protocol(String),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "transport error: {e}"),
            NetError::Wire(e) => write!(f, "wire error: {e}"),
            NetError::Daemon { code, msg } => write!(f, "daemon error {code}: {msg}"),
            NetError::Protocol(msg) => write!(f, "protocol error: {msg}"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<io::Error> for NetError {
    fn from(e: io::Error) -> Self {
        NetError::Io(e)
    }
}

impl From<WireError> for NetError {
    fn from(e: WireError) -> Self {
        NetError::Wire(e)
    }
}

/// A connected client. Not thread-safe by design — one request stream
/// per connection; control replies arrive strictly in order, decide
/// replies are correlated by request id.
pub struct Client {
    stream: TcpStream,
    vocab: HashMap<String, u32>,
    server: String,
    /// Incremental reassembly of inbound frames: one big read can carry
    /// a whole window of pipelined replies.
    asm: FrameAssembler,
    /// Coalesced, not-yet-written decide frames.
    out: Vec<u8>,
    /// In-flight decide request ids, oldest first.
    pending: Vec<u64>,
    /// Correlated replies received but not yet claimed: the verdict, or
    /// the daemon's `Err2` for that one request.
    done: Vec<(u64, Result<Verdict, NetError>)>,
    next_id: u64,
}

impl Client {
    /// Connect, handshake at [`PROTOCOL_VERSION`], and learn the
    /// daemon's server name. The timeout (if any) applies to connect and
    /// to every subsequent read and write.
    pub fn connect(
        addr: SocketAddr,
        name: &str,
        io_timeout: Option<Duration>,
    ) -> Result<Client, NetError> {
        let stream = match io_timeout {
            Some(t) => TcpStream::connect_timeout(&addr, t)?,
            None => TcpStream::connect(addr)?,
        };
        stream.set_nodelay(true)?;
        stream.set_read_timeout(io_timeout)?;
        stream.set_write_timeout(io_timeout)?;
        let mut c = Client {
            stream,
            vocab: HashMap::new(),
            server: String::new(),
            asm: FrameAssembler::new(),
            out: Vec::new(),
            pending: Vec::new(),
            done: Vec::new(),
            next_id: 0,
        };
        match c.call(&Frame::Hello {
            proto: PROTOCOL_VERSION as u16,
            peer: name.to_string(),
        })? {
            Frame::HelloAck { server, .. } => {
                c.server = server;
                Ok(c)
            }
            other => Err(unexpected("HelloAck", &other)),
        }
    }

    /// The daemon's coalition server name (from the handshake).
    pub fn server_name(&self) -> &str {
        &self.server
    }

    /// Number of decide requests currently in flight.
    pub fn in_flight(&self) -> usize {
        self.pending.len()
    }

    /// Write out any coalesced decide frames.
    fn flush_out(&mut self) -> Result<(), NetError> {
        if self.out.is_empty() {
            return Ok(());
        }
        self.stream.write_all(&self.out)?;
        self.out.clear();
        stacl_obs::count(Counter::NetWriteFlush);
        Ok(())
    }

    /// Queue one `Decide2` frame (written at the next flush) and return
    /// its request id.
    fn queue_decide(&mut self, item: DecideItem) -> Result<u64, NetError> {
        let id = self.next_id;
        self.next_id += 1;
        wire::put_frame(&mut self.out, &Frame::Decide2 { id, item }.encode())?;
        self.pending.push(id);
        Ok(id)
    }

    /// Record a correlated completion, enforcing id discipline: a reply
    /// must match exactly one in-flight request.
    fn complete(&mut self, id: u64, r: Result<Verdict, NetError>) -> Result<(), NetError> {
        match self.pending.iter().position(|&p| p == id) {
            Some(at) => {
                self.pending.remove(at);
                self.done.push((id, r));
                Ok(())
            }
            None => Err(NetError::Protocol(format!(
                "verdict correlates to no in-flight request (id {id})"
            ))),
        }
    }

    /// Read one whole frame through the assembler (a single socket read
    /// may yield many buffered frames; later calls drain them without
    /// touching the socket).
    fn read_frame_buffered(&mut self) -> Result<Vec<u8>, NetError> {
        loop {
            if let Some(payload) = self.asm.next_frame().map_err(NetError::Wire)? {
                return Ok(payload);
            }
            let mut buf = [0u8; 65536];
            let n = self.stream.read(&mut buf)?;
            if n == 0 {
                return Err(NetError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-stream",
                )));
            }
            self.asm.feed(&buf[..n]).map_err(NetError::Wire)?;
        }
    }

    /// Read exactly one frame. A correlated `Verdict2`/`Err2` is absorbed
    /// into the completion set against its own request id and reported
    /// as `None`; anything else comes back as `Some(frame)`.
    fn absorb_one(&mut self) -> Result<Option<Frame>, NetError> {
        let payload = self.read_frame_buffered()?;
        match Frame::decode(&payload)? {
            Frame::Verdict2 {
                id,
                kind,
                epoch,
                reason,
            } => {
                let v = Verdict {
                    kind: kind_from_u8(kind)?,
                    epoch,
                    reason,
                };
                self.complete(id, Ok(v))?;
                Ok(None)
            }
            Frame::Err2 { id, code, msg } if self.pending.contains(&id) => {
                self.complete(id, Err(NetError::Daemon { code, msg }))?;
                Ok(None)
            }
            f => Ok(Some(f)),
        }
    }

    /// Read until a non-correlated frame arrives (decide completions are
    /// absorbed along the way).
    fn read_reply(&mut self) -> Result<Frame, NetError> {
        loop {
            if let Some(f) = self.absorb_one()? {
                return Ok(f);
            }
        }
    }

    /// Block until at least one in-flight decide request completes.
    fn pump_one(&mut self) -> Result<(), NetError> {
        let before = self.done.len();
        while self.done.len() == before && !self.pending.is_empty() {
            if let Some(other) = self.absorb_one()? {
                return Err(unexpected("Verdict2", &other));
            }
        }
        Ok(())
    }

    fn call(&mut self, frame: &Frame) -> Result<Frame, NetError> {
        // Queued decide requests must precede this frame on the wire so
        // the daemon's interning state stays positional.
        self.flush_out()?;
        wire::write_frame(&mut self.stream, &frame.encode())?;
        match self.read_reply()? {
            Frame::Err { code, msg } => Err(NetError::Daemon { code, msg }),
            f => Ok(f),
        }
    }

    fn expect_ok(&mut self, frame: &Frame) -> Result<(), NetError> {
        match self.call(frame)? {
            Frame::Ok => Ok(()),
            other => Err(unexpected("Ok", &other)),
        }
    }

    /// Announce `names` (the not-yet-known ones) in one `Vocab` frame.
    pub fn sync_vocab<'a>(
        &mut self,
        names: impl IntoIterator<Item = &'a str>,
    ) -> Result<(), NetError> {
        let mut fresh: Vec<String> = Vec::new();
        for n in names {
            if !self.vocab.contains_key(n) && !fresh.iter().any(|f| f == n) {
                fresh.push(n.to_string());
            }
        }
        if fresh.is_empty() {
            return Ok(());
        }
        self.expect_ok(&Frame::Vocab {
            names: fresh.clone(),
        })?;
        for n in fresh {
            let id = self.vocab.len() as u32;
            self.vocab.insert(n, id);
        }
        Ok(())
    }

    fn id(&mut self, name: &str) -> Result<u32, NetError> {
        if let Some(&id) = self.vocab.get(name) {
            return Ok(id);
        }
        self.expect_ok(&Frame::Vocab {
            names: vec![name.to_string()],
        })?;
        let id = self.vocab.len() as u32;
        self.vocab.insert(name.to_string(), id);
        Ok(id)
    }

    fn wire_access(&mut self, a: &Access) -> Result<WireAccess, NetError> {
        Ok(WireAccess {
            op: self.id(&a.op)?,
            resource: self.id(&a.resource)?,
            server: self.id(&a.server)?,
        })
    }

    fn item(
        &mut self,
        object: &str,
        access: &Access,
        remaining: &[Access],
        time: f64,
    ) -> Result<DecideItem, NetError> {
        let object = self.id(object)?;
        let access = self.wire_access(access)?;
        let remaining = remaining
            .iter()
            .map(|a| self.wire_access(a))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(DecideItem {
            object,
            time,
            access,
            remaining,
        })
    }

    /// Enroll `object` with its activated roles on the daemon.
    pub fn enroll(&mut self, object: &str, roles: &[&str]) -> Result<(), NetError> {
        let object = self.id(object)?;
        let roles = roles
            .iter()
            .map(|r| self.id(r))
            .collect::<Result<Vec<_>, _>>()?;
        self.expect_ok(&Frame::Enroll { object, roles })
    }

    /// Announce an arrival; `from` names the previous custodian when
    /// custody must move (triggering the daemon-to-daemon handoff pull).
    pub fn arrive(&mut self, object: &str, time: f64, from: Option<&str>) -> Result<(), NetError> {
        let object = self.id(object)?;
        self.expect_ok(&Frame::Arrive {
            object,
            time,
            from: from.map(str::to_string),
        })
    }

    /// Replicate an execution proof onto the daemon.
    pub fn issue_proof(
        &mut self,
        object: &str,
        access: &Access,
        time: f64,
    ) -> Result<(), NetError> {
        let object = self.id(object)?;
        let access = self.wire_access(access)?;
        self.expect_ok(&Frame::IssueProof {
            object,
            access,
            time,
        })
    }

    /// Ask for one decision: a single `Decide2` round trip (a window of
    /// 1). `remaining` is the object's declared future accesses,
    /// including the attempted one. Returns only this request's result —
    /// completions of other requests on the connection stay unclaimed —
    /// and an `Err2` for it comes back as [`NetError::Daemon`].
    pub fn decide(
        &mut self,
        object: &str,
        access: &Access,
        remaining: &[Access],
        time: f64,
    ) -> Result<Verdict, NetError> {
        let item = self.item(object, access, remaining, time)?;
        let id = self.queue_decide(item)?;
        let got = self.await_id(id);
        // Whatever happened, this request must never resolve into a
        // later call.
        self.pending.retain(|&p| p != id);
        got
    }

    /// Flush, then read until request `id` completes, and claim it.
    fn await_id(&mut self, id: u64) -> Result<Verdict, NetError> {
        self.flush_out()?;
        loop {
            if let Some(at) = self.done.iter().position(|(d, _)| *d == id) {
                return self.done.remove(at).1;
            }
            if let Some(other) = self.absorb_one()? {
                return Err(unexpected("Verdict2", &other));
            }
        }
    }

    /// Ask this daemon where `object` is homed. Any ring member answers
    /// from pure arithmetic — no broadcast. Returns the home member name
    /// and its dial address when the daemon knows one.
    pub fn locate(&mut self, object: &str) -> Result<(String, Option<String>), NetError> {
        match self.call(&Frame::Locate {
            object: object.to_string(),
        })? {
            Frame::Redirect { home, addr, .. } => Ok((home, addr)),
            other => Err(unexpected("Redirect", &other)),
        }
    }

    /// [`decide`](Client::decide), but any failure — unreachable daemon,
    /// timeout, protocol error — resolves to the fail-safe
    /// `DeniedCoordination` and counts `net.failsafe-denial`.
    pub fn decide_failsafe(
        &mut self,
        object: &str,
        access: &Access,
        remaining: &[Access],
        time: f64,
    ) -> Verdict {
        match self.decide(object, access, remaining, time) {
            Ok(v) => v,
            Err(e) => failsafe_denial(format!("coalition member unreachable: {e}")),
        }
    }

    /// Ask for a batch of decisions in one `DecideBatch2` frame, answered
    /// in order.
    pub fn decide_batch(
        &mut self,
        requests: &[(&str, &Access, &[Access], f64)],
    ) -> Result<Vec<Verdict>, NetError> {
        let items = requests
            .iter()
            .map(|(o, a, r, t)| self.item(o, a, r, *t))
            .collect::<Result<Vec<_>, _>>()?;
        let n = items.len();
        let id = self.next_id;
        self.next_id += 1;
        match self.call(&Frame::DecideBatch2 { id, items })? {
            Frame::VerdictBatch2 { id: got, verdicts } if got == id && verdicts.len() == n => {
                verdicts
                    .into_iter()
                    .map(|(kind, epoch, reason)| {
                        Ok(Verdict {
                            kind: kind_from_u8(kind)?,
                            epoch,
                            reason,
                        })
                    })
                    .collect()
            }
            Frame::VerdictBatch2 { id: got, verdicts } => Err(NetError::Protocol(format!(
                "batch {id} of {n} answered as batch {got} with {} verdicts",
                verdicts.len()
            ))),
            Frame::Err2 { id: got, code, msg } if got == id => Err(NetError::Daemon { code, msg }),
            other => Err(unexpected("VerdictBatch2", &other)),
        }
    }

    /// Phase 1 of a coalition-wide policy rollout: ship the replacement
    /// policy text (see `stacl_rbac::policy`) plus validity-class
    /// definitions `(name, duration, wire scheme)` and have the daemon
    /// build — but not install — the epoch. Returns the acknowledged
    /// epoch.
    pub fn policy_prepare(
        &mut self,
        epoch: u64,
        policy: &str,
        classes: &[(String, f64, u8)],
    ) -> Result<u64, NetError> {
        match self.call(&Frame::PolicyPrepare {
            epoch,
            policy: policy.to_string(),
            classes: classes.to_vec(),
        })? {
            Frame::EpochAck { epoch } => Ok(epoch),
            other => Err(unexpected("EpochAck", &other)),
        }
    }

    /// Phase 2: flip the daemon to the epoch it prepared. Returns the
    /// now-active epoch; a daemon that missed the prepare answers with a
    /// daemon error and fail-safes its decisions until a full rollout
    /// round reaches it.
    pub fn policy_activate(&mut self, epoch: u64) -> Result<u64, NetError> {
        match self.call(&Frame::PolicyActivate { epoch })? {
            Frame::EpochAck { epoch } => Ok(epoch),
            other => Err(unexpected("EpochAck", &other)),
        }
    }

    /// Fetch the daemon's metrics snapshot as JSON.
    pub fn metrics(&mut self) -> Result<String, NetError> {
        match self.call(&Frame::MetricsRequest)? {
            Frame::MetricsJson { json } => Ok(json),
            other => Err(unexpected("MetricsJson", &other)),
        }
    }

    /// Ask the daemon to shut down.
    pub fn shutdown_daemon(&mut self) -> Result<(), NetError> {
        self.expect_ok(&Frame::Shutdown)
    }

    /// Open a pipelined view over this connection with a window of up to
    /// `window` in-flight requests.
    pub fn pipeline(&mut self, window: usize) -> Result<Pipeline<'_>, NetError> {
        Ok(Pipeline {
            window: window.max(1),
            client: self,
        })
    }

    /// Drive `requests` through a pipelined window, resolving **every**
    /// unresolved request to a counted fail-safe `DeniedCoordination` on
    /// any transport or protocol failure — a dying member mid-window
    /// never hangs the caller and never loses a request. A request the
    /// daemon refuses with an `Err2` fails safe alone. Verdicts come back
    /// in request order; completions of requests this call did not issue
    /// stay unclaimed, and this call's unresolved requests are forgotten,
    /// so nothing crosses into another call.
    pub fn decide_stream_failsafe(
        &mut self,
        requests: &[(&str, &Access, &[Access], f64)],
        window: usize,
    ) -> Vec<Verdict> {
        let mut slot_of: HashMap<u64, usize> = HashMap::new();
        let mut out: Vec<Option<Verdict>> = Vec::new();
        out.resize_with(requests.len(), || None);
        let drive = (|| -> Result<(), NetError> {
            let mut p = self.pipeline(window)?;
            for (i, (object, access, remaining, time)) in requests.iter().enumerate() {
                let id = p.submit(object, access, remaining, *time)?;
                slot_of.insert(id, i);
                p.claim(&slot_of, &mut out);
            }
            p.client.flush_out()?;
            while p.client.pending.iter().any(|id| slot_of.contains_key(id)) {
                p.client.pump_one()?;
            }
            p.claim(&slot_of, &mut out);
            Ok(())
        })();
        self.pending.retain(|id| !slot_of.contains_key(id));
        let failure = drive.err();
        out.into_iter()
            .map(|v| {
                v.unwrap_or_else(|| {
                    failsafe_denial(match &failure {
                        Some(e) => format!("coalition member unreachable: {e}"),
                        None => "coalition member unreachable".to_string(),
                    })
                })
            })
            .collect()
    }
}

/// The counted fail-safe verdict that stands in for a decision the
/// coalition member could not give.
fn failsafe_denial(reason: String) -> Verdict {
    stacl_obs::count(Counter::NetFailsafeDenial);
    Verdict::denied(DecisionKind::DeniedCoordination, reason)
}

/// A completion as a pipeline hands it out: an `Err2` becomes the
/// counted fail-safe denial for its one request.
fn resolve(r: Result<Verdict, NetError>) -> Verdict {
    r.unwrap_or_else(|e| failsafe_denial(format!("coalition member refused the request: {e}")))
}

/// A pipelined view over a [`Client`] connection: up to `window`
/// request-id-correlated decisions in flight, coalesced writes,
/// backpressure when the window fills. Dropping the view keeps any
/// unclaimed completions on the client for the next pipelined use.
pub struct Pipeline<'a> {
    client: &'a mut Client,
    window: usize,
}

impl Pipeline<'_> {
    /// The window depth.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Requests submitted but not yet answered.
    pub fn in_flight(&self) -> usize {
        self.client.pending.len()
    }

    /// Queue one decision, returning its request id. When the window is
    /// full this **blocks** (flushes, then waits for a completion) —
    /// backpressure, never drops.
    pub fn submit(
        &mut self,
        object: &str,
        access: &Access,
        remaining: &[Access],
        time: f64,
    ) -> Result<u64, NetError> {
        while self.client.pending.len() >= self.window {
            self.client.flush_out()?;
            self.client.pump_one()?;
        }
        // Vocabulary sync may issue synchronous control calls; `call`
        // flushes the queued request bytes first, so wire order stays
        // positional.
        let item = self.client.item(object, access, remaining, time)?;
        self.client.queue_decide(item)
    }

    /// Claim completions that have already arrived (never blocks). A
    /// request the daemon refused with an `Err2` comes back as a counted
    /// fail-safe `DeniedCoordination`.
    pub fn take(&mut self) -> Vec<(u64, Verdict)> {
        self.client
            .done
            .drain(..)
            .map(|(id, r)| (id, resolve(r)))
            .collect()
    }

    /// Claim the arrived completions of the requests in `slot_of` into
    /// their slots of `out`, leaving every other completion unclaimed.
    fn claim(&mut self, slot_of: &HashMap<u64, usize>, out: &mut [Option<Verdict>]) {
        for (id, r) in self
            .client
            .done
            .extract_if(.., |(id, _)| slot_of.contains_key(id))
        {
            out[slot_of[&id]] = Some(resolve(r));
        }
    }

    /// Flush queued requests and block until at least one completion is
    /// available (or the window is empty), then claim them.
    pub fn recv_some(&mut self) -> Result<Vec<(u64, Verdict)>, NetError> {
        self.client.flush_out()?;
        if self.client.done.is_empty() {
            self.client.pump_one()?;
        }
        Ok(self.take())
    }

    /// Flush and drain the whole window, claiming every completion.
    pub fn finish(mut self) -> Result<Vec<(u64, Verdict)>, NetError> {
        self.client.flush_out()?;
        while !self.client.pending.is_empty() {
            self.client.pump_one()?;
        }
        Ok(self.take())
    }
}

/// A coalition-aware client pool that follows placement redirects.
///
/// Holds one lazily-dialed [`Client`] per member. A decision sent to the
/// wrong member is refused with `ERR_NOT_CUSTODIAN`; the router asks that
/// same member to [`Client::locate`] the object's ring home and
/// re-issues the decision there. Because every member computes the same
/// rendezvous ring, **one hop always suffices** — a second refusal is
/// reported as a protocol error rather than followed.
pub struct Router {
    name: String,
    io_timeout: Option<Duration>,
    addrs: HashMap<String, SocketAddr>,
    clients: HashMap<String, Client>,
}

impl Router {
    /// A router greeting daemons as `name`.
    pub fn new(name: &str, io_timeout: Option<Duration>) -> Router {
        Router {
            name: name.to_string(),
            io_timeout,
            addrs: HashMap::new(),
            clients: HashMap::new(),
        }
    }

    /// Register (or update) a member's dial address. An existing cached
    /// connection to that member is dropped so the next call re-dials.
    pub fn add_member(&mut self, member: &str, addr: SocketAddr) {
        self.addrs.insert(member.to_string(), addr);
        self.clients.remove(member);
    }

    /// The connected client for `member`, dialing on first use.
    pub fn client(&mut self, member: &str) -> Result<&mut Client, NetError> {
        if !self.clients.contains_key(member) {
            let addr = *self
                .addrs
                .get(member)
                .ok_or_else(|| NetError::Protocol(format!("unknown member {member}")))?;
            let c = Client::connect(addr, &self.name, self.io_timeout)?;
            self.clients.insert(member.to_string(), c);
        }
        Ok(self.clients.get_mut(member).expect("inserted above"))
    }

    /// Decide via `member`, following at most one placement redirect.
    /// Returns the verdict and the member that actually answered.
    pub fn decide(
        &mut self,
        member: &str,
        object: &str,
        access: &Access,
        remaining: &[Access],
        time: f64,
    ) -> Result<(Verdict, String), NetError> {
        match self.client(member)?.decide(object, access, remaining, time) {
            Err(NetError::Daemon {
                code: ERR_NOT_CUSTODIAN,
                ..
            }) => {}
            other => return other.map(|v| (v, member.to_string())),
        }
        // Not the custodian: learn the home (and its address, when the
        // refusing member knows it), then take the single hop.
        let (home, addr) = self.client(member)?.locate(object)?;
        if let Some(a) = addr.and_then(|a| a.parse::<SocketAddr>().ok()) {
            self.addrs.entry(home.clone()).or_insert(a);
        }
        match self.client(&home)?.decide(object, access, remaining, time) {
            Err(NetError::Daemon {
                code: ERR_NOT_CUSTODIAN,
                msg,
            }) => Err(NetError::Protocol(format!(
                "{object} redirected twice: {member} -> {home} -> {msg}"
            ))),
            other => other.map(|v| (v, home)),
        }
    }
}

fn unexpected(wanted: &str, got: &Frame) -> NetError {
    NetError::Protocol(format!("expected {wanted}, got {got:?}"))
}
