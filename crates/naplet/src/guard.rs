//! The security-guard interception point — the Rust counterpart of the
//! Naplet prototype's `NapletSecurityManager` (§5.2).
//!
//! Every shared-resource access an agent attempts flows through exactly
//! one [`SecurityGuard::check`] call carrying the requesting object, the
//! access, the object's *remaining program* and the current time; the
//! guard also sees the proof store (the object's cross-server history) and
//! may record state of its own.
//!
//! [`CoordinatedGuard`] keeps one **object table**: each entry holds the
//! object's custody on this member and, once the object is enrolled, a
//! shard (enrolled roles, open session, clean record) behind its own
//! lock. One table lookup per decision yields both. The decision path
//! ([`CoordinatedGuard::decide`]) takes `&self`, so one guard can serve
//! concurrent per-object request streams; the
//! [`SecurityGuard`] impl is a thin `&mut` adapter over it. The decision
//! core itself is `&self` too ([`ExtendedRbac::decide`]), held behind a
//! read-write lock that decisions only *read* — writers are the rare
//! policy mutations ([`CoordinatedGuard::with_rbac`]) and first-contact
//! session opens.

use stacl_coalition::{DecisionKind, Placement, ProofStore, Verdict};
use stacl_ids::sync::{Mutex, RwLock};
use stacl_rbac::{AccessRequest, ExtendedRbac, ObjectGateExport, SessionId};
use stacl_sral::ast::{name, Name};
use stacl_sral::{Access, Program};
use stacl_temporal::TimePoint;
use stacl_trace::AccessTable;

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// One interception: everything a guard may consult.
pub struct GuardRequest<'a> {
    /// The requesting mobile object.
    pub object: &'a str,
    /// The access being attempted.
    pub access: &'a Access,
    /// The object's remaining program (declared future behaviour),
    /// including the access being attempted.
    pub remaining: &'a Program,
    /// Current virtual time.
    pub time: TimePoint,
}

/// The interception interface.
pub trait SecurityGuard: Send {
    /// Decide the request. Proof issuance and logging are done by the
    /// system after a grant.
    fn check(
        &mut self,
        req: &GuardRequest<'_>,
        proofs: &ProofStore,
        table: &mut AccessTable,
    ) -> Verdict;

    /// Notification that `object` arrived at a server (migration or
    /// creation) — lets temporal schemes refill per-server budgets.
    fn note_arrival(&mut self, _object: &str, _time: TimePoint) {}
}

/// A guard that grants everything — the no-access-control baseline and
/// the default for substrate tests.
pub struct PermissiveGuard;

impl SecurityGuard for PermissiveGuard {
    fn check(
        &mut self,
        _req: &GuardRequest<'_>,
        _proofs: &ProofStore,
        _table: &mut AccessTable,
    ) -> Verdict {
        Verdict::granted()
    }
}

/// How the coordinated guard interprets the spatial constraint at each
/// interception.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum EnforcementMode {
    /// **Preventive** (Eq. 3.1 verbatim): the object's *entire declared
    /// remaining program* must satisfy the constraint on every trace. An
    /// over-committing program is denied at its very first access, before
    /// any damage. The default.
    #[default]
    Preventive,
    /// **Reactive**: only the proven history plus the access being
    /// attempted are checked. Denial happens exactly at the access that
    /// would cross the line — the reading behind the paper's motivating
    /// "overused on s1 ⇒ denied on s2" example.
    Reactive,
}

/// Where an object's custody stands on one coalition member. With
/// custody enforcement enabled ([`CoordinatedGuard::set_custody_enforcement`]),
/// only the member whose custody is [`Custody::Resident`] answers
/// decisions for the object — everyone else denies fail-safe with
/// [`DecisionKind::DeniedCoordination`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Custody {
    /// This member holds the object's state and answers its decisions.
    Resident,
    /// A handoff is being pulled from the previous custodian; decisions
    /// deny fail-safe until it completes.
    InFlight,
    /// Another member is (or was last known to be) the custodian.
    Remote,
}

impl Custody {
    /// A short stable label for reasons and logs.
    pub fn label(self) -> &'static str {
        match self {
            Custody::Resident => "resident",
            Custody::InFlight => "in flight",
            Custody::Remote => "remote",
        }
    }
}

/// The transferable per-object guard state: everything a custodian must
/// hand to the next one for decisions to continue seamlessly. The gate
/// export is keyed by names (see [`ObjectGateExport`]); the clean flag
/// preserves spatial-approval reuse across the migration.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ObjectHandoff {
    /// True while every decision so far was a grant.
    pub clean: bool,
    /// The object's decision-state shard inside the core.
    pub gate: ObjectGateExport,
}

/// Per-object decision state, one shard per enrolled object.
#[derive(Debug)]
struct ObjectState {
    /// Roles to activate when the session opens.
    roles: Vec<Name>,
    /// The object's open session, established on first contact.
    session: Option<SessionId>,
    /// True while every decision so far was a grant — the condition under
    /// which preventive-mode spatial approvals may be reused.
    clean: bool,
}

/// One object's entry in the guard's table. An entry exists once the
/// object is enrolled or its custody is touched; a custody-only entry
/// (an object parked here but never enrolled) carries no shard.
#[derive(Debug)]
struct ObjectEntry {
    /// This member's custody of the object. Consulted only when custody
    /// enforcement is on; single-process guards never pay for it.
    custody: Custody,
    /// The decision shard, present exactly when the object is enrolled.
    shard: Option<Arc<Mutex<ObjectState>>>,
}

impl Default for ObjectEntry {
    fn default() -> Self {
        ObjectEntry {
            custody: Custody::Remote,
            shard: None,
        }
    }
}

/// The coordinated guard: extended RBAC with spatio-temporal constraints
/// (the paper's model, end to end).
///
/// Each mobile object is an RBAC user; on its first access the guard
/// opens a session and activates the roles registered for the object via
/// [`CoordinatedGuard::enroll`].
///
/// All state lives behind interior locks: one object table whose
/// entries hold custody and, for enrolled objects, a shard with the
/// roles/session/clean record; the decision core behind a read-write lock
/// that the decide path only ever *reads* (the core's own per-object
/// gates provide mutual exclusion where it matters — see
/// `ExtendedRbac`'s module docs). The real decision path is the `&self`
/// [`CoordinatedGuard::decide`]; [`SecurityGuard::check`] simply
/// forwards to it.
pub struct CoordinatedGuard {
    /// The decision core. Decisions take the read lock; policy mutations
    /// ([`CoordinatedGuard::with_rbac`]) and first-contact session opens
    /// take the write lock. Lock order: object shard first, then this —
    /// never the reverse.
    rbac: RwLock<ExtendedRbac>,
    /// object → its custody and (once enrolled) decision shard. The map
    /// lock is never held while a shard or the core is locked.
    objects: RwLock<HashMap<Name, ObjectEntry>>,
    mode: EnforcementMode,
    /// Whether monotone approval reuse is enabled (on by default; turn
    /// off to measure the unoptimised Eq. 3.1 gate — see E10).
    approval_reuse: bool,
    /// Whether decisions require resident custody (default off — the
    /// in-process guard is its own sole custodian).
    custody_enforced: AtomicBool,
    /// The coalition's rendezvous placement ring plus this member's own
    /// name on it. When set, custody claims are validated against the
    /// ring: only the object's home may claim residency by arrival
    /// (explicit handoff imports stay authoritative), so two members can
    /// never both claim a racing arrival.
    placement: RwLock<Option<(String, Placement)>>,
}

impl CoordinatedGuard {
    /// Wrap a configured extended-RBAC instance (preventive mode).
    pub fn new(rbac: ExtendedRbac) -> Self {
        CoordinatedGuard {
            rbac: RwLock::new(rbac),
            objects: RwLock::new(HashMap::new()),
            mode: EnforcementMode::Preventive,
            approval_reuse: true,
            custody_enforced: AtomicBool::new(false),
            placement: RwLock::new(None),
        }
    }

    /// Select the enforcement mode.
    pub fn with_mode(mut self, mode: EnforcementMode) -> Self {
        self.mode = mode;
        self
    }

    /// Enable/disable monotone spatial-approval reuse (default on).
    pub fn with_approval_reuse(mut self, on: bool) -> Self {
        self.approval_reuse = on;
        self
    }

    /// Register which roles an object activates when it first appears
    /// (the Naplet authentication + role-activation step of §5.1).
    /// Re-enrolling replaces the roles; a session already open keeps the
    /// roles it was opened with.
    pub fn enroll<S: AsRef<str>>(
        &self,
        object: impl AsRef<str>,
        roles: impl IntoIterator<Item = S>,
    ) {
        let roles: Vec<Name> = roles.into_iter().map(name).collect();
        let mut map = self.objects.write();
        let entry = map.entry(name(object)).or_default();
        match &entry.shard {
            Some(shard) => {
                let shard = Arc::clone(shard);
                drop(map);
                shard.lock().roles = roles;
            }
            None => {
                entry.shard = Some(Arc::new(Mutex::new(ObjectState {
                    roles,
                    session: None,
                    clean: true,
                })))
            }
        }
    }

    /// Run a closure against the underlying RBAC engine (e.g. to inspect
    /// permission states after a run, or to define validity classes).
    /// Takes the core's write lock: concurrent decisions drain first and
    /// observe the mutation's effects afterwards.
    pub fn with_rbac<R>(&self, f: impl FnOnce(&mut ExtendedRbac) -> R) -> R {
        f(&mut self.rbac.write())
    }

    /// Run a closure against the RBAC engine read-only — concurrent
    /// decisions are *not* drained. This is how a coalition member builds
    /// a [`stacl_rbac::PreparedEpoch`] off the hot path: preparation
    /// reads the engine while decisions keep flowing; only the subsequent
    /// [`ExtendedRbac::activate_epoch`] (via
    /// [`CoordinatedGuard::with_rbac`]) takes the write lock, and only
    /// for the cheap flip.
    pub fn with_rbac_read<R>(&self, f: impl FnOnce(&ExtendedRbac) -> R) -> R {
        f(&self.rbac.read())
    }

    /// The decision shard of an enrolled `object`.
    fn shard(&self, object: &str) -> Option<Arc<Mutex<ObjectState>>> {
        self.objects.read().get(object)?.shard.clone()
    }

    /// Set this member's custody of `object`, adding a custody-only
    /// entry for an object it has not seen.
    fn set_custody(&self, object: &str, custody: Custody) {
        let mut map = self.objects.write();
        match map.get_mut(object) {
            Some(entry) => entry.custody = custody,
            None => {
                map.insert(
                    name(object),
                    ObjectEntry {
                        custody,
                        shard: None,
                    },
                );
            }
        }
    }

    /// Open the object's session and activate its enrolled roles. Called
    /// under the object's shard lock with the rbac lock held.
    fn open_session_for(
        rbac: &mut ExtendedRbac,
        object: &str,
        roles: &[Name],
    ) -> Option<SessionId> {
        let sid = rbac.open_session(object, vec![]).ok()?;
        for role in roles {
            // A role the user isn't authorized for fails activation; the
            // object then simply lacks those permissions.
            let _ = rbac.activate_role(sid, role);
        }
        Some(sid)
    }

    /// Turn custody enforcement on or off (default off). A networked
    /// coalition member turns it on so that decisions for objects it does
    /// not custody deny fail-safe instead of answering from stale state.
    pub fn set_custody_enforcement(&self, on: bool) {
        self.custody_enforced.store(on, Ordering::Relaxed);
    }

    /// Whether decisions require resident custody.
    pub fn custody_enforced(&self) -> bool {
        self.custody_enforced.load(Ordering::Relaxed)
    }

    /// This member's custody state for `object`. Unknown objects are
    /// [`Custody::Remote`]: nobody is custodian until an arrival claims it.
    pub fn custody_of(&self, object: &str) -> Custody {
        self.objects
            .read()
            .get(object)
            .map_or(Custody::Remote, |e| e.custody)
    }

    /// Install the coalition's placement ring and this member's name on
    /// it. From then on [`CoordinatedGuard::take_custody`] validates
    /// claims: only the object's rendezvous home may claim residency by
    /// arrival. Pass the new ring again on every membership change.
    pub fn set_placement(&self, member: impl Into<String>, ring: Placement) {
        *self.placement.write() = Some((member.into(), ring));
    }

    /// Remove the placement ring: custody claims go back to first-come
    /// (the pre-ring, single-custodian behaviour).
    pub fn clear_placement(&self) {
        *self.placement.write() = None;
    }

    /// The current placement ring, if one is installed.
    pub fn placement(&self) -> Option<Placement> {
        self.placement.read().as_ref().map(|(_, p)| p.clone())
    }

    /// The rendezvous home for `object` under the installed ring, if any.
    pub fn placement_home(&self, object: &str) -> Option<String> {
        self.placement
            .read()
            .as_ref()
            .and_then(|(_, p)| p.home_of(object).map(str::to_string))
    }

    /// Claim custody of `object` on this member because its arrival was
    /// local. With a placement ring installed the claim is validated:
    /// a member that is not the object's rendezvous home gets an error
    /// (counted `placement.claim-rejected`) and custody stays unclaimed —
    /// the caller maps this to a fail-safe
    /// [`DecisionKind::DeniedCoordination`]. Handoff imports do not pass
    /// through here; see [`CoordinatedGuard::import_object`].
    pub fn take_custody(&self, object: &str) -> Result<(), String> {
        if let Some((member, ring)) = self.placement.read().as_ref() {
            match ring.home_of(object) {
                Some(home) if home == member => {}
                Some(home) => {
                    stacl_obs::count(stacl_obs::Counter::PlacementClaimRejected);
                    return Err(format!(
                        "object `{object}` is homed on `{home}`, not on `{member}`"
                    ));
                }
                None => {
                    stacl_obs::count(stacl_obs::Counter::PlacementClaimRejected);
                    return Err(format!(
                        "placement ring is empty; cannot home object `{object}`"
                    ));
                }
            }
        }
        self.set_custody(object, Custody::Resident);
        Ok(())
    }

    /// The objects currently resident on this member — the drain list a
    /// custody rebalance walks after a membership change.
    pub fn resident_objects(&self) -> Vec<String> {
        self.objects
            .read()
            .iter()
            .filter(|(_, e)| e.custody == Custody::Resident)
            .map(|(n, _)| n.to_string())
            .collect()
    }

    /// Mark `object`'s custody as in flight while a handoff is pulled
    /// from its previous custodian. Decisions deny fail-safe until
    /// [`CoordinatedGuard::take_custody`] (or a successful
    /// [`CoordinatedGuard::import_object`]) resolves it.
    pub fn begin_handoff(&self, object: &str) {
        self.set_custody(object, Custody::InFlight);
    }

    /// Export `object`'s transferable state and release custody: this
    /// member stops answering for the object the moment the export is
    /// taken (fail-safe — during the transfer *nobody* grants).
    pub fn export_object(&self, object: &str) -> ObjectHandoff {
        let clean = self.shard(object).is_none_or(|st| st.lock().clean);
        let gate = self.rbac.read().export_gate(object);
        self.set_custody(object, Custody::Remote);
        ObjectHandoff { clean, gate }
    }

    /// Install a handoff received from the previous custodian and claim
    /// custody. Fails (leaving custody unclaimed) if the object is not
    /// enrolled here or the handoff is malformed.
    pub fn import_object(&self, object: &str, handoff: &ObjectHandoff) -> Result<(), String> {
        let Some(state) = self.shard(object) else {
            // A custody-only move: the previous custodian held residency
            // but no decision state (never enrolled, never decided — the
            // common case for the cold majority of a million-object
            // coalition). Park residency here; enrollment arrives with
            // policy when the object first matters.
            if handoff.clean && handoff.gate == ObjectGateExport::default() {
                self.set_custody(object, Custody::Resident);
                return Ok(());
            }
            return Err(format!("object `{object}` is not enrolled on this member"));
        };
        self.rbac.read().import_gate(object, &handoff.gate)?;
        state.lock().clean = handoff.clean;
        // An explicit import is authoritative: the previous custodian
        // already released, so residency transfers even if the ring says
        // this member is not the home (a rebalance drain will move it).
        self.set_custody(object, Custody::Resident);
        Ok(())
    }

    /// The `&self` decision path. Decisions for one object serialize on
    /// that object's shard; the decision core is only *read*-locked (its
    /// own per-object gates serialize what must be), so decisions for
    /// distinct objects run concurrently. In the steady state (session
    /// open, cursor warm or approvals reusable) a granted decision
    /// allocates nothing.
    pub fn decide(
        &self,
        req: &GuardRequest<'_>,
        proofs: &ProofStore,
        table: &mut AccessTable,
    ) -> Verdict {
        // Telemetry wrapper: one verdict counter per decision (so verdict
        // counters sum to total decisions) and a sampled latency histogram.
        let t0 = stacl_obs::decide_timer();
        let v = self.decide_inner(req, proofs, table);
        stacl_obs::count(v.kind.counter());
        stacl_obs::observe_decide(t0);
        v
    }

    fn decide_inner(
        &self,
        req: &GuardRequest<'_>,
        proofs: &ProofStore,
        table: &mut AccessTable,
    ) -> Verdict {
        // One table lookup yields both the custody state and the shard.
        let (custody, state) = match self.objects.read().get(req.object) {
            Some(e) => (e.custody, e.shard.clone()),
            None => (Custody::Remote, None),
        };
        // Custody gate first: a non-custodian member must not answer from
        // state that may be stale or in transit.
        if self.custody_enforced() && custody != Custody::Resident {
            return Verdict::denied(
                DecisionKind::DeniedCoordination,
                format!("object custody is {} on this member", custody.label()),
            )
            .with_epoch(self.rbac.read().epoch());
        }
        let Some(state) = state else {
            return DecisionKind::DeniedNoPermission.into();
        };
        // Lock order: object shard, then the rbac core.
        let mut st = state.lock();
        let sid = match st.session {
            Some(sid) => sid,
            None => {
                // First contact: session open mutates the core — brief
                // write lock, released before the decision proper.
                let mut rbac = self.rbac.write();
                let Some(sid) = Self::open_session_for(&mut rbac, req.object, &st.roles) else {
                    return DecisionKind::DeniedNoPermission.into();
                };
                st.session = Some(sid);
                sid
            }
        };
        let rbac = self.rbac.read();
        // In reactive mode only the attempted access itself is declared.
        let single;
        let program: &Program = match self.mode {
            EnforcementMode::Preventive => req.remaining,
            EnforcementMode::Reactive => {
                single = Program::Access(req.access.clone());
                &single
            }
        };
        // Spatial approvals are monotone along clean preventive execution
        // (see `AccessRequest::reuse_spatial`).
        let object_clean = st.clean;
        let request = AccessRequest {
            object: req.object,
            session: sid,
            access: req.access,
            program,
            time: req.time,
            reuse_spatial: self.approval_reuse
                && self.mode == EnforcementMode::Preventive
                && object_clean,
        };
        let decision = rbac.decide(&request, proofs, table);
        st.clean = object_clean && decision.is_granted();
        decision
    }

    /// `&self` arrival notification (see [`SecurityGuard::note_arrival`]).
    /// A read lock suffices: arrivals touch only the object's own gate
    /// shard inside the core.
    pub fn note_arrival(&self, object: &str, time: TimePoint) {
        self.rbac.read().note_arrival(object, time);
    }
}

impl SecurityGuard for CoordinatedGuard {
    fn check(
        &mut self,
        req: &GuardRequest<'_>,
        proofs: &ProofStore,
        table: &mut AccessTable,
    ) -> Verdict {
        self.decide(req, proofs, table)
    }

    fn note_arrival(&mut self, object: &str, time: TimePoint) {
        CoordinatedGuard::note_arrival(self, object, time);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stacl_rbac::{AccessPattern, Permission, RbacModel};
    use stacl_sral::builder::access;

    fn tp(s: f64) -> TimePoint {
        TimePoint::new(s)
    }

    #[test]
    fn permissive_grants_everything() {
        let mut g = PermissiveGuard;
        let proofs = ProofStore::new();
        let mut table = AccessTable::new();
        let a = Access::new("anything", "at-all", "anywhere");
        let p = access("anything", "at-all", "anywhere");
        let req = GuardRequest {
            object: "o",
            access: &a,
            remaining: &p,
            time: tp(0.0),
        };
        assert!(g.check(&req, &proofs, &mut table).is_granted());
    }

    #[test]
    fn coordinated_guard_opens_sessions_lazily() {
        let mut m = RbacModel::new();
        m.add_user("n1");
        m.add_role("r");
        m.add_permission(Permission::new("p", AccessPattern::any()))
            .unwrap();
        m.assign_permission("r", "p").unwrap();
        m.assign_user("n1", "r").unwrap();
        let g = CoordinatedGuard::new(ExtendedRbac::new(m));
        g.enroll("n1", ["r"]);

        let proofs = ProofStore::new();
        let mut table = AccessTable::new();
        let a = Access::new("read", "x", "s");
        let p = access("read", "x", "s");
        let req = GuardRequest {
            object: "n1",
            access: &a,
            remaining: &p,
            time: tp(0.0),
        };
        // Through the shared `&self` path — no mut binding needed.
        assert!(g.decide(&req, &proofs, &mut table).is_granted());
        // Unenrolled object: denied.
        let req2 = GuardRequest {
            object: "stranger",
            access: &a,
            remaining: &p,
            time: tp(0.0),
        };
        assert_eq!(
            g.decide(&req2, &proofs, &mut table).kind,
            DecisionKind::DeniedNoPermission
        );
    }

    #[test]
    fn custody_gates_decisions_and_hands_off() {
        fn guard() -> CoordinatedGuard {
            let mut m = RbacModel::new();
            m.add_user("n1");
            m.add_role("r");
            m.add_permission(Permission::new("p", AccessPattern::any()))
                .unwrap();
            m.assign_permission("r", "p").unwrap();
            m.assign_user("n1", "r").unwrap();
            let g = CoordinatedGuard::new(ExtendedRbac::new(m));
            g.enroll("n1", ["r"]);
            g
        }
        let a = Access::new("read", "x", "s");
        let p = access("read", "x", "s");
        let req = GuardRequest {
            object: "n1",
            access: &a,
            remaining: &p,
            time: tp(0.0),
        };
        let proofs = ProofStore::new();
        let mut table = AccessTable::new();

        // Enforcement off (default): custody is never consulted.
        let g1 = guard();
        assert!(!g1.custody_enforced());
        assert!(g1.decide(&req, &proofs, &mut table).is_granted());

        // Enforcement on: no custody yet → DeniedCoordination; after an
        // arrival claims it, decisions flow.
        let g1 = guard();
        g1.set_custody_enforcement(true);
        assert_eq!(g1.custody_of("n1"), Custody::Remote);
        assert_eq!(
            g1.decide(&req, &proofs, &mut table).kind,
            DecisionKind::DeniedCoordination
        );
        g1.take_custody("n1").expect("no ring: claim is free");
        g1.note_arrival("n1", tp(0.0));
        assert!(g1.decide(&req, &proofs, &mut table).is_granted());

        // Handoff to a second member: the sender stops answering the
        // moment the export is taken; the importer answers after.
        let h = g1.export_object("n1");
        assert_eq!(g1.custody_of("n1"), Custody::Remote);
        assert_eq!(
            g1.decide(&req, &proofs, &mut table).kind,
            DecisionKind::DeniedCoordination
        );
        let g2 = guard();
        g2.set_custody_enforcement(true);
        g2.begin_handoff("n1");
        assert_eq!(g2.custody_of("n1"), Custody::InFlight);
        assert_eq!(
            g2.decide(&req, &proofs, &mut table).kind,
            DecisionKind::DeniedCoordination
        );
        g2.import_object("n1", &h).unwrap();
        assert_eq!(g2.custody_of("n1"), Custody::Resident);
        assert!(g2.decide(&req, &proofs, &mut table).is_granted());

        // Importing for a stranger fails and leaves custody unclaimed.
        let g3 = guard();
        g3.set_custody_enforcement(true);
        assert!(g3.import_object("stranger", &h).is_err());
        assert_eq!(g3.custody_of("stranger"), Custody::Remote);
    }

    /// One object-table entry through its whole lifecycle: parked by a
    /// custody-only import (no shard), enrolled, first contact, exported
    /// and imported on another member.
    #[test]
    fn object_entry_lifecycle_from_custody_only_parking() {
        fn model() -> RbacModel {
            let mut m = RbacModel::new();
            m.add_user("n1");
            m.add_role("r");
            m.add_permission(Permission::new(
                "p",
                AccessPattern::parse("read:*:*").unwrap(),
            ))
            .unwrap();
            m.assign_permission("r", "p").unwrap();
            m.assign_user("n1", "r").unwrap();
            m
        }
        let a = Access::new("read", "x", "s");
        let p = access("read", "x", "s");
        let w = Access::new("write", "x", "s");
        let wp = access("write", "x", "s");
        let req = |access, remaining, t| GuardRequest {
            object: "n1",
            access,
            remaining,
            time: tp(t),
        };
        let proofs = ProofStore::new();
        let mut table = AccessTable::new();
        let g1 = CoordinatedGuard::new(ExtendedRbac::new(model()));
        g1.set_custody_enforcement(true);

        // 1. A custody-only import parks the unenrolled object.
        let parked = ObjectHandoff {
            clean: true,
            gate: ObjectGateExport::default(),
        };
        g1.import_object("n1", &parked)
            .expect("clean default handoff parks without enrollment");
        assert_eq!(g1.custody_of("n1"), Custody::Resident);
        assert_eq!(g1.resident_objects(), vec!["n1".to_string()]);
        // Resident but shardless: past the custody gate, no permission.
        assert_eq!(
            g1.decide(&req(&a, &p, 0.0), &proofs, &mut table).kind,
            DecisionKind::DeniedNoPermission
        );

        // 2–3. Enrolling adds the shard; the first decide opens the
        // session and grants.
        g1.enroll("n1", ["r"]);
        assert!(g1.with_rbac_read(|r| r.session(SessionId(0)).is_none()));
        g1.note_arrival("n1", tp(0.0));
        assert!(g1
            .decide(&req(&a, &p, 1.0), &proofs, &mut table)
            .is_granted());
        g1.with_rbac_read(|r| {
            let s = r.session(SessionId(0)).expect("session opened");
            assert!(s.active_roles().contains("r"));
        });
        // An uncovered access denies and clears the clean record.
        assert_eq!(
            g1.decide(&req(&w, &wp, 2.0), &proofs, &mut table).kind,
            DecisionKind::DeniedNoPermission
        );

        // 4. Export releases custody and carries the clean record.
        let h = g1.export_object("n1");
        assert_eq!(g1.custody_of("n1"), Custody::Remote);
        assert!(g1.resident_objects().is_empty());
        assert!(!h.clean);
        assert_eq!(h.gate.arrivals, vec![tp(0.0)]);
        assert_eq!(
            g1.decide(&req(&a, &p, 3.0), &proofs, &mut table).kind,
            DecisionKind::DeniedCoordination
        );

        // 5. A second member restores it.
        let g2 = CoordinatedGuard::new(ExtendedRbac::new(model()));
        g2.set_custody_enforcement(true);
        g2.enroll("n1", ["r"]);
        g2.begin_handoff("n1");
        g2.import_object("n1", &h).expect("enrolled import");
        assert_eq!(g2.custody_of("n1"), Custody::Resident);
        assert!(g2
            .decide(&req(&a, &p, 3.0), &proofs, &mut table)
            .is_granted());
        let back = g2.export_object("n1");
        assert!(!back.clean, "the clean record travelled");
        assert_eq!(back.gate.arrivals, h.gate.arrivals);

        // A non-default handoff for an unenrolled object still errors and
        // leaves custody unclaimed.
        let g3 = CoordinatedGuard::new(ExtendedRbac::new(model()));
        g3.set_custody_enforcement(true);
        assert!(g3.import_object("n1", &h).is_err());
        assert_eq!(g3.custody_of("n1"), Custody::Remote);
        assert!(g3.resident_objects().is_empty());
    }

    /// Satellite regression: with a placement ring installed, two members
    /// racing the same arrival can no longer both claim residency — the
    /// non-home claim errors (counted) and that member keeps denying
    /// fail-safe with `DeniedCoordination`.
    #[test]
    fn placement_ring_rejects_double_custody_claims() {
        fn guard() -> CoordinatedGuard {
            let mut m = RbacModel::new();
            m.add_user("n1");
            m.add_role("r");
            m.add_permission(Permission::new("p", AccessPattern::any()))
                .unwrap();
            m.assign_permission("r", "p").unwrap();
            m.assign_user("n1", "r").unwrap();
            let g = CoordinatedGuard::new(ExtendedRbac::new(m));
            g.enroll("n1", ["r"]);
            g.set_custody_enforcement(true);
            g
        }
        stacl_obs::set_telemetry(true);
        let baseline = stacl_obs::snapshot();

        let ring = stacl_coalition::Placement::new(["m1", "m2"]);
        let home = ring.home_of("n1").unwrap().to_string();
        let other = if home == "m1" { "m2" } else { "m1" };

        let g_home = guard();
        g_home.set_placement(&home, ring.clone());
        let g_other = guard();
        g_other.set_placement(other, ring.clone());
        assert_eq!(g_other.placement_home("n1"), Some(home.clone()));

        // The race: both members see the arrival and claim custody.
        g_home.take_custody("n1").expect("home claim is valid");
        let err = g_other.take_custody("n1").expect_err("non-home claim");
        assert!(
            err.contains("homed on"),
            "claim error names the home: {err}"
        );
        assert_eq!(g_home.custody_of("n1"), Custody::Resident);
        assert_eq!(g_other.custody_of("n1"), Custody::Remote);

        // The loser keeps denying fail-safe.
        let a = Access::new("read", "x", "s");
        let p = access("read", "x", "s");
        let req = GuardRequest {
            object: "n1",
            access: &a,
            remaining: &p,
            time: tp(0.0),
        };
        let proofs = ProofStore::new();
        let mut table = AccessTable::new();
        g_home.note_arrival("n1", tp(0.0));
        assert!(g_home.decide(&req, &proofs, &mut table).is_granted());
        assert_eq!(
            g_other.decide(&req, &proofs, &mut table).kind,
            DecisionKind::DeniedCoordination
        );
        let d = stacl_obs::snapshot().diff(&baseline);
        assert!(
            d.counter(stacl_obs::Counter::PlacementClaimRejected) >= 1,
            "rejected claim was counted"
        );

        // An explicit handoff import stays authoritative even off-home.
        let h = g_home.export_object("n1");
        g_other.import_object("n1", &h).expect("import off-home");
        assert_eq!(g_other.custody_of("n1"), Custody::Resident);
        assert_eq!(g_other.resident_objects(), vec!["n1".to_string()]);
    }

    #[test]
    fn guard_is_share_ready() {
        fn assert_sync_send<T: Sync + Send>() {}
        assert_sync_send::<CoordinatedGuard>();
    }
}
