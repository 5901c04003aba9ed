//! Seed-driven scenario generation.
//!
//! A [`Scenario`] is the complete, self-contained description of one
//! simulated coalition run: the topology, the RBAC policy (roles,
//! permissions, spatial SRAC constraints, temporal validity budgets,
//! validity classes, inheritance), the mobile objects and their
//! enrollments, per-server clock skews, and a strictly time-ordered event
//! schedule mixing accesses, server arrivals (some dropped in flight) and
//! mid-flight server deaths.
//!
//! Everything is derived from a single `u64` seed through the
//! [`SplitMix64`] generator, so a seed *is* a scenario: the repro
//! workflow only ever ships seeds, never serialized state.

use std::fmt;

use stacl_ids::rng::SplitMix64;
use stacl_naplet::guard::EnforcementMode;
use stacl_srac::{Constraint, Selector};
use stacl_sral::Access;
use stacl_temporal::BaseTimeScheme;

/// Operation vocabulary the generator draws from.
const OPS: [&str; 3] = ["read", "write", "exec"];

/// A CIDR attribute on a permission: raw allow/deny blocks over the
/// scenario's [`Scenario::server_ips`] map, lowered to a pure SRAC
/// constraint at model-build time (the oracle re-evaluates it by naive
/// bitmask membership instead).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct AttrCidrSpec {
    /// CIDR allow blocks (source strings, e.g. `"10.1.0.0/16"`).
    pub allow: Vec<String>,
    /// CIDR deny blocks (deny wins).
    pub deny: Vec<String>,
}

/// A cron attribute on a permission: a calendar window schedule with a
/// per-fire duration, lowered to an ordinary validity budget at each
/// epoch's reference time (the oracle re-derives the budget by naive
/// per-second expansion instead).
#[derive(Clone, PartialEq, Debug)]
pub struct AttrCronSpec {
    /// Cron expression (5-field, or 6-field with leading seconds).
    pub expr: String,
    /// Seconds each fire keeps the window open.
    pub dur: f64,
}

/// One generated permission.
#[derive(Clone, Debug)]
pub struct PermSpec {
    /// Permission name (`p0`, `p1`, …).
    pub name: String,
    /// Granted operation (`None` = wildcard).
    pub op: Option<String>,
    /// Granted resource (`None` = wildcard).
    pub resource: Option<String>,
    /// Granted server (`None` = wildcard).
    pub server: Option<String>,
    /// Spatial SRAC constraint, if any.
    pub spatial: Option<Constraint>,
    /// Evaluate the constraint against the team's combined history.
    pub team_scope: bool,
    /// Validity duration in seconds, if time-sensitive.
    pub validity: Option<f64>,
    /// Base-time scheme for the validity integral.
    pub scheme: BaseTimeScheme,
    /// Validity class name, if the permission draws from a shared budget.
    /// May reference an undefined class (exercises the fallback path).
    pub class: Option<String>,
    /// CIDR attribute rule; takes precedence over `spatial` when set.
    pub attr_cidr: Option<AttrCidrSpec>,
    /// Cron attribute window; takes precedence over `validity`/`scheme`
    /// when set (lowered budgets always use the whole-lifetime scheme).
    pub attr_cron: Option<AttrCronSpec>,
}

/// One generated validity class (a shared per-object budget).
#[derive(Clone, Debug)]
pub struct ClassSpec {
    /// Class name.
    pub name: String,
    /// Shared budget duration in seconds.
    pub dur: f64,
    /// Base-time scheme of the shared budget.
    pub scheme: BaseTimeScheme,
}

/// One generated role: a name plus indices into [`Scenario::perms`].
#[derive(Clone, Debug)]
pub struct RoleSpec {
    /// Role name (`role0`, `role1`, …).
    pub name: String,
    /// Indices of the permissions assigned to this role.
    pub perms: Vec<usize>,
}

/// One generated mobile object.
#[derive(Clone, Debug)]
pub struct ObjectSpec {
    /// Object name (`n0`, `n1`, …).
    pub name: String,
    /// Indices of the roles assigned to the object (RBAC `UA`).
    pub assigned: Vec<usize>,
    /// Indices of the roles the guard tries to activate on first contact.
    /// May include unassigned roles (whose activation silently fails).
    pub enrolled: Vec<usize>,
}

/// One policy revision installed by a mid-episode [`Event::PolicyFlip`]:
/// the full replacement permission set and role→permission assignment.
/// Everything else — names, roles, objects, classes, inheritance,
/// validity attributes — is fixed across revisions, so budget keys,
/// enrollments and team scoping are revision-invariant.
#[derive(Clone, Debug)]
pub struct PolicyRev {
    /// Replacement permissions (same names and count as
    /// [`Scenario::perms`]; only grant patterns and spatial constraints
    /// move).
    pub perms: Vec<PermSpec>,
    /// Replacement role→permission assignment, indexed like
    /// [`Scenario::roles`].
    pub role_perms: Vec<Vec<usize>>,
}

/// One scheduled event. Times are strictly increasing across the episode.
#[derive(Clone, Debug)]
pub enum Event {
    /// Object attempts an access.
    Access {
        /// Index into [`Scenario::objects`].
        obj: usize,
        /// The attempted access.
        access: Access,
        /// Request time.
        time: f64,
    },
    /// Object arrives at a server (migration). A dropped arrival is lost
    /// in flight: neither the guard nor the oracle observes it, but the
    /// schedule records it for fault-injection realism.
    Arrival {
        /// Index into [`Scenario::objects`].
        obj: usize,
        /// Destination server name.
        server: String,
        /// Arrival time.
        time: f64,
        /// Whether the notification was lost in flight.
        dropped: bool,
    },
    /// A coalition server dies; later accesses targeting it are denied at
    /// the topology layer without consulting the guard.
    ServerDeath {
        /// The dying server's name.
        server: String,
        /// Death time.
        time: f64,
    },
    /// A coalition-wide policy rollout lands: revision `rev` becomes the
    /// active policy (epoch `rev`) on every member before the next event.
    PolicyFlip {
        /// 1-based index into [`Scenario::revisions`].
        rev: usize,
        /// Activation time.
        time: f64,
    },
}

impl Event {
    /// The event's scheduled time.
    pub fn time(&self) -> f64 {
        match self {
            Event::Access { time, .. }
            | Event::Arrival { time, .. }
            | Event::ServerDeath { time, .. }
            | Event::PolicyFlip { time, .. } => *time,
        }
    }
}

/// A named mobility profile: a workload shape for the itinerary
/// generator. Profile scenarios carry attribute (CIDR/cron) permissions
/// and a server→IPv4 map, so every profile sweep also differentially
/// validates the attribute lowering pipeline.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Profile {
    /// Objects oscillate between a home and an office server on a
    /// regular cadence; office access rides a cron window.
    Commuter,
    /// All objects move together through the server sequence, accessing
    /// at every hop.
    FleetConvoy,
    /// Scattered objects converge on one hot server in a burst, then
    /// disperse.
    FlashCrowd,
    /// A server dies mid-episode; its residents migrate to survivors and
    /// resume (stale accesses still target the dead server).
    PartitionHeal,
    /// A TRBAC-style task chain: `prepare` → `approve` → `commit`, where
    /// commit requires approved history and approve rides a cron window.
    Workflow,
}

impl Profile {
    /// Every profile, in CLI order.
    pub const ALL: [Profile; 5] = [
        Profile::Commuter,
        Profile::FleetConvoy,
        Profile::FlashCrowd,
        Profile::PartitionHeal,
        Profile::Workflow,
    ];

    /// CLI name.
    pub fn name(self) -> &'static str {
        match self {
            Profile::Commuter => "commuter",
            Profile::FleetConvoy => "fleet-convoy",
            Profile::FlashCrowd => "flash-crowd",
            Profile::PartitionHeal => "partition-heal",
            Profile::Workflow => "workflow",
        }
    }

    /// Parse the CLI name.
    pub fn parse(s: &str) -> Result<Profile, String> {
        Profile::ALL
            .into_iter()
            .find(|p| p.name() == s)
            .ok_or_else(|| {
                let names: Vec<&str> = Profile::ALL.iter().map(|p| p.name()).collect();
                format!("unknown profile `{s}` (expected {})", names.join(", "))
            })
    }
}

/// A complete generated simulation scenario.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// The generating seed.
    pub seed: u64,
    /// The mobility profile the scenario was generated from, if any.
    /// Recorded in the episode log header so replays are self-describing.
    pub profile: Option<Profile>,
    /// Server name → dotted-quad IPv4 address. Empty unless generated by
    /// [`Scenario::generate_profile`] (attribute scenarios only).
    pub server_ips: Vec<(String, String)>,
    /// Guard enforcement mode.
    pub mode: EnforcementMode,
    /// Whether monotone spatial-approval reuse is enabled on the guard.
    pub approval_reuse: bool,
    /// Coalition server names (`s0`, `s1`, …).
    pub servers: Vec<String>,
    /// Per-server clock skew in seconds (applied to proof timestamps).
    pub skews: Vec<f64>,
    /// Resource names (`r0`, `r1`, …), hosted on every server.
    pub resources: Vec<String>,
    /// Operation names.
    pub ops: Vec<String>,
    /// Validity classes (shared budgets).
    pub classes: Vec<ClassSpec>,
    /// Permissions.
    pub perms: Vec<PermSpec>,
    /// Roles.
    pub roles: Vec<RoleSpec>,
    /// Role-inheritance edges as `(senior, junior)` indices into
    /// [`Scenario::roles`]; always `senior < junior`, hence acyclic.
    pub inherits: Vec<(usize, usize)>,
    /// Mobile objects.
    pub objects: Vec<ObjectSpec>,
    /// Policy revisions installed by [`Event::PolicyFlip`] events, in
    /// epoch order (revision `k` is epoch `k`; the base policy is
    /// epoch 0). Empty unless generated with
    /// [`Scenario::generate_churn`].
    pub revisions: Vec<PolicyRev>,
    /// The time-ordered event schedule.
    pub events: Vec<Event>,
}

impl Scenario {
    /// Deterministically generate the scenario for a seed.
    pub fn generate(seed: u64) -> Scenario {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let r = &mut rng;

        // Topology.
        let n_servers = r.gen_range(2usize..5);
        let servers: Vec<String> = (0..n_servers).map(|i| format!("s{i}")).collect();
        let skews: Vec<f64> = (0..n_servers)
            .map(|_| {
                if r.gen_bool(0.3) {
                    r.gen_range(1i64..5) as f64
                } else {
                    0.0
                }
            })
            .collect();
        let n_resources = r.gen_range(2usize..4);
        let resources: Vec<String> = (0..n_resources).map(|i| format!("r{i}")).collect();
        let n_ops = r.gen_range(2usize..4);
        let ops: Vec<String> = OPS[..n_ops].iter().map(|s| s.to_string()).collect();

        let mode = if r.gen_bool(0.6) {
            EnforcementMode::Preventive
        } else {
            EnforcementMode::Reactive
        };
        // Server deaths interact unsoundly with approval reuse: a
        // topology-level denial skips an access without the guard seeing
        // it, so the object's "clean" record no longer implies its future
        // trace was covered by the original approval. The generator never
        // combines the two (see DESIGN.md, "oracle scope").
        let with_deaths = r.gen_bool(0.25);
        let approval_reuse = !with_deaths && r.gen_bool(0.7);

        // Validity classes.
        let mut classes = Vec::new();
        if r.gen_bool(0.3) {
            classes.push(ClassSpec {
                name: "night".to_string(),
                dur: r.gen_range(2i64..9) as f64,
                scheme: gen_scheme(r),
            });
        }

        // Permissions.
        let n_perms = r.gen_range(1usize..5);
        let mut perms = Vec::with_capacity(n_perms);
        for i in 0..n_perms {
            let pick = |r: &mut SplitMix64, pool: &[String]| -> Option<String> {
                if r.gen_bool(0.4) {
                    Some(r.choose(pool).clone())
                } else {
                    None
                }
            };
            let spatial = if r.gen_bool(0.55) {
                Some(gen_constraint(r, &ops, &resources, &servers, 2))
            } else {
                None
            };
            let class = if !classes.is_empty() && r.gen_bool(0.25) {
                Some("night".to_string())
            } else if r.gen_bool(0.05) {
                // Undefined class: the gate falls back to the
                // permission's own validity attributes.
                Some("ghost".to_string())
            } else {
                None
            };
            perms.push(PermSpec {
                name: format!("p{i}"),
                op: pick(r, &ops),
                resource: pick(r, &resources),
                server: pick(r, &servers),
                spatial,
                team_scope: r.gen_bool(0.15),
                validity: if r.gen_bool(0.5) {
                    Some(r.gen_range(2i64..9) as f64)
                } else {
                    None
                },
                scheme: gen_scheme(r),
                class,
                attr_cidr: None,
                attr_cron: None,
            });
        }

        // Roles and inheritance.
        let n_roles = r.gen_range(1usize..4);
        let mut roles = Vec::with_capacity(n_roles);
        for i in 0..n_roles {
            let mut assigned: Vec<usize> = (0..n_perms).filter(|_| r.gen_bool(0.6)).collect();
            if i == 0 && assigned.is_empty() && n_perms > 0 {
                assigned.push(r.gen_range(0..n_perms));
            }
            roles.push(RoleSpec {
                name: format!("role{i}"),
                perms: assigned,
            });
        }
        let mut inherits = Vec::new();
        for senior in 0..n_roles {
            for junior in senior + 1..n_roles {
                if r.gen_bool(0.25) {
                    inherits.push((senior, junior));
                }
            }
        }

        // Mobile objects.
        let n_objects = r.gen_range(1usize..4);
        let mut objects = Vec::with_capacity(n_objects);
        for i in 0..n_objects {
            let mut assigned: Vec<usize> = (0..n_roles).filter(|_| r.gen_bool(0.7)).collect();
            if assigned.is_empty() {
                assigned.push(r.gen_range(0..n_roles));
            }
            let mut enrolled = assigned.clone();
            // Occasionally enroll a role the object is NOT assigned:
            // activation fails silently and the object lacks those perms.
            for role in 0..n_roles {
                if !enrolled.contains(&role) && r.gen_bool(0.15) {
                    enrolled.push(role);
                }
            }
            enrolled.sort_unstable();
            objects.push(ObjectSpec {
                name: format!("n{i}"),
                assigned,
                enrolled,
            });
        }

        // Event schedule: initial (never-dropped) arrivals seed each
        // object at a server, then a random mix at strictly increasing
        // integer times.
        let mut events: Vec<Event> = Vec::new();
        let mut t = 0.0;
        for (i, _) in objects.iter().enumerate() {
            events.push(Event::Arrival {
                obj: i,
                server: r.choose(&servers).clone(),
                time: t,
                dropped: false,
            });
            t += 1.0;
        }
        let n_events = r.gen_range(6usize..17);
        let mut alive: Vec<usize> = (0..n_servers).collect();
        for _ in 0..n_events {
            let roll = r.gen_f64();
            if with_deaths && alive.len() > 1 && roll < 0.08 {
                let k = r.gen_range(0..alive.len());
                let victim = alive.swap_remove(k);
                events.push(Event::ServerDeath {
                    server: servers[victim].clone(),
                    time: t,
                });
            } else if roll < 0.28 {
                events.push(Event::Arrival {
                    obj: r.gen_range(0..n_objects),
                    server: r.choose(&servers).clone(),
                    time: t,
                    dropped: r.gen_bool(0.25),
                });
            } else {
                events.push(Event::Access {
                    obj: r.gen_range(0..n_objects),
                    access: Access::new(r.choose(&ops), r.choose(&resources), r.choose(&servers)),
                    time: t,
                });
            }
            t += 1.0;
        }

        Scenario {
            seed,
            profile: None,
            server_ips: Vec::new(),
            mode,
            approval_reuse,
            servers,
            skews,
            resources,
            ops,
            classes,
            perms,
            roles,
            inherits,
            objects,
            revisions: Vec::new(),
            events,
        }
    }

    /// Generate the scenario for a seed, then append `flips` mid-episode
    /// policy rollouts, each followed by a burst of post-flip traffic.
    ///
    /// Churn draws from its *own* deterministic stream (derived from the
    /// seed), so [`Scenario::generate`] stays byte-stable for every
    /// existing seed, and `generate_churn(seed, n)` is a strict extension
    /// of `generate(seed)`: same topology, same policy base, same event
    /// prefix.
    pub fn generate_churn(seed: u64, flips: usize) -> Scenario {
        let mut sc = Scenario::generate(seed);
        if flips == 0 {
            return sc;
        }
        let mut rng = SplitMix64::seed_from_u64(seed ^ 0x5bd1_e995_9e37_79b9);
        let r = &mut rng;
        let mut t = sc.events.last().map(|e| e.time() + 1.0).unwrap_or(0.0);
        let n_objects = sc.objects.len();
        for k in 1..=flips {
            // Each revision perturbs the previous one: grant patterns and
            // spatial constraints move; names, validity attributes,
            // team scope and class bindings are revision-invariant (budget
            // keys survive flips, team scoping is schedule-global).
            let mut perms = sc.perms_at(k - 1).to_vec();
            for p in &mut perms {
                if r.gen_bool(0.5) {
                    let pick = |r: &mut SplitMix64, pool: &[String]| -> Option<String> {
                        if r.gen_bool(0.4) {
                            Some(r.choose(pool).clone())
                        } else {
                            None
                        }
                    };
                    p.op = pick(r, &sc.ops);
                    p.resource = pick(r, &sc.resources);
                    p.server = pick(r, &sc.servers);
                }
                if r.gen_bool(0.45) {
                    p.spatial = r
                        .gen_bool(0.8)
                        .then(|| gen_constraint(r, &sc.ops, &sc.resources, &sc.servers, 2));
                }
            }
            let mut role_perms: Vec<Vec<usize>> = (0..sc.roles.len())
                .map(|i| sc.role_perms_at(k - 1, i).to_vec())
                .collect();
            for (i, rp) in role_perms.iter_mut().enumerate() {
                if r.gen_bool(0.5) {
                    *rp = (0..perms.len()).filter(|_| r.gen_bool(0.6)).collect();
                    if i == 0 && rp.is_empty() && !perms.is_empty() {
                        rp.push(r.gen_range(0..perms.len()));
                    }
                }
            }
            sc.revisions.push(PolicyRev { perms, role_perms });
            sc.events.push(Event::PolicyFlip { rev: k, time: t });
            t += 1.0;
            // Post-flip traffic so every revision actually decides. No
            // new server deaths: the death/approval-reuse envelope is
            // settled by the base generation.
            for _ in 0..r.gen_range(3usize..8) {
                if r.gen_bool(0.25) {
                    sc.events.push(Event::Arrival {
                        obj: r.gen_range(0..n_objects),
                        server: r.choose(&sc.servers).clone(),
                        time: t,
                        dropped: r.gen_bool(0.25),
                    });
                } else {
                    sc.events.push(Event::Access {
                        obj: r.gen_range(0..n_objects),
                        access: Access::new(
                            r.choose(&sc.ops),
                            r.choose(&sc.resources),
                            r.choose(&sc.servers),
                        ),
                        time: t,
                    });
                }
                t += 1.0;
            }
        }
        sc
    }

    /// The permission set of policy revision `rev` (0 = the base policy).
    pub fn perms_at(&self, rev: usize) -> &[PermSpec] {
        if rev == 0 {
            &self.perms
        } else {
            &self.revisions[rev - 1].perms
        }
    }

    /// The permission indices assigned to `role` at policy revision
    /// `rev` (0 = the base policy).
    pub fn role_perms_at(&self, rev: usize, role: usize) -> &[usize] {
        if rev == 0 {
            &self.roles[role].perms
        } else {
            &self.revisions[rev - 1].role_perms[role]
        }
    }

    /// The epoch reference time of policy revision `rev`: the activation
    /// time of its [`Event::PolicyFlip`], or `0` for the base policy.
    /// Attribute (cron) lowering samples calendar windows here, so a live
    /// rollout re-lowers the same attribute spec at the flip time.
    pub fn rev_time(&self, rev: usize) -> f64 {
        if rev == 0 {
            return 0.0;
        }
        self.events
            .iter()
            .find_map(|e| match e {
                Event::PolicyFlip { rev: k, time } if *k == rev => Some(*time),
                _ => None,
            })
            .unwrap_or(0.0)
    }

    /// Deterministically generate an attribute-carrying scenario shaped
    /// by a named mobility [`Profile`].
    ///
    /// Profile scenarios draw from their *own* stream (derived from the
    /// seed and the profile), so [`Scenario::generate`] stays byte-stable
    /// for every existing seed. Every profile:
    ///
    /// * maps each server to an IPv4 address inside its own `10.<i>/16`
    ///   block, so CIDR attributes select server subsets crisply;
    /// * includes at least one CIDR-attributed and one cron-attributed
    ///   permission (second-granularity schedules, so windows open and
    ///   close within the episode);
    /// * may install one mid-episode policy rollout, re-lowering the
    ///   same attribute specs at the flip's reference time.
    pub fn generate_profile(seed: u64, profile: Profile) -> Scenario {
        let idx = Profile::ALL.iter().position(|p| *p == profile).unwrap() as u64;
        let mut rng = SplitMix64::seed_from_u64(seed ^ 0x6d0b_11e5_ab5c_0000 ^ (idx << 4));
        let r = &mut rng;

        // Topology: per-server /16 blocks in 10.0.0.0/8.
        let n_servers = match profile {
            Profile::Commuter | Profile::Workflow => r.gen_range(2usize..4),
            _ => r.gen_range(3usize..5),
        };
        let servers: Vec<String> = (0..n_servers).map(|i| format!("s{i}")).collect();
        let server_ips: Vec<(String, String)> = (0..n_servers)
            .map(|i| {
                let addr = format!("10.{i}.{}.{}", r.gen_range(0i64..4), r.gen_range(1i64..255));
                (format!("s{i}"), addr)
            })
            .collect();
        let skews: Vec<f64> = (0..n_servers)
            .map(|_| {
                if r.gen_bool(0.3) {
                    r.gen_range(1i64..5) as f64
                } else {
                    0.0
                }
            })
            .collect();
        let resources: Vec<String> = (0..2).map(|i| format!("r{i}")).collect();
        let ops: Vec<String> = match profile {
            Profile::Workflow => ["prepare", "approve", "commit"]
                .iter()
                .map(|s| s.to_string())
                .collect(),
            _ => OPS[..r.gen_range(2usize..4)]
                .iter()
                .map(|s| s.to_string())
                .collect(),
        };
        let mode = if r.gen_bool(0.6) {
            EnforcementMode::Preventive
        } else {
            EnforcementMode::Reactive
        };
        // Partition-heal schedules server deaths, which are unsound with
        // approval reuse (see `generate`); every other profile may reuse.
        let approval_reuse = profile != Profile::PartitionHeal && r.gen_bool(0.7);

        // The attribute permission pack.
        let cidr_attr = |r: &mut SplitMix64| -> AttrCidrSpec {
            // Allow a subset of the per-server /16 blocks (occasionally
            // the whole /8); deny one allowed block's half 30% of the
            // time, so deny-wins is exercised.
            let mut allow: Vec<String> = Vec::new();
            if r.gen_bool(0.15) {
                allow.push("10.0.0.0/8".to_string());
            } else {
                let k = r.gen_range(1..n_servers + 1);
                for i in 0..n_servers {
                    if allow.len() < k && (n_servers - i <= k - allow.len() || r.gen_bool(0.5)) {
                        allow.push(format!("10.{i}.0.0/16"));
                    }
                }
            }
            let deny = if r.gen_bool(0.3) {
                vec![format!("10.{}.0.0/17", r.gen_range(0..n_servers))]
            } else {
                Vec::new()
            };
            AttrCidrSpec { allow, deny }
        };
        let cron_attr = |r: &mut SplitMix64| -> AttrCronSpec {
            // Second-granularity schedules so windows cycle inside the
            // episode's few dozen seconds.
            let expr = match r.gen_range(0u32..3) {
                0 => format!("*/{} * * * * *", r.gen_range(2i64..10)),
                1 => {
                    let a = r.gen_range(0i64..40);
                    format!("{a}-{} * * * * *", a + r.gen_range(5i64..20))
                }
                _ => "0 * * * *".to_string(), // fires once at t=0
            };
            AttrCronSpec {
                expr,
                dur: r.gen_range(2i64..12) as f64,
            }
        };
        let blank = |name: &str| PermSpec {
            name: name.to_string(),
            op: None,
            resource: None,
            server: None,
            spatial: None,
            team_scope: false,
            validity: None,
            scheme: BaseTimeScheme::WholeLifetime,
            class: None,
            attr_cidr: None,
            attr_cron: None,
        };
        let mut perms: Vec<PermSpec> = Vec::new();
        match profile {
            Profile::Workflow => {
                // prepare is unguarded; approve rides a cron window;
                // commit requires approved history from a permitted zone.
                let mut prep = blank("p-prepare");
                prep.op = Some("prepare".to_string());
                let mut appr = blank("p-approve");
                appr.op = Some("approve".to_string());
                appr.attr_cron = Some(cron_attr(r));
                let mut commit = blank("p-commit");
                commit.op = Some("commit".to_string());
                commit.attr_cidr = Some(cidr_attr(r));
                commit.spatial = Some(Constraint::at_least(
                    1,
                    Selector::any().with_ops(["approve"]),
                ));
                perms.extend([prep, appr, commit]);
            }
            _ => {
                let mut geo = blank("p-geo");
                geo.attr_cidr = Some(cidr_attr(r));
                if r.gen_bool(0.4) {
                    geo.op = Some(r.choose(&ops).clone());
                }
                let mut shift = blank("p-shift");
                shift.attr_cron = Some(cron_attr(r));
                if r.gen_bool(0.4) {
                    shift.resource = Some(r.choose(&resources).clone());
                }
                let mut mixed = blank("p-mixed");
                if r.gen_bool(0.5) {
                    mixed.attr_cidr = Some(cidr_attr(r));
                    mixed.attr_cron = Some(cron_attr(r));
                } else {
                    mixed.spatial = Some(gen_constraint(r, &ops, &resources, &servers, 1));
                    if r.gen_bool(0.5) {
                        mixed.validity = Some(r.gen_range(2i64..9) as f64);
                        mixed.scheme = gen_scheme(r);
                    }
                }
                if profile == Profile::FleetConvoy && r.gen_bool(0.5) {
                    mixed.team_scope = true;
                }
                perms.extend([geo, shift, mixed]);
            }
        }

        // Roles and objects: role0 holds the full pack; a second role
        // holds a subset half the time.
        let mut roles = vec![RoleSpec {
            name: "role0".to_string(),
            perms: (0..perms.len()).collect(),
        }];
        if r.gen_bool(0.5) {
            roles.push(RoleSpec {
                name: "role1".to_string(),
                perms: (0..perms.len()).filter(|_| r.gen_bool(0.5)).collect(),
            });
        }
        let n_objects = match profile {
            Profile::FlashCrowd => 3,
            Profile::Commuter | Profile::Workflow => r.gen_range(1usize..3),
            _ => r.gen_range(2usize..4),
        };
        let objects: Vec<ObjectSpec> = (0..n_objects)
            .map(|i| {
                let assigned = if roles.len() > 1 && r.gen_bool(0.3) {
                    vec![0, 1]
                } else {
                    vec![0]
                };
                ObjectSpec {
                    name: format!("n{i}"),
                    enrolled: assigned.clone(),
                    assigned,
                }
            })
            .collect();

        // Itinerary. The scheduler advances time by one per event, so
        // times strictly increase by construction.
        struct Sched {
            events: Vec<Event>,
            t: f64,
        }
        impl Sched {
            fn arrive(&mut self, obj: usize, server: &str, dropped: bool) {
                let time = self.t;
                self.t += 1.0;
                self.events.push(Event::Arrival {
                    obj,
                    server: server.to_string(),
                    time,
                    dropped,
                });
            }
            fn access(&mut self, obj: usize, op: &str, res: &str, server: &str) {
                let time = self.t;
                self.t += 1.0;
                self.events.push(Event::Access {
                    obj,
                    access: Access::new(op, res, server),
                    time,
                });
            }
            fn death(&mut self, server: &str) {
                let time = self.t;
                self.t += 1.0;
                self.events.push(Event::ServerDeath {
                    server: server.to_string(),
                    time,
                });
            }
        }
        // One optional mid-episode rollout (always for workflow): the
        // same attribute pack re-lowered at the flip time, with grant
        // patterns lightly perturbed.
        fn do_flip(
            sched: &mut Sched,
            r: &mut SplitMix64,
            revisions: &mut Vec<PolicyRev>,
            perms: &[PermSpec],
            roles: &[RoleSpec],
            servers: &[String],
            profile: Profile,
        ) {
            if !revisions.is_empty() {
                return;
            }
            let mut rev_perms = perms.to_vec();
            for p in &mut rev_perms {
                if profile != Profile::Workflow && r.gen_bool(0.4) {
                    p.server = r.gen_bool(0.4).then(|| r.choose(servers).clone());
                }
            }
            revisions.push(PolicyRev {
                perms: rev_perms,
                role_perms: roles.iter().map(|role| role.perms.clone()).collect(),
            });
            let time = sched.t;
            sched.t += 1.0;
            sched.events.push(Event::PolicyFlip { rev: 1, time });
        }

        let with_flip = profile == Profile::Workflow || r.gen_bool(0.35);
        let mut revisions: Vec<PolicyRev> = Vec::new();
        let mut s = Sched {
            events: Vec::new(),
            t: 0.0,
        };
        match profile {
            Profile::Commuter => {
                // Per-object home/office pair; oscillate with office work
                // and occasional home reads.
                let pairs: Vec<(usize, usize)> = (0..n_objects)
                    .map(|_| {
                        let home = r.gen_range(0..n_servers);
                        let office = (home + 1 + r.gen_range(0..n_servers - 1)) % n_servers;
                        (home, office)
                    })
                    .collect();
                for (i, (home, _)) in pairs.iter().enumerate() {
                    s.arrive(i, &servers[*home], false);
                }
                let cycles = r.gen_range(2usize..4);
                for c in 0..cycles {
                    if c == cycles / 2 && with_flip {
                        do_flip(&mut s, r, &mut revisions, &perms, &roles, &servers, profile);
                    }
                    for (i, (home, office)) in pairs.iter().enumerate() {
                        s.arrive(i, &servers[*office], r.gen_bool(0.1));
                        for _ in 0..r.gen_range(1usize..4) {
                            let (op, res) = (r.choose(&ops).clone(), r.choose(&resources).clone());
                            s.access(i, &op, &res, &servers[*office]);
                        }
                        s.arrive(i, &servers[*home], false);
                        if r.gen_bool(0.4) {
                            let (op, res) = (r.choose(&ops).clone(), r.choose(&resources).clone());
                            s.access(i, &op, &res, &servers[*home]);
                        }
                    }
                }
            }
            Profile::FleetConvoy => {
                // The whole fleet hops the server ring together.
                let start = r.gen_range(0..n_servers);
                for i in 0..n_objects {
                    s.arrive(i, &servers[start], false);
                }
                let hops = r.gen_range(3usize..6);
                for h in 1..=hops {
                    if h == hops / 2 + 1 && with_flip {
                        do_flip(&mut s, r, &mut revisions, &perms, &roles, &servers, profile);
                    }
                    let stop = (start + h) % n_servers;
                    for i in 0..n_objects {
                        s.arrive(i, &servers[stop], r.gen_bool(0.15));
                    }
                    for i in 0..n_objects {
                        let (op, res) = (r.choose(&ops).clone(), r.choose(&resources).clone());
                        s.access(i, &op, &res, &servers[stop]);
                    }
                }
            }
            Profile::FlashCrowd => {
                // Scatter, converge on the hot server, disperse.
                let hot = r.gen_range(0..n_servers);
                let starts: Vec<usize> =
                    (0..n_objects).map(|_| r.gen_range(0..n_servers)).collect();
                for (i, st) in starts.iter().enumerate() {
                    s.arrive(i, &servers[*st], false);
                }
                for (i, st) in starts.iter().enumerate() {
                    if r.gen_bool(0.6) {
                        let (op, res) = (r.choose(&ops).clone(), r.choose(&resources).clone());
                        s.access(i, &op, &res, &servers[*st]);
                    }
                }
                if with_flip {
                    do_flip(&mut s, r, &mut revisions, &perms, &roles, &servers, profile);
                }
                for i in 0..n_objects {
                    s.arrive(i, &servers[hot], false);
                    for _ in 0..r.gen_range(2usize..4) {
                        let (op, res) = (r.choose(&ops).clone(), r.choose(&resources).clone());
                        s.access(i, &op, &res, &servers[hot]);
                    }
                }
                for i in 0..n_objects {
                    let away = (hot + 1 + r.gen_range(0..n_servers - 1)) % n_servers;
                    s.arrive(i, &servers[away], r.gen_bool(0.2));
                    let (op, res) = (r.choose(&ops).clone(), r.choose(&resources).clone());
                    s.access(i, &op, &res, &servers[away]);
                }
            }
            Profile::PartitionHeal => {
                // Spread out, lose a server, heal onto survivors; some
                // stale traffic still targets the victim.
                let victim = r.gen_range(0..n_servers);
                let starts: Vec<usize> =
                    (0..n_objects).map(|_| r.gen_range(0..n_servers)).collect();
                for (i, st) in starts.iter().enumerate() {
                    s.arrive(i, &servers[*st], false);
                }
                for (i, st) in starts.iter().enumerate() {
                    let (op, res) = (r.choose(&ops).clone(), r.choose(&resources).clone());
                    s.access(i, &op, &res, &servers[*st]);
                }
                s.death(&servers[victim]);
                if with_flip {
                    do_flip(&mut s, r, &mut revisions, &perms, &roles, &servers, profile);
                }
                for (i, st) in starts.iter().enumerate() {
                    if r.gen_bool(0.4) {
                        // Stale access to the dead server.
                        let (op, res) = (r.choose(&ops).clone(), r.choose(&resources).clone());
                        s.access(i, &op, &res, &servers[victim]);
                    }
                    let heal = if *st == victim {
                        (victim + 1 + r.gen_range(0..n_servers - 1)) % n_servers
                    } else {
                        *st
                    };
                    s.arrive(i, &servers[heal], false);
                    let (op, res) = (r.choose(&ops).clone(), r.choose(&resources).clone());
                    s.access(i, &op, &res, &servers[heal]);
                }
            }
            Profile::Workflow => {
                // prepare → approve → commit chains, twice, with the
                // rollout between the two rounds.
                let starts: Vec<usize> =
                    (0..n_objects).map(|_| r.gen_range(0..n_servers)).collect();
                for (i, st) in starts.iter().enumerate() {
                    s.arrive(i, &servers[*st], false);
                }
                for round in 0..2 {
                    if round == 1 && with_flip {
                        do_flip(&mut s, r, &mut revisions, &perms, &roles, &servers, profile);
                    }
                    for (i, st) in starts.iter().enumerate() {
                        for op in ["prepare", "approve", "commit"] {
                            if op == "approve" && r.gen_bool(0.2) {
                                continue; // skipped approval starves commit
                            }
                            let res = r.choose(&resources).clone();
                            s.access(i, op, &res, &servers[*st]);
                        }
                        if r.gen_bool(0.3) {
                            let next = (*st + 1) % n_servers;
                            s.arrive(i, &servers[next], false);
                        }
                    }
                }
            }
        }
        let events = s.events;

        Scenario {
            seed,
            profile: Some(profile),
            server_ips,
            mode,
            approval_reuse,
            servers,
            skews,
            resources,
            ops,
            classes: Vec::new(),
            perms,
            roles,
            inherits: Vec::new(),
            objects,
            revisions,
            events,
        }
    }
}

fn gen_scheme(r: &mut SplitMix64) -> BaseTimeScheme {
    if r.gen_bool(0.5) {
        BaseTimeScheme::CurrentServer
    } else {
        BaseTimeScheme::WholeLifetime
    }
}

fn gen_access(
    r: &mut SplitMix64,
    ops: &[String],
    resources: &[String],
    servers: &[String],
) -> Access {
    Access::new(r.choose(ops), r.choose(resources), r.choose(servers))
}

fn gen_selector(
    r: &mut SplitMix64,
    ops: &[String],
    resources: &[String],
    servers: &[String],
) -> Selector {
    let mut s = Selector::any();
    if r.gen_bool(0.5) {
        s = s.with_ops([r.choose(ops).as_str()]);
    }
    if r.gen_bool(0.5) {
        s = s.with_resources([r.choose(resources).as_str()]);
    }
    if r.gen_bool(0.3) {
        s = s.with_servers([r.choose(servers).as_str()]);
    }
    s
}

/// A random SRAC constraint over the scenario's access vocabulary.
fn gen_constraint(
    r: &mut SplitMix64,
    ops: &[String],
    resources: &[String],
    servers: &[String],
    depth: usize,
) -> Constraint {
    let leaf = depth == 0 || r.gen_bool(0.55);
    if leaf {
        match r.gen_range(0u32..5) {
            0 => Constraint::True,
            1 => Constraint::Atom(gen_access(r, ops, resources, servers)),
            2 => Constraint::Ordered(
                gen_access(r, ops, resources, servers),
                gen_access(r, ops, resources, servers),
            ),
            _ => {
                // Cardinality bounds biased wide enough that grants occur.
                let min = if r.gen_bool(0.25) { 1 } else { 0 };
                let max = if r.gen_bool(0.3) {
                    None
                } else {
                    Some(min + r.gen_range(1usize..7))
                };
                Constraint::Card {
                    min,
                    max,
                    selector: gen_selector(r, ops, resources, servers),
                }
            }
        }
    } else {
        let a = gen_constraint(r, ops, resources, servers, depth - 1);
        let b = gen_constraint(r, ops, resources, servers, depth - 1);
        match r.gen_range(0u32..4) {
            0 => a.and(b),
            1 => a.or(b),
            2 => a.implies(b),
            _ => a.not(),
        }
    }
}

impl fmt::Display for Scenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "scenario seed={}", self.seed)?;
        if let Some(p) = self.profile {
            write!(f, " profile={}", p.name())?;
        }
        writeln!(
            f,
            " mode={} reuse={}",
            match self.mode {
                EnforcementMode::Preventive => "preventive",
                EnforcementMode::Reactive => "reactive",
            },
            if self.approval_reuse { "on" } else { "off" }
        )?;
        for (srv, addr) in &self.server_ips {
            writeln!(f, "server-ip {srv} {addr}")?;
        }
        let skewed: Vec<String> = self
            .servers
            .iter()
            .zip(&self.skews)
            .map(|(s, k)| {
                if *k == 0.0 {
                    s.clone()
                } else {
                    format!("{s} skew={k}")
                }
            })
            .collect();
        writeln!(f, "servers: {}", skewed.join(", "))?;
        writeln!(f, "resources: {}", self.resources.join(" "))?;
        writeln!(f, "ops: {}", self.ops.join(" "))?;
        for c in &self.classes {
            writeln!(
                f,
                "class {} dur={} scheme={}",
                c.name,
                c.dur,
                c.scheme.name()
            )?;
        }
        for p in &self.perms {
            write_perm(f, p, "")?;
        }
        for role in &self.roles {
            let names: Vec<&str> = role
                .perms
                .iter()
                .map(|&i| self.perms[i].name.as_str())
                .collect();
            writeln!(f, "role {} perms={}", role.name, names.join(","))?;
        }
        for &(s, j) in &self.inherits {
            writeln!(f, "inherit {} {}", self.roles[s].name, self.roles[j].name)?;
        }
        for o in &self.objects {
            let names = |ix: &[usize]| {
                ix.iter()
                    .map(|&i| self.roles[i].name.as_str())
                    .collect::<Vec<_>>()
                    .join(",")
            };
            writeln!(
                f,
                "object {} roles={} enrolled={}",
                o.name,
                names(&o.assigned),
                names(&o.enrolled)
            )?;
        }
        for (k, rev) in self.revisions.iter().enumerate() {
            writeln!(f, "revision {} (epoch {}):", k + 1, k + 1)?;
            for p in &rev.perms {
                write_perm(f, p, "  ")?;
            }
            for (i, rp) in rev.role_perms.iter().enumerate() {
                let names: Vec<&str> = rp.iter().map(|&pi| rev.perms[pi].name.as_str()).collect();
                writeln!(f, "  role {} perms={}", self.roles[i].name, names.join(","))?;
            }
        }
        writeln!(f, "events:")?;
        for e in &self.events {
            match e {
                Event::Access { obj, access, time } => {
                    writeln!(f, "  [{time}] access {} {access}", self.objects[*obj].name)?;
                }
                Event::Arrival {
                    obj,
                    server,
                    time,
                    dropped,
                } => {
                    writeln!(
                        f,
                        "  [{time}] arrive {} @ {server}{}",
                        self.objects[*obj].name,
                        if *dropped { " (dropped)" } else { "" }
                    )?;
                }
                Event::ServerDeath { server, time } => {
                    writeln!(f, "  [{time}] server-death {server}")?;
                }
                Event::PolicyFlip { rev, time } => {
                    writeln!(f, "  [{time}] policy-flip epoch={rev}")?;
                }
            }
        }
        Ok(())
    }
}

/// Write one permission line (shared by the base policy and revision
/// sections of the scenario rendering).
fn write_perm(f: &mut fmt::Formatter<'_>, p: &PermSpec, indent: &str) -> fmt::Result {
    let part = |x: &Option<String>| x.clone().unwrap_or_else(|| "*".to_string());
    write!(
        f,
        "{indent}perm {} grants={}:{}:{}",
        p.name,
        part(&p.op),
        part(&p.resource),
        part(&p.server)
    )?;
    if let Some(c) = &p.spatial {
        write!(f, " spatial=\"{c}\"")?;
    }
    if p.team_scope {
        write!(f, " scope=team")?;
    }
    if let Some(v) = p.validity {
        write!(f, " validity={v} scheme={}", p.scheme.name())?;
    }
    if let Some(c) = &p.class {
        write!(f, " class={c}")?;
    }
    if let Some(a) = &p.attr_cidr {
        write!(f, " cidr-allow={}", a.allow.join("|"))?;
        if !a.deny.is_empty() {
            write!(f, " cidr-deny={}", a.deny.join("|"))?;
        }
    }
    if let Some(c) = &p.attr_cron {
        write!(f, " cron=\"{}\" cron-dur={}", c.expr, c.dur)?;
    }
    writeln!(f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        for seed in [0u64, 1, 42, 0xdead_beef] {
            let a = Scenario::generate(seed).to_string();
            let b = Scenario::generate(seed).to_string();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn times_strictly_increase() {
        for seed in 0..32u64 {
            let sc = Scenario::generate(seed);
            for w in sc.events.windows(2) {
                assert!(w[0].time() < w[1].time(), "seed {seed}");
            }
        }
    }

    #[test]
    fn churn_generation_is_deterministic() {
        for seed in [0u64, 3, 42] {
            let a = Scenario::generate_churn(seed, 4).to_string();
            let b = Scenario::generate_churn(seed, 4).to_string();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn churn_extends_the_base_schedule() {
        for seed in 0..32u64 {
            let base = Scenario::generate(seed);
            let churned = Scenario::generate_churn(seed, 4);
            assert_eq!(churned.revisions.len(), 4, "seed {seed}");
            // Strict extension: the base prefix is untouched and times
            // keep strictly increasing through the churn tail.
            assert!(churned.events.len() > base.events.len(), "seed {seed}");
            for (a, b) in base.events.iter().zip(&churned.events) {
                assert_eq!(a.time(), b.time(), "seed {seed}");
            }
            for w in churned.events.windows(2) {
                assert!(w[0].time() < w[1].time(), "seed {seed}");
            }
            // Revisions never move the revision-invariant attributes.
            for rev in 0..=churned.revisions.len() {
                let perms = churned.perms_at(rev);
                assert_eq!(perms.len(), base.perms.len(), "seed {seed}");
                for (p, q) in base.perms.iter().zip(perms) {
                    assert_eq!(p.name, q.name, "seed {seed}");
                    assert_eq!(p.team_scope, q.team_scope, "seed {seed}");
                    assert_eq!(p.validity, q.validity, "seed {seed}");
                    assert_eq!(p.class, q.class, "seed {seed}");
                }
            }
        }
    }

    #[test]
    fn deaths_disable_approval_reuse() {
        for seed in 0..256u64 {
            let sc = Scenario::generate(seed);
            let has_death = sc
                .events
                .iter()
                .any(|e| matches!(e, Event::ServerDeath { .. }));
            if has_death {
                assert!(!sc.approval_reuse, "seed {seed}");
            }
        }
    }
}
