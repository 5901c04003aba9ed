//! Seeded workload generation and the verdict oracle.
//!
//! Everything a daemon receives — policy text, object names, seeded
//! histories, request streams, itineraries — is drawn here from the
//! run's `--seed`, together with the verdict kind each request must get.
//! The oracle is arithmetic on the generated counts (a `count(0, cap)`
//! licence grants while `history + 1 <= cap`), independent of the
//! crates under test.

use stacl_coalition::DecisionKind;
use stacl_ids::rng::SplitMix64;
use stacl_sral::Access;

/// Servers named in accesses (`s0`..`s3`).
pub const SERVERS: usize = 4;
/// The operation every licence covers.
pub const OP_EXEC: &str = "exec";
/// An operation no permission covers: requests with it deny
/// `denied-no-permission`.
pub const OP_WRITE: &str = "write";
/// The licensed resource.
pub const RESOURCE: &str = "rsw";

/// Objects enrolled on the `decide`/`rollout` daemon.
pub const FLEET_OBJECTS: usize = 1024;
/// Seeded history per licensee object: uniform in this range.
pub const FLEET_HISTORY: std::ops::Range<usize> = 16..48;
/// The licensee cap. It admits every seeded history plus one access.
pub const FLEET_CAP: usize = 64;
/// The selector of the licence under the two rollout policies. Both
/// count exactly the licensed `exec rsw` proofs and compile to automata
/// of the same size, so a rollout changes the constraint (forcing a
/// compile and dropping the warm cursors) without changing any verdict
/// or the cost of the next rollout.
pub const SELECTORS: [&str; 2] = ["resource=rsw", "op=exec"];
/// Cap (and seeded history) of the `capped` role: its objects have spent
/// their licence, so every `exec` denies spatially.
pub const CAPPED_CAP: usize = 16;
/// One object in this many holds the spent `capped` licence.
pub const CAPPED_ONE_IN: u64 = 16;
/// One request in this many uses the uncovered `write` operation.
pub const WRITE_ONE_IN: u64 = 16;
/// Length of the request stream; the load loops cycle through it. Verdicts on
/// the `decide`/`rollout` daemons are stationary (no proofs are written
/// while measuring), so a cycled request keeps its expected verdict.
pub const STREAM_LEN: usize = 1 << 16;

/// Objects following an itinerary.
pub const ITIN_OBJECTS: usize = 64;
/// The itinerary licence cap.
pub const ITIN_CAP: usize = 512;
/// Hops per object per round.
pub const ITIN_HOPS: usize = 24;
/// Coalition members in the `itinerary` workload.
pub const ITIN_MEMBERS: usize = 2;

/// The access vocabulary shared by every workload: `exec`/`write` on
/// `rsw` at each server, plus the one-access remaining programs the
/// wire protocol ships with each decide.
pub struct Vocab {
    /// `accesses[op * SERVERS + server]`, `op` 0 = exec, 1 = write.
    pub accesses: Vec<Access>,
    /// `remaining[i]` is `[accesses[i]]`.
    pub remaining: Vec<Vec<Access>>,
}

impl Vocab {
    /// Build the vocabulary.
    pub fn new() -> Vocab {
        let accesses: Vec<Access> = [OP_EXEC, OP_WRITE]
            .iter()
            .flat_map(|op| (0..SERVERS).map(move |s| Access::new(op, RESOURCE, format!("s{s}"))))
            .collect();
        let remaining = accesses.iter().map(|a| vec![a.clone()]).collect();
        Vocab {
            accesses,
            remaining,
        }
    }

    /// Every name a client announces before the measured phase.
    pub fn names(&self) -> Vec<String> {
        let mut v = vec![
            OP_EXEC.to_string(),
            OP_WRITE.to_string(),
            RESOURCE.to_string(),
        ];
        v.extend((0..SERVERS).map(|s| format!("s{s}")));
        v
    }

    /// Index of `exec`/`write` at `server` in [`Vocab::accesses`].
    pub fn index(write: bool, server: u8) -> usize {
        usize::from(write) * SERVERS + server as usize
    }
}

/// One request of the `decide`/`rollout` stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Request {
    /// Index into [`Fleet::objects`].
    pub object: u32,
    /// Index into [`Vocab::accesses`].
    pub access: u8,
    /// The verdict kind the request must get.
    pub expect: DecisionKind,
}

/// The `decide`/`rollout` inputs: a fleet of enrolled objects with
/// seeded histories and a request stream.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Fleet {
    /// Object names.
    pub objects: Vec<String>,
    /// Whether each object holds the spent `capped` licence.
    pub capped: Vec<bool>,
    /// Seeded history per object: the server index of each proof.
    pub history: Vec<Vec<u8>>,
    /// The request stream.
    pub stream: Vec<Request>,
}

impl Fleet {
    /// Draw the fleet for `seed`.
    pub fn generate(seed: u64) -> Fleet {
        let mut rng = SplitMix64::seed_from_u64(seed ^ 0xDEC1_DE00);
        let objects: Vec<String> = (0..FLEET_OBJECTS).map(|i| format!("o{i}")).collect();
        let capped: Vec<bool> = (0..FLEET_OBJECTS)
            .map(|_| rng.gen_range(0..CAPPED_ONE_IN) == 0)
            .collect();
        let history = capped
            .iter()
            .map(|&c| {
                let n = if c {
                    CAPPED_CAP
                } else {
                    rng.gen_range(FLEET_HISTORY)
                };
                (0..n).map(|_| rng.gen_range(0..SERVERS as u8)).collect()
            })
            .collect();
        let stream = (0..STREAM_LEN)
            .map(|_| {
                let object = rng.gen_range(0..FLEET_OBJECTS as u32);
                let write = rng.gen_range(0..WRITE_ONE_IN) == 0;
                let server = rng.gen_range(0..SERVERS as u8);
                let expect = if write {
                    DecisionKind::DeniedNoPermission
                } else if capped[object as usize] {
                    DecisionKind::DeniedSpatial
                } else {
                    DecisionKind::Granted
                };
                Request {
                    object,
                    access: Vocab::index(write, server) as u8,
                    expect,
                }
            })
            .collect();
        Fleet {
            objects,
            capped,
            history,
            stream,
        }
    }

    /// The fleet policy; `variant` selects the licence selector from
    /// [`SELECTORS`].
    pub fn policy(&self, variant: usize) -> String {
        let mut p = String::new();
        p.push_str("role licensee\nrole capped\n");
        p.push_str(&licence("p-exec", FLEET_CAP, SELECTORS[variant % 2]));
        p.push_str(&licence("p-capped", CAPPED_CAP, SELECTORS[0]));
        p.push_str("grant licensee p-exec\ngrant capped p-capped\n");
        for (o, &c) in self.objects.iter().zip(&self.capped) {
            p.push_str(&format!("user {o}\nassign {o} {}\n", role_of(c)));
        }
        p
    }

    /// The role object `i` is enrolled with.
    pub fn role(&self, i: usize) -> &'static str {
        role_of(self.capped[i])
    }
}

fn role_of(capped: bool) -> &'static str {
    if capped {
        "capped"
    } else {
        "licensee"
    }
}

/// A `count(0, cap, selector)` licence on `exec rsw` at any server.
fn licence(name: &str, cap: usize, selector: &str) -> String {
    format!(
        "permission {name} grants={OP_EXEC}:{RESOURCE}:* spatial=\"count(0, {cap}, {selector})\"\n"
    )
}

/// One migration step: arrive at `to` (pulling custody from `from`),
/// decide one `exec` at `server`, replicate the proof on a grant.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Hop {
    /// Index into [`Itinerary::objects`].
    pub object: u32,
    /// The previous custodian member.
    pub from: u8,
    /// The new custodian member.
    pub to: u8,
    /// Server of the decided access.
    pub server: u8,
    /// Arrival (and decision) time.
    pub time: f64,
    /// The verdict kind the decide must get.
    pub expect: DecisionKind,
}

/// The `itinerary` inputs.
#[derive(Clone, Debug, PartialEq)]
pub struct Itinerary {
    /// Object names.
    pub objects: Vec<String>,
    /// Seeded history per object: the server index of each proof.
    pub history: Vec<Vec<u8>>,
    /// Each object's first custodian.
    pub start: Vec<u8>,
    /// Every hop of one round, in execution order.
    pub hops: Vec<Hop>,
}

impl Itinerary {
    /// Draw the itinerary for `seed`. Each object's history is seeded so
    /// that its last 4–7 hops exceed the cap and deny spatially.
    pub fn generate(seed: u64) -> Itinerary {
        let mut rng = SplitMix64::seed_from_u64(seed ^ 0x171E_0000);
        let objects: Vec<String> = (0..ITIN_OBJECTS).map(|i| format!("m{i}")).collect();
        let history: Vec<Vec<u8>> = (0..ITIN_OBJECTS)
            .map(|_| {
                let grants = ITIN_HOPS - 4 - rng.gen_range(0..4usize);
                (0..ITIN_CAP - grants)
                    .map(|_| rng.gen_range(0..SERVERS as u8))
                    .collect()
            })
            .collect();
        let start: Vec<u8> = (0..ITIN_OBJECTS)
            .map(|_| rng.gen_range(0..ITIN_MEMBERS as u8))
            .collect();
        let mut count: Vec<usize> = history.iter().map(Vec::len).collect();
        let mut at: Vec<u8> = start.clone();
        let mut order: Vec<u32> = (0..ITIN_OBJECTS as u32).collect();
        let mut hops = Vec::with_capacity(ITIN_OBJECTS * ITIN_HOPS);
        for h in 0..ITIN_HOPS {
            // Fisher–Yates: a fresh visiting order every hop.
            for i in (1..order.len()).rev() {
                order.swap(i, rng.gen_range(0..i + 1));
            }
            for &k in &order {
                let k = k as usize;
                let from = at[k];
                let to = (from + 1) % ITIN_MEMBERS as u8;
                at[k] = to;
                let expect = if count[k] < ITIN_CAP {
                    count[k] += 1;
                    DecisionKind::Granted
                } else {
                    DecisionKind::DeniedSpatial
                };
                hops.push(Hop {
                    object: k as u32,
                    from,
                    to,
                    server: rng.gen_range(0..SERVERS as u8),
                    time: 10.0 + h as f64 + k as f64 * 1e-3,
                    expect,
                });
            }
        }
        Itinerary {
            objects,
            history,
            start,
            hops,
        }
    }

    /// The itinerary policy; `variant` selects the licence selector from
    /// [`SELECTORS`] (variant 1 is used only by the traced replay's epoch timing).
    pub fn policy(&self, variant: usize) -> String {
        let mut p = String::from("role licensee\n");
        p.push_str(&licence("p-exec", ITIN_CAP, SELECTORS[variant % 2]));
        p.push_str("grant licensee p-exec\n");
        for o in &self.objects {
            p.push_str(&format!("user {o}\nassign {o} licensee\n"));
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds<'a>(it: impl Iterator<Item = &'a DecisionKind>) -> (usize, usize) {
        it.fold((0, 0), |(g, d), k| {
            if *k == DecisionKind::Granted {
                (g + 1, d)
            } else {
                (g, d + 1)
            }
        })
    }

    #[test]
    fn same_seed_same_inputs() {
        assert_eq!(Fleet::generate(7), Fleet::generate(7));
        assert_eq!(Itinerary::generate(7), Itinerary::generate(7));
        assert_eq!(Fleet::generate(7).policy(1), Fleet::generate(7).policy(1));
    }

    #[test]
    fn different_seeds_differ() {
        assert_ne!(Fleet::generate(1).stream, Fleet::generate(2).stream);
        assert_ne!(Fleet::generate(1).history, Fleet::generate(2).history);
        assert_ne!(Itinerary::generate(1).hops, Itinerary::generate(2).hops);
    }

    #[test]
    fn every_workload_expects_grants_and_denials() {
        for seed in 0..8 {
            let f = Fleet::generate(seed);
            let (g, d) = kinds(f.stream.iter().map(|r| &r.expect));
            assert!(g > 0 && d > 0, "fleet seed {seed}: {g} grants, {d} denials");
            // About one request in eight denies: the deny path stays in
            // the measurement without dominating it.
            let share = d as f64 / f.stream.len() as f64;
            assert!((0.08..0.18).contains(&share), "deny share {share}");
            assert!(f
                .stream
                .iter()
                .any(|r| r.expect == DecisionKind::DeniedSpatial));
            assert!(f
                .stream
                .iter()
                .any(|r| r.expect == DecisionKind::DeniedNoPermission));

            let it = Itinerary::generate(seed);
            let (g, d) = kinds(it.hops.iter().map(|h| &h.expect));
            assert!(
                g > 0 && d > 0,
                "itinerary seed {seed}: {g} grants, {d} denials"
            );
        }
    }

    #[test]
    fn itineraries_alternate_members_and_end_in_spatial_denials() {
        let it = Itinerary::generate(3);
        for k in 0..ITIN_OBJECTS as u32 {
            let mine: Vec<&Hop> = it.hops.iter().filter(|h| h.object == k).collect();
            assert_eq!(mine.len(), ITIN_HOPS);
            assert_eq!(mine[0].from, it.start[k as usize]);
            for w in mine.windows(2) {
                assert_eq!(w[0].to, w[1].from);
                assert_ne!(w[1].from, w[1].to);
                assert!(w[0].time < w[1].time);
            }
            assert_eq!(mine.last().unwrap().expect, DecisionKind::DeniedSpatial);
            assert_eq!(mine[0].expect, DecisionKind::Granted);
        }
    }

    #[test]
    fn rollout_policies_differ_only_in_the_exercised_constraint() {
        let f = Fleet::generate(5);
        let (a, b) = (f.policy(0), f.policy(1));
        assert_ne!(a, b);
        let diff: Vec<(&str, &str)> = a.lines().zip(b.lines()).filter(|(x, y)| x != y).collect();
        assert_eq!(diff.len(), 1);
        assert!(diff[0].0.starts_with("permission p-exec"));
        // The cap admits every seeded licensee history plus one access.
        const { assert!(FLEET_CAP > FLEET_HISTORY.end) };
    }
}
