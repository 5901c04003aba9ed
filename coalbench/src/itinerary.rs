//! The `itinerary` load generator: two custody-enforcing members, objects that
//! migrate between them hop by hop. Each hop is `Arrive(from = previous
//! custodian)` (the daemon→daemon handoff pull), one decide at the new
//! custodian, and — on a grant — the proof replicated to both members,
//! as the simulator's network replay does.

use std::time::Instant;

use stacl_naplet::guard::Custody;
use stacl_net::{Client, DaemonHandle};

use crate::fleet::{spawn, IO_TIMEOUT};
use crate::gen::{Itinerary, Vocab, ITIN_MEMBERS};
use crate::spans::Tracer;
use crate::stats::{Reservoir, Slices};
use crate::tally::Tally;

/// A running two-member coalition.
pub struct ItinRig {
    /// The members, `d0` and `d1`.
    pub handles: Vec<DaemonHandle>,
    /// One client per member.
    pub clients: Vec<Client>,
}

fn member(i: u8) -> String {
    format!("d{i}")
}

/// Set-up: spawn both members, register peers, sync vocabularies, enrol
/// every object on both, replicate each seeded history to both through
/// `IssueProof`, and land each object's first arrival (custody claim) at
/// its first custodian.
pub fn setup(it: &Itinerary, vocab: &Vocab) -> Result<ItinRig, String> {
    let policy = it.policy(0);
    let handles: Vec<DaemonHandle> = (0..ITIN_MEMBERS as u8)
        .map(|m| spawn(&policy, &member(m), true))
        .collect::<Result<_, _>>()?;
    for h in &handles {
        for p in &handles {
            if p.name() != h.name() {
                h.add_peer(p.name(), p.addr());
            }
        }
    }
    let names = vocab.names();
    let mut clients = Vec::with_capacity(handles.len());
    for h in &handles {
        let mut c = Client::connect(h.addr(), "coalbench", Some(IO_TIMEOUT))
            .map_err(|e| format!("connect {}: {e}", h.name()))?;
        c.sync_vocab(
            it.objects
                .iter()
                .map(String::as_str)
                .chain(["licensee"])
                .chain(names.iter().map(String::as_str)),
        )
        .map_err(|e| format!("vocab: {e}"))?;
        for o in &it.objects {
            c.enroll(o, &["licensee"])
                .map_err(|e| format!("enroll {o}: {e}"))?;
        }
        clients.push(c);
    }
    for (o, hist) in it.objects.iter().zip(&it.history) {
        for (j, &s) in hist.iter().enumerate() {
            let a = &vocab.accesses[Vocab::index(false, s)];
            let t = 0.5 * (j + 1) as f64 / hist.len() as f64;
            for c in clients.iter_mut() {
                c.issue_proof(o, a, t)
                    .map_err(|e| format!("seed {o}: {e}"))?;
            }
        }
    }
    for (o, &m) in it.objects.iter().zip(&it.start) {
        clients[m as usize]
            .arrive(o, 1.0, None)
            .map_err(|e| format!("first arrival of {o}: {e}"))?;
    }
    Ok(ItinRig { handles, clients })
}

/// Hops per slice (see [`Slices`]).
pub const CHUNK: usize = 256;

/// One round's results.
#[derive(Default)]
pub struct RoundOut {
    /// Hops completed.
    pub hops: u64,
    /// Wall time of the hops, s.
    pub secs: f64,
    /// Hop rate and per-hop latency (µs), per chunk of [`CHUNK`] hops.
    pub hop: Slices,
    /// The decide step of each hop (a lone object's verdict), µs, per chunk.
    pub rtt: Slices,
    /// Load-thread time blocked on replies, ns.
    pub wait_ns: u64,
    /// Request frames the load thread sent.
    pub requests: u64,
}

/// Run every hop of the itinerary once.
pub fn run_hops(
    rig: &mut ItinRig,
    it: &Itinerary,
    vocab: &Vocab,
    tally: &mut Tally,
    tr: &mut Tracer,
) -> RoundOut {
    let mut out = RoundOut::default();
    let names: Vec<String> = (0..ITIN_MEMBERS as u8).map(member).collect();
    let (mut hop_us, mut rtt_us) = (Reservoir::new(), Reservoir::new());
    let (mut chunk_hops, mut chunk_secs) = (0u64, 0.0f64);
    let start = Instant::now();
    for (n, hop) in it.hops.iter().enumerate() {
        let req = n as u64;
        let o = &it.objects[hop.object as usize];
        let k = Vocab::index(false, hop.server);
        let (a, rem) = (&vocab.accesses[k], &vocab.remaining[k]);
        let (from, to) = (hop.from as usize, hop.to as usize);

        let root = tr.begin("op.hop", 0, req);
        let t0 = Instant::now();
        let s = tr.begin("net.arrive", root, req);
        let arrived = rig.clients[to].arrive(o, hop.time, Some(&names[from]));
        tr.end(s);
        if let Err(e) = arrived {
            tally.fail(format!("arrive {o} at d{to}: {e}"));
            return out;
        }
        let t1 = Instant::now();
        let s = tr.begin("net.decide", root, req);
        let verdict = rig.clients[to].decide(o, a, rem, hop.time);
        tr.end(s);
        let decide_dt = t1.elapsed();
        let v = match verdict {
            Ok(v) => v,
            Err(e) => {
                tally.fail(format!("decide {o} at d{to}: {e}"));
                return out;
            }
        };
        out.requests += 2;
        if v.is_granted() {
            for c in rig.clients.iter_mut() {
                let s = tr.begin("net.issue_proof", root, req);
                let r = c.issue_proof(o, a, hop.time);
                tr.end(s);
                out.requests += 1;
                if let Err(e) = r {
                    tally.fail(format!("replicate proof of {o}: {e}"));
                    return out;
                }
            }
        }
        let dt = t0.elapsed();
        tr.end(root);
        tally.verdict(&v, hop.expect, o);
        hop_us.push(dt.as_secs_f64() * 1e6);
        rtt_us.push(decide_dt.as_secs_f64() * 1e6);
        out.wait_ns += dt.as_nanos() as u64;
        out.hops += 1;
        chunk_hops += 1;
        chunk_secs += dt.as_secs_f64();
        if chunk_hops as usize == CHUNK || n + 1 == it.hops.len() {
            out.hop.push(chunk_hops, chunk_secs, &hop_us);
            out.rtt.push(chunk_hops, chunk_secs, &rtt_us);
            (hop_us, rtt_us) = (Reservoir::new(), Reservoir::new());
            (chunk_hops, chunk_secs) = (0, 0.0);
        }
        // Custody must be resident on exactly one member: the new one.
        let resident: Vec<usize> = rig
            .handles
            .iter()
            .enumerate()
            .filter(|(_, h)| h.guard().custody_of(o) == Custody::Resident)
            .map(|(i, _)| i)
            .collect();
        if resident != [to] {
            tally.broke(format!(
                "after hop {n}, {o} is resident on {resident:?}, expected [{to}]"
            ));
        }
    }
    out.secs = start.elapsed().as_secs_f64();
    out
}
