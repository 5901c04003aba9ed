//! In-memory span recording for the traced run.
//!
//! Spans are recorded only in the benchmark's own code, around each call
//! into a layer: name, start, end, parent and request id. Nothing inside
//! the crates under test is instrumented. With recording off, `begin`
//! and `end` are a single branch.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// The layer call, e.g. `net.arrive`.
    pub name: &'static str,
    /// Start, ns.
    pub start: u64,
    /// End, ns (0 while open).
    pub end: u64,
    /// 1-based index of the parent span; 0 for a root.
    pub parent: u32,
    /// The request (operation) the span belongs to.
    pub req: u64,
}

/// Spans kept per run; recording stops (and is counted) beyond this.
const MAX_SPANS: usize = 1 << 21;

/// The span recorder.
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    dropped: u64,
}

impl Tracer {
    /// A recorder; `on = false` records nothing.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            dropped: 0,
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Open a span; returns its handle (0 when not recording).
    #[inline]
    pub fn begin(&mut self, name: &'static str, parent: u32, req: u64) -> u32 {
        if !self.on {
            return 0;
        }
        if self.spans.len() >= MAX_SPANS {
            self.dropped += 1;
            return 0;
        }
        self.spans.push(Span {
            name,
            start: self.t0.elapsed().as_nanos() as u64,
            end: 0,
            parent,
            req,
        });
        self.spans.len() as u32
    }

    /// Close the span `id` (a no-op for handle 0).
    #[inline]
    pub fn end(&mut self, id: u32) {
        if id == 0 {
            return;
        }
        let now = self.t0.elapsed().as_nanos() as u64;
        self.spans[id as usize - 1].end = now;
    }

    /// Record an already-timed span (for calls timed in bulk).
    pub fn record(&mut self, name: &'static str, parent: u32, req: u64, dur_ns: u64) {
        let id = self.begin(name, parent, req);
        if id != 0 {
            let s = &mut self.spans[id as usize - 1];
            s.end = s.start + dur_ns;
        }
    }

    /// Self time per span name: each closed span's duration minus the
    /// part of it covered by its direct children, in ns.
    pub fn self_times(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != 0 && s.end >= s.start {
                child_ns[s.parent as usize - 1] += s.end - s.start;
            }
        }
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if s.end < s.start {
                continue;
            }
            let own = (s.end - s.start).saturating_sub(child_ns[i]);
            out.entry(s.name).or_default().push(own as f64);
        }
        out
    }

    /// Render the first `limit` spans plus per-name self-time summaries
    /// as JSON.
    pub fn to_json(&self, limit: usize) -> String {
        let mut s = String::from("{\"spans_recorded\":");
        let _ = write!(
            s,
            "{},\"spans_dropped\":{},",
            self.spans.len(),
            self.dropped
        );
        s.push_str("\"self_time_ns\":{");
        for (i, (name, v)) in self.self_times().iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "\"{name}\":{{\"count\":{},\"p50\":{},\"p99\":{},\"total\":{}}}",
                v.len(),
                crate::stats::quantile(v, 0.5),
                crate::stats::quantile(v, 0.99),
                v.iter().sum::<f64>()
            );
        }
        s.push_str("},\"spans\":[");
        for (i, sp) in self.spans.iter().take(limit).enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"id\":{},\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{},\"req\":{}}}",
                i + 1,
                sp.name,
                sp.start,
                sp.end,
                sp.parent,
                sp.req
            );
        }
        s.push_str("]}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        let root = t.begin("op", 0, 1);
        t.record("child", root, 1, 0);
        t.end(root);
        let st = t.self_times();
        assert_eq!(st["op"].len(), 1);
        assert_eq!(st["child"], vec![0.0]);
        assert!(t.to_json(10).contains("\"name\":\"child\""));
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.begin("op", 0, 1);
        t.end(id);
        assert_eq!(id, 0);
        assert!(t.self_times().is_empty());
    }
}
