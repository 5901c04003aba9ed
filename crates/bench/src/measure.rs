//! The one measurement routine every bench phase runs through.
//!
//! [`measure`] times one configuration: an untimed warm-up run, then
//! repetitions until both a minimum count and a minimum timed wall time
//! are reached (with a hard cap). [`measure_pair`] compares two
//! configurations: it interleaves them and alternates which one runs
//! first, so slow drift on a shared machine lands on both sides, and it
//! also reports the spread of the per-pair ratio. Results are a median
//! with its interquartile range (IQR, first to third quartile), using
//! linear-interpolated quantiles.
//!
//! [`breaches`] holds a headline ratio to its documented bound: the
//! bound breaks only when the ratio's whole IQR lies on the wrong side
//! of it, or when the ratio is missing (a vacuous measurement).

use std::time::{Duration, Instant};

use stacl_ids::json::{f64_str, JsonWriter};

/// When a repetition loop may stop: after at least `min_reps` timed
/// runs *and* `min_wall` of timed wall time, or at `max_reps` runs.
#[derive(Clone, Copy, Debug)]
struct Limits {
    min_reps: usize,
    min_wall: Duration,
    max_reps: usize,
}

/// [`measure`]'s limits.
const REPS: Limits = Limits {
    min_reps: 5,
    min_wall: Duration::from_secs(2),
    max_reps: 100,
};

/// [`measure_pair`]'s limits: `min_reps` pairs must count (see
/// [`measure_pair`]); `max_reps` caps the pairs attempted. A ratio phase
/// gets the longer wall time: its median is what the bounds are checked
/// against.
const PAIRS: Limits = Limits {
    min_reps: 10,
    min_wall: Duration::from_secs(5),
    max_reps: 50,
};

/// The spread of a set of samples.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Spread {
    /// The median sample.
    pub median: f64,
    /// The smallest sample.
    pub min: f64,
    /// The first quartile.
    pub q1: f64,
    /// The third quartile.
    pub q3: f64,
    /// The largest sample.
    pub max: f64,
    /// How many samples.
    pub n: usize,
}

impl Spread {
    /// The spread of `samples`; all zeros when there are none.
    pub fn of(samples: &[f64]) -> Spread {
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        Spread {
            median: quantile(&v, 0.5),
            min: v.first().copied().unwrap_or(0.0),
            q1: quantile(&v, 0.25),
            q3: quantile(&v, 0.75),
            max: v.last().copied().unwrap_or(0.0),
            n: v.len(),
        }
    }

    /// The spread under an increasing map of every sample (e.g. a ratio
    /// to a percentage).
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Spread {
        Spread {
            median: f(self.median),
            min: f(self.min),
            q1: f(self.q1),
            q3: f(self.q3),
            max: f(self.max),
            n: self.n,
        }
    }

    /// The quotient `self / den` of two independently measured spreads:
    /// the medians divide, and every other statistic pairs opposite
    /// ends (`q1 / den.q3` up to `q3 / den.q1`), so the band is no
    /// narrower than either side's.
    pub fn over(&self, den: &Spread) -> Spread {
        Spread {
            median: self.median / den.median,
            min: self.min / den.max,
            q1: self.q1 / den.q3,
            q3: self.q3 / den.q1,
            max: self.max / den.min,
            n: self.n.min(den.n),
        }
    }
}

/// The `q` quantile (0..=1) of ascending `sorted`, by linear
/// interpolation between order statistics; 0 when empty.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Measure one configuration. `run` performs one repetition and returns
/// its sample (a throughput, or the seconds of the part it times); the
/// first call is an untimed warm-up. Repeats for at least 5 samples and
/// 2 s of timed wall time, and at most 100 samples.
pub fn measure(run: impl FnMut() -> f64) -> Spread {
    repeat(REPS, run)
}

fn repeat(limits: Limits, mut run: impl FnMut() -> f64) -> Spread {
    run();
    let mut samples = Vec::new();
    let mut wall = Duration::ZERO;
    while samples.len() < limits.max_reps
        && (samples.len() < limits.min_reps || wall < limits.min_wall)
    {
        let t0 = Instant::now();
        samples.push(run());
        wall += t0.elapsed();
    }
    Spread::of(&samples)
}

/// Two configurations measured as interleaved pairs.
#[derive(Clone, Copy, Debug)]
pub struct Pair {
    /// Side `a`'s samples over the pairs that counted.
    pub a: Spread,
    /// Side `b`'s samples over the pairs that counted.
    pub b: Spread,
    /// The per-pair ratio `b / a`; `None` when fewer than the minimum
    /// number of pairs counted, so the comparison would be vacuous.
    pub ratio: Option<Spread>,
}

/// Measure two configurations against each other. Each side returns
/// its sample, or `None` when the run does not count (its pair is then
/// dropped). After one untimed warm-up of each side, pairs run `a`
/// then `b`, then `b` then `a`, alternating, for at least 10 counted
/// pairs and 5 s of timed wall time, and at most 50 attempts.
pub fn measure_pair(a: impl FnMut() -> Option<f64>, b: impl FnMut() -> Option<f64>) -> Pair {
    pair(PAIRS, a, b)
}

fn pair(
    limits: Limits,
    mut a: impl FnMut() -> Option<f64>,
    mut b: impl FnMut() -> Option<f64>,
) -> Pair {
    a();
    b();
    let (mut xs, mut ys, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    let mut wall = Duration::ZERO;
    let mut attempts = 0;
    while attempts < limits.max_reps && (ratios.len() < limits.min_reps || wall < limits.min_wall) {
        let t0 = Instant::now();
        let (x, y) = if attempts % 2 == 0 {
            let x = a();
            (x, b())
        } else {
            let y = b();
            (a(), y)
        };
        wall += t0.elapsed();
        attempts += 1;
        if let (Some(x), Some(y)) = (x, y) {
            xs.push(x);
            ys.push(y);
            ratios.push(y / x);
        }
    }
    Pair {
        a: Spread::of(&xs),
        b: Spread::of(&ys),
        ratio: (ratios.len() >= limits.min_reps).then(|| Spread::of(&ratios)),
    }
}

/// A documented bound on a headline ratio.
#[derive(Clone, Copy, Debug)]
pub enum Bound {
    /// The ratio must be at least this.
    AtLeast(f64),
    /// The ratio must be at most this.
    AtMost(f64),
    /// The ratio must lie in `[lo, hi]`.
    Within(f64, f64),
}

/// Whether `ratio` breaks `bound`: its whole IQR lies on the wrong side
/// of it, or there is no ratio at all.
pub fn breaches(ratio: Option<&Spread>, bound: Bound) -> bool {
    let Some(r) = ratio else {
        return true;
    };
    match bound {
        Bound::AtLeast(lo) => r.q3 < lo,
        Bound::AtMost(hi) => r.q1 > hi,
        Bound::Within(lo, hi) => r.q3 < lo || r.q1 > hi,
    }
}

/// Round to three decimals — the reports' historical precision.
pub fn round3(x: f64) -> f64 {
    (x * 1000.0).round() / 1000.0
}

/// Write `key` as the spread's median and `<key>_iqr` as `[q1, q3]`;
/// both `null` when there is no spread.
pub fn field_spread(w: &mut JsonWriter, key: &str, s: Option<&Spread>) {
    w.field_f64(key, s.map_or(f64::NAN, |s| round3(s.median)));
    let iqr = s.map_or("null".to_string(), |s| {
        format!("[{}, {}]", f64_str(round3(s.q1)), f64_str(round3(s.q3)))
    });
    w.field_raw(&format!("{key}_iqr"), &iqr);
}

/// Write the `run` object: the grid, how many timed repetitions (or
/// pairs) each phase took, the core count and the git revision.
pub fn field_run(w: &mut JsonWriter, grid: &str, reps: &[(String, usize)]) {
    w.open_object("run");
    w.field_str("grid", grid);
    w.open_object("reps");
    for (phase, n) in reps {
        w.field_usize(phase, *n);
    }
    w.close();
    w.field_usize(
        "cores",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    w.field_str("git_rev", &git_revision());
    w.close();
}

/// The revision of the checkout, read from `.git` in the working
/// directory when there is one; `unknown` otherwise.
fn git_revision() -> String {
    let Ok(head) = std::fs::read_to_string(".git/HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = std::fs::read_to_string(format!(".git/{reference}")) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (rev, name) = l.split_once(' ')?;
                (name == reference).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    #[test]
    fn quantiles_interpolate_linearly() {
        let s = Spread::of(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(
            (s.min, s.q1, s.median, s.q3, s.max),
            (1.0, 1.75, 2.5, 3.25, 4.0)
        );
        assert_eq!(s.n, 4);
        let odd = Spread::of(&[10.0, 30.0, 20.0, 50.0, 40.0]);
        assert_eq!((odd.q1, odd.median, odd.q3), (20.0, 30.0, 40.0));
        assert_eq!(Spread::of(&[7.0]).q3, 7.0);
        assert_eq!(Spread::of(&[]).n, 0);
    }

    #[test]
    fn quotient_pairs_opposite_quartiles() {
        let num = Spread::of(&[8.0, 10.0, 12.0]);
        let den = Spread::of(&[1.0, 2.0, 4.0]);
        let q = num.over(&den);
        assert_eq!(q.median, 5.0);
        assert_eq!((q.q1, q.q3), (9.0 / 3.0, 11.0 / 1.5));
        assert_eq!((q.min, q.max), (2.0, 12.0));
    }

    #[test]
    fn minimum_count_is_honoured() {
        let mut calls = 0;
        let limits = Limits {
            min_reps: 5,
            min_wall: Duration::ZERO,
            max_reps: 9,
        };
        let s = repeat(limits, || {
            calls += 1;
            calls as f64
        });
        assert_eq!(calls, 6, "one warm-up plus the minimum count");
        assert_eq!(s.n, 5);
        assert_eq!(s.min, 2.0, "the warm-up sample is not kept");
    }

    #[test]
    fn cap_stops_an_unreachable_wall_time() {
        let mut calls = 0;
        let limits = Limits {
            min_reps: 3,
            min_wall: Duration::from_secs(3600),
            max_reps: 7,
        };
        let s = repeat(limits, || {
            calls += 1;
            0.0
        });
        assert_eq!((calls, s.n), (8, 7));
    }

    #[test]
    fn pairs_alternate_which_side_runs_first() {
        let order = RefCell::new(String::new());
        let limits = Limits {
            min_reps: 4,
            min_wall: Duration::ZERO,
            max_reps: 10,
        };
        let p = pair(
            limits,
            || {
                order.borrow_mut().push('a');
                Some(2.0)
            },
            || {
                order.borrow_mut().push('b');
                Some(3.0)
            },
        );
        // Warm-up `ab`, then pairs `ab`, `ba`, `ab`, `ba`.
        assert_eq!(order.into_inner(), "ababbaabba");
        let r = p.ratio.expect("four pairs counted");
        assert_eq!((r.median, r.n), (1.5, 4));
    }

    #[test]
    fn too_few_counted_pairs_leave_no_ratio() {
        let mut runs = 0;
        let limits = Limits {
            min_reps: 4,
            min_wall: Duration::ZERO,
            max_reps: 6,
        };
        // Only every third run of `b` counts: 2 of the 6 attempted pairs.
        let p = pair(
            limits,
            || Some(1.0),
            || {
                runs += 1;
                (runs % 3 == 0).then_some(1.0)
            },
        );
        assert!(p.ratio.is_none());
        assert_eq!(p.b.n, 2);
        assert!(breaches(p.ratio.as_ref(), Bound::AtLeast(0.9)));
    }

    #[test]
    fn breach_needs_the_whole_iqr_past_the_bound() {
        let band = |q1, q3| Spread {
            median: (q1 + q3) / 2.0,
            min: q1,
            q1,
            q3,
            max: q3,
            n: 10,
        };
        // Wholly outside: breaks.
        assert!(breaches(Some(&band(0.80, 0.88)), Bound::AtLeast(0.9)));
        assert!(breaches(Some(&band(2.5, 4.0)), Bound::AtMost(2.0)));
        assert!(breaches(Some(&band(0.82, 0.94)), Bound::Within(0.95, 1.05)));
        assert!(breaches(Some(&band(1.06, 1.2)), Bound::Within(0.95, 1.05)));
        // Straddling or inside: holds.
        assert!(!breaches(Some(&band(0.85, 0.95)), Bound::AtLeast(0.9)));
        assert!(!breaches(Some(&band(-1.0, 3.0)), Bound::AtMost(2.0)));
        assert!(!breaches(Some(&band(0.9, 0.96)), Bound::Within(0.95, 1.05)));
        assert!(!breaches(Some(&band(1.0, 1.01)), Bound::Within(0.95, 1.05)));
        // No ratio: breaks.
        assert!(breaches(None, Bound::AtMost(2.0)));
    }

    #[test]
    fn spreads_render_median_and_iqr() {
        let mut w = JsonWriter::object();
        field_spread(&mut w, "x", Some(&Spread::of(&[1.0, 2.0, 3.0])));
        field_spread(&mut w, "y", None);
        let s = w.finish();
        assert!(s.contains("\"x\": 2.0,"), "{s}");
        assert!(s.contains("\"x_iqr\": [1.5, 2.5]"), "{s}");
        assert!(
            s.contains("\"y\": null,") && s.contains("\"y_iqr\": null"),
            "{s}"
        );
    }
}
