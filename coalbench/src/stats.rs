//! Sampling, quantiles and process facts.

use stacl_ids::rng::SplitMix64;

/// A fixed-size uniform reservoir of latency samples (Vitter's
/// algorithm R). Its memory does not grow with the number of operations,
/// so a faster program does not read as a bigger one in `peak_rss_mb`.
pub struct Reservoir {
    samples: Vec<f64>,
    seen: u64,
    rng: SplitMix64,
}

/// Samples kept per reservoir: p99 keeps ~650 samples beyond it.
pub const RESERVOIR: usize = 1 << 16;

impl Reservoir {
    /// An empty reservoir.
    pub fn new() -> Reservoir {
        Reservoir {
            samples: Vec::with_capacity(RESERVOIR),
            seen: 0,
            rng: SplitMix64::seed_from_u64(0x5A3D_1E5E),
        }
    }

    /// Offer one sample.
    #[inline]
    pub fn push(&mut self, v: f64) {
        self.seen += 1;
        if self.samples.len() < RESERVOIR {
            self.samples.push(v);
        } else {
            let j = self.rng.gen_range(0..self.seen);
            if (j as usize) < RESERVOIR {
                self.samples[j as usize] = v;
            }
        }
    }

    /// The `q` quantile (0..=1) of the kept samples; 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        quantile(&self.samples, q)
    }
}

/// Throughput and latency quantiles per slice of a run. A run reports
/// the [`trimmed_mean`] over its slices, so a stretch of interference
/// from outside the program moves only the slices it lands in, and a
/// metric with two operating modes moves smoothly with their mix.
#[derive(Default)]
pub struct Slices {
    rate: Vec<f64>,
    p50: Vec<f64>,
    p90: Vec<f64>,
    p99: Vec<f64>,
}

impl Slices {
    /// Record one slice: `ops` completed in `secs`, latencies in `lat`.
    pub fn push(&mut self, ops: u64, secs: f64, lat: &Reservoir) {
        if ops == 0 || secs <= 0.0 {
            return;
        }
        self.rate.push(ops as f64 / secs);
        self.p50.push(lat.quantile(0.5));
        self.p90.push(lat.quantile(0.9));
        self.p99.push(lat.quantile(0.99));
    }

    /// Slices recorded.
    pub fn len(&self) -> usize {
        self.rate.len()
    }

    /// Per-slice throughput, trimmed mean.
    pub fn rate(&self) -> f64 {
        trimmed_mean(&self.rate)
    }

    /// Per-slice p50, trimmed mean.
    pub fn p50(&self) -> f64 {
        trimmed_mean(&self.p50)
    }

    /// Per-slice p90, trimmed mean.
    pub fn p90(&self) -> f64 {
        trimmed_mean(&self.p90)
    }

    /// Per-slice p99, trimmed mean.
    pub fn p99(&self) -> f64 {
        trimmed_mean(&self.p99)
    }

    /// Every slice as `rate/p50/p90/p99`, for the result file.
    pub fn describe(&self) -> String {
        let v: Vec<String> = (0..self.len())
            .map(|i| {
                format!(
                    "{:.0}/{:.1}/{:.1}/{:.1}",
                    self.rate[i], self.p50[i], self.p90[i], self.p99[i]
                )
            })
            .collect();
        v.join(" ")
    }

    /// Append another run's slices.
    pub fn extend(&mut self, other: &Slices) {
        self.rate.extend(&other.rate);
        self.p50.extend(&other.p50);
        self.p90.extend(&other.p90);
        self.p99.extend(&other.p99);
    }
}

/// The `q` quantile of `values` by linear interpolation between order
/// statistics; 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The mean of `values` without the lowest and the highest 5 % of them
/// (rounded down); 0 when empty. The end-to-end metrics that fold many
/// samples of a run into one value use it. Several of them take one of
/// two values that follow the host (a slice's throughput, a rollout's
/// round trip), and the share of each moves from run to run: a mean
/// moves in proportion to that share, where a median jumps between the
/// two and an interquartile mean moves twice as fast in the middle of
/// the range. The trim keeps a stalled sample or two out of it.
pub fn trimmed_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = v.len() / 20;
    let mid = &v[cut..v.len() - cut];
    mid.iter().sum::<f64>() / mid.len() as f64
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `q` quantile of a log₂-bucketed histogram (bucket `i` holds
/// values in `[2^i, 2^(i+1))`), interpolated linearly inside the bucket
/// by rank; 0 when the histogram is empty.
pub fn log2_quantile(buckets: &[u64], q: f64) -> f64 {
    let total: u64 = buckets.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let rank = q.clamp(0.0, 1.0) * total as f64;
    let mut below = 0u64;
    for (i, &n) in buckets.iter().enumerate() {
        if n > 0 && (below + n) as f64 >= rank {
            let lo = (1u64 << i) as f64;
            let frac = ((rank - below as f64) / n as f64).clamp(0.0, 1.0);
            return lo + lo * frac;
        }
        below += n;
    }
    (1u64 << (buckets.len() - 1)) as f64
}

/// Peak resident set size of this process (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The revision of the checkout, read from `.git` when there is one
/// (never by walking above the working directory); `unknown` otherwise.
pub fn git_revision() -> String {
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

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn trimmed_mean_drops_a_twentieth_at_each_end() {
        let v: Vec<f64> = (0..38).map(f64::from).chain([1e6, -1e6]).collect();
        // 40 values: the two outliers go.
        assert_eq!(trimmed_mean(&v), 18.5);
        assert_eq!(trimmed_mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(trimmed_mean(&[]), 0.0);
    }

    #[test]
    fn log2_quantile_stays_inside_its_bucket() {
        let mut b = [0u64; 32];
        b[10] = 100; // [1024, 2048)
        let p50 = log2_quantile(&b, 0.5);
        assert!((1024.0..2048.0).contains(&p50));
        assert!(log2_quantile(&b, 0.99) > p50);
        assert_eq!(log2_quantile(&[0; 32], 0.5), 0.0);
    }

    #[test]
    fn reservoir_is_bounded() {
        let mut r = Reservoir::new();
        for i in 0..(3 * RESERVOIR) {
            r.push(i as f64);
        }
        assert_eq!(r.samples.len(), RESERVOIR);
        let p50 = r.quantile(0.5);
        assert!((0.4..0.6).contains(&(p50 / (3 * RESERVOIR) as f64)));
    }
}
