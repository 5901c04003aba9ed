//! A minimal, API-compatible stand-in for the `criterion` benchmark
//! harness (the workspace builds hermetically with no external crates).
//!
//! It implements exactly the surface the E1–E10 bench files use —
//! `Criterion::benchmark_group`, `bench_with_input` / `bench_function`,
//! `Bencher::iter`, `BenchmarkId`, and the `criterion_group!` /
//! `criterion_main!` macros. Timing is [`crate::measure::measure`]'s:
//! each sample is a batch of iterations sized to `SAMPLE_SECS`, and
//! the report is one line per benchmark to stdout with the median
//! per-iteration time and its interquartile range. The repetition
//! limits are `measure`'s constants, so the group carries no sample,
//! warm-up or measurement-time settings.

use std::fmt::Display;
use std::hint::black_box;
use std::time::Instant;

use crate::measure::{measure, Spread};

/// The target wall time of one sample's batch of iterations.
const SAMPLE_SECS: f64 = 0.02;

/// The benchmark driver handed to every `criterion_group!` target.
#[derive(Default)]
pub struct Criterion {}

impl Criterion {
    /// Start a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            _criterion: self,
            name: name.into(),
        }
    }
}

/// A named benchmark identifier: a function label plus an optional
/// parameter rendering.
#[derive(Clone, Debug)]
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    /// `label/parameter`.
    pub fn new(label: impl Into<String>, parameter: impl Display) -> Self {
        BenchmarkId {
            label: format!("{}/{parameter}", label.into()),
        }
    }

    /// Just the parameter (for single-axis sweeps).
    pub fn from_parameter(parameter: impl Display) -> Self {
        BenchmarkId {
            label: parameter.to_string(),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(label: &str) -> Self {
        BenchmarkId {
            label: label.to_string(),
        }
    }
}

impl From<String> for BenchmarkId {
    fn from(label: String) -> Self {
        BenchmarkId { label }
    }
}

/// A named group of related benchmarks.
pub struct BenchmarkGroup<'a> {
    _criterion: &'a mut Criterion,
    name: String,
}

impl BenchmarkGroup<'_> {
    /// Run one benchmark with an input value.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        self.run(&id.label, |b| f(b, input))
    }

    /// Run one benchmark without a separate input.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        self.run(&id.into().label, f)
    }

    /// Finish the group (reporting happens per benchmark).
    pub fn finish(self) {}

    fn run(&mut self, label: &str, f: impl FnOnce(&mut Bencher)) -> &mut Self {
        let mut bencher = Bencher { stats: None };
        f(&mut bencher);
        match bencher.stats {
            Some((s, iters)) => println!(
                "{}/{label:<40} median {:>12}  (min {}, IQR {}..{}, max {}, {iters} iters/sample × {} samples)",
                self.name,
                fmt_time(s.median),
                fmt_time(s.min),
                fmt_time(s.q1),
                fmt_time(s.q3),
                fmt_time(s.max),
                s.n,
            ),
            None => println!("{}/{label:<40} (no measurement)", self.name),
        }
        self
    }
}

/// The timing loop handed to each benchmark closure.
pub struct Bencher {
    /// Per-iteration seconds, and iterations per sample.
    stats: Option<(Spread, u64)>,
}

impl Bencher {
    /// Measure a routine: one timed call sizes the batch of iterations
    /// per sample, then [`measure`] takes the samples, each the mean
    /// per-iteration time of one batch.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut routine: F) {
        let t0 = Instant::now();
        black_box(routine());
        let per_iter = t0.elapsed().as_secs_f64();
        let iters = ((SAMPLE_SECS / per_iter.max(1e-9)).ceil() as u64).max(1);
        let spread = measure(|| {
            let t0 = Instant::now();
            for _ in 0..iters {
                black_box(routine());
            }
            t0.elapsed().as_secs_f64() / iters as f64
        });
        self.stats = Some((spread, iters));
    }
}

fn fmt_time(seconds: f64) -> String {
    if seconds < 1e-6 {
        format!("{:.1} ns", seconds * 1e9)
    } else if seconds < 1e-3 {
        format!("{:.2} µs", seconds * 1e6)
    } else if seconds < 1.0 {
        format!("{:.2} ms", seconds * 1e3)
    } else {
        format!("{seconds:.3} s")
    }
}

/// Define a benchmark group function running each target in order.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut criterion = $crate::criterion::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

/// Define `main` running the given benchmark groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_loop_produces_stats() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("shim-test");
        group.bench_with_input(BenchmarkId::new("square", 7), &7u64, |bch, &x| {
            bch.iter(|| x * x)
        });
        group.bench_function("add", |bch| bch.iter(|| 1 + 1));
        group.finish();
    }
}
