//! Dependency-free stand-in for the subset of `criterion` this workspace
//! uses. Benchmarks run with `cargo bench` (`harness = false`): each
//! `Bencher::iter` target is warmed up, then timed adaptively until a
//! wall-clock budget is spent, and the per-iteration mean / best times are
//! printed. No statistical analysis, HTML reports, or baselines — the
//! numbers are honest wall-clock measurements suitable for A/B reading in
//! CI logs.

use std::fmt::Display;
use std::time::{Duration, Instant};

/// Re-export position matching `criterion::black_box` (deprecated there in
/// favor of `std::hint::black_box`, which callers here already use).
pub use std::hint::black_box;

/// Top-level benchmark driver.
#[derive(Debug, Default)]
pub struct Criterion {
    _private: (),
}

impl Criterion {
    /// Start a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        let name = name.into();
        println!("\n== group: {name}");
        BenchmarkGroup {
            _parent: self,
            name,
            sample_size: 10,
        }
    }

    /// Benchmark outside any group.
    pub fn bench_function(&mut self, name: impl Into<String>, mut f: impl FnMut(&mut Bencher)) {
        run_one(&name.into(), 10, &mut f);
    }
}

/// Identifier combining a function name and a parameter.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    text: String,
}

impl BenchmarkId {
    /// `function_name/parameter` identifier.
    pub fn new(name: impl Into<String>, param: impl Display) -> Self {
        Self {
            text: format!("{}/{}", name.into(), param),
        }
    }

    /// Parameter-only identifier.
    pub fn from_parameter(param: impl Display) -> Self {
        Self {
            text: param.to_string(),
        }
    }
}

impl Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.text)
    }
}

/// A group of related benchmarks.
pub struct BenchmarkGroup<'a> {
    _parent: &'a mut Criterion,
    name: String,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    /// Set the number of timed samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Accepted for API compatibility; the shim's time budget is fixed.
    pub fn measurement_time(&mut self, _d: Duration) -> &mut Self {
        self
    }

    /// Benchmark a closure.
    pub fn bench_function(&mut self, id: impl Display, mut f: impl FnMut(&mut Bencher)) {
        run_one(&format!("{}/{}", self.name, id), self.sample_size, &mut f);
    }

    /// Benchmark a closure against an input value.
    pub fn bench_with_input<I: ?Sized>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: impl FnMut(&mut Bencher, &I),
    ) {
        run_one(
            &format!("{}/{}", self.name, id),
            self.sample_size,
            &mut |b| {
                f(b, input);
            },
        );
    }

    /// Finish the group (printing is incremental; nothing to flush).
    pub fn finish(self) {}
}

/// Passed to benchmark closures; `iter` times the target.
pub struct Bencher {
    samples: usize,
    /// Mean per-iteration time of the last `iter` call.
    pub last_mean: Duration,
    /// Best per-iteration time of the last `iter` call.
    pub last_best: Duration,
}

impl Bencher {
    /// Time `f`, printing mean and best per-iteration wall time.
    pub fn iter<R>(&mut self, mut f: impl FnMut() -> R) {
        // Warm-up + calibration: find an iteration count that takes
        // roughly 20ms, so short targets are batched.
        let t0 = Instant::now();
        black_box(f());
        let once = t0.elapsed().max(Duration::from_nanos(20));
        let batch =
            (Duration::from_millis(20).as_nanos() / once.as_nanos()).clamp(1, 1_000_000) as usize;

        let mut best = Duration::MAX;
        let mut total = Duration::ZERO;
        let mut iters = 0usize;
        for _ in 0..self.samples {
            let t = Instant::now();
            for _ in 0..batch {
                black_box(f());
            }
            let dt = t.elapsed();
            best = best.min(dt / batch as u32);
            total += dt;
            iters += batch;
        }
        self.last_mean = total / iters as u32;
        self.last_best = best;
    }
}

fn run_one(label: &str, samples: usize, f: &mut dyn FnMut(&mut Bencher)) {
    // `cargo bench --bench X -- <filter>`: like criterion, run only the
    // benchmarks whose `group/name` contains the first non-flag argument.
    let filter = std::env::args().skip(1).find(|a| !a.starts_with('-'));
    if filter.is_some_and(|f| !label.contains(&f)) {
        return;
    }
    let mut b = Bencher {
        samples,
        last_mean: Duration::ZERO,
        last_best: Duration::ZERO,
    };
    f(&mut b);
    println!(
        "{label:<56} mean {:>12?}  best {:>12?}",
        b.last_mean, b.last_best
    );
}

/// Group benchmark functions under one name.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group(c: &mut $crate::Criterion) {
            $( $target(c); )+
        }
    };
}

/// Emit a `main` that runs the given groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            let mut c = $crate::Criterion::default();
            $( $group(&mut c); )+
        }
    };
}
