//! A minimal wall-clock benchmarking harness.
//!
//! The workspace builds fully offline, so instead of an external bench
//! framework the `[[bench]]` targets use this small timing loop: each
//! benchmark runs a warm-up pass, then a fixed number of timed samples, and
//! prints the per-iteration mean, minimum and maximum.
//!
//! Wall-clock timing is inherently nondeterministic; that is fine here
//! because benches report performance, not correctness, and vd-bench
//! deliberately stays outside the determinism lint rules (its manifest
//! allows clippy.toml's disallowed types and methods).

use std::hint::black_box;
use std::time::Instant;

/// Runs named benchmark closures and prints a one-line summary for each.
pub struct Bench {
    samples: usize,
}

impl Bench {
    /// Creates a harness that times `samples` iterations per benchmark
    /// (after one untimed warm-up iteration).
    pub fn new(samples: usize) -> Self {
        Bench {
            samples: samples.max(1),
        }
    }

    /// Times `routine` and prints `name: mean/min/max` per iteration.
    pub fn run<T>(&self, name: &str, mut routine: impl FnMut() -> T) {
        self.run_batched(name, || (), |()| routine());
    }

    /// Times `routine` over fresh inputs produced by `setup`; only the
    /// routine is timed, mirroring a batched bench with per-iteration setup.
    pub fn run_batched<S, T>(
        &self,
        name: &str,
        mut setup: impl FnMut() -> S,
        mut routine: impl FnMut(S) -> T,
    ) {
        // Warm-up, untimed.
        black_box(routine(setup()));

        let mut total_nanos = 0u128;
        let mut min_nanos = u128::MAX;
        let mut max_nanos = 0u128;
        for _ in 0..self.samples {
            let input = setup();
            let start = Instant::now();
            black_box(routine(input));
            let elapsed = start.elapsed().as_nanos();
            total_nanos += elapsed;
            min_nanos = min_nanos.min(elapsed);
            max_nanos = max_nanos.max(elapsed);
        }
        let mean = total_nanos / self.samples as u128;
        println!(
            "{name:<40} mean {:>12}  min {:>12}  max {:>12}  ({} samples)",
            fmt_nanos(mean),
            fmt_nanos(min_nanos),
            fmt_nanos(max_nanos),
            self.samples
        );
    }
}

fn fmt_nanos(nanos: u128) -> String {
    if nanos >= 1_000_000_000 {
        format!("{:.3} s", nanos as f64 / 1e9)
    } else if nanos >= 1_000_000 {
        format!("{:.3} ms", nanos as f64 / 1e6)
    } else if nanos >= 1_000 {
        format!("{:.3} us", nanos as f64 / 1e3)
    } else {
        format!("{nanos} ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_the_requested_sample_count() {
        let bench = Bench::new(5);
        let mut calls = 0usize;
        bench.run("counting", || calls += 1);
        // Warm-up + samples; the closure is called through &mut.
        assert_eq!(calls, 6);
    }

    #[test]
    fn batched_setup_runs_per_sample() {
        let bench = Bench::new(3);
        let mut setups = 0usize;
        bench.run_batched(
            "batched",
            || {
                setups += 1;
                vec![1u8, 2, 3]
            },
            |v| v.len(),
        );
        assert_eq!(setups, 4);
    }

    #[test]
    fn zero_samples_is_clamped_to_one() {
        let bench = Bench::new(0);
        let mut calls = 0usize;
        bench.run("clamped", || calls += 1);
        assert_eq!(calls, 2);
    }
}
