//! A minimal wall-clock timing harness for the `cargo bench` targets.
//!
//! The container this repo builds in has no network access, so the bench
//! targets cannot pull a statistics crate; this module provides the small
//! subset actually needed — warm up, run a fixed number of samples, report
//! min/median/max — with `TITANC_BENCH_SAMPLES` overriding the sample
//! count.

use std::time::{Duration, Instant};

use titanc::Options;
use titanc_titan::{ExecStats, MachineConfig};

/// One measured configuration of an experiment: a compile recipe plus a
/// simulated machine.
#[derive(Clone, Debug)]
pub struct ExpCase {
    /// Optimization pipeline.
    pub options: Options,
    /// Machine model to run on.
    pub machine: MachineConfig,
}

impl ExpCase {
    /// A case from an options/machine pair.
    pub fn new(options: Options, machine: MachineConfig) -> ExpCase {
        ExpCase { options, machine }
    }
}

/// The shared compile-then-simulate loop behind the `exp*` binaries:
/// compiles `src` once per case and runs `main` on that case's machine,
/// returning the statistics in case order.
///
/// # Panics
///
/// Panics on compile or runtime errors — experiments are supposed to work.
pub fn run_experiment(src: &str, cases: &[ExpCase]) -> Vec<ExecStats> {
    cases
        .iter()
        .map(|c| crate::run(src, &c.options, c.machine.clone()))
        .collect()
}

/// Runs closures a fixed number of times and prints timing summaries.
pub struct Bench {
    samples: usize,
}

impl Default for Bench {
    fn default() -> Bench {
        Bench::from_env()
    }
}

impl Bench {
    /// A harness taking `TITANC_BENCH_SAMPLES` samples (default 10).
    pub fn from_env() -> Bench {
        let samples = std::env::var("TITANC_BENCH_SAMPLES")
            .ok()
            .and_then(|s| s.parse().ok())
            .filter(|&n| n > 0)
            .unwrap_or(10);
        Bench { samples }
    }

    /// Times `f` over the configured number of samples (after one warm-up
    /// call) and prints `label: median (min .. max)`.
    pub fn time<R>(&self, label: &str, mut f: impl FnMut() -> R) {
        std::hint::black_box(f());
        let mut times: Vec<Duration> = (0..self.samples)
            .map(|_| {
                let t0 = Instant::now();
                std::hint::black_box(f());
                t0.elapsed()
            })
            .collect();
        times.sort();
        println!(
            "bench {label:<40} {} ({} .. {}) n={}",
            fmt_duration(times[times.len() / 2]),
            fmt_duration(times[0]),
            fmt_duration(times[times.len() - 1]),
            self.samples,
        );
    }
}

/// Renders a duration with a unit that keeps 3–4 significant digits.
pub fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 10_000 {
        format!("{ns}ns")
    } else if ns < 10_000_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else if ns < 10_000_000_000 {
        format!("{:.1}ms", ns as f64 / 1e6)
    } else {
        format!("{:.2}s", ns as f64 / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_units() {
        assert_eq!(fmt_duration(Duration::from_nanos(500)), "500ns");
        assert_eq!(fmt_duration(Duration::from_micros(50)), "50.0us");
        assert_eq!(fmt_duration(Duration::from_millis(50)), "50.0ms");
        assert_eq!(fmt_duration(Duration::from_secs(50)), "50.00s");
    }

    #[test]
    fn harness_runs_closure() {
        let mut calls = 0;
        Bench { samples: 3 }.time("noop", || calls += 1);
        assert_eq!(calls, 4); // warm-up + 3 samples
    }
}
