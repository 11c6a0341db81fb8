//! A small self-contained micro-benchmark harness.
//!
//! The workspace builds fully offline, so the bench targets cannot pull
//! in an external harness; this module supplies the narrow surface they
//! need: named groups, warm-up, automatic iteration scaling, and a
//! median-of-samples report in ns/iter.
//!
//! Timing methodology: after a warm-up phase the per-iteration cost is
//! estimated, each sample then runs enough iterations to fill its time
//! slice, and the reported figure is the **median** sample — robust to
//! the occasional scheduler hiccup without criterion's full machinery.

use std::time::{Duration, Instant};

/// Default warm-up per benchmark.
const WARM_UP: Duration = Duration::from_millis(300);
/// Default measurement budget per benchmark.
const MEASURE: Duration = Duration::from_secs(2);
/// Samples the measurement budget is split into.
const SAMPLES: usize = 11;

/// One measured benchmark result.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// Group-qualified benchmark name (`group/name`).
    pub name: String,
    /// Median time per iteration.
    pub median: Duration,
    /// Fastest sample per iteration.
    pub min: Duration,
    /// Slowest sample per iteration.
    pub max: Duration,
    /// Iterations run per sample.
    pub iters_per_sample: u64,
}

impl Measurement {
    /// Median per-iteration time in nanoseconds.
    #[must_use]
    pub fn median_ns(&self) -> f64 {
        self.median.as_secs_f64() * 1e9
    }
}

/// A named collection of benchmarks sharing time budgets.
pub struct Group {
    name: String,
    warm_up: Duration,
    measure: Duration,
    results: Vec<Measurement>,
}

impl Group {
    /// Creates a group with the default budgets.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Group {
        Group {
            name: name.into(),
            warm_up: WARM_UP,
            measure: MEASURE,
            results: Vec::new(),
        }
    }

    /// Overrides the measurement budget.
    #[must_use]
    pub fn measurement_time(mut self, d: Duration) -> Group {
        self.measure = d;
        self
    }

    /// Overrides the warm-up budget.
    #[must_use]
    pub fn warm_up_time(mut self, d: Duration) -> Group {
        self.warm_up = d;
        self
    }

    /// Times `f`, printing and recording the result.
    pub fn bench<F: FnMut()>(&mut self, name: impl Into<String>, mut f: F) -> &Measurement {
        let name = format!("{}/{}", self.name, name.into());

        // Warm-up, counting iterations to estimate per-iter cost.
        let warm_start = Instant::now();
        let mut warm_iters: u64 = 0;
        while warm_start.elapsed() < self.warm_up {
            f();
            warm_iters += 1;
        }
        let per_iter = warm_start.elapsed().as_secs_f64() / warm_iters as f64;

        // Fill each sample slice with enough iterations to dominate timer
        // granularity.
        let sample_budget = self.measure.as_secs_f64() / SAMPLES as f64;
        let iters = ((sample_budget / per_iter).ceil() as u64).max(1);
        let mut samples = Vec::with_capacity(SAMPLES);
        for _ in 0..SAMPLES {
            let start = Instant::now();
            for _ in 0..iters {
                f();
            }
            samples.push(start.elapsed() / u32::try_from(iters).unwrap_or(u32::MAX));
        }
        samples.sort();

        let m = Measurement {
            name,
            median: samples[SAMPLES / 2],
            min: samples[0],
            max: samples[SAMPLES - 1],
            iters_per_sample: iters,
        };
        println!(
            "{:<48} {:>12.1} ns/iter  (min {:.1}, max {:.1}, {} iters/sample)",
            m.name,
            m.median_ns(),
            m.min.as_secs_f64() * 1e9,
            m.max.as_secs_f64() * 1e9,
            m.iters_per_sample
        );
        self.results.push(m);
        self.results.last().expect("just pushed")
    }

    /// All measurements taken so far.
    #[must_use]
    pub fn results(&self) -> &[Measurement] {
        &self.results
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_something_positive() {
        let mut g = Group::new("t")
            .warm_up_time(Duration::from_millis(5))
            .measurement_time(Duration::from_millis(20));
        let m = g.bench("spin", || {
            // Opaque per element: with a visible bound the sum folds to a
            // constant under --release and the median reads zero.
            std::hint::black_box((0..100u64).map(std::hint::black_box).sum::<u64>());
        });
        assert!(m.median > Duration::ZERO);
        assert_eq!(g.results().len(), 1);
    }
}
