//! What every workload shares: arguments, seeds, the measured window
//! and the shape of a result.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use vcad_logic::LogicVec;
use vcad_prng::{splitmix64, Rng};

use crate::stats;
use crate::sys;

/// One invocation, as the driver (or `run.sh`) spelled it.
#[derive(Clone, Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// `false`: end-to-end metrics. `true`: the traced, per-layer run.
    pub trace: bool,
    /// Scratch directory for journals and `trace.json`.
    pub out: PathBuf,
}

/// Windows shorter than this are smoke runs: every workload and every
/// correctness check on a sliver of the work, no judgement of timings.
const SMOKE_BELOW_S: f64 = 2.0;

impl Args {
    pub fn smoke(&self) -> bool {
        self.seconds < SMOKE_BELOW_S
    }
}

/// What a workload hands back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted and failed (calls, cells, simulation runs).
    pub attempted: u64,
    pub failed: u64,
    /// Correctness findings; empty means every check passed.
    pub violations: Vec<String>,
    /// `(name, value)`; `main` checks the names against the registry.
    pub metrics: Vec<(&'static str, f64)>,
    /// Human-readable context printed beside the metrics.
    pub notes: Vec<String>,
    /// `(name, CRC-32)` of outputs too large to print; pinned for the
    /// default seed in `expected.json`.
    pub digests: Vec<(&'static str, String)>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    /// The five end-to-end metrics, in registry order. A window in which
    /// nothing completed has no latency to report: the zeros are printed
    /// beside `failed`/`attempted`, and the run is marked incorrect.
    pub fn set_end_to_end(
        &mut self,
        setup_s: f64,
        throughput_per_s: f64,
        (latency_p50_us, latency_p75_us): (f64, f64),
    ) {
        self.check(latency_p50_us > 0.0, || {
            "no operation completed in the window".to_owned()
        });
        self.set("setup_s", setup_s);
        self.set("throughput_per_s", throughput_per_s);
        self.set("latency_p50_us", latency_p50_us);
        self.set("latency_p75_us", latency_p75_us);
        self.set("peak_rss_mb", sys::peak_rss_mib());
    }

    /// Records a violation unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(what());
        }
    }
}

/// The journal's CRC-32 over `bytes`, as 8 hex digits.
pub fn digest(bytes: &[u8]) -> String {
    format!("{:08x}", vcad_campaign::checkpoint::crc32(bytes))
}

/// An independent PRNG stream for `label`, derived from the run's seed.
/// The product only ever sees what these streams generate.
pub fn stream(seed: u64, label: &str) -> Rng {
    let mut state = label.bytes().fold(seed ^ 0x5EED_BE9C_4A11_D00D, |h, b| {
        h.wrapping_mul(0x0000_0100_0000_01b3) ^ u64::from(b)
    });
    Rng::seed_from_u64(splitmix64(&mut state))
}

/// `count` uniformly random `width`-bit words (`width <= 32`).
pub fn random_words(rng: &mut Rng, width: usize, count: usize) -> Vec<u64> {
    let mask = (1u64 << width) - 1;
    (0..count).map(|_| rng.next_u64() & mask).collect()
}

pub fn to_vecs(words: &[u64], width: usize) -> Vec<LogicVec> {
    words
        .iter()
        .map(|&w| LogicVec::from_u64(width, w))
        .collect()
}

/// Sets up again and again for a twentieth of the window (three times
/// at least), keeps the last result and returns the median build time.
/// Set-up takes milliseconds, so one draw of it is mostly the host's
/// mood; half a second of draws is a statistic.
pub fn median_setup<R>(args: &Args, mut build: impl FnMut() -> R) -> (R, f64) {
    let budget = Duration::from_secs_f64(args.seconds * 0.05);
    let began = Instant::now();
    let mut times = Vec::new();
    let mut last = None;
    while times.len() < 3 || began.elapsed() < budget {
        drop(last.take());
        let started = Instant::now();
        last = Some(build());
        times.push(started.elapsed().as_secs_f64());
    }
    (
        last.expect("at least one set-up ran"),
        stats::median(&mut times),
    )
}

/// The measured window: identical rounds of fixed work, repeated until
/// the time is up.
#[derive(Debug, Default)]
pub struct RoundLog {
    /// Host seconds of each round.
    pub round_s: Vec<f64>,
    /// Work units (patterns, events, cells …) each round completed.
    pub work: Vec<f64>,
    pub wall_s: f64,
}

impl RoundLog {
    /// Median over rounds of work per host second: one stalled round
    /// cannot drag the figure the way it drags total ÷ total.
    pub fn rate_per_s(&self) -> f64 {
        let mut rates: Vec<f64> = self
            .work
            .iter()
            .zip(&self.round_s)
            .map(|(w, s)| w / s)
            .collect();
        stats::median(&mut rates)
    }

    pub fn rounds(&self) -> usize {
        self.round_s.len()
    }

    pub fn total_work(&self) -> f64 {
        self.work.iter().sum()
    }
}

/// How much work one round does: `nominal` for any real window, scaled
/// down with windows under two seconds (never below a sixteenth) so the
/// smoke mode runs every workload and every check in a few seconds.
pub fn round_size(nominal: usize, seconds: f64) -> usize {
    let scaled = (nominal as f64 * (seconds / SMOKE_BELOW_S).min(1.0)) as usize;
    scaled.max(nominal.div_ceil(16))
}

/// Runs `round(index)` until `seconds` have passed, at least three times
/// (once, for a smoke window). A round returns the work it did and the host
/// seconds the product spent on it (input generation and output checks
/// happen inside the window but are not charged to the product).
pub fn run_rounds(seconds: f64, mut round: impl FnMut(usize) -> (f64, f64)) -> RoundLog {
    let min_rounds = if seconds < SMOKE_BELOW_S { 1 } else { 3 };
    let mut log = RoundLog::default();
    let window = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    while log.round_s.len() < min_rounds || window.elapsed() < budget {
        let (work, secs) = round(log.round_s.len());
        log.round_s.push(secs);
        log.work.push(work);
    }
    log.wall_s = window.elapsed().as_secs_f64();
    log
}

/// The upper percentile every workload reports beside its median. Host
/// slow spells last seconds on this sandbox and cover up to a fifth of a
/// window, so for operations that take milliseconds of CPU anything
/// above the upper quartile measured the host (p90 spread 0.18 on
/// `vfs_tcp` over ten runs of one commit, p75 0.07).
const UPPER_P: f64 = 75.0;

/// Median and upper quartile of `samples_us`, by one rule for every
/// workload: p75 when ten samples lie beyond it; a window with fewer
/// than 41 samples reports the highest percentile that still has ten
/// beyond it (the eleventh-largest sample), never below the median. The
/// label says which was used. No samples read as zeros.
pub fn latency_summary(mut samples_us: Vec<f64>) -> (f64, f64, String) {
    stats::sort(&mut samples_us);
    let sorted_us = samples_us;
    let n = sorted_us.len();
    if n == 0 {
        return (0.0, 0.0, "no samples".to_owned());
    }
    let median_index = n.div_ceil(2) - 1;
    let cap_index = ((UPPER_P / 100.0 * n as f64).ceil() as usize).clamp(1, n) - 1;
    let supported = n.saturating_sub(stats::MIN_BEYOND + 1);
    let upper_index = cap_index.min(supported).max(median_index);
    let label = if upper_index == cap_index {
        format!("p{UPPER_P}")
    } else {
        format!(
            "p{:.0} (p{UPPER_P} needs 41 samples)",
            100.0 * (upper_index + 1) as f64 / n as f64
        )
    };
    (
        sorted_us[median_index],
        sorted_us[upper_index],
        format!("{label}, n={n}"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_reproducible_and_independent() {
        let a: Vec<u64> = random_words(&mut stream(7, "a"), 16, 8);
        assert_eq!(a, random_words(&mut stream(7, "a"), 16, 8));
        assert_ne!(a, random_words(&mut stream(7, "b"), 16, 8));
        assert_ne!(a, random_words(&mut stream(8, "a"), 16, 8));
        assert!(a.iter().all(|&w| w < 1 << 16));
    }

    #[test]
    fn rounds_run_until_the_budget_and_report_the_median_rate() {
        let log = run_rounds(0.04, |i| {
            let started = Instant::now();
            std::thread::sleep(Duration::from_millis(if i == 1 { 12 } else { 3 }));
            (30.0, started.elapsed().as_secs_f64())
        });
        assert!(log.round_s.len() >= 5);
        assert!(log.wall_s >= 0.04);
        // The 12 ms straggler does not set the rate.
        assert!(log.rate_per_s() > 30.0 / 0.008, "{}", log.rate_per_s());
    }

    #[test]
    fn the_tail_backs_off_until_ten_samples_lie_beyond_it() {
        let ramp = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        // Plenty of samples: p75, exactly as `stats` computes it.
        let (p50, tail, label) = latency_summary(ramp(2000));
        assert_eq!((p50, tail), (1000.0, 1500.0));
        assert!(label.starts_with("p75,"), "{label}");
        assert_eq!(Some(tail), stats::percentile(&ramp(2000), 75.0));
        assert!(latency_summary(ramp(41)).2.starts_with("p75,"));
        // 33 samples cannot support p75 (8 beyond): eleventh-largest.
        let (p50, tail, label) = latency_summary(ramp(33));
        assert_eq!((p50, tail), (17.0, 23.0));
        assert!(label.starts_with("p70 "), "{label}");
        // Too few for any tail: the median stands in, never less.
        let (p50, tail, _) = latency_summary(ramp(12));
        assert_eq!((p50, tail), (6.0, 6.0));
        // A window in which nothing completed must not panic.
        assert_eq!(latency_summary(Vec::new()).0, 0.0);
    }

    #[test]
    fn round_size_only_shrinks_for_smoke_windows() {
        assert_eq!(round_size(400, 10.0), 400);
        assert_eq!(round_size(400, 2.0), 400);
        assert_eq!(round_size(400, 0.2), 40);
        assert_eq!(round_size(64, 0.01), 4);
    }

    #[test]
    fn median_setup_keeps_the_last_build() {
        let args = Args {
            workload: String::new(),
            seed: 1,
            seconds: 0.2,
            trace: false,
            out: PathBuf::new(),
        };
        let mut n = 0;
        let (last, t) = median_setup(&args, || {
            n += 1;
            std::thread::sleep(Duration::from_millis(1));
            n
        });
        assert!((3..=10).contains(&last), "{last} set-ups in 10 ms");
        assert_eq!(last, n);
        assert!(t >= 0.001);
    }
}
