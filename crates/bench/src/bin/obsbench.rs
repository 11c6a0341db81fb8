//! `obsbench` — the observability overhead gate.
//!
//! Runs the estimator-remote scenario twice — once with a disabled
//! collector (metrics only, the tier-1 default) and once with full
//! tracing (a span per scheduler instant, RMI call, dispatch, estimator
//! compute and ledger charge) — and asserts the traced run stays within
//! 1.10× of the baseline (`MAX_RATIO`).
//!
//! Both modes take the best of several runs, so a single scheduler
//! hiccup doesn't fail CI; the measured times and the ratio are printed.

use std::time::Duration;

use vcad_bench::scenarios::{self, Scenario};
use vcad_obs::Collector;

const RUNS: usize = 5;

/// The traced run may cost at most 10 % more than the baseline.
const MAX_RATIO: f64 = 1.10;

/// Best-of-`RUNS` wall clock of the ER scenario under `obs`.
fn measure(obs: &Collector) -> Duration {
    let (width, patterns, buffer) = (16, 400, 5);
    (0..RUNS)
        .map(|_| {
            // A fresh rig per run: the traced mode must pay its full
            // cost, including the session setup calls.
            let rig = scenarios::build_with_obs(
                Scenario::EstimatorRemote,
                width,
                patterns,
                buffer,
                obs.clone(),
            );
            let run = rig.run(Scenario::EstimatorRemote);
            // Keep the ring from backing pressure into later runs.
            let _ = obs.trace();
            run.cpu
        })
        .min()
        .expect("at least one run")
}

fn main() {
    let baseline = measure(&Collector::disabled());
    let traced = measure(&Collector::with_capacity(1 << 20));
    let ratio = traced.as_secs_f64() / baseline.as_secs_f64();
    println!(
        "obs overhead: baseline {:.3} ms, traced {:.3} ms, ratio {ratio:.3} (budget {MAX_RATIO:.2})",
        baseline.as_secs_f64() * 1e3,
        traced.as_secs_f64() * 1e3,
    );

    assert!(
        ratio <= MAX_RATIO,
        "tracing overhead {ratio:.3}× exceeds the {MAX_RATIO:.2}× budget \
         (baseline {baseline:?}, traced {traced:?})"
    );
    println!("obs overhead within budget.");
}
