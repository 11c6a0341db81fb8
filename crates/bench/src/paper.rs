//! The paper's measured artefacts as functions: Table 1 (estimator
//! tiers), Table 2 (AL / ER / MR) and Figure 3 (pattern-buffer sweep).
//!
//! Each returns its rows with the measured CPU time beside the
//! deterministic fields. The `table1`, `table2` and `figure3` bins print
//! the rows and assert the wall-clock shape; `tests/golden_outputs.rs`
//! pins and asserts the deterministic part of the same values.

use std::sync::Arc;
use std::time::{Duration, Instant};

use vcad_core::{Estimator, ShardPolicy};
use vcad_logic::LogicVec;
use vcad_netlist::generators;
use vcad_obs::Collector;
use vcad_power::{
    ConstantPowerEstimator, ErrorStats, LinearRegressionPowerEstimator, PowerModel,
    SiliconReference, TogglePowerEstimator,
};
use vcad_rmi::Cache;

use crate::scenarios::{self, Scenario, ScenarioRun};
use crate::workload::{correlated_patterns, random_patterns};

/// Operand width of the multiplier in every artefact (16 in the paper).
pub const WIDTH: usize = 16;

/// Random patterns per Table 2 and Figure 3 run.
pub const PATTERNS: u64 = 100;

/// Table 2's estimation pattern buffer.
pub const BUFFER: usize = 5;

/// Figure 3's buffer sizes, in percent of [`PATTERNS`].
pub const BUFFER_PCTS: [usize; 13] = [1, 2, 5, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100];

/// One estimator tier of Table 1.
#[derive(Clone, Debug)]
pub struct Tier {
    /// The paper's row label.
    pub label: &'static str,
    /// Accuracy against the silicon reference.
    pub error: ErrorStats,
    /// The estimator's published fee, cents per pattern.
    pub fee_cents: f64,
    /// Whether the estimator runs on the provider's server.
    pub remote: bool,
    /// Measured prediction time per pattern.
    pub cpu_per_pattern: Duration,
}

/// Table 1: the constant, linear-regression and gate-level toggle power
/// estimators of a 16×16 Wallace multiplier, scored against a silicon
/// reference over 640 patterns of mixed activity. Rows run from the
/// cheapest tier to the most accurate.
#[must_use]
pub fn table1() -> Vec<Tier> {
    let netlist = Arc::new(generators::wallace_multiplier(WIDTH));
    let model = PowerModel::default();
    // 20% residual: the gate-level view misses glitch/wire effects whose
    // mean magnitude is ~10% — the paper's toggle-tier accuracy.
    let reference = SiliconReference::new(model, 0.20, 0x7A61);

    // Training mixes activity levels, as a provider's characterisation
    // suite would; evaluation sweeps from near-idle to thrashing inputs so
    // per-pattern power varies the way real workloads do.
    let mut training = random_patterns(2 * WIDTH, 128, 1);
    training.extend(correlated_patterns(2 * WIDTH, 128, 0.15, 11));
    let mut evaluation = Vec::new();
    for (i, rate) in [0.05, 0.2, 0.5, 0.8, 0.95].iter().enumerate() {
        evaluation.extend(correlated_patterns(2 * WIDTH, 128, *rate, 100 + i as u64));
    }
    let truth = reference.per_pattern_power(&netlist, &evaluation);

    let constant = ConstantPowerEstimator::characterize(&reference, &netlist, &training);
    let regression = LinearRegressionPowerEstimator::fit(&reference, &netlist, &training, vec![0]);
    let toggle = TogglePowerEstimator::new(Arc::clone(&netlist), model, vec![0], true);

    let tier = |label: &'static str,
                estimator: &dyn Estimator,
                predict: &dyn Fn(&LogicVec, &LogicVec) -> f64| {
        let start = Instant::now();
        let predictions: Vec<f64> = evaluation
            .windows(2)
            .map(|w| predict(&w[0], &w[1]))
            .collect();
        let cpu = start.elapsed();
        let info = estimator.info();
        Tier {
            label,
            error: ErrorStats::compare(&predictions, &truth),
            fee_cents: info.cost_per_pattern_cents,
            remote: info.remote,
            cpu_per_pattern: cpu / predictions.len() as u32,
        }
    };
    vec![
        tier("Constant", &constant, &|_, _| constant.predict_transition()),
        tier("Linear regression", &regression, &|a, b| {
            regression.predict_transition(a, b)
        }),
        tier("Gate-level toggle count", &toggle, &|a, b| {
            toggle.predict_transition(a, b)
        }),
    ]
}

/// One scenario of Table 2: its run and, on a cached rig, the warm rerun.
#[derive(Clone, Debug)]
pub struct Table2Row {
    /// The first (cold) run.
    pub cold: ScenarioRun,
    /// The rerun served from the rig's cache, when `cached`.
    pub warm: Option<ScenarioRun>,
}

/// Table 2: the Figure 2 circuit at the paper's parameters in the AL, ER
/// and MR scenarios, in that order, every rig observed by `obs`.
///
/// `chaos_seed` puts the remote links behind `heavy_chaos_stack`;
/// `cached` gives each rig its own client cache and reruns it warm;
/// `shards` schedules every run.
///
/// # Panics
///
/// Panics when a warm pass diverges from its cold pass, crosses the
/// wire, is billed, or counts other than one cache hit per cold lookup.
#[must_use]
pub fn table2(
    obs: &Collector,
    chaos_seed: Option<u64>,
    cached: bool,
    shards: &ShardPolicy,
) -> Vec<Table2Row> {
    Scenario::ALL
        .iter()
        .map(|&scenario| {
            // One cache per rig: keys include the provider host and
            // object ids, which repeat across independently built rigs.
            let cache = cached.then(|| Arc::new(Cache::new(obs)));
            let mut rig = scenarios::build_full(
                scenario,
                WIDTH,
                PATTERNS,
                BUFFER,
                obs.clone(),
                chaos_seed,
                cache,
            );
            rig.set_shards(shards.clone());
            let cold = rig.run(scenario);
            let warm = cached.then(|| rig.run(scenario));
            if let Some(warm) = &warm {
                check_warm_pass(&cold, warm, chaos_seed.is_none());
            }
            Table2Row { cold, warm }
        })
        .collect()
}

/// A warm pass is served entirely from the cache: zero wire calls, zero
/// fees, the same outputs, and one hit per lookup the cold pass missed.
/// On a fault-free link every cold miss is also exactly one wire call (a
/// faulty link adds retried attempts to the wire count only).
fn check_warm_pass(cold: &ScenarioRun, warm: &ScenarioRun, fault_free: bool) {
    let label = cold.scenario.label();
    assert_eq!(warm.outputs, cold.outputs, "{label} warm diverged");
    assert_eq!(warm.events, cold.events, "{label} warm diverged");
    if cold.stats.calls == 0 {
        return;
    }
    assert_eq!(
        warm.stats.calls, 0,
        "{label} [warm] crossed the wire {} times",
        warm.stats.calls
    );
    assert_eq!(warm.fees_cents, 0.0, "{label} warm pass was billed");
    assert!(warm.cache_hits > 0, "{label} warm pass never hit");
    assert_eq!(warm.cache_hits, cold.cache_misses, "{label} lookups");
    if fault_free {
        assert_eq!(cold.cache_misses, cold.stats.calls, "{label} misses");
    }
}

/// One point of Figure 3's buffer sweep.
#[derive(Clone, Debug)]
pub struct BufferPoint {
    /// Buffer size in percent of [`PATTERNS`].
    pub pct: usize,
    /// Buffer size in patterns.
    pub buffer: usize,
    /// The ER run at that buffer size.
    pub run: ScenarioRun,
}

/// Figure 3: the ER scenario at every buffer size of [`BUFFER_PCTS`].
#[must_use]
pub fn figure3() -> Vec<BufferPoint> {
    BUFFER_PCTS
        .iter()
        .map(|&pct| {
            let buffer = (PATTERNS as usize * pct / 100).max(1);
            let run = scenarios::run(Scenario::EstimatorRemote, WIDTH, PATTERNS, buffer);
            BufferPoint { pct, buffer, run }
        })
        .collect()
}
