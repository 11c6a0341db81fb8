//! Random-pattern test-set growth.
//!
//! The paper's flow annotates incremental fault coverage as the test
//! sequence is simulated; this utility closes the loop by *growing* a
//! random test set until a coverage target (or a pattern budget) is met —
//! the simplest useful test generator a user can run against either the
//! flat baseline or, via detection tables, an IP-protected design.

use std::error::Error;
use std::fmt;

use vcad_prng::Rng;

use vcad_logic::{Logic, LogicVec};
use vcad_netlist::Netlist;

use crate::fault::Fault;
use crate::parallel::{lanes, one_pattern_all_faults};

/// Typed test-growth failures — every malformed request is rejected
/// before any simulation runs.
#[derive(Clone, Debug, PartialEq)]
pub enum PatternError {
    /// The coverage target is not a fraction in `[0, 1]`.
    CoverageTargetOutOfRange(f64),
    /// A try budget of zero patterns can never grow a test set.
    ZeroTryBudget,
    /// An empty target list would vacuously report full coverage.
    EmptyTargets,
}

impl fmt::Display for PatternError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PatternError::CoverageTargetOutOfRange(t) => {
                write!(f, "coverage target {t} is not a fraction in [0, 1]")
            }
            PatternError::ZeroTryBudget => write!(f, "the pattern try budget must be positive"),
            PatternError::EmptyTargets => write!(f, "the target fault list is empty"),
        }
    }
}

impl Error for PatternError {}

/// The result of [`grow_random_patterns`].
#[derive(Clone, Debug)]
pub struct PatternGrowth {
    /// The selected patterns, in application order. Patterns that
    /// detected nothing new are discarded, so this is a compacted set.
    pub patterns: Vec<LogicVec>,
    /// Coverage after each *kept* pattern, in `[0, 1]`.
    pub coverage_history: Vec<f64>,
    /// Final coverage over the target list.
    pub coverage: f64,
    /// Random patterns evaluated in total (kept + discarded).
    pub patterns_tried: usize,
}

/// Grows a compacted random test set against `targets` until
/// `target_coverage` is reached or `max_tries` random patterns have been
/// evaluated.
///
/// Patterns that detect no new fault are dropped from the returned set
/// (classic reverse-order-free compaction), so the result is suitable as
/// a production test sequence.
///
/// # Errors
///
/// Returns a typed [`PatternError`] for a coverage target outside
/// `[0, 1]`, a zero try budget, or an empty target list.
pub fn grow_random_patterns(
    netlist: &Netlist,
    targets: &[Fault],
    target_coverage: f64,
    max_tries: usize,
    seed: u64,
) -> Result<PatternGrowth, PatternError> {
    if !(0.0..=1.0).contains(&target_coverage) {
        return Err(PatternError::CoverageTargetOutOfRange(target_coverage));
    }
    if max_tries == 0 {
        return Err(PatternError::ZeroTryBudget);
    }
    if targets.is_empty() {
        return Err(PatternError::EmptyTargets);
    }
    let mut rng = Rng::seed_from_u64(seed);
    let compiled = vcad_engine::CompiledNetlist::compile(netlist);
    let mut eval = compiled.evaluator();
    let total = targets.len();
    let mut remaining: Vec<Fault> = targets.to_vec();
    let mut patterns = Vec::new();
    let mut coverage_history = Vec::new();
    let mut tried = 0;

    while tried < max_tries
        && !remaining.is_empty()
        && (total - remaining.len()) < (target_coverage * total as f64).ceil() as usize
    {
        tried += 1;
        let mut p = LogicVec::zeros(netlist.input_count());
        for i in 0..p.width() {
            p.set(i, Logic::from(rng.gen_bool(0.5)));
        }
        let mut detected = Vec::new();
        let _ = one_pattern_all_faults(&compiled, &mut eval, &p, &remaining, |pass, _, mask| {
            detected.extend(lanes(mask).map(|lane| pass[lane]));
        });
        if !detected.is_empty() {
            // Indices ascend, so dropping from the back keeps the rest valid.
            for index in detected.into_iter().rev() {
                remaining.remove(index);
            }
            patterns.push(p);
            coverage_history.push((total - remaining.len()) as f64 / total.max(1) as f64);
        }
    }

    Ok(PatternGrowth {
        patterns,
        coverage: (total - remaining.len()) as f64 / total as f64,
        coverage_history,
        patterns_tried: tried,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collapse::FaultUniverse;
    use crate::eval::SerialFaultSim;
    use vcad_netlist::generators;

    #[test]
    fn reaches_full_coverage_on_c17() {
        let nl = generators::c17();
        let targets = FaultUniverse::collapsed(&nl).representatives();
        let growth = grow_random_patterns(&nl, &targets, 1.0, 10_000, 7).unwrap();
        assert!((growth.coverage - 1.0).abs() < 1e-12, "{}", growth.coverage);
        // The compacted set replays to the same coverage.
        let replay = SerialFaultSim::new(&nl, targets.clone()).run(&growth.patterns);
        assert_eq!(replay.len(), targets.len());
        // Compaction: every kept pattern contributed.
        assert_eq!(growth.coverage_history.len(), growth.patterns.len());
    }

    #[test]
    fn history_is_strictly_increasing() {
        let nl = generators::alu(3);
        let targets = FaultUniverse::collapsed(&nl).representatives();
        let growth = grow_random_patterns(&nl, &targets, 0.95, 5_000, 11).unwrap();
        for w in growth.coverage_history.windows(2) {
            assert!(w[1] > w[0]);
        }
        assert!(growth.coverage >= 0.9, "{}", growth.coverage);
    }

    #[test]
    fn budget_is_respected() {
        let nl = generators::wallace_multiplier(4);
        let targets = FaultUniverse::collapsed(&nl).representatives();
        let growth = grow_random_patterns(&nl, &targets, 1.0, 10, 3).unwrap();
        assert!(growth.patterns_tried <= 10);
        assert!(growth.patterns.len() <= 10);
    }

    #[test]
    fn typed_errors_for_malformed_requests() {
        let nl = generators::c17();
        let targets = FaultUniverse::collapsed(&nl).representatives();
        assert_eq!(
            grow_random_patterns(&nl, &targets, 1.5, 100, 1).err(),
            Some(PatternError::CoverageTargetOutOfRange(1.5))
        );
        assert_eq!(
            grow_random_patterns(&nl, &targets, 1.0, 0, 1).err(),
            Some(PatternError::ZeroTryBudget)
        );
        assert_eq!(
            grow_random_patterns(&nl, &[], 1.0, 100, 1).err(),
            Some(PatternError::EmptyTargets)
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let nl = generators::c17();
        let targets = FaultUniverse::collapsed(&nl).representatives();
        let a = grow_random_patterns(&nl, &targets, 1.0, 1000, 5).unwrap();
        let b = grow_random_patterns(&nl, &targets, 1.0, 1000, 5).unwrap();
        assert_eq!(a.patterns, b.patterns);
        assert_eq!(a.patterns_tried, b.patterns_tried);
    }
}
