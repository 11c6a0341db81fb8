//! Bit-parallel (64-pattern) fault simulation over the compiled engine.
//!
//! This used to carry its own binary-only packed evaluator; it is now a
//! thin PPSFP adapter over [`vcad_engine::CompiledNetlist`], so the repo
//! has exactly one word-parallel gate evaluator. Patterns are packed 64
//! per [`RailWord`](vcad_logic::RailWord) lane set, the good machine
//! runs once per chunk, and each remaining fault becomes a lane-masked
//! [`Force`] at its site — detection is a nonzero diff mask against the
//! good outputs, with fault dropping across chunks. The transposed
//! layout (one pattern, 64 faults per pass) that detection tables and
//! random-pattern growth run on lives here too.
//!
//! Unlike the old evaluator, four-valued patterns are accepted: `X`/`Z`
//! propagate dual-rail exactly as on the event-driven path, and a lane
//! only counts as a detection when good and faulty outputs differ as
//! logic values.

use std::collections::HashSet;

use vcad_engine::{CompiledNetlist, Force, PackedEvaluator, PackedOutputs};
use vcad_logic::LogicVec;
use vcad_netlist::Netlist;

use crate::fault::{Fault, FaultSite, StuckAt};

/// Converts a stuck-at fault into an engine force pinning `lanes`.
pub(crate) fn fault_force(fault: &Fault, lanes: u64) -> Force {
    let stuck_one = fault.stuck == StuckAt::One;
    match fault.site {
        FaultSite::Net(net) => Force::net(net, stuck_one, lanes),
        FaultSite::Pin { gate, pin } => Force::pin(gate, pin, stuck_one, lanes),
    }
}

/// Simulates one pattern against every fault of `faults` in the
/// transposed parallel-*fault* layout: the pattern is replicated across
/// the lanes and each pass runs up to 64 single-fault machines, one
/// lane-masked [`Force`] per lane (a site already at its stuck value
/// cannot differ and takes none). Calls `differing(pass, outputs, mask)`
/// per pass: lane `l` ran fault `pass[l]` and is set in `mask` when its
/// outputs differ from the fault-free ones, which are returned.
///
/// # Panics
///
/// Panics if `pattern.width()` differs from the plan's input count.
pub(crate) fn one_pattern_all_faults(
    compiled: &CompiledNetlist,
    eval: &mut PackedEvaluator,
    pattern: &LogicVec,
    faults: &[Fault],
    mut differing: impl FnMut(&[usize], &PackedOutputs, u64),
) -> LogicVec {
    let plan = compiled.plan();
    let nets = plan.eval_nets(pattern);
    let excited = |f: &Fault| match f.site {
        FaultSite::Net(net) => nets[net.index()] != f.stuck.value(),
        FaultSite::Pin { gate, pin } => plan
            .operand_slot(gate, pin)
            .is_none_or(|slot| nets[plan.operand_net(slot).index()] != f.stuck.value()),
    };
    let live: Vec<usize> = (0..faults.len()).filter(|&i| excited(&faults[i])).collect();
    // Packed once at the widest pass; the idle lanes of a short final
    // pass carry no force, so they equal the good machine and drop out
    // of the diff mask.
    let packed = compiled.pack_replicated(pattern, live.len().clamp(1, 64));
    let good = eval.run(&packed, &[]);
    for pass in live.chunks(64) {
        let forces: Vec<Force> = pass
            .iter()
            .enumerate()
            .map(|(lane, &i)| fault_force(&faults[i], 1u64 << lane))
            .collect();
        let out = eval.run(&packed, &forces);
        let mask = good.diff_mask(&out);
        if mask != 0 {
            differing(pass, &out, mask);
        }
    }
    good.lane(0)
}

/// The lanes set in `mask`, lowest first.
pub(crate) fn lanes(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let lane = (mask != 0).then(|| mask.trailing_zeros() as usize);
        mask &= mask.wrapping_sub(1);
        lane
    })
}

/// A 64-way bit-parallel good/faulty simulator (PPSFP).
#[derive(Debug)]
pub struct BitParallelSim {
    compiled: CompiledNetlist,
    targets: Vec<Fault>,
}

impl BitParallelSim {
    /// Compiles `netlist` and targets `targets`.
    #[must_use]
    pub fn new(netlist: &Netlist, targets: Vec<Fault>) -> BitParallelSim {
        BitParallelSim {
            compiled: CompiledNetlist::compile(netlist),
            targets,
        }
    }

    /// The fault targets.
    #[must_use]
    pub fn targets(&self) -> &[Fault] {
        &self.targets
    }

    /// The compiled plan this simulator evaluates.
    #[must_use]
    pub fn compiled(&self) -> &CompiledNetlist {
        &self.compiled
    }

    /// Runs all patterns with fault dropping, 64 at a time, and returns
    /// the detected faults in target order.
    ///
    /// # Panics
    ///
    /// Panics on pattern width mismatches.
    #[must_use]
    pub fn run(&self, patterns: &[LogicVec]) -> Vec<Fault> {
        let mut eval = self.compiled.evaluator();
        let mut remaining: Vec<Fault> = self.targets.clone();
        let mut detected: HashSet<Fault> = HashSet::new();
        for chunk in patterns.chunks(64) {
            if remaining.is_empty() {
                break;
            }
            let packed = self.compiled.pack(chunk);
            let good = eval.run(&packed, &[]);
            remaining.retain(|f| {
                let faulty = eval.run(&packed, &[fault_force(f, u64::MAX)]);
                if good.detect_mask(&faulty) != 0 {
                    detected.insert(*f);
                    false
                } else {
                    true
                }
            });
        }
        self.targets
            .iter()
            .filter(|f| detected.contains(f))
            .copied()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collapse::FaultUniverse;
    use crate::eval::SerialFaultSim;
    use vcad_logic::Logic;
    use vcad_netlist::generators;

    fn patterns(n: u64, width: usize, seed: u64) -> Vec<LogicVec> {
        (0..n)
            .map(|i| {
                LogicVec::from_u64(
                    width,
                    (i.wrapping_mul(0x9E37_79B9).wrapping_add(seed)) & ((1 << width) - 1),
                )
            })
            .collect()
    }

    #[test]
    fn agrees_with_serial_on_c17() {
        let nl = generators::c17();
        let targets = FaultUniverse::collapsed(&nl).representatives();
        let pats: Vec<LogicVec> = (0..32u64).map(|p| LogicVec::from_u64(5, p)).collect();
        let serial = SerialFaultSim::new(&nl, targets.clone()).run(&pats);
        let parallel = BitParallelSim::new(&nl, targets).run(&pats);
        assert_eq!(serial, parallel);
        assert!(!parallel.is_empty());
    }

    #[test]
    fn agrees_with_serial_on_multiplier() {
        let nl = generators::array_multiplier(3);
        let targets = FaultUniverse::collapsed(&nl).representatives();
        let pats = patterns(150, 6, 5);
        let serial = SerialFaultSim::new(&nl, targets.clone()).run(&pats);
        let parallel = BitParallelSim::new(&nl, targets).run(&pats);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn partial_chunks_are_masked() {
        let nl = generators::half_adder();
        let targets = FaultUniverse::collapsed(&nl).representatives();
        // 3 patterns: a partial final word.
        let pats = vec![
            LogicVec::from_u64(2, 0b00),
            LogicVec::from_u64(2, 0b01),
            LogicVec::from_u64(2, 0b11),
        ];
        let serial = SerialFaultSim::new(&nl, targets.clone()).run(&pats);
        let parallel = BitParallelSim::new(&nl, targets).run(&pats);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn four_valued_patterns_are_accepted_and_conservative() {
        // All-X patterns make good and faulty outputs identical (both
        // unknown), so nothing may be reported detected on them; a
        // binary pattern mixed in still detects normally.
        let nl = generators::half_adder();
        let targets = FaultUniverse::collapsed(&nl).representatives();
        let all_x = vec![LogicVec::filled(2, Logic::X); 3];
        assert!(BitParallelSim::new(&nl, targets.clone())
            .run(&all_x)
            .is_empty());

        let mut mixed = all_x;
        mixed.push(LogicVec::from_u64(2, 0b01));
        let with_binary = BitParallelSim::new(&nl, targets.clone()).run(&mixed);
        let binary_only = BitParallelSim::new(&nl, targets).run(&[LogicVec::from_u64(2, 0b01)]);
        assert_eq!(with_binary, binary_only);
        assert!(!with_binary.is_empty());
    }
}
