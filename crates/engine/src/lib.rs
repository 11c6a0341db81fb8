//! # vcad-engine — compiled levelized bit-parallel netlist engine
//!
//! A [`Netlist`](vcad_netlist::Netlist) is compiled once — by the
//! netlist itself, [`Netlist::plan`](vcad_netlist::Netlist::plan) — into
//! a levelized [`ExecPlan`](vcad_netlist::ExecPlan), and every gate
//! evaluation in the workspace executes that plan. One pattern at a time
//! (a gate-level block reacting to an event, a provider's
//! `functional_eval`) runs the plan's one-pattern entry, reached through
//! [`Evaluator`](vcad_netlist::Evaluator) or
//! [`CompiledNetlist::outputs`] alike. This crate adds the batch form for
//! the fault-simulation workloads: a [`PackedEvaluator`] sweeps the same
//! plan front to back evaluating **64 test patterns per gate visit**,
//! each pattern riding one lane of a dual-rail
//! [`RailWord`](vcad_logic::RailWord) so `X` and `Z` propagate exactly
//! as they do one pattern at a time.
//!
//! Fault injection is a masked override at the fault site — classic
//! PPSFP (parallel-pattern single-fault propagation): a stuck-at fault
//! becomes a [`Force`] that pins the chosen lanes of one net (or one
//! gate input pin) to a constant before fan-out consumes it. The same
//! machinery also runs the transposed parallel-*fault* layout (one
//! pattern, up to 64 single-fault experiments across the lanes), which
//! is the only way `vcad-faults` builds detection tables.
//!
//! Both forms are differential-tested against the naive scalar walk
//! kept as a test oracle (`crates/netlist/tests/oracle/` —
//! [`Evaluator`](vcad_netlist::Evaluator) runs the plan, so it is not an
//! independent reference) and, downstream, against the scalar
//! `FaultyEvaluator` / `SerialFaultSim` baseline in `vcad-faults`: any
//! divergence in outputs, detection tables or fees is a test failure.
//! [`EngineKind`] no longer selects between implementations for
//! gate-level blocks — "event" and "compiled" blocks execute the same
//! plan — so `--engine=compiled` changes neither results nor speed.
//!
//! # Examples
//!
//! ```
//! use vcad_engine::CompiledNetlist;
//! use vcad_logic::LogicVec;
//! use vcad_netlist::generators;
//!
//! let compiled = CompiledNetlist::compile(&generators::ripple_adder(4));
//! // 5 + 6 on the packed path: bit 0 of the pattern is input 0.
//! let a = LogicVec::from_u64(4, 5);
//! let b = LogicVec::from_u64(4, 6);
//! let out = compiled.outputs(&a.concat(&b));
//! assert_eq!(out.to_word().unwrap().value(), 11);
//! ```

mod compiled;

pub use compiled::{
    CompiledNetlist, Force, ForceSite, PackedEvaluator, PackedOutputs, PackedPatterns,
};

use std::fmt;
use std::str::FromStr;

/// Which gate-evaluation backend a simulation should use.
///
/// Both backends are bit-identical by construction (and by CI gate):
/// gate-level blocks execute the netlist's one cached plan under either
/// label.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// The event-driven scheduler: one gate token at a time.
    #[default]
    Event,
    /// The compiled levelized bit-parallel engine in this crate.
    Compiled,
}

impl EngineKind {
    /// Every engine kind, for exhaustive sweeps and error messages.
    pub const ALL: [EngineKind; 2] = [EngineKind::Event, EngineKind::Compiled];

    /// The spec/CLI label (`"event"` / `"compiled"`).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            EngineKind::Event => "event",
            EngineKind::Compiled => "compiled",
        }
    }

    /// Parses a spec/CLI label.
    #[must_use]
    pub fn parse(label: &str) -> Option<EngineKind> {
        match label {
            "event" => Some(EngineKind::Event),
            "compiled" => Some(EngineKind::Compiled),
            _ => None,
        }
    }
}

impl fmt::Display for EngineKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl FromStr for EngineKind {
    type Err = String;

    fn from_str(s: &str) -> Result<EngineKind, String> {
        EngineKind::parse(s)
            .ok_or_else(|| format!("unknown engine `{s}` (expected `event` or `compiled`)"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_kind_labels_round_trip() {
        for kind in EngineKind::ALL {
            assert_eq!(EngineKind::parse(kind.label()), Some(kind));
            assert_eq!(kind.label().parse::<EngineKind>(), Ok(kind));
        }
        assert_eq!(EngineKind::parse("fast"), None);
        let err = "fast".parse::<EngineKind>().unwrap_err();
        assert!(err.contains("unknown engine `fast`"), "{err}");
        assert_eq!(EngineKind::default(), EngineKind::Event);
    }
}
