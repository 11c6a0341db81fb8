//! Stuck-at fault modelling and **virtual fault simulation**.
//!
//! This crate implements the paper's second contribution: evaluating the
//! testability of a design containing IP components *without* the provider
//! disclosing their structure. The pieces:
//!
//! * [`Fault`] / [`FaultSite`] — single stuck-at faults on net stems and
//!   gate input pins; [`SymbolicFault`] is the opaque name that crosses
//!   the IP boundary.
//! * [`FaultUniverse`] — fault-list extraction with equivalence collapsing
//!   (union-find over the classic per-gate rules) and optional dominance
//!   reduction.
//! * [`TestabilityAnalysis`] — static SCOAP controllability/observability
//!   scores plus sound untestability proofs; [`FaultUniverse`] classes a
//!   proof covers are skipped by simulation and accounted separately;
//!   [`TestabilityReport`] renders them for a person.
//! * [`DetectionTable`] — the paper's key data structure: for one input
//!   pattern, every erroneous output configuration with the symbolic
//!   faults that cause it, built on the compiled engine (up to 64 fault
//!   classes per pass). Serialisable to a wire [`Value`](vcad_rmi) for
//!   remote transmission.
//! * [`BitParallelSim`] — 64-way bit-parallel flat fault simulation.
//! * [`FaultyEvaluator`] / [`SerialFaultSim`] — scalar evaluation of a
//!   netlist with one fault injected, and the full-disclosure flat
//!   baseline over it. They are the *reference*, not a backend: tests
//!   and benches compare the compiled paths against them, and nothing
//!   else in this crate calls them.
//! * [`VirtualFaultSim`] — the Figure 5 algorithm over a `vcad-core`
//!   [`Design`](vcad_core::Design): fault-free simulation, per-pattern
//!   detection-table queries, output injection through a single-instant
//!   scheduler with a module override, and fault dropping.
//!
//! The load-bearing invariant, exercised by this crate's property tests:
//! **virtual fault simulation detects exactly the same faults as flat
//! full-disclosure fault simulation**, while the user never sees more than
//! symbolic fault names and per-pattern output configurations.

mod collapse;
mod detect;
mod eval;
mod fault;
mod parallel;
mod patterns;
mod testability;
mod virtual_sim;

pub use collapse::{dominance_reduce, FaultClass, FaultUniverse};
pub use detect::DetectionTable;
pub use eval::{FaultyEvaluator, SerialFaultSim};
pub use fault::{Fault, FaultSite, StuckAt, SymbolicFault};
pub use parallel::BitParallelSim;
pub use patterns::{grow_random_patterns, PatternError, PatternGrowth};
pub use testability::{
    reference_reports, FaultStatus, NetScores, TestabilityAnalysis, TestabilityReport,
};
pub use virtual_sim::{
    BlockCoverage, CoverageReport, DetectionTableSource, IpBlockBinding, NetlistDetectionSource,
    VirtualFaultSim, VirtualSimError,
};
