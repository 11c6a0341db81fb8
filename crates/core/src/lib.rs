//! The `vcad` simulation backplane — the JavaCAD Foundation Packages
//! analogue.
//!
//! This crate implements the paper's core artifact: a general, multi-level,
//! event-driven simulation engine for hierarchical designs built from
//! [`Module`]s connected by point-to-point, zero-delay connectors
//! (design::DesignBuilder::connect):
//!
//! * **Modules and ports** — every design component implements [`Module`];
//!   its behaviour runs against a [`ModuleCtx`] that hides where the
//!   component actually lives (local or, in `vcad-ip`, on a provider's
//!   server).
//! * **Tokens and schedulers** — all simulation traffic is a token
//!   ([`TokenPayload`]); a scheduler owns an event queue *plus its own
//!   per-module state store*, so any number of schedulers can run
//!   concurrently over one shared [`Design`] without interference — the
//!   paper's lookup-table (LUT) state isolation.
//! * **Estimation framework** — [`Parameter`]s, [`Estimator`]s with
//!   accuracy/cost/CPU-time metadata, [`SetupController`] with
//!   `set`/`apply` semantics and the null-estimator default, and a dynamic
//!   estimation pass with pattern buffering.
//! * **Standard library** — [`stdlib`] provides the module zoo used by the
//!   paper's Figure 2 circuit: random/vector primary inputs, registers,
//!   behavioural word operators, gate-level netlist blocks, fan-out and
//!   delay modules, mixed-level interface converters and a self-triggering
//!   clock generator.
//!
//! # Examples
//!
//! Build and simulate a two-module design (a random source driving a
//! capture sink):
//!
//! ```
//! use std::sync::Arc;
//! use vcad_core::stdlib::{CaptureState, PrimaryOutput, RandomInput};
//! use vcad_core::{DesignBuilder, SimulationController};
//!
//! let mut b = DesignBuilder::new("tiny");
//! let src = b.add_module(Arc::new(RandomInput::new("IN", 8, 42, 10)));
//! let sink = b.add_module(Arc::new(PrimaryOutput::new("OUT", 8)));
//! b.connect(src, "out", sink, "in")?;
//! let design = Arc::new(b.build()?);
//!
//! let run = SimulationController::new(design).run()?;
//! let captured = run.module_state::<CaptureState>(sink).unwrap();
//! assert_eq!(captured.history().len(), 10);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod controller;
mod design;
mod estimate;
mod module;
mod scheduler;
mod setup;
mod shard;
pub mod stdlib;
mod time;
mod token;

pub use controller::{SimRun, SimulationController};
pub use design::{Design, DesignBuilder, DesignError, ModuleId, PortRef};
pub use estimate::{
    ActivityEstimator, Estimate, EstimateError, EstimationInput, Estimator, EstimatorInfo,
    NullEstimator, Parameter, ParseParameterError, PortSnapshot,
};
pub use module::{Module, ModuleCtx, PortDirection, PortSpec};
pub use scheduler::{canonicalize_event_log, LoggedEvent, SimulationError, StateStore};
pub use setup::{
    Degradation, EstimateLog, EstimateRecord, SetupBinding, SetupController, SetupCriterion,
};
pub use shard::{connectivity_components, ShardPlan, ShardPolicy, SimEngine};
pub use time::SimTime;
pub use token::TokenPayload;

/// The gate-evaluation backend selector, re-exported so controller users
/// need not depend on `vcad-engine` directly.
pub use vcad_engine::EngineKind;

/// Marshallable values reused from the RMI layer for estimator results and
/// control tokens.
pub use vcad_rmi::Value;
