//! Static design analysis for composed `vcad` designs.
//!
//! JavaCAD elaborates a design long before the first event fires; this
//! crate is the analogue for the Rust reproduction — a linter that runs
//! over a composed design (modules, ports, connectors) **before** the
//! scheduler starts, so a malformed composition fails in milliseconds
//! with a named rule instead of burning a remote provider's fees or an
//! event budget discovering the problem dynamically.
//!
//! Five pass families:
//!
//! * **connectivity** — undriven and multiply-driven nets, dangling
//!   unbound ports, width mismatches across connectors;
//! * **loops** — combinational (zero-delay) cycles, found by Tarjan's
//!   SCC algorithm over the port-level dependency graph, reported with
//!   a concrete cycle path;
//! * **meta** — estimator metadata sanity (names, fees, expected
//!   errors) and fault-list / detection-table shape consistency against
//!   `vcad-faults`;
//! * **privacy** — a static wire-privacy audit over every marshallable
//!   frame declared by `vcad-ip`'s protocol manifest and the cache
//!   allowlist, asserting only port-local data is ever serialized — the
//!   paper's zero-disclosure property as a machine-checked invariant;
//! * **testability** — quantitative netlist analysis
//!   ([`TestabilityReport`]): SCOAP controllability/observability
//!   scoring, hardest-fault ranking and statically-proven untestable
//!   fault sites, surfaced as Warn diagnostics.
//!
//! Findings are [`Diagnostic`]s with a severity ([`Severity::Deny`]
//! blocks simulation, `Warn` and `Allow` inform), a stable rule id
//! (see [`diag::rules`]) and a source location (module path plus port);
//! a [`LintReport`] renders them as text ([`LintReport::render`]).
//!
//! The [`Elaborate`] extension trait wires the gate into the core:
//! `controller.elaborate()` lints the controller's design and refuses
//! to hand back a runnable report when any Deny finding exists.
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//! use vcad_core::stdlib::{PrimaryOutput, VectorInput};
//! use vcad_core::{DesignBuilder, SimulationController};
//! use vcad_lint::Elaborate;
//!
//! let mut b = DesignBuilder::new("quick");
//! let src = b.add_module(Arc::new(VectorInput::new("SRC", vec!["01".parse()?])));
//! let out = b.add_module(Arc::new(PrimaryOutput::new("OUT", 2)));
//! b.connect(src, "out", out, "in")?;
//! let controller = SimulationController::new(Arc::new(b.build()?));
//!
//! let report = controller.elaborate().expect("design is clean");
//! assert!(!report.has_deny());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod connectivity;
pub mod diag;
mod elaborate;
pub mod fixtures;
pub mod graph;
mod loops;
mod meta;
mod privacy;
pub mod testability;

pub use diag::{Diagnostic, LintReport, Location, Severity};
pub use elaborate::{cli, Elaborate, ElaborateError, Linter};
pub use graph::{FrameSpec, LintGraph, LintModule, LintPort};
pub use meta::{lint_detection_frame, lint_fault_model};
pub use privacy::audit_value;
pub use testability::TestabilityReport;
