//! Gate-level netlists for the `vcad` stack.
//!
//! This crate provides the structural substrate used by the gate-level
//! simulator, the power engine (`vcad-power`) and the fault simulator
//! (`vcad-faults`): a flat combinational [`Netlist`] of typed gates over
//! named nets, a [`NetlistBuilder`] that validates and levelizes the
//! structure, the flat [`ExecPlan`] a netlist compiles itself to on first
//! use, a full-netlist [`Evaluator`] over that plan, and a library of
//! [`generators`]
//! producing the circuits used throughout the paper's evaluation (half
//! adder, ripple/carry adders, array and Wallace-tree multipliers, LFSRs,
//! parity trees, random ISCAS-like circuits).
//!
//! # Examples
//!
//! ```
//! use vcad_logic::LogicVec;
//! use vcad_netlist::{generators, Evaluator};
//!
//! let ha = generators::half_adder();
//! let eval = Evaluator::new(&ha);
//! // Input string is MSB first: b=1, a=0.
//! let out = eval.outputs(&"10".parse::<LogicVec>().unwrap());
//! // Outputs MSB first: carry = 0, sum = 1.
//! assert_eq!(out.to_string(), "01");
//! ```

mod builder;
mod error;
mod eval;
mod gate;
pub mod generators;
#[allow(clippy::module_inception)]
mod netlist;
mod plan;

pub use builder::NetlistBuilder;
pub use error::NetlistError;
pub use eval::{Evaluator, NetValues};
pub use gate::GateKind;
pub use netlist::{Gate, GateId, Net, NetId, Netlist, NetlistStats};
pub use plan::{ExecPlan, OutputSource, PlanOp};
