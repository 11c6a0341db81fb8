//! # vcad — Virtual Simulation of Distributed IP-Based Designs
//!
//! A Rust reproduction of **JavaCAD** (Dalpasso, Benini, Bogliolo; DAC 1999 /
//! IEEE D&T 2002): an Internet-based client–server design environment that
//! lets an IP *user* functionally simulate, fault-simulate and cost-estimate
//! designs containing components from remote IP *providers* — without either
//! party disclosing its intellectual property.
//!
//! This facade crate re-exports the whole workspace. See the individual
//! crates for the subsystems:
//!
//! * [`logic`] — four-valued logic, packed vectors, RT-level words;
//! * [`netlist`] — gate-level netlists, generators and evaluation;
//! * [`netsim`] — network condition models and virtual timelines;
//! * [`rmi`] — the distributed-object layer (wire format, transports,
//!   registry, stubs, security) and the client cache: content-addressed
//!   memoization of remote IP calls (sharded LRU, single-flight dedup,
//!   per-provider epoch invalidation);
//! * [`core`] — the event-driven simulation backplane and estimation
//!   framework (the JavaCAD Foundation Packages analogue);
//! * [`power`] — the gate-level power engine and estimator tiers;
//! * [`faults`] — stuck-at faults, detection tables and virtual fault
//!   simulation;
//! * [`ip`] — provider servers, component packaging and client sessions;
//! * [`obs`] — the tracing & metrics backplane (spans with wall-clock
//!   timestamps, counters/gauges/histograms, Chrome trace export);
//! * [`campaign`] — resumable fault-injection campaigns: a JSON spec
//!   expands into content-addressed cells, a bounded worker pool executes
//!   them against chaos-shaped provider links, and an append-only
//!   CRC-framed journal makes the sweep kill-tolerant — the final report
//!   is byte-identical however often the process died.
//!
//! # Quickstart
//!
//! The `examples/` directory contains runnable scenarios, starting with
//! `quickstart.rs`, which builds the paper's Figure 2 circuit: two random
//! 16-bit inputs feeding registers and a remote IP multiplier.

pub use vcad_campaign as campaign;
pub use vcad_core as core;
pub use vcad_faults as faults;
pub use vcad_ip as ip;
pub use vcad_logic as logic;
pub use vcad_netlist as netlist;
pub use vcad_netsim as netsim;
pub use vcad_obs as obs;
pub use vcad_power as power;
pub use vcad_rmi as rmi;
