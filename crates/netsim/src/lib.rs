//! Network condition models and virtual timelines.
//!
//! The paper evaluates JavaCAD in three network environments — local host,
//! the University of Bologna LAN, and a Bologna–Padova WAN (Table 2). Real
//! 1999 networks are not available to this reproduction, so this crate
//! provides the substitution documented in `DESIGN.md`:
//!
//! * [`NetworkModel`] — a deterministic latency/bandwidth model with
//!   calibrated profiles [`NetworkModel::local_host`],
//!   [`NetworkModel::lan_1999`] and [`NetworkModel::wan_1999`];
//! * [`VirtualTimeline`] — an accounting clock that combines *measured* CPU
//!   time with *modeled* network and server time, so harnesses can report
//!   the paper's CPU-time and real-time columns without sleeping for
//!   hundreds of wall-clock seconds.
//!
//! # Examples
//!
//! ```
//! use vcad_netsim::{NetworkModel, VirtualTimeline};
//! use std::time::Duration;
//!
//! let wan = NetworkModel::wan_1999();
//! let mut tl = VirtualTimeline::new();
//! tl.add_cpu(Duration::from_millis(140));
//! tl.add_network(wan.round_trip(4 * 1024, 128));
//! assert!(tl.real_time() > tl.cpu_time());
//! ```

mod model;
mod timeline;

pub use model::NetworkModel;
pub use timeline::VirtualTimeline;
