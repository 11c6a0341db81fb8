//! Network condition models.
//!
//! The paper evaluates JavaCAD in three network environments — local host,
//! the University of Bologna LAN, and a Bologna–Padova WAN (Table 2). Real
//! 1999 networks are not available to this reproduction, so this crate
//! provides the substitution documented in `DESIGN.md`: [`NetworkModel`],
//! a deterministic latency/bandwidth model with calibrated profiles
//! [`NetworkModel::local_host`], [`NetworkModel::lan_1999`] and
//! [`NetworkModel::wan_1999`]. Harnesses report the paper's real-time
//! column as measured CPU time plus the modeled time of the calls and
//! bytes a run actually sent, without sleeping for hundreds of
//! wall-clock seconds.
//!
//! # Examples
//!
//! ```
//! use vcad_netsim::NetworkModel;
//! use std::time::Duration;
//!
//! let wan = NetworkModel::wan_1999();
//! // One call shipping a 4 KiB pattern buffer and getting 128 bytes back.
//! let rtt = wan.round_trip(4 * 1024, 128);
//! assert_eq!(rtt, wan.one_way(4 * 1024) + wan.one_way(128));
//! let cpu = Duration::from_millis(140);
//! assert!(cpu + rtt > cpu + NetworkModel::lan_1999().round_trip(4 * 1024, 128));
//! ```

mod model;

pub use model::NetworkModel;
