//! # vcad-obs — tracing & metrics backplane
//!
//! A zero-dependency observability layer for the virtual-simulation
//! workspace: structured spans and events with wall-clock timestamps,
//! a metrics registry of counters, gauges and log-scale histograms, and
//! exporters for Chrome trace-event JSON and plain-text summary tables.
//!
//! Design constraints, in order:
//!
//! 1. **Observe, don't perturb.** A disabled [`Collector`] costs one
//!    relaxed atomic load per span/event. Enabled recording goes
//!    through a bounded lock-free ring ([`ring::RingBuffer`]) that
//!    drops (and counts) on overflow rather than ever blocking the
//!    scheduler's hot loop.
//! 2. **Per-scheduler isolation.** Concurrent simulations get isolated
//!    child collectors ([`Collector::child`]) merged back with
//!    [`Collector::absorb`] — the same isolate-then-merge shape as the
//!    schedulers' own state stores.
//!
//! ```
//! use vcad_obs::Collector;
//!
//! let obs = Collector::enabled();
//! obs.metrics().counter("rmi.calls").inc();
//! {
//!     let mut span = obs.span("rmi", "call:power_toggle");
//!     span.arg("bytes", 128u64);
//! } // span records itself here
//! let trace = obs.trace();
//! assert_eq!(trace.events.len(), 1);
//! let json = vcad_obs::chrome::to_chrome_json(&trace);
//! assert!(json.starts_with("{\"traceEvents\":["));
//! ```

pub mod analyze;
pub mod chrome;
pub mod collector;
pub mod context;
pub mod health;
pub mod json;
pub mod metrics;
pub mod ring;
pub mod summary;

pub use collector::{ArgValue, Collector, EventKind, SpanGuard, Trace, TraceEvent, TracedSpan};
pub use context::TraceContext;
pub use health::{HealthSnapshot, ServerHealth, TenantHealth};
pub use metrics::{
    Counter, FloatCounter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry, MetricsSnapshot,
};
