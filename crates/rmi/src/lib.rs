//! A from-scratch distributed-object layer, standing in for Java RMI.
//!
//! JavaCAD relies on Java RMI for three things the paper calls out
//! explicitly: creating local instances of remote classes without their
//! bytecode, invoking remote methods with marshalled arguments and return
//! values, and a secure channel between IP user and IP provider. Rust has
//! no RMI, so this crate rebuilds the distributed-object model from the
//! wire up:
//!
//! * [`Value`] — the self-describing data tree that crosses the wire, with
//!   a canonical binary encoding ([`Value::encode`] / [`Value::decode`])
//!   covering the simulation value domain (`Logic`, `LogicVec`, `Word`)
//!   and remote object references;
//! * [`Frame`] — call and response frames carrying a call id, target
//!   object, method name and arguments;
//! * [`Transport`] — the pluggable request/response channel, with
//!   in-process ([`InProcTransport`]), real TCP ([`TcpTransport`] to a
//!   [`MuxServer`]) and network-model-shaped ([`ShapedTransport`])
//!   implementations;
//! * [`ObjectRegistry`] + [`Dispatcher`] — the server side: exported
//!   objects implementing [`RemoteObject`], addressed by [`ObjectId`];
//! * [`Client`] + [`RemoteRef`] — the client side: typed handles that
//!   marshal calls through a transport (the "stub" half of RMI), with an
//!   optional content-addressed memo of pure calls ([`Client::with_cache`]
//!   into a [`Cache`]: single-flight deduplication, provider-epoch
//!   invalidation) consulted before anything is marshalled;
//! * [`SecurityManager`], [`MarshalPolicy`], [`Sandbox`] — the IP
//!   protection boundary: what may be serialised, and what downloaded
//!   provider code may do on the user's machine;
//! * [`FaultPlan`] + [`FaultyTransport`] — deterministic, seed-driven
//!   injection of drops, latency, corruption, duplicates, resets and
//!   blackouts into any transport;
//! * [`RetryPolicy`], [`CircuitBreaker`], [`ResilientTransport`] — the
//!   machinery that survives such networks: exponential backoff with
//!   deterministic jitter, per-call deadlines, at-most-once request
//!   deduplication through the dispatcher's reply cache, and fail-fast
//!   circuit breaking.
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//! use vcad_rmi::{
//!     Client, Dispatcher, InProcTransport, ObjectRegistry, RemoteObject,
//!     RmiError, ServerCtx, Value,
//! };
//!
//! struct Adder;
//! impl RemoteObject for Adder {
//!     fn invoke(&self, method: &str, args: &[Value], _ctx: &ServerCtx)
//!         -> Result<Value, RmiError>
//!     {
//!         match method {
//!             "add" => {
//!                 let a = args[0].as_i64().ok_or_else(|| RmiError::bad_args("add"))?;
//!                 let b = args[1].as_i64().ok_or_else(|| RmiError::bad_args("add"))?;
//!                 Ok(Value::I64(a + b))
//!             }
//!             _ => Err(RmiError::unknown_method("Adder", method)),
//!         }
//!     }
//! }
//!
//! let registry = Arc::new(ObjectRegistry::new());
//! registry.register_root(Arc::new(Adder));
//! let dispatcher = Arc::new(Dispatcher::new(registry));
//! let client = Client::new(Arc::new(InProcTransport::new(dispatcher)));
//! let root = client.root();
//! let sum = root.invoke("add", vec![Value::I64(2), Value::I64(40)])?;
//! assert_eq!(sum, Value::I64(42));
//! # Ok::<(), vcad_rmi::RmiError>(())
//! ```

mod admission;
mod cache;
#[cfg(test)]
#[path = "client_caching_tests.rs"]
mod caching;
mod chaos;
mod client;
mod dispatch;
mod error;
mod frame;
pub mod hash;
mod mux;
mod resilience;
mod security;
mod transport;
mod value;
mod wire;

pub use admission::{AdmissionControl, ShedReason, TenantQuota, TenantStats, TokenBucket};
pub use cache::{Cache, CacheStats};
pub use chaos::{heavy_chaos_stack, FaultConfig, FaultDecision, FaultPlan, FaultyTransport};
pub use client::{Client, RemoteRef};
pub use dispatch::{Dispatcher, ObjectRegistry, RemoteObject, ServerCtx};
pub use error::{RemoteErrorKind, RmiError};
pub use frame::{CallFrame, Frame, ResponseFrame};
pub use mux::{MuxServer, MuxServerConfig, MuxServerStats};
pub use resilience::{
    BreakerConfig, BreakerState, CircuitBreaker, RealClock, ResilienceClock, ResilientTransport,
    RetryPolicy, VirtualClock,
};
pub use security::{Capability, MarshalPolicy, Sandbox, SecurityManager};
pub use transport::{
    InProcTransport, ShapedTransport, TcpTimeouts, TcpTransport, Transport, TransportStats,
};
pub use value::{ObjectId, Value};
pub use wire::WireError;
