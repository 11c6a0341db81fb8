//! IP providers, component packaging and client sessions.
//!
//! This crate assembles the full JavaCAD scenario from the substrates: an
//! **IP provider** runs a [`ProviderServer`] exporting a catalog of
//! [`ComponentOffering`]s over the `vcad-rmi` distributed-object layer; an
//! **IP user** opens a [`ClientSession`], negotiates model availability,
//! and instantiates [`RemoteComponent`]s inside an ordinary `vcad-core`
//! design.
//!
//! A remote component splits three ways, exactly as the paper prescribes:
//!
//! * the **public part** ([`PublicPart`]) — the downloadable functional
//!   model. Rust cannot ship bytecode, so the provider names one of a set
//!   of *registered behaviours* plus parameters, and the client library
//!   instantiates it locally under a [`Sandbox`](vcad_rmi::Sandbox) (see
//!   `DESIGN.md`, substitution table); functionally this is the same
//!   contract: an accurate input/output model that reveals no structure;
//! * the **stub** — a [`RemoteRef`](vcad_rmi::RemoteRef) through which the
//!   IP-protected methods are invoked;
//! * the **private part** — the gate-level netlist, the toggle-accurate
//!   power engine and the fault universe, all of which exist *only* inside
//!   the provider's process.
//!
//! Three module flavours cover the paper's Table 2 scenarios:
//!
//! * [`RemoteComponent::functional_module`] — public part local, cost
//!   estimators remote (the **ER** scenario);
//! * [`RemoteComponent::fully_remote_module`] — every event crosses the
//!   wire (the **MR** scenario);
//! * a plain local module with a local netlist (the **AL** baseline, built
//!   directly from `vcad-core`'s stdlib).
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//! use vcad_ip::{ClientSession, ProviderServer};
//!
//! let provider = ProviderServer::new("acme.example.com");
//! provider.offer(vcad_ip::ComponentOffering::fast_low_power_multiplier());
//! let session = ClientSession::connect_in_process(&provider)?;
//! let catalog = session.catalog()?;
//! assert_eq!(catalog[0].name, "MultFastLowPower");
//! let mult = session.instantiate("MultFastLowPower", 8)?;
//! assert_eq!(mult.width(), 8);
//! # Ok::<(), vcad_rmi::RmiError>(())
//! ```

mod cache;
mod client;
mod estimator;
mod modules;
mod negotiate;
mod offering;
#[cfg(test)]
mod privacy;
mod protocol;
mod server;

pub use client::{ClientSession, OfferingInfo, RemoteComponent, RemoteDetectionSource};
pub use estimator::{RemotePeakPowerEstimator, RemoteToggleEstimator};
pub use modules::{IpComponentModule, PublicPart, RemoteFunctionalModule};
pub use negotiate::{EstimatorOffer, NegotiationOutcome, NegotiationRequest};
pub use offering::{ComponentOffering, ModelAvailability, PriceList};
pub use server::{ProviderServer, ServerLedger};
