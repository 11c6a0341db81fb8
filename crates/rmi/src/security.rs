//! The IP-protection boundary: marshalling policy and sandbox.
//!
//! JavaCAD protects the *user's* IP by bounding every remote module with
//! connectors and marshalling only port-local information, and protects the
//! user's *machine* by marking downloaded provider classes as untrusted
//! under the Java security manager. This module reproduces both mechanisms:
//!
//! * [`MarshalPolicy`] restricts what a [`Value`] tree may contain before
//!   it is serialised toward the provider;
//! * [`Sandbox`] is the capability set granted to a provider's downloaded
//!   public part while it executes inside the user's process.

use std::collections::HashSet;
use std::fmt;

use crate::error::RmiError;
use crate::value::Value;

/// An action a piece of downloaded (untrusted) provider code may request.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Capability {
    /// Open a connection back to the named provider host.
    ConnectProvider(String),
    /// Read files on the user's machine.
    ReadFiles,
    /// Write files on the user's machine.
    WriteFiles,
    /// Inspect the user's design beyond the component's own ports.
    InspectDesign,
}

impl fmt::Display for Capability {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Capability::ConnectProvider(host) => write!(f, "connect to provider `{host}`"),
            Capability::ReadFiles => f.write_str("read user files"),
            Capability::WriteFiles => f.write_str("write user files"),
            Capability::InspectDesign => f.write_str("inspect user design"),
        }
    }
}

/// The capability set under which downloaded provider code runs.
///
/// The default sandbox for a public part grants exactly one capability:
/// connecting back to the provider it came from — mirroring the standard
/// RMI security manager's rule that downloaded stubs may only talk to
/// their originating server.
///
/// # Examples
///
/// ```
/// use vcad_rmi::{Capability, Sandbox};
///
/// let sandbox = Sandbox::for_provider("provider.example.com");
/// assert!(sandbox
///     .require(&Capability::ConnectProvider("provider.example.com".into()))
///     .is_ok());
/// assert!(sandbox.require(&Capability::ReadFiles).is_err());
/// ```
#[derive(Clone, Debug, Default)]
pub struct Sandbox {
    granted: HashSet<Capability>,
}

impl Sandbox {
    /// An empty sandbox: every request is denied.
    #[must_use]
    pub fn new() -> Sandbox {
        Sandbox::default()
    }

    /// The standard sandbox for a public part downloaded from `host`.
    #[must_use]
    pub fn for_provider(host: impl Into<String>) -> Sandbox {
        let mut s = Sandbox::new();
        s.grant(Capability::ConnectProvider(host.into()));
        s
    }

    /// Grants an additional capability (the paper: "the user can choose to
    /// relax security requirements").
    pub fn grant(&mut self, cap: Capability) {
        self.granted.insert(cap);
    }

    /// Checks a capability, returning a security violation if absent.
    ///
    /// # Errors
    ///
    /// Returns [`RmiError::SecurityViolation`] when the capability was not
    /// granted.
    pub fn require(&self, cap: &Capability) -> Result<(), RmiError> {
        if self.granted.contains(cap) {
            Ok(())
        } else {
            Err(RmiError::SecurityViolation(format!(
                "untrusted code attempted to {cap}"
            )))
        }
    }

    /// Returns `true` when the capability was granted.
    #[must_use]
    pub fn allows(&self, cap: &Capability) -> bool {
        self.granted.contains(cap)
    }
}

/// What a marshalled argument or return tree may contain.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MarshalPolicy {
    /// Anything encodable may cross (used inside trusted test rigs).
    Unrestricted,
    /// Only port-local data may cross: logic values, vectors, words, plain
    /// numeric scalars, short string selectors, object references, and
    /// lists thereof. Byte blobs, maps and long strings — the containers
    /// in which design structure could be smuggled — are rejected, as is
    /// any tree larger than `max_bytes` on the wire.
    PortDataOnly {
        /// Upper bound on the encoded size of one argument tree.
        max_bytes: usize,
    },
}

impl MarshalPolicy {
    /// The default user-side policy with a 64 KiB per-tree cap.
    #[must_use]
    pub fn port_data_only() -> MarshalPolicy {
        MarshalPolicy::PortDataOnly {
            max_bytes: 64 << 10,
        }
    }

    /// Checks one value tree against the policy.
    ///
    /// # Errors
    ///
    /// Returns [`RmiError::SecurityViolation`] naming the offending
    /// construct.
    pub fn check(&self, value: &Value) -> Result<(), RmiError> {
        match self {
            MarshalPolicy::Unrestricted => Ok(()),
            MarshalPolicy::PortDataOnly { max_bytes } => {
                if value.encoded_len() > *max_bytes {
                    return Err(RmiError::SecurityViolation(format!(
                        "argument tree exceeds marshalling cap of {max_bytes} bytes"
                    )));
                }
                Self::check_port_data(value)
            }
        }
    }

    /// Checks every argument of a call.
    ///
    /// # Errors
    ///
    /// As [`MarshalPolicy::check`].
    pub fn check_args(&self, args: &[Value]) -> Result<(), RmiError> {
        args.iter().try_for_each(|a| self.check(a))
    }

    fn check_port_data(value: &Value) -> Result<(), RmiError> {
        match value {
            Value::Null
            | Value::Bool(_)
            | Value::I64(_)
            | Value::F64(_)
            | Value::Logic(_)
            | Value::Vec(_)
            | Value::Word(_)
            | Value::ObjectRef(_) => Ok(()),
            Value::Str(s) if s.len() <= 64 => Ok(()),
            Value::Str(_) => Err(RmiError::SecurityViolation(
                "string longer than a method selector may carry design data".into(),
            )),
            Value::Bytes(_) => Err(RmiError::SecurityViolation(
                "opaque byte blobs may carry design data".into(),
            )),
            Value::Map(_) => Err(RmiError::SecurityViolation(
                "structured maps may carry design data".into(),
            )),
            Value::List(items) => items.iter().try_for_each(Self::check_port_data),
        }
    }
}

/// The combined security posture of one endpoint.
///
/// A [`Client`](crate::Client) applies its manager's policy to outgoing
/// arguments; a [`Dispatcher`](crate::Dispatcher) applies its manager's
/// policy to outgoing results.
#[derive(Clone, Debug)]
pub struct SecurityManager {
    marshal: MarshalPolicy,
}

impl SecurityManager {
    /// A manager enforcing the given marshalling policy.
    #[must_use]
    pub fn new(marshal: MarshalPolicy) -> SecurityManager {
        SecurityManager { marshal }
    }

    /// A permissive manager for trusted in-process test rigs.
    #[must_use]
    pub fn permissive() -> SecurityManager {
        SecurityManager::new(MarshalPolicy::Unrestricted)
    }

    /// The standard IP-protecting manager.
    #[must_use]
    pub fn strict() -> SecurityManager {
        SecurityManager::new(MarshalPolicy::port_data_only())
    }

    /// Checks outgoing call arguments.
    ///
    /// # Errors
    ///
    /// Returns [`RmiError::SecurityViolation`] when an argument violates
    /// the policy.
    pub fn check_outgoing(&self, args: &[Value]) -> Result<(), RmiError> {
        self.marshal.check_args(args)
    }

    /// Checks an outgoing result value.
    ///
    /// # Errors
    ///
    /// Returns [`RmiError::SecurityViolation`] when the result violates
    /// the policy.
    pub fn check_result(&self, result: &Value) -> Result<(), RmiError> {
        self.marshal.check(result)
    }
}

impl Default for SecurityManager {
    fn default() -> SecurityManager {
        SecurityManager::strict()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcad_logic::{LogicVec, Word};

    #[test]
    fn port_data_accepts_simulation_values() {
        let p = MarshalPolicy::port_data_only();
        p.check(&Value::Vec(LogicVec::unknown(16))).unwrap();
        p.check(&Value::Word(Word::new(16, 99))).unwrap();
        p.check(&Value::List(vec![Value::Logic(vcad_logic::Logic::X)]))
            .unwrap();
        p.check(&Value::Str("estimate".into())).unwrap();
    }

    #[test]
    fn port_data_rejects_structure_carriers() {
        let p = MarshalPolicy::port_data_only();
        assert!(p.check(&Value::Bytes(vec![0; 8])).is_err());
        assert!(p.check(&Value::Map(vec![])).is_err());
        assert!(p.check(&Value::Str("x".repeat(65))).is_err());
        // Nested violations are found too.
        let nested = Value::List(vec![Value::List(vec![Value::Bytes(vec![1])])]);
        assert!(p.check(&nested).is_err());
    }

    #[test]
    fn size_cap_enforced() {
        let p = MarshalPolicy::PortDataOnly { max_bytes: 32 };
        let big = Value::Vec(LogicVec::zeros(1024));
        assert!(matches!(p.check(&big), Err(RmiError::SecurityViolation(_))));
    }

    #[test]
    fn unrestricted_accepts_everything() {
        let p = MarshalPolicy::Unrestricted;
        p.check(&Value::Bytes(vec![0; 1000])).unwrap();
        p.check(&Value::Map(vec![("k".into(), Value::Null)]))
            .unwrap();
    }

    #[test]
    fn sandbox_default_denies() {
        let s = Sandbox::new();
        assert!(s.require(&Capability::ReadFiles).is_err());
    }

    #[test]
    fn provider_sandbox_scopes_network() {
        let s = Sandbox::for_provider("p1.example.com");
        assert!(s
            .require(&Capability::ConnectProvider("p1.example.com".into()))
            .is_ok());
        assert!(s
            .require(&Capability::ConnectProvider("evil.example.com".into()))
            .is_err());
        assert!(s.require(&Capability::InspectDesign).is_err());
    }

    #[test]
    fn relaxation_is_explicit() {
        let mut s = Sandbox::for_provider("p");
        assert!(!s.allows(&Capability::ReadFiles));
        s.grant(Capability::ReadFiles);
        assert!(s.require(&Capability::ReadFiles).is_ok());
    }
}
