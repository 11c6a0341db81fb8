//! The wire-privacy manifest of the shipped protocol and its audit.
//!
//! Every method declares what each direction of its payload may carry
//! and whether it is a pure read; [`audit`] refuses a structural payload
//! in either direction and a cache allowlist that disagrees with purity.
//! The manifest is generated from the protocol declaration (one row per
//! method of `remote_interfaces!`) and is read by no runtime path, so
//! the module is compiled for tests only: the tests below audit the
//! shipped manifest and check, on manifests the same macro generates,
//! that the audit catches each breach.

/// Classification of one direction of a protocol method's payload, for
/// the wire-privacy [`audit`].
///
/// The paper's zero-disclosure property requires that only *port-local*
/// information crosses the wire: the user ships pattern buffers and port
/// values, never design topology; the provider ships numbers, labels and
/// port-shaped results, never gates or nets. `Structural` marks the
/// payloads that would break that property — no shipped method may carry
/// one, and the audit fails the test run of any protocol extension that
/// declares it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) enum PayloadKind {
    /// No payload at all.
    Empty,
    /// Scalars and opaque metadata: numbers, fee totals, names,
    /// accuracy/price descriptors, provider-chosen symbolic labels.
    Scalar,
    /// Port-local data: pattern buffers, port values, per-pattern
    /// results — exactly what an estimator attached to a module's own
    /// ports may see.
    PortLocal,
    /// A reference to an object exported by the peer.
    ObjectRef,
    /// Structural IP: netlists, gate or net enumerations, topology.
    /// **Never legal on the wire.**
    Structural,
}

impl PayloadKind {
    /// Whether this payload obeys the port-data-only marshalling rule.
    #[must_use]
    pub(crate) fn is_port_local_safe(self) -> bool {
        !matches!(self, PayloadKind::Structural)
    }
}

/// The machine-checkable declaration of one protocol method: what each
/// direction of its payload may contain and whether the method is a pure
/// read (a function of target and arguments alone).
///
/// [`audit`] holds a table of these to the privacy rule, and cross-checks
/// the cache layer's [`cacheable_method`](crate::cache::cacheable_method)
/// allowlist against `pure` so a mutating method can never be served from
/// a cache and a pure one is not silently left uncached. The shipped
/// table and the allowlist are both generated from the protocol
/// declaration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct MethodManifest {
    /// The method selector.
    pub(crate) method: &'static str,
    /// What the client is allowed to send.
    pub(crate) request: PayloadKind,
    /// What the provider is allowed to return.
    pub(crate) response: PayloadKind,
    /// Whether the result is a pure function of target and arguments.
    pub(crate) pure: bool,
}

/// The complete manifest of the shipped wire protocol: one entry per
/// row of the `remote_interfaces!` declaration in `protocol`, so every
/// method is classified by construction — declaring a method means
/// declaring its payloads, and the zero-disclosure property stays a
/// checked invariant instead of a convention.
pub(crate) fn protocol_manifest() -> &'static [MethodManifest] {
    crate::protocol::MANIFEST
}

/// Every rule `manifest` breaks, one line per finding, given the cache
/// layer's allowlist as `cacheable`.
pub(crate) fn audit(manifest: &[MethodManifest], cacheable: impl Fn(&str) -> bool) -> Vec<String> {
    let mut findings = Vec::new();
    for m in manifest {
        for (direction, kind) in [("request", m.request), ("response", m.response)] {
            if !kind.is_port_local_safe() {
                findings.push(format!("`{}` {direction} ships structural IP", m.method));
            }
        }
        match (cacheable(m.method), m.pure) {
            (true, false) => findings.push(format!("`{}` is cached but impure", m.method)),
            (false, true) => findings.push(format!("`{}` is pure but uncached", m.method)),
            _ => {}
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A protocol extension that ships structure both ways: the same
    /// macro as the shipped protocol, so its manifest is generated too.
    mod hostile {
        crate::protocol::remote_interfaces! {
            #[allow(dead_code)]
            leaky {
                UPLOAD_NETLIST = fn upload_netlist(netlist: String) -> f64;
                    impure, Structural => Scalar;
                FETCH_GATES = fn fetch_gates() -> Vec<String>; pure, Empty => Structural;
            }
        }
    }

    #[test]
    fn shipped_manifest_audits_clean() {
        let findings = audit(protocol_manifest(), crate::cache::cacheable_method);
        assert!(
            findings.is_empty(),
            "shipped protocol flagged: {findings:?}"
        );
    }

    #[test]
    fn structural_payloads_are_deny() {
        let findings = audit(hostile::MANIFEST, hostile::cacheable_method);
        assert_eq!(
            findings,
            [
                "`upload_netlist` request ships structural IP",
                "`fetch_gates` response ships structural IP",
            ]
        );
    }

    /// The generated allowlist always agrees with the declared purity;
    /// an allowlist that caches `bill` and nothing else is caught on
    /// every row it gets wrong.
    #[test]
    fn cache_purity_cross_checks() {
        let findings = audit(protocol_manifest(), |m| m == "bill");
        let mut expect = vec!["`bill` is cached but impure".to_owned()];
        for m in protocol_manifest().iter().filter(|m| m.pure) {
            expect.push(format!("`{}` is pure but uncached", m.method));
        }
        expect.sort();
        let mut findings = findings;
        findings.sort();
        assert_eq!(findings, expect);
        assert_eq!(expect.len(), 12);
    }
}
