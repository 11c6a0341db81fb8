//! Diagnostics: severities, stable rule identifiers, locations and
//! reports.

use std::fmt;

/// How much a finding matters.
///
/// The ordering is total: `Allow < Warn < Deny`, so
/// [`LintReport::max_severity`] is a plain `max`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational: reported, never blocks anything.
    Allow,
    /// Suspicious but simulable; the design runs, the finding is shown.
    Warn,
    /// The design must not be scheduled.
    /// [`elaborate`](crate::Elaborate::elaborate) refuses it.
    Deny,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Allow => "allow",
            Severity::Warn => "warn",
            Severity::Deny => "deny",
        })
    }
}

/// The stable rule identifiers. These are part of the tool's contract:
/// scripts and CI gates match on them, so they never change meaning and
/// are never reused.
pub mod rules {
    /// The two endpoints of a connector have different widths.
    pub const WIDTH_MISMATCH: &str = "connectivity/width-mismatch";
    /// Two output ports drive the same connector.
    pub const DOUBLE_DRIVER: &str = "connectivity/double-driver";
    /// Neither endpoint of a connector can drive it.
    pub const NO_DRIVER: &str = "connectivity/no-driver";
    /// Two bidirectional ports share a connector: contention cannot be
    /// ruled out statically.
    pub const BIDI_CONTENTION: &str = "connectivity/bidi-contention";
    /// An input port is neither connected nor exported: it stays all-X.
    pub const UNDRIVEN_INPUT: &str = "connectivity/undriven-input";
    /// An output port is neither connected nor exported.
    pub const DANGLING_OUTPUT: &str = "connectivity/dangling-output";
    /// A module declares a zero-delay dependency on a port index it does
    /// not have.
    pub const BAD_DEP: &str = "connectivity/bad-dep";
    /// A zero-delay cycle through combinational dependencies and
    /// connectors.
    pub const COMBINATIONAL_LOOP: &str = "loops/combinational-loop";
    /// An estimator with an empty name.
    pub const ESTIMATOR_NAME: &str = "meta/estimator-name";
    /// An estimator with a negative or non-finite cost.
    pub const ESTIMATOR_COST: &str = "meta/estimator-cost";
    /// An estimator with a negative, non-finite or implausible expected
    /// error.
    pub const ESTIMATOR_ACCURACY: &str = "meta/estimator-accuracy";
    /// Two estimators of one module share a name and parameter.
    pub const ESTIMATOR_DUPLICATE: &str = "meta/estimator-duplicate";
    /// A detection-table row names a fault missing from the fault list.
    pub const UNKNOWN_FAULT: &str = "faults/unknown-fault";
    /// A detection-table row's output width differs from the fault-free
    /// response.
    pub const DETECTION_WIDTH: &str = "faults/detection-width";
    /// A fault list contains the same symbolic fault twice.
    pub const DUPLICATE_FAULT: &str = "faults/duplicate-fault";
    /// A detection table exists but the fault list is empty.
    pub const EMPTY_FAULT_LIST: &str = "faults/empty-fault-list";
    /// A wire value does not decode as the frame it claims to be.
    pub const MALFORMED_TABLE: &str = "faults/malformed-table";
    /// A protocol method's request would ship structural IP.
    pub const STRUCTURAL_REQUEST: &str = "privacy/structural-request";
    /// A protocol method's response would ship structural IP.
    pub const STRUCTURAL_RESPONSE: &str = "privacy/structural-response";
    /// A method is cacheable but not pure: a cache could serve stale
    /// session state.
    pub const CACHEABLE_IMPURE: &str = "privacy/cacheable-impure";
    /// A method is pure but not cacheable: every repeat call pays the
    /// wire.
    pub const UNCACHED_PURE: &str = "privacy/uncached-pure";
    /// A marshalled value carries a structural-looking payload.
    pub const STRUCTURAL_PAYLOAD: &str = "privacy/structural-payload";
    /// A fault site is statically proven untestable (unexcitable or
    /// unobservable) and will never be covered by any test set.
    pub const UNTESTABLE_FAULT: &str = "testability/untestable-fault";
    /// A net has no sensitizable path to any primary output: logic
    /// feeding it is dead weight for testing purposes.
    pub const UNOBSERVABLE_NET: &str = "testability/unobservable-net";

    /// Every rule ID any pass can emit, in declaration order.
    ///
    /// Scripts and CI gates key on these strings; the registry test in
    /// `tests/rule_registry.rs` pins the exact list so a rename fails CI
    /// instead of silently breaking them.
    pub const ALL: &[&str] = &[
        WIDTH_MISMATCH,
        DOUBLE_DRIVER,
        NO_DRIVER,
        BIDI_CONTENTION,
        UNDRIVEN_INPUT,
        DANGLING_OUTPUT,
        BAD_DEP,
        COMBINATIONAL_LOOP,
        ESTIMATOR_NAME,
        ESTIMATOR_COST,
        ESTIMATOR_ACCURACY,
        ESTIMATOR_DUPLICATE,
        UNKNOWN_FAULT,
        DETECTION_WIDTH,
        DUPLICATE_FAULT,
        EMPTY_FAULT_LIST,
        MALFORMED_TABLE,
        STRUCTURAL_REQUEST,
        STRUCTURAL_RESPONSE,
        CACHEABLE_IMPURE,
        UNCACHED_PURE,
        STRUCTURAL_PAYLOAD,
        UNTESTABLE_FAULT,
        UNOBSERVABLE_NET,
    ];
}

/// Where a finding points: a module instance and optionally one of its
/// ports.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Location {
    /// Hierarchical module instance name (e.g. `u0/REG`).
    pub module: String,
    /// Port name, when the finding is port-precise.
    pub port: Option<String>,
}

impl fmt::Display for Location {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.port {
            Some(p) => write!(f, "{}.{}", self.module, p),
            None => f.write_str(&self.module),
        }
    }
}

/// One finding.
#[derive(Clone, Debug, PartialEq)]
pub struct Diagnostic {
    /// The stable rule identifier (see [`rules`]).
    pub rule: String,
    /// How much the finding matters.
    pub severity: Severity,
    /// Where it points, when it points anywhere.
    pub location: Option<Location>,
    /// The human-readable explanation, including the concrete names
    /// involved (for loops, the full cycle path).
    pub message: String,
}

impl Diagnostic {
    /// Creates a finding with a module/port location.
    #[must_use]
    pub fn at(
        rule: &str,
        severity: Severity,
        module: impl Into<String>,
        port: Option<String>,
        message: impl Into<String>,
    ) -> Diagnostic {
        Diagnostic {
            rule: rule.to_owned(),
            severity,
            location: Some(Location {
                module: module.into(),
                port,
            }),
            message: message.into(),
        }
    }

    /// Creates a finding with no location (protocol-level findings).
    #[must_use]
    pub fn global(rule: &str, severity: Severity, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            rule: rule.to_owned(),
            severity,
            location: None,
            message: message.into(),
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: [{}]", self.severity, self.rule)?;
        if let Some(loc) = &self.location {
            write!(f, " {loc}:")?;
        }
        write!(f, " {}", self.message)
    }
}

/// Everything one lint run found, in pass order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LintReport {
    design: String,
    diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    /// An empty report for a named design.
    #[must_use]
    pub fn new(design: impl Into<String>) -> LintReport {
        LintReport {
            design: design.into(),
            diagnostics: Vec::new(),
        }
    }

    /// The linted design's name.
    #[must_use]
    pub fn design(&self) -> &str {
        &self.design
    }

    /// Appends a finding.
    pub fn push(&mut self, diagnostic: Diagnostic) {
        self.diagnostics.push(diagnostic);
    }

    /// Appends many findings.
    pub fn extend(&mut self, diagnostics: impl IntoIterator<Item = Diagnostic>) {
        self.diagnostics.extend(diagnostics);
    }

    /// All findings, in pass order.
    #[must_use]
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// Findings matching one rule id.
    pub fn by_rule<'a>(&'a self, rule: &'a str) -> impl Iterator<Item = &'a Diagnostic> {
        self.diagnostics.iter().filter(move |d| d.rule == rule)
    }

    /// Number of Deny findings.
    #[must_use]
    pub fn deny_count(&self) -> usize {
        self.count(Severity::Deny)
    }

    /// Number of Warn findings.
    #[must_use]
    pub fn warn_count(&self) -> usize {
        self.count(Severity::Warn)
    }

    fn count(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == severity)
            .count()
    }

    /// Whether any finding is Deny-level — the design must not run.
    #[must_use]
    pub fn has_deny(&self) -> bool {
        self.deny_count() > 0
    }

    /// The worst severity present, if any finding exists.
    #[must_use]
    pub fn max_severity(&self) -> Option<Severity> {
        self.diagnostics.iter().map(|d| d.severity).max()
    }

    /// Renders a human-readable multi-line summary.
    #[must_use]
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "lint of `{}`: {} finding(s), {} deny, {} warn",
            self.design,
            self.diagnostics.len(),
            self.deny_count(),
            self.warn_count()
        );
        for d in &self.diagnostics {
            let _ = writeln!(out, "  {d}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> LintReport {
        let mut r = LintReport::new("unit \"design\"");
        r.push(Diagnostic::at(
            rules::WIDTH_MISMATCH,
            Severity::Deny,
            "u0/REG",
            Some("d".into()),
            "8-bit port tied to 4-bit port",
        ));
        r.push(Diagnostic::global(
            rules::UNCACHED_PURE,
            Severity::Warn,
            "method `describe` is pure but\nnot cacheable",
        ));
        r.push(Diagnostic::at(
            rules::DANGLING_OUTPUT,
            Severity::Allow,
            "CLK",
            Some("out".into()),
            "output is unconnected",
        ));
        r
    }

    #[test]
    fn severity_counts_and_max() {
        let report = sample();
        assert_eq!(report.deny_count(), 1);
        assert_eq!(report.warn_count(), 1);
        assert!(report.has_deny());
        assert_eq!(report.max_severity(), Some(Severity::Deny));
        assert!(Severity::Allow < Severity::Warn && Severity::Warn < Severity::Deny);
    }

    #[test]
    fn render_mentions_rules_and_locations() {
        let text = sample().render();
        assert!(text.contains("connectivity/width-mismatch"));
        assert!(text.contains("u0/REG.d"));
        assert!(text.contains("1 deny, 1 warn"));
    }
}
