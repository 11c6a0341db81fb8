//! The linter front door and the elaboration gate.

use std::fmt;

use vcad_core::{Design, SimulationController};

use crate::diag::{Diagnostic, LintReport};
use crate::graph::LintGraph;
use crate::{connectivity, loops, meta, privacy};

/// Runs every static pass over a design or graph.
///
/// Stateless today; a struct so pass selection and severity overrides
/// have an obvious home when they arrive.
#[derive(Clone, Copy, Debug, Default)]
pub struct Linter;

impl Linter {
    /// A linter with the default pass set.
    #[must_use]
    pub fn new() -> Linter {
        Linter
    }

    /// Lints an elaborated [`Design`].
    ///
    /// `DesignBuilder` already refuses the hard structural errors, so on
    /// a built design this mostly surfaces loops, unbound ports and
    /// metadata trouble.
    #[must_use]
    pub fn check_design(&self, design: &Design) -> LintReport {
        self.check_graph(&LintGraph::from_design(design))
    }

    /// Lints an analysable [`LintGraph`] (possibly one `DesignBuilder`
    /// would refuse to build — fixtures, imports, generated designs).
    #[must_use]
    pub fn check_graph(&self, graph: &LintGraph) -> LintReport {
        let mut diagnostics: Vec<Diagnostic> = Vec::new();
        connectivity::check(graph, &mut diagnostics);
        loops::check(graph, &mut diagnostics);
        meta::check(graph, &mut diagnostics);
        privacy::audit_frames(&graph.frames, &mut diagnostics);
        let mut report = LintReport::new(graph.design_name.clone());
        report.extend(diagnostics);
        report
    }
}

/// A design refused by [`Elaborate::elaborate`]: the full report, which
/// is guaranteed to contain at least one Deny finding.
#[derive(Clone, Debug)]
pub struct ElaborateError {
    /// The report that caused the refusal.
    pub report: LintReport,
}

impl fmt::Display for ElaborateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "design `{}` failed static analysis with {} deny-level finding(s)",
            self.report.design(),
            self.report.deny_count()
        )
    }
}

impl std::error::Error for ElaborateError {}

/// Static elaboration: lint before the scheduler is allowed near the
/// design.
///
/// An extension trait (rather than a `vcad-core` method) because the
/// analysis lives above the core: `vcad-lint` depends on `vcad-core`,
/// `vcad-ip` and `vcad-faults`, and the core cannot depend back on it.
pub trait Elaborate {
    /// Lints the underlying design and refuses it on any Deny-level
    /// finding.
    ///
    /// # Errors
    ///
    /// Returns [`ElaborateError`] carrying the full report when the
    /// design must not run. Warn/Allow findings come back in the `Ok`
    /// report for the caller to surface.
    fn elaborate(&self) -> Result<LintReport, ElaborateError>;
}

impl Elaborate for SimulationController {
    fn elaborate(&self) -> Result<LintReport, ElaborateError> {
        let report = Linter::new().check_design(self.design());
        if report.has_deny() {
            Err(ElaborateError { report })
        } else {
            Ok(report)
        }
    }
}

/// Command-line plumbing for the `--lint[=json]` flag of the measurement
/// binaries.
pub mod cli {
    use std::fmt::Display;

    use crate::diag::LintReport;

    /// How `--lint` was requested on the command line.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum LintMode {
        /// No `--lint` flag present.
        Off,
        /// `--lint`: human-readable report.
        Human,
        /// `--lint=json`: machine-readable report.
        Json,
    }

    /// Prints labelled reports in `mode` — one JSON document per line, or
    /// each rendered report under a `— label` heading — and returns
    /// whether any carries a Deny finding. Prints nothing when `Off`.
    pub fn print_reports<'a, L: Display>(
        mode: LintMode,
        reports: impl IntoIterator<Item = (L, &'a LintReport)>,
    ) -> bool {
        let mut any_deny = false;
        for (label, report) in reports {
            match mode {
                LintMode::Off => {}
                LintMode::Json => println!("{}", report.to_json()),
                LintMode::Human => {
                    println!("— {label}");
                    print!("{}", report.render());
                }
            }
            any_deny |= report.has_deny();
        }
        any_deny
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use vcad_core::stdlib::{PrimaryOutput, VectorInput};
    use vcad_core::DesignBuilder;

    fn clean_design() -> Arc<Design> {
        let mut b = DesignBuilder::new("clean");
        let src = b.add_module(Arc::new(VectorInput::new(
            "SRC",
            vec!["0101".parse().unwrap()],
        )));
        let sink = b.add_module(Arc::new(PrimaryOutput::new("P", 4)));
        b.connect(src, "out", sink, "in").unwrap();
        Arc::new(b.build().unwrap())
    }

    #[test]
    fn clean_design_elaborates() {
        let controller = SimulationController::new(clean_design());
        let report = controller.elaborate().expect("clean design must elaborate");
        assert!(!report.has_deny());
    }

    #[test]
    fn looped_fixture_is_refused_shape() {
        // elaborate() takes a built design, so exercise the deny path at
        // the Linter level with a graph the builder would reject.
        let graph = crate::fixtures::parse_fixture(
            "design ring\nmodule A comb in:a out:y\nmodule B comb in:a out:y\n\
             connect A.y B.a\nconnect B.y A.a\n",
        )
        .unwrap();
        let report = Linter::new().check_graph(&graph);
        assert!(report.has_deny());
    }
}
