//! Quantitative testability reporting: the lint pass that turns
//! `vcad-faults`' static SCOAP analysis into diagnostics and reports.
//!
//! Where the other passes check design hygiene, this one scores a
//! component netlist: per-net controllability/observability, the
//! hardest faults a pattern budget will be spent on, and the statically
//! untestable fault sites (with their proofs) that no budget can ever
//! cover. Untestable sites surface as stable-ID Warn diagnostics
//! ([`rules::UNTESTABLE_FAULT`], [`rules::UNOBSERVABLE_NET`]) carried
//! by a standard [`LintReport`].

use std::fmt::Write as _;

use vcad_faults::{FaultStatus, FaultUniverse, TestabilityAnalysis, UNREACHABLE};
use vcad_netlist::{generators, Netlist};

use crate::diag::{rules, Diagnostic, LintReport, Severity};

/// SCOAP scores of one net, by name.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NetRow {
    /// Net name.
    pub net: String,
    /// Cost to drive the net to 0.
    pub cc0: u32,
    /// Cost to drive the net to 1.
    pub cc1: u32,
    /// Cost to observe the net at a primary output.
    pub co: u32,
}

/// One ranked fault: its symbolic name and SCOAP difficulty estimate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultRow {
    /// Symbolic fault name.
    pub fault: String,
    /// Detection-difficulty estimate (excite + observe).
    pub score: u32,
}

/// One statically untestable fault class with its proof.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UntestableRow {
    /// The class representative's symbolic name.
    pub fault: String,
    /// Which proof applies.
    pub status: FaultStatus,
    /// The human-readable proof line.
    pub proof: String,
    /// Number of equivalent faults the class covers.
    pub members: usize,
}

/// The testability report of one netlist.
///
/// # Examples
///
/// ```
/// use vcad_lint::TestabilityReport;
/// use vcad_netlist::generators;
///
/// let report = TestabilityReport::analyze(&generators::untestable_demo(2), 5);
/// assert!(!report.untestable().is_empty());
/// assert!(report.render().contains("untestable"));
/// ```
#[derive(Clone, Debug)]
pub struct TestabilityReport {
    design: String,
    net_count: usize,
    tied_count: usize,
    class_count: usize,
    total_faults: usize,
    hardest_nets: Vec<NetRow>,
    hardest_faults: Vec<FaultRow>,
    untestable: Vec<UntestableRow>,
    unobservable_nets: Vec<String>,
}

impl TestabilityReport {
    /// Analyzes `netlist` and keeps the `top_n` hardest nets and faults.
    #[must_use]
    pub fn analyze(netlist: &Netlist, top_n: usize) -> TestabilityReport {
        let analysis = TestabilityAnalysis::analyze(netlist);
        let mut universe = FaultUniverse::collapsed(netlist);
        universe.apply_testability(netlist, &analysis);

        let mut tied_count = 0;
        let mut hardest_nets = Vec::new();
        let mut unobservable_nets = Vec::new();
        for (id, net) in netlist.nets() {
            let s = analysis.scores(id);
            if analysis.tied(id).is_some() {
                tied_count += 1;
            }
            if s.co == UNREACHABLE {
                unobservable_nets.push(net.name().to_owned());
            }
            // Nets with an unreachable component belong to the
            // untestable story, not the difficulty ranking.
            if s.cc0 != UNREACHABLE && s.cc1 != UNREACHABLE && s.co != UNREACHABLE {
                hardest_nets.push(NetRow {
                    net: net.name().to_owned(),
                    cc0: s.cc0,
                    cc1: s.cc1,
                    co: s.co,
                });
            }
        }
        hardest_nets.sort_by(|a, b| {
            let ka = u64::from(a.cc0) + u64::from(a.cc1) + u64::from(a.co);
            let kb = u64::from(b.cc0) + u64::from(b.cc1) + u64::from(b.co);
            kb.cmp(&ka).then_with(|| a.net.cmp(&b.net))
        });
        hardest_nets.truncate(top_n);
        unobservable_nets.sort();

        let mut hardest_faults = Vec::new();
        let mut untestable = Vec::new();
        for class in universe.classes() {
            let name = class.representative.name(netlist).as_str().to_owned();
            if class.is_testable() {
                hardest_faults.push(FaultRow {
                    fault: name,
                    score: analysis.fault_score(netlist, &class.representative),
                });
            } else {
                untestable.push(UntestableRow {
                    fault: name,
                    status: class.status,
                    proof: analysis
                        .proof(netlist, &class.representative)
                        .unwrap_or_else(|| "untestable".to_owned()),
                    members: class.members.len(),
                });
            }
        }
        hardest_faults.sort_by(|a, b| b.score.cmp(&a.score).then_with(|| a.fault.cmp(&b.fault)));
        hardest_faults.truncate(top_n);
        untestable.sort_by(|a, b| a.fault.cmp(&b.fault));

        TestabilityReport {
            design: netlist.name().to_owned(),
            net_count: netlist.net_count(),
            tied_count,
            class_count: universe.class_count(),
            total_faults: universe.total_faults(),
            hardest_nets,
            hardest_faults,
            untestable,
            unobservable_nets,
        }
    }

    /// The analyzed netlist's name.
    #[must_use]
    pub fn design(&self) -> &str {
        &self.design
    }

    /// The statically untestable fault classes.
    #[must_use]
    pub fn untestable(&self) -> &[UntestableRow] {
        &self.untestable
    }

    /// The `top_n` hardest (testable) faults, hardest first.
    #[must_use]
    pub fn hardest_faults(&self) -> &[FaultRow] {
        &self.hardest_faults
    }

    /// The `top_n` hardest fully-reachable nets, hardest first.
    #[must_use]
    pub fn hardest_nets(&self) -> &[NetRow] {
        &self.hardest_nets
    }

    /// The findings as stable-ID diagnostics: one
    /// [`rules::UNTESTABLE_FAULT`] per untestable class and one
    /// [`rules::UNOBSERVABLE_NET`] per observation-dead net, all Warn —
    /// a testability hole degrades coverage but breaks nothing.
    #[must_use]
    pub fn diagnostics(&self) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for row in &self.untestable {
            out.push(Diagnostic::at(
                rules::UNTESTABLE_FAULT,
                Severity::Warn,
                self.design.clone(),
                None,
                format!(
                    "fault {} ({} equivalent) is {}: {}",
                    row.fault,
                    row.members,
                    row.status.label(),
                    row.proof
                ),
            ));
        }
        for net in &self.unobservable_nets {
            out.push(Diagnostic::at(
                rules::UNOBSERVABLE_NET,
                Severity::Warn,
                self.design.clone(),
                Some(net.clone()),
                format!("net `{net}` has no sensitizable path to any primary output"),
            ));
        }
        out
    }

    /// The diagnostics wrapped in a standard [`LintReport`].
    #[must_use]
    pub fn to_lint_report(&self) -> LintReport {
        let mut report = LintReport::new(self.design.clone());
        for d in self.diagnostics() {
            report.push(d);
        }
        report
    }

    /// Renders the human-readable report.
    #[must_use]
    pub fn render(&self) -> String {
        let score = |v: u32| -> String {
            if v == UNREACHABLE {
                "inf".to_owned()
            } else {
                v.to_string()
            }
        };
        let mut out = String::new();
        let _ = writeln!(
            out,
            "testability of `{}`: {} nets ({} tied), {} fault classes ({} faults), {} untestable",
            self.design,
            self.net_count,
            self.tied_count,
            self.class_count,
            self.total_faults,
            self.untestable.len()
        );
        let _ = writeln!(out, "  hardest nets (CC0/CC1/CO):");
        for n in &self.hardest_nets {
            let _ = writeln!(
                out,
                "    {:<24} {:>5} {:>5} {:>5}",
                n.net,
                score(n.cc0),
                score(n.cc1),
                score(n.co)
            );
        }
        let _ = writeln!(out, "  hardest faults:");
        for f in &self.hardest_faults {
            let _ = writeln!(out, "    {:<24} {:>5}", f.fault, score(f.score));
        }
        if self.untestable.is_empty() {
            let _ = writeln!(out, "  untestable faults: none");
        } else {
            let _ = writeln!(out, "  untestable faults:");
            for u in &self.untestable {
                let _ = writeln!(
                    out,
                    "    {:<24} [{}] {}",
                    u.fault,
                    u.status.label(),
                    u.proof
                );
            }
        }
        out
    }
}

/// The reference reports the lint gate's `testability` subcommand and
/// the repository golden test share: the two component netlists of the
/// reference two-provider design (Figure 1) plus the planted-untestable
/// fixture. One renderer, so the binary and the golden file cannot
/// drift apart.
#[must_use]
pub fn reference_reports() -> Vec<TestabilityReport> {
    vec![
        TestabilityReport::analyze(&generators::wallace_multiplier(8), 10),
        TestabilityReport::analyze(&generators::ripple_adder(16), 10),
        TestabilityReport::analyze(&generators::untestable_demo(4), 10),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untestable_demo_yields_warn_diagnostics_that_round_trip() {
        let report = TestabilityReport::analyze(&generators::untestable_demo(2), 8);
        assert!(!report.untestable().is_empty());
        let lint = report.to_lint_report();
        assert!(lint.diagnostics().len() >= report.untestable().len());
        assert!(lint
            .diagnostics()
            .iter()
            .all(|d| d.severity == Severity::Warn));
        assert!(lint
            .diagnostics()
            .iter()
            .any(|d| d.rule == rules::UNTESTABLE_FAULT));
        assert!(lint
            .diagnostics()
            .iter()
            .any(|d| d.rule == rules::UNOBSERVABLE_NET));
        // Every finding comes back out of the wrapped report unchanged.
        assert_eq!(lint.diagnostics(), report.diagnostics().as_slice());
        assert_eq!(lint.design(), report.design());
    }

    #[test]
    fn clean_designs_produce_no_findings() {
        let report = TestabilityReport::analyze(&generators::c17(), 8);
        assert!(report.untestable().is_empty());
        assert!(report.diagnostics().is_empty());
        assert!(report.render().contains("untestable faults: none"));
    }

    #[test]
    fn hardest_lists_are_ranked_and_bounded() {
        let report = TestabilityReport::analyze(&generators::ripple_adder(8), 5);
        assert!(report.hardest_faults().len() <= 5);
        assert!(report.hardest_nets().len() <= 5);
        for w in report.hardest_faults().windows(2) {
            assert!(w[0].score >= w[1].score);
        }
        for w in report.hardest_nets().windows(2) {
            let ka = u64::from(w[0].cc0) + u64::from(w[0].cc1) + u64::from(w[0].co);
            let kb = u64::from(w[1].cc0) + u64::from(w[1].cc1) + u64::from(w[1].co);
            assert!(ka >= kb);
        }
    }
}
