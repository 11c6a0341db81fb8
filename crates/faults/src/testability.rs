//! Static SCOAP-style testability analysis.
//!
//! Pure dataflow analysis over the levelized [`ExecPlan`] — no
//! simulation. A forward sweep computes per-net *controllability*
//! (`CC0`/`CC1`: how hard it is to drive the net to 0/1) and a backward
//! sweep computes *observability* (`CO`: how hard it is to propagate a
//! value change on the net to a primary output), following the classic
//! SCOAP cost model adapted to this IR's gate semantics (including the
//! `Mux2` X-select agreeing-data rule).
//!
//! Alongside the scores, a constant-propagation pass evaluates every
//! net with all primary inputs at `X`: any net that still resolves to a
//! binary value is *tied* — Kleene logic is monotone, so the net holds
//! that value under **every** stimulus, four-valued ones included. Tied
//! nets are the engine behind the two *sound* untestability proofs:
//!
//! * **unexcitable** — a stuck-at fault whose forced value equals the
//!   site's tied value never changes any net;
//! * **unobservable** — `CO = ∞`, which happens only when a net has no
//!   structural path to an output or when every path runs through a
//!   gate whose side input is tied to its controlling value.
//!
//! Both proofs hold under arbitrary `X`/`Z` stimuli, so pruning faults
//! they cover can never change a detection table. Finite scores, by
//! contrast, are heuristic difficulty estimates — useful for ranking,
//! never for pruning.

use std::fmt::Write as _;

use vcad_logic::{Logic, LogicVec};
use vcad_netlist::{generators, ExecPlan, GateId, GateKind, NetId, Netlist, OutputSource, PlanOp};

use crate::collapse::FaultUniverse;
use crate::fault::{Fault, FaultSite, StuckAt};

/// The sentinel cost meaning "provably impossible".
///
/// Saturating arithmetic keeps it absorbing: any cost chain through an
/// unreachable term stays unreachable.
pub(crate) const UNREACHABLE: u32 = u32::MAX;

/// SCOAP scores of one net.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NetScores {
    /// Cost of driving the net to logic 0 (`u32::MAX` if tied to 1).
    pub cc0: u32,
    /// Cost of driving the net to logic 1 (`u32::MAX` if tied to 0).
    pub cc1: u32,
    /// Cost of observing the net at a primary output (`u32::MAX` if no
    /// sensitizable path exists).
    pub co: u32,
}

/// The static verdict on one fault.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FaultStatus {
    /// No untestability proof found; the fault must be simulated.
    #[default]
    Testable,
    /// The site is tied to the stuck value: the fault changes nothing.
    Unexcitable,
    /// No fault effect at the site can ever reach a primary output.
    Unobservable,
}

impl FaultStatus {
    /// `true` unless an untestability proof applies.
    #[must_use]
    pub fn is_testable(self) -> bool {
        matches!(self, FaultStatus::Testable)
    }

    /// Stable lowercase label (report/JSON vocabulary).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            FaultStatus::Testable => "testable",
            FaultStatus::Unexcitable => "unexcitable",
            FaultStatus::Unobservable => "unobservable",
        }
    }
}

/// The result of analyzing one netlist: per-net scores plus tied-net
/// facts, with fault classification and difficulty ranking on top.
///
/// # Examples
///
/// ```
/// use vcad_faults::{FaultStatus, TestabilityAnalysis};
/// use vcad_netlist::generators;
///
/// let nl = generators::half_adder_nand();
/// let t = TestabilityAnalysis::analyze(&nl);
/// // Primary inputs cost 1 to control and every net is observable.
/// let a = nl.find_net("a").unwrap();
/// assert_eq!(t.scores(a).cc0, 1);
/// assert_ne!(t.scores(a).co, u32::MAX);
/// ```
#[derive(Clone, Debug)]
pub struct TestabilityAnalysis {
    /// Indexed by [`NetId::index`].
    scores: Vec<NetScores>,
    /// Indexed by [`NetId::index`]; `Some` iff the net is tied.
    tied: Vec<Option<Logic>>,
}

impl TestabilityAnalysis {
    /// Runs the constant-propagation, controllability and observability
    /// sweeps over `netlist`'s levelized plan.
    #[must_use]
    pub fn analyze(netlist: &Netlist) -> TestabilityAnalysis {
        let plan: &ExecPlan = netlist.plan();
        let tied = propagate_constants(plan);
        let mut scores = vec![
            NetScores {
                cc0: UNREACHABLE,
                cc1: UNREACHABLE,
                co: UNREACHABLE,
            };
            plan.net_count()
        ];
        for &n in plan.input_nets() {
            scores[n as usize].cc0 = 1;
            scores[n as usize].cc1 = 1;
        }
        for op in plan.ops() {
            let (cc0, cc1) = controllability(op, plan, &scores);
            scores[op.output()].cc0 = cc0;
            scores[op.output()].cc1 = cc1;
        }
        for source in plan.outputs() {
            let net = match *source {
                OutputSource::Net(n) => n,
                OutputSource::Input(i) => plan.input_nets()[i] as usize,
            };
            scores[net].co = 0;
        }
        // Consumers sit strictly after their drivers in the level-major
        // stream, so one reverse pass finalizes every op's output
        // observability before the op distributes it to its pins.
        for op in plan.ops().iter().rev() {
            let out_co = scores[op.output()].co;
            let range = op.operand_range();
            for pin in 0..range.len() {
                let net = plan.operands()[range.start + pin] as usize;
                let through = out_co.saturating_add(pin_cost(op, plan, &scores, pin));
                if through < scores[net].co {
                    scores[net].co = through;
                }
            }
        }
        TestabilityAnalysis { scores, tied }
    }

    /// The SCOAP scores of `net`.
    #[must_use]
    pub fn scores(&self, net: NetId) -> NetScores {
        self.scores[net.index()]
    }

    /// The binary value `net` is provably tied to, if any.
    #[must_use]
    pub fn tied(&self, net: NetId) -> Option<Logic> {
        self.tied[net.index()]
    }

    /// Observability cost of a fault effect on one gate input pin: the
    /// effect must pass through that gate alone before joining the
    /// stem's downstream paths.
    ///
    /// # Panics
    ///
    /// Panics if `pin` is out of range for `gate`.
    #[must_use]
    pub fn pin_observability(&self, netlist: &Netlist, gate: GateId, pin: usize) -> u32 {
        let g = netlist.gate(gate);
        assert!(pin < g.inputs().len(), "{gate:?} has no pin {pin}");
        let out = self.scores[g.output().index()].co;
        out.saturating_add(gate_pin_cost(g.kind(), g.inputs().len(), pin, |i| {
            self.scores[g.inputs()[i].index()]
        }))
    }

    /// The net a fault site injects on (the stem net, or the net feeding
    /// the faulted pin).
    #[must_use]
    pub fn site_net(netlist: &Netlist, fault: &Fault) -> NetId {
        match fault.site {
            FaultSite::Net(n) => n,
            FaultSite::Pin { gate, pin } => netlist.gate(gate).inputs()[pin],
        }
    }

    /// Classifies one fault. Only proofs valid under arbitrary
    /// four-valued stimuli yield a non-[`FaultStatus::Testable`]
    /// verdict; everything else must be simulated.
    #[must_use]
    pub fn classify(&self, netlist: &Netlist, fault: &Fault) -> FaultStatus {
        let site = Self::site_net(netlist, fault);
        if self.tied[site.index()] == Some(fault.stuck.value()) {
            return FaultStatus::Unexcitable;
        }
        let observability = match fault.site {
            FaultSite::Net(n) => self.scores[n.index()].co,
            FaultSite::Pin { gate, pin } => self.pin_observability(netlist, gate, pin),
        };
        if observability == UNREACHABLE {
            return FaultStatus::Unobservable;
        }
        FaultStatus::Testable
    }

    /// The SCOAP detection-difficulty estimate for one fault: cost of
    /// exciting the site to the *opposite* of the stuck value plus the
    /// cost of observing the site. `u32::MAX` iff the fault is
    /// statically untestable.
    #[must_use]
    pub fn fault_score(&self, netlist: &Netlist, fault: &Fault) -> u32 {
        let site = Self::site_net(netlist, fault);
        if self.tied[site.index()] == Some(fault.stuck.value()) {
            return UNREACHABLE;
        }
        let excite = match fault.stuck {
            StuckAt::Zero => self.scores[site.index()].cc1,
            StuckAt::One => self.scores[site.index()].cc0,
        };
        let observe = match fault.site {
            FaultSite::Net(n) => self.scores[n.index()].co,
            FaultSite::Pin { gate, pin } => self.pin_observability(netlist, gate, pin),
        };
        excite.saturating_add(observe)
    }

    /// A one-line human-readable proof for an untestable verdict, or
    /// `None` when the fault is (statically) testable.
    #[must_use]
    pub(crate) fn proof(&self, netlist: &Netlist, fault: &Fault) -> Option<String> {
        let site = Self::site_net(netlist, fault);
        match self.classify(netlist, fault) {
            FaultStatus::Testable => None,
            FaultStatus::Unexcitable => Some(format!(
                "net `{}` is tied to {} by constant propagation; forcing the stuck value changes nothing",
                netlist.net(site).name(),
                self.tied[site.index()].expect("unexcitable implies tied"),
            )),
            FaultStatus::Unobservable => {
                let stem_dead = self.scores[site.index()].co == UNREACHABLE;
                if stem_dead && netlist.net(site).fanout() == 0 && !netlist.is_primary_output(site)
                {
                    return Some(format!(
                        "net `{}` has an empty observation cone (no path to any primary output)",
                        netlist.net(site).name(),
                    ));
                }
                // A pin fault whose gate output is itself observation-dead
                // is unobservable for that reason, not a blocked side input.
                if let FaultSite::Pin { gate, .. } = fault.site {
                    let out = netlist.gate(gate).output();
                    if self.scores[out.index()].co == UNREACHABLE {
                        return Some(format!(
                            "the branch from `{}` feeds net `{}`, which has no path to any primary output",
                            netlist.net(site).name(),
                            netlist.net(out).name(),
                        ));
                    }
                }
                Some(format!(
                    "every propagation path from `{}` runs through a side input tied to its controlling value",
                    netlist.net(site).name(),
                ))
            }
        }
    }
}

/// Evaluates every net with all primary inputs at `X`. Nets resolving
/// to a binary value are tied to it for every stimulus (Kleene
/// monotonicity; `Z` folds exactly like `X` through every gate op).
fn propagate_constants(plan: &ExecPlan) -> Vec<Option<Logic>> {
    plan.eval_nets(&LogicVec::unknown(plan.input_nets().len()))
        .into_iter()
        .map(|v| v.is_binary().then_some(v))
        .collect()
}

/// `(cc0, cc1)` of one op's output from its operand scores.
fn controllability(op: &PlanOp, plan: &ExecPlan, scores: &[NetScores]) -> (u32, u32) {
    let range = op.operand_range();
    let pin = |i: usize| scores[plan.operands()[range.start + i] as usize];
    let n = range.len();
    let sum = |f: fn(NetScores) -> u32| (0..n).fold(0u32, |acc, i| acc.saturating_add(f(pin(i))));
    let min = |f: fn(NetScores) -> u32| (0..n).map(|i| f(pin(i))).min().unwrap_or(UNREACHABLE);
    let (cc0, cc1) = match op.kind() {
        GateKind::Buf => (pin(0).cc0, pin(0).cc1),
        GateKind::Not => (pin(0).cc1, pin(0).cc0),
        GateKind::And => (min(|s| s.cc0), sum(|s| s.cc1)),
        GateKind::Nand => (sum(|s| s.cc1), min(|s| s.cc0)),
        GateKind::Or => (sum(|s| s.cc0), min(|s| s.cc1)),
        GateKind::Nor => (min(|s| s.cc1), sum(|s| s.cc0)),
        GateKind::Xor | GateKind::Xnor => {
            // Parity DP: cheapest way to make the input parity even/odd.
            let (even, odd) = (0..n).fold((0u32, UNREACHABLE), |(even, odd), i| {
                let s = pin(i);
                (
                    even.saturating_add(s.cc0).min(odd.saturating_add(s.cc1)),
                    odd.saturating_add(s.cc0).min(even.saturating_add(s.cc1)),
                )
            });
            if op.kind() == GateKind::Xor {
                (even, odd)
            } else {
                (odd, even)
            }
        }
        GateKind::Mux2 => {
            let (sel, a, b) = (pin(0), pin(1), pin(2));
            // The third term mirrors the evaluator's X-select rule: an
            // unknown select still yields a binary output when both
            // data inputs agree on it.
            let to = |va: u32, vb: u32| {
                sel.cc0
                    .saturating_add(va)
                    .min(sel.cc1.saturating_add(vb))
                    .min(va.saturating_add(vb))
            };
            (to(a.cc0, b.cc0), to(a.cc1, b.cc1))
        }
        GateKind::Const0 => return (1, UNREACHABLE),
        GateKind::Const1 => return (UNREACHABLE, 1),
    };
    (cc0.saturating_add(1), cc1.saturating_add(1))
}

/// Cost of pushing a value change on `pin` through its gate (side-input
/// conditioning plus one level), excluding downstream observability.
fn pin_cost(op: &PlanOp, plan: &ExecPlan, scores: &[NetScores], pin: usize) -> u32 {
    let range = op.operand_range();
    gate_pin_cost(op.kind(), range.len(), pin, |i| {
        scores[plan.operands()[range.start + i] as usize]
    })
}

fn gate_pin_cost(
    kind: GateKind,
    input_count: usize,
    pin: usize,
    pin_scores: impl Fn(usize) -> NetScores,
) -> u32 {
    let sides = |f: fn(NetScores) -> u32| {
        (0..input_count)
            .filter(|&i| i != pin)
            .fold(0u32, |acc, i| acc.saturating_add(f(pin_scores(i))))
    };
    let cost = match kind {
        GateKind::Buf | GateKind::Not => 0,
        // Side inputs must sit at the non-controlling value.
        GateKind::And | GateKind::Nand => sides(|s| s.cc1),
        GateKind::Or | GateKind::Nor => sides(|s| s.cc0),
        // Parity always propagates; side inputs just need *some*
        // binary value.
        GateKind::Xor | GateKind::Xnor => sides(|s| s.cc0.min(s.cc1)),
        GateKind::Mux2 => {
            let (sel, a, b) = (pin_scores(0), pin_scores(1), pin_scores(2));
            match pin {
                // Observing the select needs the data inputs to differ.
                0 => a.cc0.saturating_add(b.cc1).min(a.cc1.saturating_add(b.cc0)),
                // Observing a data input needs the select to pick it.
                1 => sel.cc0,
                _ => sel.cc1,
            }
        }
        GateKind::Const0 | GateKind::Const1 => UNREACHABLE,
    };
    cost.saturating_add(1)
}

/// SCOAP scores of one net, by name.
#[derive(Clone, Debug)]
struct NetRow {
    net: String,
    cc0: u32,
    cc1: u32,
    co: u32,
}

impl NetRow {
    fn difficulty(&self) -> u64 {
        u64::from(self.cc0) + u64::from(self.cc1) + u64::from(self.co)
    }
}

/// One ranked fault: its symbolic name and SCOAP difficulty estimate.
#[derive(Clone, Debug)]
struct FaultRow {
    fault: String,
    score: u32,
}

/// One statically untestable fault class with its proof.
#[derive(Clone, Debug)]
struct UntestableRow {
    fault: String,
    status: FaultStatus,
    proof: String,
}

/// The human-readable testability report of one netlist: the hardest
/// nets and faults a pattern budget will be spent on, and the
/// statically untestable fault sites (with their proofs) that no budget
/// can ever cover.
///
/// # Examples
///
/// ```
/// use vcad_faults::TestabilityReport;
/// use vcad_netlist::generators;
///
/// let report = TestabilityReport::analyze(&generators::untestable_demo(2), 5);
/// assert!(!report.unobservable_nets().is_empty());
/// assert!(report.render().contains("untestable faults:\n"));
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
            b.difficulty()
                .cmp(&a.difficulty())
                .then_with(|| a.net.cmp(&b.net))
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

    /// The nets with no sensitizable path to any primary output, sorted:
    /// logic feeding them is dead weight for testing purposes.
    #[must_use]
    pub fn unobservable_nets(&self) -> &[String] {
        &self.unobservable_nets
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

/// The reference reports the repository golden test pins
/// (`testability_report.golden`): the two component netlists of the
/// reference two-provider design (Figure 1) plus the planted-untestable
/// fixture.
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
    use vcad_netlist::{generators, NetlistBuilder};

    /// `y = AND(a, const0)` plus a dangling OR gate: one tied net, one
    /// empty observation cone.
    fn tied_and_dangling() -> Netlist {
        let mut b = NetlistBuilder::new("tied_demo");
        let a = b.input("A");
        let c = b.input("C");
        let zero = b.constant(Logic::Zero);
        let t = b.named_gate("T", GateKind::And, &[a, zero]);
        let _dead = b.named_gate("DEAD", GateKind::Or, &[a, c]);
        let y = b.named_gate("Y", GateKind::Or, &[t, c]);
        b.output("Y", y);
        b.build().expect("valid netlist")
    }

    #[test]
    fn primary_inputs_cost_one_and_are_observable_in_half_adder() {
        let nl = generators::half_adder_nand();
        let t = TestabilityAnalysis::analyze(&nl);
        for &n in nl.inputs() {
            let s = t.scores(n);
            assert_eq!((s.cc0, s.cc1), (1, 1));
            assert_ne!(s.co, UNREACHABLE, "{}", nl.net(n).name());
        }
        // Primary outputs are free to observe.
        for (_, n) in nl.outputs() {
            assert_eq!(t.scores(*n).co, 0);
        }
    }

    #[test]
    fn two_input_gate_formulas() {
        let mut b = NetlistBuilder::new("gates");
        let a = b.input("A");
        let c = b.input("B");
        let and = b.gate(GateKind::And, &[a, c]);
        let or = b.gate(GateKind::Or, &[a, c]);
        let xor = b.gate(GateKind::Xor, &[a, c]);
        b.output("AND", and);
        b.output("OR", or);
        b.output("XOR", xor);
        let nl = b.build().unwrap();
        let t = TestabilityAnalysis::analyze(&nl);
        // AND: cc1 = 1+1+1 = 3, cc0 = min(1,1)+1 = 2; OR is the dual.
        assert_eq!((t.scores(and).cc0, t.scores(and).cc1), (2, 3));
        assert_eq!((t.scores(or).cc0, t.scores(or).cc1), (3, 2));
        // XOR parity DP: both polarities cost 1+1+1 = 3.
        assert_eq!((t.scores(xor).cc0, t.scores(xor).cc1), (3, 3));
        // Observing A through the AND costs CO(out)=0 + cc1(B) + 1.
        assert_eq!(t.scores(a).co, 2);
    }

    #[test]
    fn mux_follows_the_x_select_agreeing_data_rule() {
        let mut b = NetlistBuilder::new("mux");
        let s = b.input("S");
        let zero = b.constant(Logic::Zero);
        let one = b.constant(Logic::One);
        let m = b.gate(GateKind::Mux2, &[s, zero, one]);
        b.output("M", m);
        let nl = b.build().unwrap();
        let t = TestabilityAnalysis::analyze(&nl);
        // M = S: controllable both ways through the select, never tied.
        assert_eq!(t.tied(m), None);
        assert_ne!(t.scores(m).cc0, UNREACHABLE);
        assert_ne!(t.scores(m).cc1, UNREACHABLE);
        // The select is observable (data inputs differ).
        assert_ne!(t.scores(s).co, UNREACHABLE);
    }

    #[test]
    fn constant_propagation_finds_tied_nets() {
        let nl = tied_and_dangling();
        let t = TestabilityAnalysis::analyze(&nl);
        let tied = nl.find_net("T").unwrap();
        assert_eq!(t.tied(tied), Some(Logic::Zero));
        assert_eq!(t.scores(tied).cc1, UNREACHABLE);
        // Inputs and the live output are not tied.
        assert_eq!(t.tied(nl.find_net("A").unwrap()), None);
        assert_eq!(t.tied(nl.find_net("Y").unwrap()), None);
    }

    #[test]
    fn classification_proves_the_planted_untestables() {
        let nl = tied_and_dangling();
        let t = TestabilityAnalysis::analyze(&nl);
        let tied = nl.find_net("T").unwrap();
        let dead = nl.find_net("DEAD").unwrap();

        // T is tied to 0: sa0 unexcitable, sa1 excitable and observable
        // (it flips Y when C=0).
        let t_sa0 = Fault::new(FaultSite::Net(tied), StuckAt::Zero);
        let t_sa1 = Fault::new(FaultSite::Net(tied), StuckAt::One);
        assert_eq!(t.classify(&nl, &t_sa0), FaultStatus::Unexcitable);
        assert_eq!(t.classify(&nl, &t_sa1), FaultStatus::Testable);
        assert_eq!(t.fault_score(&nl, &t_sa0), UNREACHABLE);
        assert_ne!(t.fault_score(&nl, &t_sa1), UNREACHABLE);

        // DEAD drives nothing: both polarities unobservable.
        for stuck in StuckAt::BOTH {
            let f = Fault::new(FaultSite::Net(dead), stuck);
            assert_eq!(t.classify(&nl, &f), FaultStatus::Unobservable);
            let proof = t.proof(&nl, &f).unwrap();
            assert!(proof.contains("empty observation cone"), "{proof}");
        }

        // The AND's A-side pin is blocked by the tied-0 side input.
        let and_gate = nl.net(tied).driver().unwrap();
        let pin_a = Fault::new(
            FaultSite::Pin {
                gate: and_gate,
                pin: 0,
            },
            StuckAt::One,
        );
        assert_eq!(t.classify(&nl, &pin_a), FaultStatus::Unobservable);
        let proof = t.proof(&nl, &pin_a).unwrap();
        assert!(proof.contains("side input tied"), "{proof}");
    }

    #[test]
    fn every_fault_in_a_clean_design_is_testable() {
        for nl in [generators::c17(), generators::ripple_adder(3)] {
            let t = TestabilityAnalysis::analyze(&nl);
            for f in crate::collapse::FaultUniverse::all_faults(&nl) {
                assert_eq!(
                    t.classify(&nl, &f),
                    FaultStatus::Testable,
                    "{} in {}",
                    f.name(&nl),
                    nl.name()
                );
                assert_eq!(t.proof(&nl, &f), None);
            }
        }
    }

    #[test]
    fn scores_grow_along_an_inverter_chain() {
        let mut b = NetlistBuilder::new("chain");
        let mut n = b.input("IN");
        let mut nets = vec![n];
        for i in 0..4 {
            n = b.named_gate(format!("N{i}"), GateKind::Not, &[n]);
            nets.push(n);
        }
        b.output("OUT", n);
        let nl = b.build().unwrap();
        let t = TestabilityAnalysis::analyze(&nl);
        for w in nets.windows(2) {
            assert!(t.scores(w[1]).cc0 > t.scores(w[0]).cc0.min(t.scores(w[0]).cc1));
            assert!(t.scores(w[0]).co > t.scores(w[1]).co);
        }
    }

    #[test]
    fn untestable_demo_reports_its_untestable_faults_and_unobservable_nets() {
        let report = TestabilityReport::analyze(&generators::untestable_demo(2), 8);
        assert!(!report.untestable.is_empty());
        assert!(!report.unobservable_nets().is_empty());
        let text = report.render();
        for row in &report.untestable {
            assert!(text.contains(&row.fault), "{} missing:\n{text}", row.fault);
        }
    }

    #[test]
    fn clean_designs_produce_no_findings() {
        let report = TestabilityReport::analyze(&generators::c17(), 8);
        assert!(report.untestable.is_empty());
        assert!(report.unobservable_nets().is_empty());
        assert!(report.render().contains("untestable faults: none"));
    }

    #[test]
    fn hardest_lists_are_ranked_and_bounded() {
        let report = TestabilityReport::analyze(&generators::ripple_adder(8), 5);
        assert!(report.hardest_faults.len() <= 5);
        assert!(report.hardest_nets.len() <= 5);
        for w in report.hardest_faults.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
        for w in report.hardest_nets.windows(2) {
            assert!(w[0].difficulty() >= w[1].difficulty());
        }
    }
}
