//! Metadata pass: estimator declarations and fault-model shapes.
//!
//! Estimator metadata is the currency of the paper's negotiation
//! protocol — the setup controller compares names, expected errors and
//! per-pattern fees across providers. Garbage in any of those fields
//! silently corrupts estimator selection, so they are validated up
//! front. The fault-model checks mirror `vcad-faults`: a detection
//! table must be internally consistent (row widths equal the fault-free
//! response) and must not name faults outside the component's published
//! fault list.

use vcad_faults::{DetectionTable, SymbolicFault};
use vcad_rmi::Value;

use crate::diag::{rules, Diagnostic, Severity};
use crate::graph::LintGraph;

pub(crate) fn check(graph: &LintGraph, out: &mut Vec<Diagnostic>) {
    for module in &graph.modules {
        let mut seen: Vec<(&str, String)> = Vec::new();
        for info in &module.estimators {
            let deny =
                |rule, message| Diagnostic::at(rule, Severity::Deny, &module.name, None, message);
            if info.name.trim().is_empty() {
                out.push(deny(
                    rules::ESTIMATOR_NAME,
                    format!("estimator for {} has an empty name", info.parameter),
                ));
            }
            if !info.cost_per_pattern_cents.is_finite() || info.cost_per_pattern_cents < 0.0 {
                out.push(deny(
                    rules::ESTIMATOR_COST,
                    format!(
                        "estimator `{}` declares a nonsensical fee of {} cents/pattern",
                        info.name, info.cost_per_pattern_cents
                    ),
                ));
            }
            if !info.expected_error_pct.is_finite() || info.expected_error_pct < 0.0 {
                out.push(deny(
                    rules::ESTIMATOR_ACCURACY,
                    format!(
                        "estimator `{}` declares a nonsensical expected error of {}%",
                        info.name, info.expected_error_pct
                    ),
                ));
            } else if info.expected_error_pct > 100.0 {
                out.push(Diagnostic::at(
                    rules::ESTIMATOR_ACCURACY,
                    Severity::Warn,
                    &module.name,
                    None,
                    format!(
                        "estimator `{}` expects {}% error — worse than guessing",
                        info.name, info.expected_error_pct
                    ),
                ));
            }
            let key = (info.name.as_str(), info.parameter.to_string());
            if seen.contains(&key) {
                out.push(Diagnostic::at(
                    rules::ESTIMATOR_DUPLICATE,
                    Severity::Warn,
                    &module.name,
                    None,
                    format!(
                        "estimator `{}` for {} is declared twice; negotiation \
                         will pick one arbitrarily",
                        info.name, info.parameter
                    ),
                ));
            } else {
                seen.push(key);
            }
        }
    }
}

/// Validates a fault list against a detection table for one component.
///
/// Standalone because fault models live on the provider side of the
/// wire; a client lints what a [`RemoteDetectionSource`](vcad_ip::RemoteDetectionSource)
/// handed back, a provider lints an offering before publishing it.
#[must_use]
pub fn lint_fault_model(
    component: &str,
    faults: &[SymbolicFault],
    table: &DetectionTable,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let deny = |rule, message| Diagnostic::at(rule, Severity::Deny, component, None, message);

    let mut unique: Vec<&SymbolicFault> = Vec::new();
    for fault in faults {
        if unique.contains(&fault) {
            out.push(Diagnostic::at(
                rules::DUPLICATE_FAULT,
                Severity::Warn,
                component,
                None,
                format!("fault `{}` appears twice in the fault list", fault.as_str()),
            ));
        } else {
            unique.push(fault);
        }
    }

    if faults.is_empty() && !table.rows().is_empty() {
        out.push(Diagnostic::at(
            rules::EMPTY_FAULT_LIST,
            Severity::Warn,
            component,
            None,
            "detection table has rows but the fault list is empty".to_owned(),
        ));
    }

    for (row, (_, row_faults)) in table.rows().iter().enumerate() {
        for fault in row_faults {
            if !faults.contains(fault) {
                out.push(deny(
                    rules::UNKNOWN_FAULT,
                    format!(
                        "detection row {row} names fault `{}` which is not in the fault list",
                        fault.as_str()
                    ),
                ));
            }
        }
    }
    out
}

/// Validates that a marshalled value decodes as a detection table — the
/// shape check applied to `detection_table` responses coming off the
/// wire before `vcad-faults` consumes them.
///
/// A decoded [`DetectionTable`] always has rows as wide as its fault-free
/// response, so the width rule is reported here, on the frame that
/// failed to decode for that reason.
#[must_use]
pub fn lint_detection_frame(component: &str, value: &Value) -> Vec<Diagnostic> {
    if DetectionTable::from_value(value).is_some() {
        return Vec::new();
    }
    let width = |v: &Value, key: &str| Some(v.get(key)?.as_logic_vec()?.width());
    let want = width(value, "fault_free");
    let rows = value.get("rows").and_then(Value::as_list).unwrap_or(&[]);
    let (rule, message) = match rows
        .iter()
        .map(|row| width(row, "output"))
        .position(|got| want.is_some() && got.is_some() && got != want)
    {
        Some(row) => (
            rules::DETECTION_WIDTH,
            format!("detection row {row} is not as wide as the fault-free response"),
        ),
        None => (
            rules::MALFORMED_TABLE,
            "wire value does not decode as a detection table".to_owned(),
        ),
    };
    vec![Diagnostic::at(
        rule,
        Severity::Deny,
        component,
        None,
        message,
    )]
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcad_logic::LogicVec;

    fn fault(s: &str) -> SymbolicFault {
        SymbolicFault(s.to_owned())
    }

    fn vec_of(s: &str) -> LogicVec {
        s.parse().unwrap()
    }

    // Tables only construct from a netlist or the wire form; use the
    // wire form so malformed shapes are expressible.
    fn table(rows: Vec<(LogicVec, Vec<SymbolicFault>)>) -> DetectionTable {
        DetectionTable::from_value(&frame(rows)).unwrap()
    }

    fn frame(rows: Vec<(LogicVec, Vec<SymbolicFault>)>) -> Value {
        Value::Map(vec![
            ("inputs".into(), Value::Vec(vec_of("00"))),
            ("fault_free".into(), Value::Vec(vec_of("0"))),
            (
                "rows".into(),
                Value::List(
                    rows.iter()
                        .map(|(out, faults)| {
                            Value::Map(vec![
                                ("output".into(), Value::Vec(out.clone())),
                                (
                                    "faults".into(),
                                    Value::List(
                                        faults
                                            .iter()
                                            .map(|f| Value::Str(f.as_str().to_owned()))
                                            .collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    #[test]
    fn consistent_model_is_clean() {
        let faults = vec![fault("a-sa0"), fault("b-sa1")];
        let t = table(vec![(vec_of("1"), vec![fault("a-sa0")])]);
        assert!(lint_fault_model("MULT", &faults, &t).is_empty());
    }

    #[test]
    fn unknown_fault_and_bad_width_are_deny() {
        let faults = vec![fault("a-sa0")];
        let t = table(vec![(vec_of("1"), vec![fault("ghost")])]);
        let out = lint_fault_model("MULT", &faults, &t);
        assert!(out
            .iter()
            .any(|d| d.rule == rules::UNKNOWN_FAULT && d.message.contains("ghost")));
        // A two-bit row against a one-bit fault-free response never
        // decodes, so the width rule fires on the frame.
        let wide = frame(vec![(vec_of("11"), vec![fault("a-sa0")])]);
        let out = lint_detection_frame("MULT", &wide);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, rules::DETECTION_WIDTH);
        assert_eq!(out[0].severity, Severity::Deny);
    }

    #[test]
    fn duplicates_and_empty_list_warn() {
        let out = lint_fault_model(
            "M",
            &[fault("x"), fault("x")],
            &table(vec![(vec_of("1"), vec![fault("x")])]),
        );
        assert!(out.iter().any(|d| d.rule == rules::DUPLICATE_FAULT));

        let out = lint_fault_model("M", &[], &table(vec![(vec_of("1"), vec![])]));
        assert!(out.iter().any(|d| d.rule == rules::EMPTY_FAULT_LIST));
    }

    #[test]
    fn detection_frame_shape_check() {
        let t = table(vec![(vec_of("1"), vec![fault("x")])]);
        assert!(lint_detection_frame("M", &t.to_value()).is_empty());
        assert_eq!(
            lint_detection_frame("M", &Value::I64(9))[0].rule,
            rules::MALFORMED_TABLE
        );
    }
}
