//! The wire protocol between IP users and providers.
//!
//! Method selectors and argument/result shapes shared by the server
//! objects and the client stubs. All payloads obey the port-data-only
//! marshalling policy in the client→server direction.

use vcad_logic::LogicVec;
use vcad_rmi::{RmiError, Value};

/// Catalog (root object) methods.
pub(crate) mod catalog {
    /// `list() -> List<Map>` — the published offerings.
    pub const LIST: &str = "list";
    /// `instantiate(name: Str, width: I64) -> ObjectRef` — create a
    /// component instance.
    pub const INSTANTIATE: &str = "instantiate";
    /// `bill() -> F64` — total fees charged so far, in cents.
    pub const BILL: &str = "bill";
    /// `negotiate(name: Str, requests: List<[Str, F64, F64]>) -> List<Map>`
    /// — per-parameter estimator offers within the user's fee/accuracy
    /// constraints.
    pub const NEGOTIATE: &str = "negotiate";
}

/// Component-instance methods.
pub(crate) mod component {
    /// `describe() -> Map` — name, width, public part id.
    pub const DESCRIBE: &str = "describe";
    /// `area() -> F64` — provider-computed equivalent-gate area.
    pub const AREA: &str = "area";
    /// `delay() -> F64` — provider-computed critical path, picoseconds.
    pub const DELAY: &str = "delay";
    /// `power_constant() -> F64` — datasheet mean power, watts.
    pub const POWER_CONSTANT: &str = "power_constant";
    /// `power_regression() -> List[F64, F64]` — downloadable (intercept,
    /// slope) coefficients.
    pub const POWER_REGRESSION: &str = "power_regression";
    /// `power_toggle(patterns: List<Vec>) -> F64` — gate-level average
    /// power over the buffered input patterns, watts. Charged per pattern.
    pub const POWER_TOGGLE: &str = "power_toggle";
    /// `power_peak(patterns: List<Vec>) -> F64` — worst single-transition
    /// power over the buffered input patterns, watts. Charged per pattern.
    pub const POWER_PEAK: &str = "power_peak";
    /// `functional_eval(inputs: List<Vec>) -> List<Vec>` — remote
    /// functional evaluation of one input configuration (MR scenario).
    pub const FUNCTIONAL_EVAL: &str = "functional_eval";
    /// `fault_list() -> List<Str>` — the symbolic fault list.
    pub const FAULT_LIST: &str = "fault_list";
    /// `detection_table(inputs: Vec) -> Map` — the per-pattern detection
    /// table.
    pub const DETECTION_TABLE: &str = "detection_table";
    /// `release() -> Null` — withdraw this component instance from the
    /// provider's registry.
    pub const RELEASE: &str = "release";
}

/// Encodes a buffered pattern sequence (client → provider).
pub(crate) fn encode_patterns(patterns: &[LogicVec]) -> Value {
    Value::List(patterns.iter().cloned().map(Value::Vec).collect())
}

/// Decodes a buffered pattern sequence (provider side).
pub(crate) fn decode_patterns(value: &Value) -> Result<Vec<LogicVec>, RmiError> {
    let items = value
        .as_list()
        .ok_or_else(|| RmiError::application("expected a pattern list"))?;
    items
        .iter()
        .map(|v| {
            v.as_logic_vec()
                .cloned()
                .ok_or_else(|| RmiError::application("pattern is not a logic vector"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::privacy::{protocol_manifest, PayloadKind};

    #[test]
    fn pattern_round_trip() {
        let pats: Vec<LogicVec> = vec!["1010".parse().unwrap(), "01XZ".parse().unwrap()];
        let v = encode_patterns(&pats);
        assert_eq!(decode_patterns(&v).unwrap(), pats);
    }

    #[test]
    fn decode_rejects_non_lists() {
        assert!(decode_patterns(&Value::I64(3)).is_err());
        assert!(decode_patterns(&Value::List(vec![Value::Null])).is_err());
    }

    #[test]
    fn manifest_covers_every_selector() {
        let selectors = [
            catalog::LIST,
            catalog::INSTANTIATE,
            catalog::BILL,
            catalog::NEGOTIATE,
            component::DESCRIBE,
            component::AREA,
            component::DELAY,
            component::POWER_CONSTANT,
            component::POWER_REGRESSION,
            component::POWER_TOGGLE,
            component::POWER_PEAK,
            component::FUNCTIONAL_EVAL,
            component::FAULT_LIST,
            component::DETECTION_TABLE,
            component::RELEASE,
        ];
        let manifest = protocol_manifest();
        assert_eq!(manifest.len(), selectors.len());
        for s in selectors {
            assert!(
                manifest.iter().any(|m| m.method == s),
                "method `{s}` missing from the protocol manifest"
            );
        }
    }

    #[test]
    fn manifest_cache_allowlist_agrees_with_purity() {
        for m in protocol_manifest() {
            assert_eq!(
                crate::cache::cacheable_method(m.method),
                m.pure,
                "cacheability of `{}` disagrees with its declared purity",
                m.method
            );
        }
    }

    #[test]
    fn shipped_protocol_carries_no_structural_payloads() {
        assert!(!PayloadKind::Structural.is_port_local_safe());
        for m in protocol_manifest() {
            assert!(
                m.request.is_port_local_safe(),
                "`{}` request would ship structural IP",
                m.method
            );
            assert!(
                m.response.is_port_local_safe(),
                "`{}` response would ship structural IP",
                m.method
            );
        }
    }
}
