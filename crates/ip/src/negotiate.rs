//! Interactive client–server negotiation of simulation parameters.
//!
//! The paper closes with "future developments will address … flexible
//! simulation setup with interactive client-server negotiation of
//! simulation parameters". This module implements that step: before
//! instantiating anything, the user states per-parameter *constraints*
//! (maximum fee, maximum acceptable error), the provider answers with the
//! best estimator it is willing to offer within them, and the user can
//! fold the agreed names directly into a
//! [`SetupController`](vcad_core::SetupController).

use std::time::Duration;

use vcad_core::{EstimatorInfo, Parameter};
use vcad_rmi::{RmiError, Value, Wire};

/// One per-parameter constraint the user sends.
#[derive(Clone, Debug, PartialEq)]
pub struct NegotiationRequest {
    /// The parameter of interest.
    pub parameter: Parameter,
    /// The highest fee per pattern (cents) the user will pay.
    pub max_fee_cents_per_pattern: f64,
    /// The worst advertised error (percent) the user will accept.
    pub max_error_pct: f64,
}

/// The provider's answer to one request.
#[derive(Clone, Debug, PartialEq)]
pub struct NegotiationOutcome {
    /// The requested parameter.
    pub parameter: Parameter,
    /// The best estimator within the constraints, or `None` when the
    /// provider has nothing to offer under them.
    pub offer: Option<EstimatorOffer>,
}

/// One offered estimator, as advertised during negotiation.
#[derive(Clone, Debug, PartialEq)]
pub struct EstimatorOffer {
    /// The estimator name, directly usable with
    /// [`SetupCriterion::Named`](vcad_core::SetupCriterion::Named).
    pub name: String,
    /// Advertised error, percent.
    pub expected_error_pct: f64,
    /// Fee per pattern, cents.
    pub fee_cents_per_pattern: f64,
    /// Whether the estimator runs on the provider's server.
    pub remote: bool,
}

impl From<&EstimatorInfo> for EstimatorOffer {
    fn from(info: &EstimatorInfo) -> EstimatorOffer {
        EstimatorOffer {
            name: info.name.clone(),
            expected_error_pct: info.expected_error_pct,
            fee_cents_per_pattern: info.cost_per_pattern_cents,
            remote: info.remote,
        }
    }
}

/// The estimator metadata a provider advertises for one offering — the
/// negotiation price list. Derived from the offering's fee schedule, so
/// the advertised and charged fees always agree.
#[must_use]
pub(crate) fn advertised_estimators(prices: &crate::offering::PriceList) -> Vec<EstimatorInfo> {
    let entry =
        |name: &str, parameter: Parameter, err: f64, fee: f64, remote: bool| EstimatorInfo {
            name: name.into(),
            parameter,
            expected_error_pct: err,
            cost_per_pattern_cents: fee,
            cpu_time_per_pattern: Duration::ZERO,
            remote,
        };
    vec![
        entry("area/static", Parameter::Area, 5.0, 0.0, false),
        entry("delay/static", Parameter::Delay, 5.0, 0.0, false),
        entry("power/constant", Parameter::AvgPower, 25.0, 0.0, false),
        entry(
            "power/linear-regression",
            Parameter::AvgPower,
            20.0,
            0.0,
            false,
        ),
        entry(
            "power/gate-level-toggle",
            Parameter::AvgPower,
            10.0,
            prices.toggle_power_per_pattern,
            true,
        ),
        entry(
            "power/gate-level-peak",
            Parameter::PeakPower,
            10.0,
            prices.toggle_power_per_pattern,
            true,
        ),
        entry(
            "io-activity/toggle-count",
            Parameter::IoActivity,
            0.0,
            0.0,
            false,
        ),
    ]
}

/// Server-side resolution: the most accurate advertised estimator within
/// the constraints.
#[must_use]
pub(crate) fn resolve(
    advertised: &[EstimatorInfo],
    parameter: &Parameter,
    max_fee: f64,
    max_error: f64,
) -> Option<EstimatorOffer> {
    advertised
        .iter()
        .filter(|e| {
            e.parameter == *parameter
                && e.cost_per_pattern_cents <= max_fee
                && e.expected_error_pct <= max_error
        })
        .min_by(|a, b| a.expected_error_pct.total_cmp(&b.expected_error_pct))
        .map(EstimatorOffer::from)
}

/// A request crosses the wire as a `[name, max_fee, max_err]` triple —
/// plain port-data scalars, so the strict marshalling policy admits it.
impl Wire for NegotiationRequest {
    fn into_value(self) -> Value {
        Value::List(vec![
            Value::Str(self.parameter.to_string()),
            Value::F64(self.max_fee_cents_per_pattern),
            Value::F64(self.max_error_pct),
        ])
    }

    fn from_value(value: Value) -> Result<NegotiationRequest, RmiError> {
        let triple = value
            .as_list()
            .filter(|l| l.len() == 3)
            .ok_or_else(|| RmiError::application("malformed negotiation request"))?;
        let parameter = triple[0]
            .as_str()
            .and_then(|s| s.parse::<Parameter>().ok())
            .ok_or_else(|| RmiError::application("unknown negotiation parameter"))?;
        match (triple[1].as_f64(), triple[2].as_f64()) {
            (Some(max_fee), Some(max_err)) => Ok(NegotiationRequest {
                parameter,
                max_fee_cents_per_pattern: max_fee,
                max_error_pct: max_err,
            }),
            _ => Err(RmiError::application("malformed negotiation bounds")),
        }
    }
}

/// An outcome crosses the wire as a map: `parameter`, and for an offer
/// its `name`, `error`, `fee` and `remote` flag.
impl Wire for NegotiationOutcome {
    fn into_value(self) -> Value {
        let mut entries = vec![(
            "parameter".to_owned(),
            Value::Str(self.parameter.to_string()),
        )];
        if let Some(offer) = self.offer {
            entries.push(("name".into(), Value::Str(offer.name)));
            entries.push(("error".into(), Value::F64(offer.expected_error_pct)));
            entries.push(("fee".into(), Value::F64(offer.fee_cents_per_pattern)));
            entries.push(("remote".into(), Value::Bool(offer.remote)));
        }
        Value::Map(entries)
    }

    fn from_value(value: Value) -> Result<NegotiationOutcome, RmiError> {
        let parameter = value
            .get("parameter")
            .and_then(Value::as_str)
            .and_then(|s| s.parse::<Parameter>().ok())
            .ok_or_else(|| RmiError::application("malformed negotiation outcome"))?;
        let offer = match value.get("name").and_then(Value::as_str) {
            None => None,
            Some("") => return Err(RmiError::application("offered estimator has an empty name")),
            Some(name) => Some(EstimatorOffer {
                name: name.to_owned(),
                expected_error_pct: advertised(&value, "error", 100.0)?,
                fee_cents_per_pattern: advertised(&value, "fee", 0.0)?,
                remote: value
                    .get("remote")
                    .and_then(Value::as_bool)
                    .unwrap_or(false),
            }),
        };
        Ok(NegotiationOutcome { parameter, offer })
    }
}

/// Reads a fee or an error a provider advertises under `key`, `default`
/// when absent. The number becomes estimator metadata that setup
/// criteria compare and the ledger sums, so a non-finite or negative
/// value refuses the whole reply.
pub(crate) fn advertised(item: &Value, key: &str, default: f64) -> Result<f64, RmiError> {
    let v = item.get(key).and_then(Value::as_f64).unwrap_or(default);
    if v.is_finite() && v >= 0.0 {
        Ok(v)
    } else {
        Err(RmiError::application(format!(
            "provider advertised `{key}` = {v}; want a finite, non-negative number"
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::offering::PriceList;

    #[test]
    fn resolution_respects_constraints() {
        let advertised = advertised_estimators(&PriceList::default());
        // Free and loose: regression wins (most accurate free power tier).
        let offer = resolve(&advertised, &Parameter::AvgPower, 0.0, 100.0).unwrap();
        assert_eq!(offer.name, "power/linear-regression");
        // Paying customer: the gate-level tier.
        let offer = resolve(&advertised, &Parameter::AvgPower, 0.5, 100.0).unwrap();
        assert_eq!(offer.name, "power/gate-level-toggle");
        assert!(offer.remote);
        // Impossible accuracy for free: no offer.
        assert!(resolve(&advertised, &Parameter::AvgPower, 0.0, 5.0).is_none());
        // Unoffered parameter: no offer.
        assert!(resolve(&advertised, &Parameter::FaultList, 1.0, 100.0).is_none());
    }

    #[test]
    fn request_and_outcome_wire_round_trip() {
        let req = NegotiationRequest {
            parameter: Parameter::PeakPower,
            max_fee_cents_per_pattern: 0.25,
            max_error_pct: 15.0,
        };
        let back = NegotiationRequest::from_value(req.clone().into_value()).unwrap();
        assert_eq!(back, req);

        let outcome = NegotiationOutcome {
            parameter: Parameter::PeakPower,
            offer: Some(EstimatorOffer {
                name: "power/gate-level-peak".into(),
                expected_error_pct: 10.0,
                fee_cents_per_pattern: 0.1,
                remote: true,
            }),
        };
        let decoded = NegotiationOutcome::from_value(outcome.clone().into_value()).unwrap();
        assert_eq!(decoded, outcome);

        let refusal = NegotiationOutcome {
            parameter: Parameter::Area,
            offer: None,
        };
        let decoded = NegotiationOutcome::from_value(refusal.clone().into_value());
        assert_eq!(decoded.unwrap(), refusal);
    }

    #[test]
    fn outcome_with_a_bad_fee_error_or_name_is_refused() {
        let outcome = |name: &str, error: f64, fee: f64| {
            let outcome = NegotiationOutcome {
                parameter: Parameter::AvgPower,
                offer: Some(EstimatorOffer {
                    name: name.into(),
                    expected_error_pct: error,
                    fee_cents_per_pattern: fee,
                    remote: true,
                }),
            };
            NegotiationOutcome::from_value(outcome.into_value())
        };
        assert!(outcome("power/x", 10.0, 0.1).is_ok());
        for bad in [f64::NAN, -0.5, f64::INFINITY] {
            assert!(outcome("power/x", 10.0, bad).is_err(), "fee {bad}");
            assert!(outcome("power/x", bad, 0.1).is_err(), "error {bad}");
        }
        assert!(outcome("", 10.0, 0.1).is_err());
    }

    #[test]
    fn requests_pass_the_strict_marshalling_policy() {
        use crate::{ClientSession, ComponentOffering, ProviderServer};
        let server = ProviderServer::new("p.example.com");
        server.offer(ComponentOffering::fast_low_power_multiplier());
        let session = ClientSession::connect_in_process(&server).unwrap();
        let reqs = vec![
            NegotiationRequest {
                parameter: Parameter::AvgPower,
                max_fee_cents_per_pattern: 0.1,
                max_error_pct: 15.0,
            },
            NegotiationRequest {
                parameter: Parameter::Area,
                max_fee_cents_per_pattern: 0.0,
                max_error_pct: 10.0,
            },
        ];
        // The session's client refuses anything but port data before it
        // is sent, so an answer means the requests crossed as port data.
        let outcomes = session
            .negotiate("MultFastLowPower", &reqs)
            .expect("negotiation traffic is port-data shaped");
        assert_eq!(outcomes.len(), reqs.len());
    }
}
