//! Client-side estimators: downloaded models and remote stubs.

use std::time::Duration;

use vcad_core::{
    Estimate, EstimateError, EstimationInput, Estimator, EstimatorInfo, Parameter, Value,
};
use vcad_logic::LogicVec;
use vcad_rmi::{RemoteRef, RmiError};

use crate::protocol::{component, encode_patterns};

/// Maps a failed remote estimation call onto [`EstimateError`]:
/// unreachability (transport failure, exhausted retries, open breaker)
/// becomes [`EstimateError::Unavailable`] — the controller's signal to
/// degrade to the null estimator — while everything else stays a plain
/// remote failure.
fn remote_error(e: &RmiError) -> EstimateError {
    if e.is_unavailability() {
        EstimateError::Unavailable(e.to_string())
    } else {
        EstimateError::Remote(e.to_string())
    }
}

fn concat_ports(input: &EstimationInput, ports: &[usize]) -> Vec<LogicVec> {
    input
        .snapshots
        .iter()
        .map(|s| {
            let mut v = LogicVec::zeros(0);
            for &p in ports {
                v = v.concat(&s.ports[p]);
            }
            v
        })
        .collect()
}

/// A downloaded constant power model: the datasheet number the provider
/// shipped with the open specification.
#[derive(Clone, Debug)]
pub(crate) struct DownloadedConstantPower {
    pub(crate) watts: f64,
}

impl Estimator for DownloadedConstantPower {
    fn info(&self) -> EstimatorInfo {
        EstimatorInfo {
            name: "power/constant".into(),
            parameter: Parameter::AvgPower,
            expected_error_pct: 25.0,
            cost_per_pattern_cents: 0.0,
            cpu_time_per_pattern: Duration::ZERO,
            remote: false,
        }
    }

    fn estimate(&self, _input: &EstimationInput) -> Result<Value, EstimateError> {
        Ok(Value::F64(self.watts))
    }
}

/// A downloaded linear-regression power model: two coefficients, run
/// locally over the component's input activity.
#[derive(Clone, Debug)]
pub(crate) struct DownloadedRegressionPower {
    pub(crate) intercept: f64,
    pub(crate) slope: f64,
    pub(crate) input_ports: Vec<usize>,
}

impl Estimator for DownloadedRegressionPower {
    fn info(&self) -> EstimatorInfo {
        EstimatorInfo {
            name: "power/linear-regression".into(),
            parameter: Parameter::AvgPower,
            expected_error_pct: 20.0,
            cost_per_pattern_cents: 0.0,
            cpu_time_per_pattern: Duration::from_micros(1),
            remote: false,
        }
    }

    fn estimate(&self, input: &EstimationInput) -> Result<Value, EstimateError> {
        let patterns = concat_ports(input, &self.input_ports);
        if patterns.len() < 2 {
            return Err(EstimateError::InsufficientInput(
                "regression needs at least two buffered patterns".into(),
            ));
        }
        let total: f64 = patterns
            .windows(2)
            .map(|w| (self.intercept + self.slope * w[0].distance(&w[1]) as f64).max(0.0))
            .sum();
        Ok(Value::F64(total / (patterns.len() - 1) as f64))
    }
}

/// A downloaded static (pre-characterised) estimate for a scalar
/// parameter such as area or delay: the provider computed it once from
/// the private implementation and shipped only the number.
#[derive(Clone, Debug)]
pub(crate) struct DownloadedStaticEstimator {
    pub(crate) name: String,
    pub(crate) parameter: Parameter,
    pub(crate) value: f64,
}

impl Estimator for DownloadedStaticEstimator {
    fn info(&self) -> EstimatorInfo {
        EstimatorInfo {
            name: self.name.clone(),
            parameter: self.parameter.clone(),
            // Provider-computed from the real implementation: exact up to
            // library modelling, so the advertised error is small.
            expected_error_pct: 5.0,
            cost_per_pattern_cents: 0.0,
            cpu_time_per_pattern: Duration::ZERO,
            remote: false,
        }
    }

    fn estimate(&self, _input: &EstimationInput) -> Result<Value, EstimateError> {
        Ok(Value::F64(self.value))
    }
}

/// The remote gate-level power estimator stub.
///
/// Buffers of input patterns are marshalled to the provider, whose private
/// toggle engine computes the average power; the user pays the published
/// per-pattern fee and never sees the netlist. This is the estimator whose
/// RMI overhead the paper's Figure 3 sweeps against the pattern buffer
/// size.
pub struct RemoteToggleEstimator {
    component: RemoteRef,
    input_ports: Vec<usize>,
    fee_cents_per_pattern: f64,
}

impl RemoteToggleEstimator {
    /// Creates the stub for one remote component instance.
    #[must_use]
    pub fn new(
        component: RemoteRef,
        input_ports: Vec<usize>,
        fee_cents_per_pattern: f64,
    ) -> RemoteToggleEstimator {
        RemoteToggleEstimator {
            component,
            input_ports,
            fee_cents_per_pattern,
        }
    }
}

/// The remote peak-power estimator stub: like
/// [`RemoteToggleEstimator`], but returning the worst single-transition
/// power in the buffer.
pub struct RemotePeakPowerEstimator {
    component: RemoteRef,
    input_ports: Vec<usize>,
    fee_cents_per_pattern: f64,
}

impl RemotePeakPowerEstimator {
    /// Creates the stub for one remote component instance.
    #[must_use]
    pub fn new(
        component: RemoteRef,
        input_ports: Vec<usize>,
        fee_cents_per_pattern: f64,
    ) -> RemotePeakPowerEstimator {
        RemotePeakPowerEstimator {
            component,
            input_ports,
            fee_cents_per_pattern,
        }
    }
}

impl Estimator for RemotePeakPowerEstimator {
    fn info(&self) -> EstimatorInfo {
        EstimatorInfo {
            name: "power/gate-level-peak".into(),
            parameter: Parameter::PeakPower,
            expected_error_pct: 10.0,
            cost_per_pattern_cents: self.fee_cents_per_pattern,
            cpu_time_per_pattern: Duration::from_millis(1),
            remote: true,
        }
    }

    fn estimate(&self, input: &EstimationInput) -> Result<Value, EstimateError> {
        self.estimate_with_meta(input).map(|e| e.value)
    }

    fn estimate_with_meta(&self, input: &EstimationInput) -> Result<Estimate, EstimateError> {
        let patterns = concat_ports(input, &self.input_ports);
        if patterns.len() < 2 {
            return Err(EstimateError::InsufficientInput(
                "peak power needs at least two buffered patterns".into(),
            ));
        }
        self.component
            .invoke_with_meta(component::POWER_PEAK, vec![encode_patterns(&patterns)])
            .map(|(value, cached)| Estimate { value, cached })
            .map_err(|e| remote_error(&e))
    }
}

impl Estimator for RemoteToggleEstimator {
    fn info(&self) -> EstimatorInfo {
        EstimatorInfo {
            name: "power/gate-level-toggle".into(),
            parameter: Parameter::AvgPower,
            expected_error_pct: 10.0,
            cost_per_pattern_cents: self.fee_cents_per_pattern,
            cpu_time_per_pattern: Duration::from_millis(1),
            remote: true,
        }
    }

    fn estimate(&self, input: &EstimationInput) -> Result<Value, EstimateError> {
        self.estimate_with_meta(input).map(|e| e.value)
    }

    fn estimate_with_meta(&self, input: &EstimationInput) -> Result<Estimate, EstimateError> {
        let patterns = concat_ports(input, &self.input_ports);
        if patterns.len() < 2 {
            return Err(EstimateError::InsufficientInput(
                "toggle counting needs at least two buffered patterns".into(),
            ));
        }
        self.component
            .invoke_with_meta(component::POWER_TOGGLE, vec![encode_patterns(&patterns)])
            .map(|(value, cached)| Estimate { value, cached })
            .map_err(|e| remote_error(&e))
    }
}
