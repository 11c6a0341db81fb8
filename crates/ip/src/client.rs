//! The IP user side: sessions and remote component handles.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use vcad_core::{Estimator, Module};
use vcad_faults::{DetectionTable, DetectionTableSource, SymbolicFault, VirtualSimError};
use vcad_logic::LogicVec;
use vcad_rmi::{
    Cache, Client, InProcTransport, RemoteRef, RmiError, Sandbox, SecurityManager, Transport, Value,
};

use crate::cache::cacheable_method;
use crate::estimator::{
    DownloadedConstantPower, DownloadedRegressionPower, DownloadedStaticEstimator,
    RemotePeakPowerEstimator, RemoteToggleEstimator,
};
use crate::modules::{IpComponentModule, PublicPart, RemoteFunctionalModule};
use crate::protocol::{catalog, component};
use crate::server::ProviderServer;

/// One catalog entry as seen by the user.
#[derive(Clone, Debug, PartialEq)]
pub struct OfferingInfo {
    /// The component's catalog name.
    pub name: String,
    /// Functional model level.
    pub functional: i64,
    /// Power model level.
    pub power: i64,
    /// Timing model level.
    pub timing: i64,
    /// Area model level.
    pub area: i64,
    /// Fee per pattern for the remote gate-level power estimator, cents.
    pub toggle_fee_cents: f64,
}

/// A connection from an IP user to one provider.
///
/// The session enforces the strict (port-data-only) marshalling policy on
/// everything it sends: the user's design structure *cannot* leave the
/// process. See the [crate example](crate#examples).
pub struct ClientSession {
    client: Client,
    host: String,
    cache: Option<Arc<Cache>>,
}

impl ClientSession {
    /// Connects through an arbitrary transport (channel, TCP, shaped).
    #[must_use]
    pub fn connect(transport: Arc<dyn Transport>, host: impl Into<String>) -> ClientSession {
        ClientSession {
            client: Client::with_security(transport, SecurityManager::strict()),
            host: host.into(),
            cache: None,
        }
    }

    /// Connects in-process to a provider (useful for tests and the AL/ER
    /// baselines).
    ///
    /// # Errors
    ///
    /// Currently infallible; the `Result` mirrors the network connectors.
    pub fn connect_in_process(server: &ProviderServer) -> Result<ClientSession, RmiError> {
        let transport: Arc<dyn Transport> = Arc::new(InProcTransport::new(server.dispatcher()));
        Ok(ClientSession::connect(transport, server.host()))
    }

    /// Routes a `client:{method}` span per call into `obs` and injects
    /// the trace context into every outgoing frame, tagged with
    /// `session` and `provider` baggage labels — display-only strings
    /// that pass the wire-privacy audit (no design data).
    #[must_use]
    pub fn with_collector(mut self, obs: vcad_obs::Collector) -> ClientSession {
        static NEXT_SESSION: AtomicU64 = AtomicU64::new(1);
        let session = format!("session-{}", NEXT_SESSION.fetch_add(1, Ordering::Relaxed));
        self.client = self
            .client
            .with_collector(obs)
            .with_baggage("provider", &self.host)
            .with_baggage("session", &session);
        self
    }

    /// Memoizes the protocol's pure, deterministic read methods in
    /// `cache`, keyed to this provider: every stub this session hands out
    /// — estimators, detection sources, remote modules, raw
    /// [`RemoteComponent::stub`]s — serves a repeat call locally and
    /// reports it as cached, so it is charged no fee. Share one `cache`
    /// across sessions freely; a successful [`ClientSession::negotiate`]
    /// invalidates this provider's entries only.
    #[must_use]
    pub fn with_cache(mut self, cache: Arc<Cache>) -> ClientSession {
        self.client = self
            .client
            .with_cache(Arc::clone(&cache), &self.host, cacheable_method);
        self.cache = Some(cache);
        self
    }

    /// Stamps every outgoing call with `tenant`, upgrading frames to the
    /// v3 tenant-carrying encoding. The provider's admission control and
    /// fee ledger key on this id; sessions without a tenant stay on the
    /// older context-free encodings and are admitted under the default
    /// quota.
    #[must_use]
    pub fn with_tenant(mut self, tenant: &str) -> ClientSession {
        self.client = self.client.with_tenant(tenant);
        self
    }

    /// The provider's host name.
    #[must_use]
    pub fn host(&self) -> &str {
        &self.host
    }

    /// The underlying RMI client (for traffic statistics).
    #[must_use]
    pub fn client(&self) -> &Client {
        &self.client
    }

    /// Fetches the provider's catalog.
    ///
    /// # Errors
    ///
    /// Returns [`RmiError`] on transport or protocol failures.
    pub fn catalog(&self) -> Result<Vec<OfferingInfo>, RmiError> {
        let list = self.client.root().invoke(catalog::LIST, vec![])?;
        let items = list
            .as_list()
            .ok_or_else(|| RmiError::application("catalog is not a list"))?;
        items
            .iter()
            .map(|item| {
                let field_i = |k: &str| item.get(k).and_then(Value::as_i64).unwrap_or(0);
                Ok(OfferingInfo {
                    name: item
                        .get("name")
                        .and_then(Value::as_str)
                        .filter(|name| !name.is_empty())
                        .ok_or_else(|| RmiError::application("offering without a name"))?
                        .to_owned(),
                    functional: field_i("functional"),
                    power: field_i("power"),
                    timing: field_i("timing"),
                    area: field_i("area"),
                    toggle_fee_cents: crate::negotiate::advertised(item, "toggle_fee", 0.0)?,
                })
            })
            .collect()
    }

    /// Instantiates a component on the provider's server and downloads its
    /// public part — the seamless evaluation-before-purchase step.
    ///
    /// # Errors
    ///
    /// Returns [`RmiError`] when the offering does not exist or the
    /// transport fails.
    pub fn instantiate(&self, name: &str, width: usize) -> Result<RemoteComponent, RmiError> {
        let stub = self.client.root().invoke_object(
            catalog::INSTANTIATE,
            vec![Value::Str(name.to_owned()), Value::I64(width as i64)],
        )?;
        let description = stub.invoke(component::DESCRIBE, vec![])?;
        let behavior = description
            .get("public_behavior")
            .and_then(Value::as_str)
            .ok_or_else(|| RmiError::application("component has no public part"))?
            .to_owned();
        let toggle_fee = self
            .catalog()?
            .into_iter()
            .find(|o| o.name == name)
            .map(|o| o.toggle_fee_cents)
            .unwrap_or(0.0);
        Ok(RemoteComponent {
            name: name.to_owned(),
            width,
            stub,
            public: PublicPart::new(behavior, width, Sandbox::for_provider(&self.host)),
            toggle_fee_cents: toggle_fee,
        })
    }

    /// Negotiates estimator availability for one offering before
    /// instantiating it: per parameter, the provider answers with the
    /// most accurate estimator it offers within the user's fee and
    /// accuracy bounds (the paper's "interactive client-server
    /// negotiation of simulation parameters").
    ///
    /// # Errors
    ///
    /// Returns [`RmiError`] when the offering does not exist or the
    /// transport fails.
    pub fn negotiate(
        &self,
        name: &str,
        requests: &[crate::NegotiationRequest],
    ) -> Result<Vec<crate::NegotiationOutcome>, RmiError> {
        let reply = self.client.root().invoke(
            catalog::NEGOTIATE,
            vec![
                Value::Str(name.to_owned()),
                crate::negotiate::encode_requests(requests),
            ],
        )?;
        let outcomes: Result<Vec<crate::NegotiationOutcome>, RmiError> = reply
            .as_list()
            .ok_or_else(|| RmiError::application("malformed negotiation reply"))?
            .iter()
            .map(crate::negotiate::decode_outcome)
            .collect();
        // A successful renegotiation can change prices and models, so
        // everything previously memoized from this provider is suspect:
        // flip its epoch and let the cache lazily re-fetch.
        if outcomes.is_ok() {
            if let Some(cache) = &self.cache {
                cache.bump_epoch(&self.host);
            }
        }
        outcomes
    }

    /// The total fees the provider has charged this server, in cents.
    ///
    /// # Errors
    ///
    /// Returns [`RmiError`] on transport failures.
    pub fn bill(&self) -> Result<f64, RmiError> {
        let v = self.client.root().invoke(catalog::BILL, vec![])?;
        v.as_f64()
            .ok_or_else(|| RmiError::application("bill is not a number"))
    }
}

/// A handle to one instantiated remote component: the stub plus the
/// downloaded public part.
pub struct RemoteComponent {
    name: String,
    width: usize,
    stub: RemoteRef,
    public: PublicPart,
    toggle_fee_cents: f64,
}

impl RemoteComponent {
    /// The component's catalog name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The instantiated bit width.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// The downloaded public part.
    #[must_use]
    pub fn public_part(&self) -> &PublicPart {
        &self.public
    }

    /// The raw stub (for custom protocol extensions).
    #[must_use]
    pub fn stub(&self) -> &RemoteRef {
        &self.stub
    }

    /// Provider-computed area estimate, in equivalent gates.
    ///
    /// # Errors
    ///
    /// Returns [`RmiError`] on transport failures.
    pub fn area(&self) -> Result<f64, RmiError> {
        self.call_f64(component::AREA)
    }

    /// Provider-computed critical-path delay, in picoseconds.
    ///
    /// # Errors
    ///
    /// Returns [`RmiError`] on transport failures.
    pub fn delay(&self) -> Result<f64, RmiError> {
        self.call_f64(component::DELAY)
    }

    /// The datasheet constant power figure, in watts.
    ///
    /// # Errors
    ///
    /// Returns [`RmiError`] on transport failures.
    pub fn constant_power(&self) -> Result<f64, RmiError> {
        self.call_f64(component::POWER_CONSTANT)
    }

    /// Downloads the regression power model's `(intercept, slope)`.
    ///
    /// # Errors
    ///
    /// Returns [`RmiError`] on transport or protocol failures.
    pub fn regression_coefficients(&self) -> Result<(f64, f64), RmiError> {
        let v = self.stub.invoke(component::POWER_REGRESSION, vec![])?;
        let list = v
            .as_list()
            .filter(|l| l.len() == 2)
            .ok_or_else(|| RmiError::application("bad regression coefficients"))?;
        match (list[0].as_f64(), list[1].as_f64()) {
            (Some(a), Some(b)) => Ok((a, b)),
            _ => Err(RmiError::application("bad regression coefficients")),
        }
    }

    /// The component's estimator catalog as the user sees it: static
    /// area/delay numbers, two downloaded power models, and the remote
    /// gate-level power stub.
    ///
    /// # Errors
    ///
    /// Returns [`RmiError`] when downloading the static models fails.
    pub fn estimator_catalog(&self) -> Result<Vec<Arc<dyn Estimator>>, RmiError> {
        use vcad_core::Parameter;
        let watts = self.constant_power()?;
        let (intercept, slope) = self.regression_coefficients()?;
        Ok(vec![
            Arc::new(DownloadedStaticEstimator {
                name: "area/static".into(),
                parameter: Parameter::Area,
                value: self.area()?,
            }),
            Arc::new(DownloadedStaticEstimator {
                name: "delay/static".into(),
                parameter: Parameter::Delay,
                value: self.delay()?,
            }),
            Arc::new(DownloadedConstantPower { watts }),
            Arc::new(DownloadedRegressionPower {
                intercept,
                slope,
                input_ports: vec![0, 1],
            }),
            Arc::new(RemoteToggleEstimator::new(
                self.stub.clone(),
                vec![0, 1],
                self.toggle_fee_cents,
            )),
            Arc::new(RemotePeakPowerEstimator::new(
                self.stub.clone(),
                vec![0, 1],
                self.toggle_fee_cents,
            )),
            Arc::new(vcad_core::ActivityEstimator::new()),
        ])
    }

    /// Builds the **ER**-style module: the public part runs locally, the
    /// estimator catalog is attached (accurate power remains remote).
    ///
    /// # Errors
    ///
    /// Returns [`RmiError`] when the public part or static models cannot
    /// be downloaded.
    pub fn functional_module(&self, instance: &str) -> Result<Arc<dyn Module>, RmiError> {
        let inner = self.public.instantiate(instance)?;
        Ok(Arc::new(IpComponentModule::new(
            inner,
            self.estimator_catalog()?,
        )))
    }

    /// Builds the **MR**-style module: every simulation event is forwarded
    /// to the provider.
    ///
    /// # Errors
    ///
    /// Returns [`RmiError`] when the estimator catalog cannot be
    /// downloaded.
    pub fn fully_remote_module(&self, instance: &str) -> Result<Arc<dyn Module>, RmiError> {
        Ok(Arc::new(RemoteFunctionalModule::new(
            instance,
            self.width,
            self.stub.clone(),
            self.estimator_catalog()?,
        )))
    }

    /// Withdraws this component instance from the provider's registry,
    /// ending the evaluation session for it. Estimator stubs and
    /// detection sources cloned from this handle stop working.
    ///
    /// # Errors
    ///
    /// Returns [`RmiError`] on transport failures.
    pub fn release(self) -> Result<(), RmiError> {
        self.stub.invoke(component::RELEASE, vec![])?;
        Ok(())
    }

    /// The component's testability oracle for virtual fault simulation.
    /// On a cached session, fault lists and detection tables are
    /// memoized — repeat queries for the same input pattern never reach
    /// the provider.
    #[must_use]
    pub fn detection_source(&self) -> Arc<RemoteDetectionSource> {
        Arc::new(RemoteDetectionSource {
            stub: self.stub.clone(),
        })
    }

    fn call_f64(&self, method: &str) -> Result<f64, RmiError> {
        let v = self.stub.invoke(method, vec![])?;
        v.as_f64()
            .ok_or_else(|| RmiError::application(format!("`{method}` did not return a number")))
    }
}

/// A [`DetectionTableSource`] whose answers come from the provider over
/// RMI — the remote half of the paper's virtual fault simulation.
pub struct RemoteDetectionSource {
    stub: RemoteRef,
}

impl DetectionTableSource for RemoteDetectionSource {
    fn fault_list(&self) -> Vec<SymbolicFault> {
        self.stub
            .invoke(component::FAULT_LIST, vec![])
            .ok()
            .and_then(|v| {
                v.as_list().map(|items| {
                    items
                        .iter()
                        .filter_map(|i| i.as_str().map(SymbolicFault::from))
                        .collect()
                })
            })
            .unwrap_or_default()
    }

    fn detection_table(&self, inputs: &LogicVec) -> Result<DetectionTable, VirtualSimError> {
        let value = self
            .stub
            .invoke(component::DETECTION_TABLE, vec![Value::Vec(inputs.clone())])
            .map_err(|e| VirtualSimError::Source(e.to_string()))?;
        DetectionTable::from_owned_value(value)
            .ok_or_else(|| VirtualSimError::Source("malformed detection table".into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::offering::ComponentOffering;

    fn rig() -> (ProviderServer, ClientSession) {
        let server = ProviderServer::new("provider.example.com");
        server.offer(ComponentOffering::fast_low_power_multiplier());
        let session = ClientSession::connect_in_process(&server).unwrap();
        (server, session)
    }

    #[test]
    fn catalog_and_instantiate() {
        let (_server, session) = rig();
        let catalog = session.catalog().unwrap();
        assert_eq!(catalog.len(), 1);
        assert_eq!(catalog[0].power, 2);
        let comp = session.instantiate("MultFastLowPower", 8).unwrap();
        assert_eq!(comp.width(), 8);
        assert_eq!(comp.public_part().behavior(), "word-multiplier");
        assert!(comp.area().unwrap() > 0.0);
        assert!(comp.delay().unwrap() > 0.0);
    }

    #[test]
    fn estimator_catalog_has_all_tiers() {
        let (_server, session) = rig();
        let comp = session.instantiate("MultFastLowPower", 4).unwrap();
        let estimators = comp.estimator_catalog().unwrap();
        assert_eq!(estimators.len(), 7);
        let remotes: Vec<bool> = estimators.iter().map(|e| e.info().remote).collect();
        assert_eq!(remotes, vec![false, false, false, false, true, true, false]);
        use vcad_core::Parameter;
        let params: Vec<Parameter> = estimators.iter().map(|e| e.info().parameter).collect();
        assert_eq!(
            params,
            vec![
                Parameter::Area,
                Parameter::Delay,
                Parameter::AvgPower,
                Parameter::AvgPower,
                Parameter::AvgPower,
                Parameter::PeakPower,
                Parameter::IoActivity,
            ]
        );
    }

    /// Every estimator the workspace ships advertises a non-empty name,
    /// a finite non-negative fee and an error within 0–100 %, and one
    /// catalog never lists a (name, parameter) pair twice: setup
    /// criteria compare these numbers and the ledger sums the fees.
    #[test]
    fn every_shipped_estimator_declares_sane_metadata() {
        use vcad_core::{ActivityEstimator, NullEstimator, Parameter};
        use vcad_power::{
            ConstantPowerEstimator, LinearRegressionPowerEstimator, PeakPowerEstimator, PowerModel,
            SiliconReference, TogglePowerEstimator,
        };
        let (_server, session) = rig();
        let comp = session.instantiate("MultFastLowPower", 4).unwrap();
        let catalog: Vec<_> = comp
            .estimator_catalog()
            .unwrap()
            .iter()
            .map(|e| e.info())
            .collect();
        let advertised =
            crate::negotiate::advertised_estimators(&crate::offering::PriceList::default());
        let nl = Arc::new(vcad_netlist::generators::wallace_multiplier(4));
        let reference = SiliconReference::with_default_residual(PowerModel::default(), 11);
        let train: Vec<LogicVec> = (0..8)
            .map(|i| LogicVec::from_u64(8, i * 37 % 256))
            .collect();
        let provider_side = vec![
            ConstantPowerEstimator::characterize(&reference, &nl, &train).info(),
            LinearRegressionPowerEstimator::fit(&reference, &nl, &train, vec![0, 1]).info(),
            TogglePowerEstimator::new(Arc::clone(&nl), PowerModel::default(), vec![0, 1], true)
                .info(),
            PeakPowerEstimator::new(nl, PowerModel::default(), vec![0, 1], true).info(),
            NullEstimator::new(Parameter::AvgPower).info(),
            ActivityEstimator::new().info(),
        ];
        for group in [&catalog, &advertised, &provider_side] {
            for info in group.iter() {
                assert!(!info.name.trim().is_empty(), "{info:?}");
                let fee = info.cost_per_pattern_cents;
                assert!(fee.is_finite() && fee >= 0.0, "{info:?}");
                let error = info.expected_error_pct;
                assert!((0.0..=100.0).contains(&error), "{info:?}");
            }
        }
        for group in [&catalog, &advertised] {
            let mut keys: Vec<_> = group
                .iter()
                .map(|i| (&i.name, i.parameter.to_string()))
                .collect();
            keys.sort();
            keys.dedup();
            assert_eq!(keys.len(), group.len(), "duplicate estimator in {group:?}");
        }
    }

    #[test]
    fn functional_module_multiplies_locally() {
        let (server, session) = rig();
        let comp = session.instantiate("MultFastLowPower", 4).unwrap();
        let module = comp.functional_module("MULT").unwrap();
        assert_eq!(module.ports().len(), 3);
        // Purely local evaluation: no functional fees accrue.
        let before = server.ledger().total_cents();
        assert_eq!(module.name(), "MULT");
        assert_eq!(server.ledger().total_cents(), before);
    }

    #[test]
    fn remote_detection_source_answers() {
        let (_server, session) = rig();
        let comp = session.instantiate("MultFastLowPower", 2).unwrap();
        let source = comp.detection_source();
        let list = source.fault_list();
        assert!(!list.is_empty());
        let table = source
            .detection_table(&LogicVec::from_u64(4, 0b1001))
            .unwrap();
        assert_eq!(table.inputs().to_word().unwrap().value(), 0b1001);
    }

    #[test]
    fn unknown_offering_is_an_error() {
        let (_server, session) = rig();
        assert!(session.instantiate("NoSuchBlock", 8).is_err());
    }

    /// A provider whose catalog lists one offering with the given name
    /// and toggle fee.
    struct Advertiser(&'static str, f64);

    impl vcad_rmi::RemoteObject for Advertiser {
        fn invoke(&self, _: &str, _: &[Value], _: &vcad_rmi::ServerCtx) -> Result<Value, RmiError> {
            Ok(Value::List(vec![Value::Map(vec![
                ("name".into(), Value::Str(self.0.into())),
                ("toggle_fee".into(), Value::F64(self.1)),
            ])]))
        }
    }

    fn catalog_of(name: &'static str, fee: f64) -> Result<Vec<OfferingInfo>, RmiError> {
        let registry = Arc::new(vcad_rmi::ObjectRegistry::new());
        registry.register_root(Arc::new(Advertiser(name, fee)));
        let dispatcher = Arc::new(vcad_rmi::Dispatcher::new(registry));
        ClientSession::connect(Arc::new(InProcTransport::new(dispatcher)), "advertiser").catalog()
    }

    #[test]
    fn catalog_with_a_bad_fee_or_name_is_refused() {
        assert_eq!(catalog_of("IP", 0.25).unwrap()[0].toggle_fee_cents, 0.25);
        for bad in [f64::NAN, -0.5, f64::INFINITY] {
            assert!(catalog_of("IP", bad).is_err(), "toggle fee {bad}");
        }
        assert!(catalog_of("", 0.25).is_err());
    }

    #[test]
    fn bill_reflects_remote_work() {
        let (_server, session) = rig();
        let comp = session.instantiate("MultFastLowPower", 2).unwrap();
        let before = session.bill().unwrap();
        let _ = comp
            .detection_source()
            .detection_table(&LogicVec::from_u64(4, 0))
            .unwrap();
        let after = session.bill().unwrap();
        assert!(after > before);
    }
}
