//! The provider side: catalog and component server objects.

use std::sync::{Arc, Mutex, OnceLock};

use vcad_core::{EstimationInput, Estimator, PortSnapshot, SimTime};
use vcad_faults::{DetectionTable, DetectionTableSource, NetlistDetectionSource, SymbolicFault};
use vcad_logic::LogicVec;
use vcad_netlist::Netlist;
use vcad_obs::{Collector, TracedSpan};
use vcad_power::{
    ConstantPowerEstimator, LinearRegressionPowerEstimator, PeakPowerEstimator, PowerModel,
    SiliconReference, TogglePowerEstimator,
};
use vcad_rmi::{
    AdmissionControl, Dispatcher, MuxServer, MuxServerConfig, ObjectId, ObjectRegistry,
    RemoteObject, RmiError, ServerCtx, Value, Wire,
};

use crate::client::OfferingInfo;
use crate::negotiate::{advertised_estimators, resolve, NegotiationOutcome, NegotiationRequest};
use crate::offering::ComponentOffering;
use crate::protocol::{catalog, component, Description};

/// The provider's fee ledger: every chargeable call appends an entry.
///
/// When a call arrives through a tenant-stamped frame (see
/// [`vcad_rmi::CallFrame`]), the serving object passes
/// [`ServerCtx::tenant`] along and the ledger attributes the fee to that
/// tenant as well as to the global totals. Anonymous (v1) calls land in
/// the global totals only.
#[derive(Debug)]
pub struct ServerLedger {
    /// `(charge count, total cents)`: a running fold, so a long-lived
    /// provider's ledger does not grow with the calls it has served.
    totals: Mutex<(usize, f64)>,
    tenant_totals: Mutex<std::collections::BTreeMap<String, (u64, f64)>>,
    obs: Collector,
}

impl Default for ServerLedger {
    fn default() -> ServerLedger {
        ServerLedger::with_collector(Collector::default())
    }
}

impl ServerLedger {
    /// Creates an empty ledger.
    #[must_use]
    pub fn new() -> ServerLedger {
        ServerLedger::default()
    }

    /// Creates a ledger that also mirrors every charge into `obs`
    /// (`ip.fees_cents`, `ip.charges`, plus a trace event per charge).
    #[must_use]
    pub fn with_collector(obs: Collector) -> ServerLedger {
        ServerLedger {
            // `-0.0` is what summing no `f64`s yields: the empty ledger
            // reads as it did when the total was a sum over entries.
            totals: Mutex::new((0, -0.0)),
            tenant_totals: Mutex::new(std::collections::BTreeMap::new()),
            obs,
        }
    }

    /// Records a fee, in cents; `what` labels the `charge:*` span and is
    /// formatted only when the collector records.
    ///
    /// With a `tenant` (the paying call's [`ServerCtx::tenant`]), the fee
    /// is additionally attributed to that tenant's ledger and mirrored as
    /// `tenant.<id>.fees_cents`.
    pub fn charge(&self, tenant: Option<&str>, what: impl std::fmt::Display, cents: f64) {
        if cents > 0.0 {
            let m = self.obs.metrics();
            m.float_counter("ip.fees_cents").add(cents);
            m.counter("ip.charges").inc();
            if let Some(tenant) = tenant {
                m.float_counter(&format!("tenant.{tenant}.fees_cents"))
                    .add(cents);
                let mut totals = self.tenant_totals.lock().unwrap();
                let slot = totals.entry(tenant.to_owned()).or_insert((0, 0.0));
                slot.0 += 1;
                slot.1 += cents;
            }
            // A traced *span* (not an instant event): the analyzer's
            // per-RPC breakdown attributes `charge:*` span time to the
            // fee-ledger bucket, parented under the ambient dispatch span.
            let name = self.obs.is_enabled().then(|| format!("charge:{what}"));
            let mut span = self.obs.traced_span("ip", name.unwrap_or_default());
            span.arg("cents", cents);
            let mut totals = self.totals.lock().unwrap();
            totals.0 += 1;
            totals.1 += cents;
        }
    }

    /// The collector charges are mirrored into (shared with the
    /// provider's estimator spans).
    #[must_use]
    pub fn collector(&self) -> &Collector {
        &self.obs
    }

    /// Total charged so far, in cents.
    #[must_use]
    pub fn total_cents(&self) -> f64 {
        self.totals.lock().unwrap().1
    }

    /// Number of chargeable calls recorded.
    #[must_use]
    pub fn entry_count(&self) -> usize {
        self.totals.lock().unwrap().0
    }

    /// Total charged to one tenant, in cents (0.0 if unknown).
    #[must_use]
    pub fn tenant_total_cents(&self, tenant: &str) -> f64 {
        self.tenant_totals
            .lock()
            .unwrap()
            .get(tenant)
            .map_or(0.0, |(_, c)| *c)
    }

    /// Per-tenant `(charge count, total cents)` in deterministic
    /// (lexicographic tenant id) order.
    #[must_use]
    pub fn tenant_totals(&self) -> Vec<(String, u64, f64)> {
        self.tenant_totals
            .lock()
            .unwrap()
            .iter()
            .map(|(t, (n, c))| (t.clone(), *n, *c))
            .collect()
    }
}

/// An IP provider's server: a catalog of offerings exported through the
/// distributed-object layer.
///
/// The server owns every IP-sensitive artefact — netlists, toggle power
/// engine, fault universes. Only derived, port-level data ever crosses
/// its dispatcher. See the [crate example](crate#examples).
pub struct ProviderServer {
    host: String,
    offerings: Arc<Mutex<Vec<ComponentOffering>>>,
    registry: Arc<ObjectRegistry>,
    dispatcher: Arc<Dispatcher>,
    ledger: Arc<ServerLedger>,
}

impl ProviderServer {
    /// Creates a provider identified by `host` (a display name; actual
    /// transports are attached separately).
    #[must_use]
    pub fn new(host: impl Into<String>) -> ProviderServer {
        ProviderServer::with_collector(host, Collector::disabled())
    }

    /// Creates a provider whose ledger, dispatcher and catalog all record
    /// into `obs`: per-method dispatch metrics, `ip.fees_cents`,
    /// `ip.instantiations` and negotiation outcome counters.
    #[must_use]
    pub fn with_collector(host: impl Into<String>, obs: Collector) -> ProviderServer {
        ProviderServer::build(host, obs, None)
    }

    /// Creates a provider whose dispatcher runs every call through
    /// `admission` first: rate-limited tenants are shed with a retryable
    /// `Overloaded` error, exhausted hard quotas with a permanent
    /// `QuotaExceeded` error, before any object code (or fee) runs.
    #[must_use]
    pub fn with_admission(
        host: impl Into<String>,
        obs: Collector,
        admission: Arc<AdmissionControl>,
    ) -> ProviderServer {
        ProviderServer::build(host, obs, Some(admission))
    }

    fn build(
        host: impl Into<String>,
        obs: Collector,
        admission: Option<Arc<AdmissionControl>>,
    ) -> ProviderServer {
        let offerings = Arc::new(Mutex::new(Vec::new()));
        let ledger = Arc::new(ServerLedger::with_collector(obs.clone()));
        let registry = Arc::new(ObjectRegistry::new());
        registry.register_root(Arc::new(CatalogObject {
            offerings: Arc::clone(&offerings),
            ledger: Arc::clone(&ledger),
            obs: obs.clone(),
        }));
        let mut dispatcher = Dispatcher::new(Arc::clone(&registry)).with_collector(obs);
        if let Some(admission) = admission {
            dispatcher = dispatcher.with_admission(admission);
        }
        ProviderServer {
            host: host.into(),
            offerings,
            registry,
            dispatcher: Arc::new(dispatcher),
            ledger,
        }
    }

    /// The provider's host name.
    #[must_use]
    pub fn host(&self) -> &str {
        &self.host
    }

    /// Publishes an offering in the catalog.
    pub fn offer(&self, offering: ComponentOffering) {
        self.offerings.lock().unwrap().push(offering);
    }

    /// The dispatcher to hang transports off (in-process, channel, TCP).
    #[must_use]
    pub fn dispatcher(&self) -> Arc<Dispatcher> {
        Arc::clone(&self.dispatcher)
    }

    /// The exported-object registry (diagnostics).
    #[must_use]
    pub fn registry(&self) -> &Arc<ObjectRegistry> {
        &self.registry
    }

    /// The fee ledger.
    #[must_use]
    pub fn ledger(&self) -> &Arc<ServerLedger> {
        &self.ledger
    }

    /// The admission controller, if this provider was built with one.
    #[must_use]
    pub fn admission(&self) -> Option<&Arc<AdmissionControl>> {
        self.dispatcher.admission()
    }

    /// Serves this provider over TCP through a connection-multiplexing
    /// [`MuxServer`]: one poll thread, a bounded worker pool, and typed
    /// shedding when the frame queue saturates.
    ///
    /// # Errors
    ///
    /// Returns [`RmiError::Transport`] if `addr` is unavailable.
    pub fn serve_mux(&self, addr: &str, config: MuxServerConfig) -> Result<MuxServer, RmiError> {
        MuxServer::bind_with_collector(addr, self.dispatcher(), config, self.ledger.collector())
    }
}

/// The root object: lists offerings and instantiates components.
struct CatalogObject {
    offerings: Arc<Mutex<Vec<ComponentOffering>>>,
    ledger: Arc<ServerLedger>,
    obs: Collector,
}

impl CatalogObject {
    fn offering(&self, name: &str) -> Result<ComponentOffering, RmiError> {
        let offerings = self.offerings.lock().unwrap();
        let offering = offerings.iter().find(|o| o.name() == name);
        offering
            .cloned()
            .ok_or_else(|| RmiError::application(format!("no offering named `{name}`")))
    }
}

impl RemoteObject for CatalogObject {
    fn invoke(&self, method: &str, args: &[Value], ctx: &ServerCtx) -> Result<Value, RmiError> {
        catalog::skeleton(self, "Catalog", method, args, ctx)
    }

    fn describe(&self) -> &str {
        "IP provider catalog"
    }
}

impl catalog::Provider for CatalogObject {
    fn list(&self, _: &ServerCtx) -> Result<Vec<OfferingInfo>, RmiError> {
        let offerings = self.offerings.lock().unwrap();
        let info = |o: &ComponentOffering| OfferingInfo {
            name: o.name().to_owned(),
            functional: o.models().functional.into(),
            power: o.models().power.into(),
            timing: o.models().timing.into(),
            area: o.models().area.into(),
            toggle_fee_cents: o.prices().toggle_power_per_pattern,
        };
        Ok(offerings.iter().map(info).collect())
    }

    fn instantiate(&self, ctx: &ServerCtx, name: String, width: i64) -> Result<ObjectId, RmiError> {
        if !(1..=32).contains(&width) {
            return Err(RmiError::bad_args(catalog::INSTANTIATE));
        }
        let offering = self.offering(&name)?;
        self.ledger.charge(
            ctx.tenant(),
            format_args!("instantiate {name}"),
            offering.prices().instantiation,
        );
        self.obs.metrics().counter("ip.instantiations").inc();
        let object = ComponentObject::new(offering, width as usize, Arc::clone(&self.ledger));
        Ok(ctx.export(Arc::new(object)))
    }

    fn bill(&self, _: &ServerCtx) -> Result<f64, RmiError> {
        Ok(self.ledger.total_cents())
    }

    fn negotiate(
        &self,
        _: &ServerCtx,
        name: String,
        requests: Vec<NegotiationRequest>,
    ) -> Result<Vec<NegotiationOutcome>, RmiError> {
        let advertised = advertised_estimators(&self.offering(&name)?.prices());
        let metrics = self.obs.metrics();
        let outcomes = requests.into_iter().map(|request| {
            let offer = resolve(
                &advertised,
                &request.parameter,
                request.max_fee_cents_per_pattern,
                request.max_error_pct,
            );
            let counter = match offer {
                Some(_) => "ip.negotiations.offered",
                None => "ip.negotiations.refused",
            };
            metrics.counter(counter).inc();
            NegotiationOutcome {
                parameter: request.parameter,
                offer,
            }
        });
        Ok(outcomes.collect())
    }
}

/// What the provider derives from one offering at one width, shared by
/// the clones of that offering (see [`ComponentOffering`]): the private
/// netlist, the four trained estimators and, from the first `FAULT_LIST`
/// or `DETECTION_TABLE` call on, the detection-table source. The
/// estimators hold no interior mutability, so sharing them changes no
/// answer; the source's table memo only skips re-simulating a table.
pub(crate) struct Characterisation {
    netlist: Arc<Netlist>,
    constant: ConstantPowerEstimator,
    regression: LinearRegressionPowerEstimator,
    toggle: TogglePowerEstimator,
    peak: PeakPowerEstimator,
    /// Built by the first call that needs it, so a component only
    /// evaluated functionally never collapses its faults.
    detection: OnceLock<NetlistDetectionSource>,
}

impl Characterisation {
    pub(crate) fn new(offering: &ComponentOffering, width: usize) -> Characterisation {
        let netlist = offering.instantiate(width);
        let model = PowerModel::default();
        // The provider's silicon characterisation: deterministic per
        // component name and width.
        let seed = offering.name().bytes().fold(width as u64, |h, b| {
            h.wrapping_mul(31).wrapping_add(u64::from(b))
        });
        let reference = SiliconReference::with_default_residual(model, seed);
        let training: Vec<LogicVec> = (0..64u64)
            .map(|i| {
                LogicVec::from_u64(
                    netlist.input_count(),
                    i.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(seed),
                )
            })
            .collect();
        let ports: Vec<usize> = (0..1).collect(); // snapshots arrive pre-concatenated
        let constant = ConstantPowerEstimator::characterize(&reference, &netlist, &training);
        let regression =
            LinearRegressionPowerEstimator::fit(&reference, &netlist, &training, ports.clone());
        let toggle = TogglePowerEstimator::new(Arc::clone(&netlist), model, ports.clone(), true);
        let peak = PeakPowerEstimator::new(Arc::clone(&netlist), model, ports, true);
        Characterisation {
            netlist,
            constant,
            regression,
            toggle,
            peak,
            detection: OnceLock::new(),
        }
    }

    fn detection(&self) -> &NetlistDetectionSource {
        self.detection
            .get_or_init(|| NetlistDetectionSource::new(Arc::clone(&self.netlist)))
    }
}

/// One instantiated component: the private part.
///
/// Holds everything the provider refuses to disclose and answers the
/// protocol methods with derived, port-level data only. Its own state is
/// per session (name, width, prices, ledger); the characterisation is
/// the offering's.
struct ComponentObject {
    name: String,
    public_behavior: String,
    width: usize,
    prices: crate::offering::PriceList,
    characterised: Arc<Characterisation>,
    ledger: Arc<ServerLedger>,
}

impl ComponentObject {
    fn new(
        offering: ComponentOffering,
        width: usize,
        ledger: Arc<ServerLedger>,
    ) -> ComponentObject {
        ComponentObject {
            name: offering.name().to_owned(),
            public_behavior: offering.public_behavior().to_owned(),
            width,
            prices: offering.prices(),
            characterised: offering.characterise(width),
            ledger,
        }
    }

    /// Charges `cents` for one `method` call and opens its
    /// `estimate:{method}` span.
    fn charge(&self, ctx: &ServerCtx, method: &str, cents: f64) -> TracedSpan {
        let what = format_args!("{} {method}", self.name);
        self.ledger.charge(ctx.tenant(), what, cents);
        let span = format!("estimate:{method}");
        self.ledger.collector().traced_span("ip", span)
    }

    /// Checks a buffered pattern sequence — at least two patterns, each
    /// as wide as the inputs — and charges its transitions; `what` names
    /// the estimate in the error.
    fn charge_transitions(
        &self,
        ctx: &ServerCtx,
        method: &str,
        what: &str,
        patterns: &[LogicVec],
    ) -> Result<TracedSpan, RmiError> {
        if patterns.len() < 2 {
            return Err(RmiError::application(format!(
                "{what} needs at least two patterns"
            )));
        }
        if patterns.iter().any(|p| p.width() != self.input_width()) {
            return Err(RmiError::application("pattern width mismatch"));
        }
        let fee = self.prices.toggle_power_per_pattern * (patterns.len() - 1) as f64;
        let mut span = self.charge(ctx, method, fee);
        span.arg("patterns", patterns.len());
        Ok(span)
    }

    /// Checks one input configuration's width.
    fn check_inputs(&self, inputs: &LogicVec) -> Result<(), RmiError> {
        if inputs.width() == self.input_width() {
            Ok(())
        } else {
            Err(RmiError::application("input width mismatch"))
        }
    }

    fn input_width(&self) -> usize {
        self.characterised.netlist.input_count()
    }
}

impl RemoteObject for ComponentObject {
    fn invoke(&self, method: &str, args: &[Value], ctx: &ServerCtx) -> Result<Value, RmiError> {
        component::skeleton(self, &self.name, method, args, ctx)
    }

    fn describe(&self) -> &str {
        "IP component instance"
    }
}

impl component::Provider for ComponentObject {
    fn describe(&self, _: &ServerCtx) -> Result<Description, RmiError> {
        Ok(Description {
            name: self.name.clone(),
            width: self.width as i64,
            public_behavior: self.public_behavior.clone(),
        })
    }

    fn area(&self, _: &ServerCtx) -> Result<f64, RmiError> {
        Ok(self.characterised.netlist.stats().area)
    }

    fn delay(&self, _: &ServerCtx) -> Result<f64, RmiError> {
        Ok(self.characterised.netlist.critical_path_delay())
    }

    fn power_constant(&self, _: &ServerCtx) -> Result<f64, RmiError> {
        Ok(self.characterised.constant.mean_power_w())
    }

    fn power_regression(&self, _: &ServerCtx) -> Result<(f64, f64), RmiError> {
        Ok(self.characterised.regression.coefficients())
    }

    fn power_toggle(&self, ctx: &ServerCtx, patterns: Vec<LogicVec>) -> Result<f64, RmiError> {
        let _span =
            self.charge_transitions(ctx, component::POWER_TOGGLE, "toggle power", &patterns)?;
        let toggle = &self.characterised.toggle;
        let total: f64 = patterns
            .windows(2)
            .map(|w| toggle.predict_transition(&w[0], &w[1]))
            .sum();
        Ok(total / (patterns.len() - 1) as f64)
    }

    fn power_peak(&self, ctx: &ServerCtx, patterns: Vec<LogicVec>) -> Result<f64, RmiError> {
        let _span = self.charge_transitions(ctx, component::POWER_PEAK, "peak power", &patterns)?;
        // Reuse the estimator over a synthetic snapshot buffer: one
        // single-port snapshot per pattern, matching the estimator's
        // pre-concatenated input convention.
        let snapshots = patterns.into_iter().enumerate().map(|(i, p)| PortSnapshot {
            time: SimTime::new(i as u64),
            ports: vec![p],
        });
        let input = EstimationInput::new(snapshots.collect());
        let peak = self.characterised.peak.estimate(&input);
        f64::from_value(peak.map_err(|e| RmiError::application(e.to_string()))?)
    }

    fn functional_eval(&self, ctx: &ServerCtx, inputs: LogicVec) -> Result<LogicVec, RmiError> {
        self.check_inputs(&inputs)?;
        let _span = self.charge(ctx, component::FUNCTIONAL_EVAL, self.prices.functional_eval);
        Ok(vcad_netlist::Evaluator::new(&self.characterised.netlist).outputs(&inputs))
    }

    fn fault_list(&self, _: &ServerCtx) -> Result<Vec<SymbolicFault>, RmiError> {
        Ok(self.characterised.detection().fault_list())
    }

    fn detection_table(
        &self,
        ctx: &ServerCtx,
        inputs: LogicVec,
    ) -> Result<DetectionTable, RmiError> {
        self.check_inputs(&inputs)?;
        let _span = self.charge(ctx, component::DETECTION_TABLE, self.prices.detection_table);
        let detection = self.characterised.detection();
        let table = detection.detection_table(&inputs);
        table.map_err(|e| RmiError::application(e.to_string()))
    }

    fn release(&self, ctx: &ServerCtx) -> Result<(), RmiError> {
        ctx.withdraw_self();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcad_rmi::{Client, InProcTransport, Transport};

    fn rig() -> (ProviderServer, Client) {
        let server = ProviderServer::new("p.example.com");
        server.offer(ComponentOffering::fast_low_power_multiplier());
        server.offer(ComponentOffering::baseline_multiplier());
        let transport: Arc<dyn Transport> = Arc::new(InProcTransport::new(server.dispatcher()));
        let client = Client::new(transport);
        (server, client)
    }

    #[test]
    fn catalog_lists_offerings() {
        let (_server, client) = rig();
        let list = client.root().invoke(catalog::LIST, vec![]).unwrap();
        let items = list.as_list().unwrap();
        assert_eq!(items.len(), 2);
        assert_eq!(
            items[0].get("name").and_then(Value::as_str),
            Some("MultFastLowPower")
        );
        assert_eq!(items[0].get("power").and_then(Value::as_i64), Some(2));
    }

    #[test]
    fn instantiate_and_query_component() {
        let (_server, client) = rig();
        let comp = client
            .root()
            .invoke_object(
                catalog::INSTANTIATE,
                vec![Value::Str("MultFastLowPower".into()), Value::I64(4)],
            )
            .unwrap();
        let desc = comp.invoke(component::DESCRIBE, vec![]).unwrap();
        assert_eq!(desc.get("width").and_then(Value::as_i64), Some(4));
        let area = comp
            .invoke(component::AREA, vec![])
            .unwrap()
            .as_f64()
            .unwrap();
        assert!(area > 0.0);
        let delay = comp
            .invoke(component::DELAY, vec![])
            .unwrap()
            .as_f64()
            .unwrap();
        assert!(delay > 0.0);
    }

    #[test]
    fn functional_eval_multiplies() {
        let (_server, client) = rig();
        let comp = client
            .root()
            .invoke_object(
                catalog::INSTANTIATE,
                vec![Value::Str("MultFastLowPower".into()), Value::I64(4)],
            )
            .unwrap();
        // a=7, b=5 concatenated LSB-first.
        let inputs = LogicVec::from_u64(8, 5 << 4 | 7);
        let out = comp
            .invoke(component::FUNCTIONAL_EVAL, vec![Value::Vec(inputs)])
            .unwrap();
        assert_eq!(out.as_logic_vec().unwrap().to_word().unwrap().value(), 35);
    }

    #[test]
    fn toggle_power_charges_per_pattern() {
        let (server, client) = rig();
        let comp = client
            .root()
            .invoke_object(
                catalog::INSTANTIATE,
                vec![Value::Str("MultFastLowPower".into()), Value::I64(4)],
            )
            .unwrap();
        let patterns: Vec<LogicVec> = (0..10u64).map(|i| LogicVec::from_u64(8, i * 11)).collect();
        let power = comp
            .invoke(component::POWER_TOGGLE, vec![patterns.clone().into_value()])
            .unwrap()
            .as_f64()
            .unwrap();
        assert!(power > 0.0);
        // 10 patterns make 9 transitions at 0.1¢ each.
        assert!((server.ledger().total_cents() - 0.9).abs() < 1e-9);
        let bill = client.root().invoke(catalog::BILL, vec![]).unwrap();
        assert_eq!(bill.as_f64(), Some(server.ledger().total_cents()));
    }

    #[test]
    fn bad_requests_are_application_errors() {
        let (_server, client) = rig();
        let err = client
            .root()
            .invoke_object(
                catalog::INSTANTIATE,
                vec![Value::Str("Nonexistent".into()), Value::I64(4)],
            )
            .unwrap_err();
        assert!(err.to_string().contains("no offering"));
        let err = client
            .root()
            .invoke(
                catalog::INSTANTIATE,
                vec![Value::Str("MultFastLowPower".into())],
            )
            .unwrap_err();
        assert!(err.to_string().contains("bad arguments"));
        // Width out of bounds.
        let err = client
            .root()
            .invoke(
                catalog::INSTANTIATE,
                vec![Value::Str("MultFastLowPower".into()), Value::I64(1000)],
            )
            .unwrap_err();
        assert!(err.to_string().contains("bad arguments"));
    }

    #[test]
    fn provider_collector_mirrors_fees_and_instantiations() {
        let obs = Collector::enabled();
        let server = ProviderServer::with_collector("p.example.com", obs.clone());
        server.offer(ComponentOffering::fast_low_power_multiplier());
        let transport: Arc<dyn Transport> = Arc::new(InProcTransport::new(server.dispatcher()));
        let client = Client::new(transport);
        let comp = client
            .root()
            .invoke_object(
                catalog::INSTANTIATE,
                vec![Value::Str("MultFastLowPower".into()), Value::I64(4)],
            )
            .unwrap();
        let patterns: Vec<LogicVec> = (0..5u64).map(|i| LogicVec::from_u64(8, i * 7)).collect();
        let _ = comp
            .invoke(component::POWER_TOGGLE, vec![patterns.clone().into_value()])
            .unwrap();
        let snap = obs.metrics().snapshot();
        assert_eq!(snap.counters["ip.instantiations"], 1);
        assert!(snap.counters["ip.charges"] >= 1);
        let fees = snap.float_counters["ip.fees_cents"];
        assert!(
            (fees - server.ledger().total_cents()).abs() < 1e-9,
            "{fees}"
        );
        // Dispatch metrics ride along on the same collector.
        assert!(snap.counters["rmi.dispatch.calls"] >= 2);
        assert!(snap
            .counters
            .contains_key(&format!("rmi.method.{}.calls", component::POWER_TOGGLE)));
    }

    #[test]
    fn frame_tenant_is_charged_through_the_call_context() {
        use vcad_rmi::{CallFrame, Frame};
        let (server, client) = rig();
        let comp = client
            .root()
            .invoke_object(
                catalog::INSTANTIATE,
                vec![Value::Str("MultFastLowPower".into()), Value::I64(4)],
            )
            .unwrap();
        let dispatcher = server.dispatcher();
        let eval = |tenant: Option<&str>| {
            let call = Frame::Call(CallFrame {
                call_id: 1,
                object: comp.id(),
                method: component::FUNCTIONAL_EVAL.into(),
                args: vec![Value::Vec(LogicVec::from_u64(8, 0x35))],
                context: None,
                tenant: tenant.map(str::to_owned),
            });
            match Frame::decode(&dispatcher.handle_bytes(&call.encode())).unwrap() {
                Frame::Response(r) => assert!(r.result.is_ok(), "{:?}", r.result),
                Frame::Call(_) => panic!("expected response"),
            }
        };
        // A v3 (tenant-stamped) frame: the fee lands on that tenant.
        eval(Some("acme"));
        let fee = server.ledger().total_cents();
        assert!(fee > 0.0);
        assert_eq!(
            server.ledger().tenant_totals(),
            [("acme".to_owned(), 1, fee)]
        );
        // A v1 frame served next on the same thread pays no tenant's bill.
        eval(None);
        assert_eq!(server.ledger().entry_count(), 2);
        assert_eq!(
            server.ledger().tenant_totals(),
            [("acme".to_owned(), 1, fee)]
        );
    }

    /// The ledger keeps running totals, not entries: after 100 000
    /// charges every reading must equal the left-to-right fold an entry
    /// list would have summed to, bit for bit — the empty ledger
    /// included (`-0.0`, what summing no `f64`s yields).
    #[test]
    fn running_totals_equal_a_fold_over_every_charge() {
        let ledger = ServerLedger::new();
        let none: [f64; 0] = [];
        assert_eq!(
            ledger.total_cents().to_bits(),
            none.iter().sum::<f64>().to_bits()
        );
        assert_eq!(ledger.entry_count(), 0);

        let tenants = [Some("acme"), None, Some("globex"), Some("acme")];
        let mut charged = Vec::new();
        let mut by_tenant = std::collections::BTreeMap::<&str, (u64, f64)>::new();
        for i in 0..100_000u32 {
            // Fees that do not sum exactly in binary, and some free calls.
            let cents = f64::from(i % 7) * 0.1 + f64::from(i % 3) * 0.01;
            let tenant = tenants[i as usize % tenants.len()];
            ledger.charge(tenant, format_args!("call {i}"), cents);
            if cents > 0.0 {
                charged.push(cents);
                if let Some(t) = tenant {
                    let slot = by_tenant.entry(t).or_insert((0, 0.0));
                    slot.0 += 1;
                    slot.1 += cents;
                }
            }
        }
        assert_eq!(ledger.entry_count(), charged.len());
        assert_eq!(
            ledger.total_cents().to_bits(),
            charged.iter().sum::<f64>().to_bits()
        );
        let expect: Vec<(String, u64, f64)> = by_tenant
            .into_iter()
            .map(|(t, (n, c))| (t.to_owned(), n, c))
            .collect();
        assert_eq!(ledger.tenant_totals(), expect);
        assert_eq!(
            ledger.tenant_total_cents("acme").to_bits(),
            expect[0].2.to_bits()
        );
    }

    #[test]
    fn detection_protocol_round_trips() {
        let (_server, client) = rig();
        let comp = client
            .root()
            .invoke_object(
                catalog::INSTANTIATE,
                vec![Value::Str("MultFastLowPower".into()), Value::I64(2)],
            )
            .unwrap();
        let list = comp.invoke(component::FAULT_LIST, vec![]).unwrap();
        assert!(!list.as_list().unwrap().is_empty());
        let table_value = comp
            .invoke(
                component::DETECTION_TABLE,
                vec![Value::Vec(LogicVec::from_u64(4, 0b0110))],
            )
            .unwrap();
        let table = DetectionTable::from_value(&table_value).unwrap();
        assert_eq!(table.inputs().to_word().unwrap().value(), 0b0110);
    }

    #[test]
    fn detection_source_is_built_on_first_use_only() {
        let object = ComponentObject::new(
            ComponentOffering::fast_low_power_multiplier(),
            4,
            Arc::new(ServerLedger::new()),
        );
        let part = &object.characterised;
        // Instantiation (all a functional_eval provider needs) collapses
        // no faults.
        assert!(part.detection.get().is_none());
        let first: *const NetlistDetectionSource = part.detection();
        assert!(std::ptr::eq(first, part.detection()), "built once");
        assert_eq!(
            part.detection().universe().class_count(),
            vcad_faults::FaultUniverse::collapsed(&part.netlist).class_count()
        );
    }

    #[test]
    fn clones_of_an_offering_share_one_characterisation_per_width() {
        let offering = ComponentOffering::fast_low_power_multiplier();
        let object = |offering: &ComponentOffering, width| {
            ComponentObject::new(offering.clone(), width, Arc::new(ServerLedger::new()))
                .characterised
        };
        let four = object(&offering, 4);
        assert!(Arc::ptr_eq(&four, &object(&offering.clone(), 4)));
        assert!(!Arc::ptr_eq(&four, &object(&offering, 5)), "one per width");
        let unrelated = ComponentOffering::fast_low_power_multiplier();
        assert!(!Arc::ptr_eq(&four, &object(&unrelated, 4)), "clones only");
    }

    /// Two servers offer clones of one offering; a third offers its own.
    /// The clones' sessions share one detection source (which simulates
    /// each input once, see `vcad-faults`), yet every reply is byte for
    /// byte the unshared provider's and every call is charged.
    #[test]
    fn a_shared_characterisation_is_invisible_on_the_wire_and_in_fees() {
        let offering = ComponentOffering::fast_low_power_multiplier();
        let replies = |offered: ComponentOffering| {
            let server = ProviderServer::new("p.example.com");
            server.offer(offered);
            let transport: Arc<dyn Transport> = Arc::new(InProcTransport::new(server.dispatcher()));
            let comp = Client::new(transport)
                .root()
                .invoke_object(
                    catalog::INSTANTIATE,
                    vec![Value::Str("MultFastLowPower".into()), Value::I64(4)],
                )
                .unwrap();
            let stream: Vec<Vec<u8>> = (0..32u64)
                .map(|p| {
                    let inputs = Value::Vec(LogicVec::from_u64(8, p * 37 % 256));
                    let reply = comp.invoke(component::DETECTION_TABLE, vec![inputs]);
                    reply.unwrap().encode()
                })
                .collect();
            (stream, server)
        };
        let first = replies(offering.clone());
        let second = replies(offering.clone());
        let unshared = replies(ComponentOffering::fast_low_power_multiplier());
        // The offering's map, both live components and this handle.
        let shared = offering.characterise(4);
        assert_eq!(Arc::strong_count(&shared), 4, "one characterisation");
        assert!(shared.detection.get().is_some());
        assert_eq!(first.0, unshared.0);
        assert_eq!(second.0, unshared.0);
        let fees = 32.0 * crate::offering::PriceList::default().detection_table;
        for (_, server) in [first, second, unshared] {
            assert_eq!(server.ledger().entry_count(), 32, "every call charged");
            assert!((server.ledger().total_cents() - fees).abs() < 1e-9);
        }
    }
}
