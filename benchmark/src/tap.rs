//! Benchmark-owned implementations of the product's public traits,
//! wrapped around the product's own: this is how every layer is measured
//! from outside.
//!
//! * [`Tap`] — a [`Transport`] decorator: one `u32` duration per call
//!   always; request/response capture and a span per call when armed.
//! * [`ReplayTransport`] — a [`Transport`] that answers from a capture,
//!   so a stub can be driven with no provider behind it.
//! * [`TimedModule`] / [`TimedSource`] — delegating [`Module`] and
//!   [`DetectionTableSource`] wrappers that time the calls the scheduler
//!   and the fault simulator make into a block.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use vcad_core::{Estimator, Module, ModuleCtx, PortSpec};
use vcad_faults::{DetectionTable, DetectionTableSource, SymbolicFault, VirtualSimError};
use vcad_logic::LogicVec;
use vcad_rmi::{RmiError, Transport, TransportStats, Value};

use crate::trace::TraceCtx;

/// Durations saturate here (4.29 s): longer than any socket budget the
/// workloads configure, so a saturated sample is already a failure.
fn ns_u32(started: Instant) -> u32 {
    u32::try_from(started.elapsed().as_nanos()).unwrap_or(u32::MAX)
}

/// One captured round trip.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Exchange {
    pub request: Vec<u8>,
    pub response: Vec<u8>,
}

/// A timing (and, when armed, capturing and tracing) transport decorator.
pub struct Tap {
    inner: Arc<dyn Transport>,
    span_name: &'static str,
    durations: Mutex<Vec<u32>>,
    errors: AtomicU64,
    armed: AtomicBool,
    captured: Mutex<Vec<Exchange>>,
    trace: Option<Arc<TraceCtx>>,
}

impl Tap {
    /// Wraps `inner`, with room for `capacity` samples before the vector
    /// has to grow inside a timed window.
    pub fn new(inner: Arc<dyn Transport>, capacity: usize) -> Tap {
        Tap {
            inner,
            span_name: "rpc",
            durations: Mutex::new(Vec::with_capacity(capacity)),
            errors: AtomicU64::new(0),
            armed: AtomicBool::new(false),
            captured: Mutex::new(Vec::new()),
            trace: None,
        }
    }

    /// Records one `span_name` span per call into `trace` while armed.
    pub fn traced(mut self, span_name: &'static str, trace: Arc<TraceCtx>) -> Tap {
        self.span_name = span_name;
        self.trace = Some(trace);
        self
    }

    /// Starts (or stops) capturing bytes and recording spans. Unarmed,
    /// a call costs two clock reads and one uncontended lock.
    pub fn arm(&self, on: bool) {
        self.armed.store(on, Ordering::Relaxed);
    }

    /// How many calls have been timed so far — a mark to slice
    /// [`Tap::durations_since`] with, so warm-up stays out of a window.
    pub fn mark(&self) -> usize {
        self.durations.lock().expect("tap lock").len()
    }

    /// Per-call durations (ns) recorded after `mark`.
    pub fn durations_since(&self, mark: usize) -> Vec<u32> {
        self.durations.lock().expect("tap lock")[mark..].to_vec()
    }

    /// Calls that returned `Err` to the layer above.
    pub fn errors(&self) -> u64 {
        self.errors.load(Ordering::Relaxed)
    }

    /// How many exchanges have been captured so far.
    pub fn captured_len(&self) -> usize {
        self.captured.lock().expect("tap lock").len()
    }

    /// Everything captured while armed, in call order.
    pub fn captured(&self) -> Vec<Exchange> {
        self.captured.lock().expect("tap lock").clone()
    }
}

impl Transport for Tap {
    fn call(&self, request: &[u8]) -> Result<Vec<u8>, RmiError> {
        let armed = self.armed.load(Ordering::Relaxed);
        let scope = match (&self.trace, armed) {
            (Some(trace), true) => Some((trace, trace.enter(self.span_name))),
            _ => None,
        };
        let started = Instant::now();
        let result = self.inner.call(request);
        let ns = ns_u32(started);
        if let Some((trace, scope)) = scope {
            trace.exit(scope);
        }
        self.durations.lock().expect("tap lock").push(ns);
        match &result {
            Ok(response) if armed => self.captured.lock().expect("tap lock").push(Exchange {
                request: request.to_vec(),
                response: response.clone(),
            }),
            Ok(_) => {}
            Err(_) => {
                self.errors.fetch_add(1, Ordering::Relaxed);
            }
        }
        result
    }

    fn stats(&self) -> TransportStats {
        self.inner.stats()
    }
}

/// Answers call `i` with the `i`-th captured response, checking that the
/// request is byte-identical to the captured one. With this under a
/// stub, `RemoteRef::invoke` does client marshalling and unmarshalling
/// and nothing else.
pub struct ReplayTransport {
    exchanges: Vec<Exchange>,
    next: AtomicUsize,
    mismatches: AtomicU64,
}

impl ReplayTransport {
    pub fn new(exchanges: Vec<Exchange>) -> ReplayTransport {
        ReplayTransport {
            exchanges,
            next: AtomicUsize::new(0),
            mismatches: AtomicU64::new(0),
        }
    }

    /// Requests that differed from the capture (or ran past its end).
    pub fn mismatches(&self) -> u64 {
        self.mismatches.load(Ordering::Relaxed)
    }
}

impl Transport for ReplayTransport {
    fn call(&self, request: &[u8]) -> Result<Vec<u8>, RmiError> {
        let index = self.next.fetch_add(1, Ordering::Relaxed);
        match self.exchanges.get(index) {
            Some(exchange) => {
                if exchange.request != request {
                    self.mismatches.fetch_add(1, Ordering::Relaxed);
                }
                Ok(exchange.response.clone())
            }
            None => {
                self.mismatches.fetch_add(1, Ordering::Relaxed);
                Err(RmiError::Transport("replay ran past the capture".into()))
            }
        }
    }

    fn stats(&self) -> TransportStats {
        TransportStats::default()
    }
}

/// Sum and count of timed calls into a wrapped block.
#[derive(Default)]
pub struct CallClock {
    total_ns: AtomicU64,
    calls: AtomicU64,
}

impl CallClock {
    fn record(&self, started: Instant) {
        self.total_ns
            .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
    }

    /// `(total ns, calls)` so far.
    pub fn read(&self) -> (u64, u64) {
        (
            self.total_ns.load(Ordering::Relaxed),
            self.calls.load(Ordering::Relaxed),
        )
    }
}

/// Delegates every [`Module`] method to `inner`, timing `on_signal` —
/// the call in which a gate-level or remote block does its work.
pub struct TimedModule {
    inner: Arc<dyn Module>,
    span_name: &'static str,
    clock: Arc<CallClock>,
    trace: Option<Arc<TraceCtx>>,
}

impl TimedModule {
    pub fn new(
        inner: Arc<dyn Module>,
        span_name: &'static str,
        clock: Arc<CallClock>,
        trace: Option<Arc<TraceCtx>>,
    ) -> TimedModule {
        TimedModule {
            inner,
            span_name,
            clock,
            trace,
        }
    }
}

impl Module for TimedModule {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn ports(&self) -> &[PortSpec] {
        self.inner.ports()
    }

    fn init(&self, ctx: &mut ModuleCtx<'_>) {
        self.inner.init(ctx);
    }

    fn on_signal(&self, ctx: &mut ModuleCtx<'_>, port: usize, value: &LogicVec) {
        let scope = self.trace.as_ref().map(|t| (t, t.enter(self.span_name)));
        let started = Instant::now();
        self.inner.on_signal(ctx, port, value);
        self.clock.record(started);
        if let Some((trace, scope)) = scope {
            trace.exit(scope);
        }
    }

    fn on_self_trigger(&self, ctx: &mut ModuleCtx<'_>, tag: u64) {
        self.inner.on_self_trigger(ctx, tag);
    }

    fn on_control(&self, ctx: &mut ModuleCtx<'_>, message: &Value) {
        self.inner.on_control(ctx, message);
    }

    fn estimators(&self) -> Vec<Arc<dyn Estimator>> {
        self.inner.estimators()
    }

    fn combinational_deps(&self) -> Vec<(usize, usize)> {
        self.inner.combinational_deps()
    }

    /// The wrapped block's twin, wrapped the same way: when a run selects
    /// the compiled engine, the traced run must time the evaluator the
    /// untraced run used, not the one it was built with.
    fn compiled_twin(&self) -> Option<Arc<dyn Module>> {
        let twin = self.inner.compiled_twin()?;
        Some(Arc::new(TimedModule::new(
            twin,
            self.span_name,
            Arc::clone(&self.clock),
            self.trace.clone(),
        )))
    }
}

/// Delegates to `inner`, timing `detection_table` — the call in which
/// the fault simulator waits for the provider.
pub struct TimedSource {
    inner: Arc<dyn DetectionTableSource>,
    clock: Arc<CallClock>,
    trace: Option<Arc<TraceCtx>>,
}

impl TimedSource {
    pub fn new(
        inner: Arc<dyn DetectionTableSource>,
        clock: Arc<CallClock>,
        trace: Option<Arc<TraceCtx>>,
    ) -> TimedSource {
        TimedSource {
            inner,
            clock,
            trace,
        }
    }
}

impl DetectionTableSource for TimedSource {
    fn fault_list(&self) -> Vec<SymbolicFault> {
        self.inner.fault_list()
    }

    fn detection_table(&self, inputs: &LogicVec) -> Result<DetectionTable, VirtualSimError> {
        let scope = self.trace.as_ref().map(|t| (t, t.enter("faults.source")));
        let started = Instant::now();
        let table = self.inner.detection_table(inputs);
        self.clock.record(started);
        if let Some((trace, scope)) = scope {
            trace.exit(scope);
        }
        table
    }

    fn untestable_count(&self) -> usize {
        self.inner.untestable_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::{add_pipeline, check_products};
    use vcad_core::stdlib::NetlistBusBlock;
    use vcad_core::{DesignBuilder, SimulationController};
    use vcad_engine::EngineKind;
    use vcad_netlist::generators;

    #[test]
    fn a_timed_block_offers_its_twin_timed_on_the_same_clock() {
        let block: Arc<dyn Module> = Arc::new(NetlistBusBlock::new(
            "MULT0",
            Arc::new(generators::wallace_multiplier(4)),
            &[("a", 4), ("b", 4)],
            &[("p", 8)],
        ));
        let clock = Arc::new(CallClock::default());
        let timed = Arc::new(TimedModule::new(block, "block", Arc::clone(&clock), None));
        let twin = timed.compiled_twin().expect("the wrapped block compiles");
        assert!(twin.compiled_twin().is_none(), "a twin is already compiled");

        // A run on the compiled engine swaps the twin in; its calls must
        // land on the clock the traced run reads.
        let (a, b) = ([3, 7, 15, 0, 9], [5, 7, 15, 8, 1]);
        let mut builder = DesignBuilder::new("twin");
        let out = add_pipeline(&mut builder, 0, 4, &a, &b, timed);
        let design = Arc::new(builder.build().unwrap());
        let run = SimulationController::new(design)
            .with_engine(EngineKind::Compiled)
            .run()
            .unwrap();
        check_products(&run, out, &a, &b).unwrap();
        let (ns, calls) = clock.read();
        assert!(calls >= a.len() as u64 && ns > 0, "{calls} calls, {ns} ns");
    }
}
