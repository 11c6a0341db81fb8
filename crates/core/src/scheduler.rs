//! The event-driven scheduler with per-scheduler state isolation: one
//! shard's event loop under [`SimEngine`](crate::SimEngine).

use std::any::Any;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::error::Error;
use std::fmt;
use std::sync::Arc;

use vcad_logic::LogicVec;
use vcad_obs::{Collector, Counter, Gauge};

use crate::design::{Design, ModuleId, PortRef};
use crate::estimate::PortSnapshot;
use crate::module::{Action, Module, ModuleCtx};
use crate::time::SimTime;
use crate::token::TokenPayload;

/// Simulation failures.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimulationError {
    /// More events than the configured limit were processed — almost
    /// always a zero-delay combinational loop.
    EventLimitExceeded {
        /// The configured limit.
        limit: u64,
    },
    /// An externally injected token or preload referenced a module or
    /// port that does not exist, or carried a value of the wrong width.
    ///
    /// Reported at the injection site — before the token enters the
    /// queue — so the diagnostic points at the malformed reference
    /// rather than at a later dispatch. `vcad-lint` catches the same
    /// class of defect before any scheduler exists.
    MalformedInjection {
        /// What was wrong, with the offending reference.
        reason: String,
    },
    /// A [`ShardPolicy::Manual`](crate::ShardPolicy::Manual) assignment
    /// did not describe a valid partition of the design.
    InvalidShardPlan {
        /// What was wrong with the assignment.
        reason: String,
    },
}

impl fmt::Display for SimulationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimulationError::EventLimitExceeded { limit } => {
                write!(f, "event limit of {limit} exceeded (zero-delay loop?)")
            }
            SimulationError::MalformedInjection { reason } => {
                write!(f, "malformed injection: {reason}")
            }
            SimulationError::InvalidShardPlan { reason } => {
                write!(f, "invalid shard plan: {reason}")
            }
        }
    }
}

impl Error for SimulationError {}

/// The per-scheduler module state table — the paper's scheduler-addressed
/// lookup tables (LUTs).
///
/// Each module owns at most one state slot per scheduler, created lazily by
/// [`ModuleCtx::state`]. The store can outlive its scheduler so results can
/// be extracted after a run (see
/// [`SimRun::module_state`](crate::SimRun::module_state)).
#[derive(Default)]
pub struct StateStore {
    slots: Vec<Option<Box<dyn Any + Send>>>,
}

impl StateStore {
    pub(crate) fn from_slots(slots: Vec<Option<Box<dyn Any + Send>>>) -> StateStore {
        StateStore { slots }
    }

    pub(crate) fn into_slots(self) -> Vec<Option<Box<dyn Any + Send>>> {
        self.slots
    }

    /// Immutable access to a module's state, if it has the given type.
    #[must_use]
    pub fn get<T: 'static>(&self, module: ModuleId) -> Option<&T> {
        self.slots
            .get(module.index())?
            .as_ref()?
            .downcast_ref::<T>()
    }

    /// Number of modules that have created state.
    #[must_use]
    pub fn occupied(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }
}

/// Pre-resolved metric handles for an instrumented scheduler.
///
/// Kept behind an `Option<Box<…>>` so the common case — the virtual fault
/// simulator creating thousands of short-lived schedulers — pays nothing:
/// `Scheduler::new` allocates no telemetry and `dispatch` checks one
/// `Option`.
struct SchedTelemetry {
    obs: Collector,
    instants: Counter,
    events_dispatched: Counter,
    tokens_signal: Counter,
    tokens_self_trigger: Counter,
    tokens_control: Counter,
    queue_depth: Gauge,
    /// Per-module activation counters, indexed by module index.
    activations: Vec<Counter>,
}

impl SchedTelemetry {
    fn new(obs: &Collector, design: &Design) -> SchedTelemetry {
        let m = obs.metrics();
        SchedTelemetry {
            obs: obs.clone(),
            instants: m.counter("scheduler.instants"),
            events_dispatched: m.counter("scheduler.events_dispatched"),
            tokens_signal: m.counter("scheduler.tokens.signal"),
            tokens_self_trigger: m.counter("scheduler.tokens.self_trigger"),
            tokens_control: m.counter("scheduler.tokens.control"),
            queue_depth: m.gauge("scheduler.queue_depth"),
            activations: design
                .modules()
                .map(|(_, module)| {
                    m.counter(&format!("scheduler.module.{}.activations", module.name()))
                })
                .collect(),
        }
    }
}

/// One dispatched event, as recorded by the optional event log.
///
/// Event logs are the currency of the differential shard tests: a sharded
/// run and a sequential run over the same design must produce identical
/// logs once both are put into [canonical order](canonicalize_event_log).
#[derive(Clone, Debug, PartialEq)]
pub struct LoggedEvent {
    /// The instant at which the token was dispatched.
    pub time: SimTime,
    /// The module that received it.
    pub target: ModuleId,
    /// The token itself.
    pub payload: TokenPayload,
}

/// Stable-sorts an event log by `(time, target module)`.
///
/// Within one `(instant, module)` pair both the sequential scheduler and
/// every shard preserve enqueue order, so canonical order is a total,
/// execution-independent order — the form in which logs are compared.
pub fn canonicalize_event_log(log: &mut [LoggedEvent]) {
    log.sort_by_key(|e| (e.time, e.target));
}

/// A token a shard produced for a module owned by another shard.
///
/// Collected from each shard's outbox at a virtual-time barrier and merged
/// in `(time, origin shard, origin sequence)` order — see
/// [`SimEngine`](crate::SimEngine).
#[derive(Debug)]
pub(crate) struct CrossToken {
    pub(crate) time: SimTime,
    pub(crate) origin_seq: u64,
    pub(crate) target: ModuleId,
    pub(crate) payload: TokenPayload,
}

/// Shard identity of one scheduler acting as a shard worker.
struct ShardCtx {
    /// This scheduler's shard id.
    id: usize,
    /// Module index -> owning shard id, shared across all shards.
    assignment: Arc<Vec<usize>>,
}

#[derive(Debug)]
struct Queued {
    time: SimTime,
    seq: u64,
    target: ModuleId,
    payload: TokenPayload,
}

impl PartialEq for Queued {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Queued {}
impl PartialOrd for Queued {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Queued {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// An event-driven simulation over one shared [`Design`].
///
/// A scheduler owns its event queue, its port-value latches and its
/// [`StateStore`]; two schedulers over the same design cannot interfere —
/// modules can only schedule tokens into the scheduler that invoked them,
/// exactly as in the paper.
///
/// A scheduler is one shard's event loop. Runs are driven through
/// [`SimEngine`](crate::SimEngine), which holds one scheduler per shard (a
/// sequential run is the one-shard case) and routes every step, snapshot
/// and injection to the shard that owns the module; the controller and the
/// virtual fault simulator both drive a `SimEngine`.
pub(crate) struct Scheduler {
    design: Arc<Design>,
    queue: BinaryHeap<Reverse<Queued>>,
    seq: u64,
    time: SimTime,
    latches: Vec<Vec<LogicVec>>,
    states: Vec<Option<Box<dyn Any + Send>>>,
    overrides: HashMap<usize, Arc<dyn Module>>,
    events_processed: u64,
    event_limit: u64,
    scratch: Vec<Action>,
    telemetry: Option<Box<SchedTelemetry>>,
    /// Set when this scheduler is one shard of a sharded run.
    shard: Option<ShardCtx>,
    /// Tokens destined for modules owned by other shards.
    outbox: Vec<CrossToken>,
    /// Dispatched-event log, when enabled.
    event_log: Option<Vec<LoggedEvent>>,
}

impl Scheduler {
    /// Creates a scheduler over `design` with a 10-million-event limit.
    #[must_use]
    pub fn new(design: Arc<Design>) -> Scheduler {
        let latches = design
            .modules()
            .map(|(_, m)| {
                m.ports()
                    .iter()
                    .map(|p| LogicVec::unknown(p.width()))
                    .collect()
            })
            .collect();
        let module_count = design.module_count();
        Scheduler {
            design,
            queue: BinaryHeap::new(),
            seq: 0,
            time: SimTime::ZERO,
            latches,
            states: {
                let mut v: Vec<Option<Box<dyn Any + Send>>> = Vec::with_capacity(module_count);
                v.resize_with(module_count, || None);
                v
            },
            overrides: HashMap::new(),
            events_processed: 0,
            event_limit: 10_000_000,
            scratch: Vec::new(),
            telemetry: None,
            shard: None,
            outbox: Vec::new(),
            event_log: None,
        }
    }

    /// Marks this scheduler as shard `id` of a sharded run: only modules
    /// mapped to `id` by `assignment` are initialised and simulated here;
    /// tokens for other modules are diverted to the cross-shard outbox.
    pub(crate) fn configure_shard(&mut self, id: usize, assignment: Arc<Vec<usize>>) {
        self.shard = Some(ShardCtx { id, assignment });
    }

    /// Enables or disables the dispatched-event log.
    pub fn set_event_log(&mut self, enabled: bool) {
        self.event_log = if enabled { Some(Vec::new()) } else { None };
    }

    /// Takes the recorded event log (empty if logging was never enabled),
    /// in dispatch order.
    pub fn take_event_log(&mut self) -> Vec<LoggedEvent> {
        self.event_log
            .as_mut()
            .map(std::mem::take)
            .unwrap_or_default()
    }

    /// Replaces the event-processing cap (guards against zero-delay loops).
    pub fn set_event_limit(&mut self, limit: u64) {
        self.event_limit = limit;
    }

    /// Routes scheduler metrics (`scheduler.*` counters, queue-depth gauge,
    /// per-module activation counts) and per-instant spans into `obs`.
    ///
    /// Uninstrumented schedulers carry no telemetry at all; this resolves
    /// all metric handles once so the hot loop only bumps atomics.
    pub fn set_collector(&mut self, obs: &Collector) {
        self.telemetry = Some(Box::new(SchedTelemetry::new(obs, &self.design)));
    }

    /// The current simulation time.
    #[must_use]
    pub fn time(&self) -> SimTime {
        self.time
    }

    /// Events processed so far.
    #[must_use]
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Replaces a module's behaviour *in this scheduler only* — the
    /// mechanism the virtual fault simulator uses to force a faulty output
    /// configuration without touching the shared design.
    pub fn override_module(&mut self, id: ModuleId, replacement: Arc<dyn Module>) {
        self.overrides.insert(id.index(), replacement);
    }

    /// Presets a port latch without generating an event (used to reproduce
    /// a fault-free signal configuration before an injection run).
    ///
    /// # Errors
    ///
    /// Returns [`SimulationError::MalformedInjection`] if the port
    /// reference is out of range or the value's width does not match the
    /// port's.
    pub fn preload_port(&mut self, port: PortRef, value: LogicVec) -> Result<(), SimulationError> {
        let latch = self
            .latches
            .get_mut(port.module.index())
            .and_then(|l| l.get_mut(port.port))
            .ok_or_else(|| SimulationError::MalformedInjection {
                reason: format!("preload references unknown port {port}"),
            })?;
        if latch.width() != value.width() {
            return Err(SimulationError::MalformedInjection {
                reason: format!(
                    "preload of {}-bit value on {}-bit port {port}",
                    value.width(),
                    latch.width()
                ),
            });
        }
        *latch = value;
        Ok(())
    }

    /// Enqueues a signal token for a module input port.
    ///
    /// # Errors
    ///
    /// Returns [`SimulationError::MalformedInjection`] if the target
    /// module or port does not exist, the port does not accept input, or
    /// the value's width does not match the port's.
    pub fn inject_signal(
        &mut self,
        target: ModuleId,
        port: usize,
        value: LogicVec,
        delay: u64,
    ) -> Result<(), SimulationError> {
        let spec = self
            .design
            .modules()
            .nth(target.index())
            .and_then(|(_, m)| m.ports().get(port).cloned())
            .ok_or_else(|| SimulationError::MalformedInjection {
                reason: format!("signal injection references unknown port {target}.p{port}"),
            })?;
        if !spec.direction().accepts_input() {
            return Err(SimulationError::MalformedInjection {
                reason: format!("signal injected on non-input port {target}.{}", spec.name()),
            });
        }
        if spec.width() != value.width() {
            return Err(SimulationError::MalformedInjection {
                reason: format!(
                    "{}-bit signal injected on {}-bit port {target}.{}",
                    value.width(),
                    spec.width(),
                    spec.name()
                ),
            });
        }
        self.enqueue(
            self.time + delay,
            target,
            TokenPayload::Signal { port, value },
        );
        Ok(())
    }

    /// Enqueues a control token.
    ///
    /// # Errors
    ///
    /// Returns [`SimulationError::MalformedInjection`] if the target
    /// module does not exist.
    pub fn inject_control(
        &mut self,
        target: ModuleId,
        message: vcad_rmi::Value,
        delay: u64,
    ) -> Result<(), SimulationError> {
        if target.index() >= self.design.module_count() {
            return Err(SimulationError::MalformedInjection {
                reason: format!("control injection references unknown module {target}"),
            });
        }
        self.enqueue(self.time + delay, target, TokenPayload::Control(message));
        Ok(())
    }

    /// Calls every owned module's [`Module::init`] hook, in module-index
    /// order (all modules when this scheduler is not a shard).
    pub fn init(&mut self) {
        for i in 0..self.design.module_count() {
            if self.owns(ModuleId::from_index(i)) {
                self.run_handler(ModuleId::from_index(i), |module, ctx| module.init(ctx));
            }
        }
    }

    /// Whether this scheduler simulates `module` (always true outside a
    /// sharded run).
    pub(crate) fn owns(&self, module: ModuleId) -> bool {
        match &self.shard {
            Some(ctx) => ctx.assignment.get(module.index()) == Some(&ctx.id),
            None => true,
        }
    }

    /// The latched value of one port.
    #[must_use]
    pub fn port_value(&self, port: PortRef) -> &LogicVec {
        &self.latches[port.module.index()][port.port]
    }

    /// A snapshot of all of one module's port latches at the current time.
    #[must_use]
    pub fn snapshot(&self, module: ModuleId) -> PortSnapshot {
        PortSnapshot {
            time: self.time,
            ports: self.latches[module.index()].clone(),
        }
    }

    /// Whether any token is still pending.
    #[must_use]
    pub fn has_pending(&self) -> bool {
        !self.queue.is_empty()
    }

    /// The time of the next pending token.
    #[must_use]
    pub fn next_time(&self) -> Option<SimTime> {
        self.queue.peek().map(|Reverse(q)| q.time)
    }

    /// Processes *all* tokens of the next pending instant (including the
    /// zero-delay cascades they trigger) and returns that instant, or
    /// `None` when the queue is empty.
    ///
    /// # Errors
    ///
    /// Returns [`SimulationError::EventLimitExceeded`] when the event cap
    /// is hit.
    pub fn step_instant(&mut self) -> Result<Option<SimTime>, SimulationError> {
        let Some(instant) = self.next_time() else {
            return Ok(None);
        };
        let span = self.telemetry.as_ref().and_then(|t| {
            t.obs.is_enabled().then(|| {
                // Traced, so instants parent under the controller's run
                // span (via the collector's default context on shard
                // workers, or the ambient stack on the driving thread).
                let mut span = t.obs.traced_span("scheduler", "instant");
                span.arg("t", instant.ticks());
                span
            })
        });
        self.time = instant;
        while let Some(Reverse(q)) = self.queue.peek() {
            if q.time > instant {
                break;
            }
            let Reverse(q) = self.queue.pop().expect("peeked");
            self.events_processed += 1;
            if self.events_processed > self.event_limit {
                return Err(SimulationError::EventLimitExceeded {
                    limit: self.event_limit,
                });
            }
            self.dispatch(q);
        }
        if let Some(t) = &self.telemetry {
            t.instants.inc();
            t.queue_depth.set(self.queue.len() as u64);
        }
        drop(span);
        Ok(Some(instant))
    }

    /// Advances local time without processing anything (barrier catch-up
    /// for idle shards, so snapshots carry the global instant).
    pub(crate) fn advance_time(&mut self, instant: SimTime) {
        debug_assert!(self.next_time().is_none_or(|t| t >= instant));
        self.time = instant;
    }

    /// Drains the cross-shard outbox.
    pub(crate) fn take_cross(&mut self) -> Vec<CrossToken> {
        std::mem::take(&mut self.outbox)
    }

    /// Accepts a cross-shard token merged in by the coordinator, giving it
    /// the next local sequence number.
    pub(crate) fn receive_cross(&mut self, token: CrossToken) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Reverse(Queued {
            time: token.time,
            seq,
            target: token.target,
            payload: token.payload,
        }));
    }

    /// Runs instants until the queue drains or `until` is passed.
    ///
    /// # Errors
    ///
    /// As [`Scheduler::step_instant`].
    pub fn run(&mut self, until: Option<SimTime>) -> Result<(), SimulationError> {
        loop {
            if let (Some(limit), Some(next)) = (until, self.next_time()) {
                if next > limit {
                    return Ok(());
                }
            }
            if self.step_instant()?.is_none() {
                return Ok(());
            }
        }
    }

    /// Consumes the scheduler, keeping its state store for inspection.
    #[must_use]
    pub fn into_state_store(self) -> StateStore {
        StateStore { slots: self.states }
    }

    /// Immutable access to a module's current state.
    #[must_use]
    pub fn module_state<T: 'static>(&self, module: ModuleId) -> Option<&T> {
        self.states
            .get(module.index())?
            .as_ref()?
            .downcast_ref::<T>()
    }

    fn effective_module(&self, id: ModuleId) -> Arc<dyn Module> {
        self.overrides
            .get(&id.index())
            .cloned()
            .unwrap_or_else(|| Arc::clone(self.design.module(id)))
    }

    fn dispatch(&mut self, q: Queued) {
        if let Some(log) = &mut self.event_log {
            log.push(LoggedEvent {
                time: q.time,
                target: q.target,
                payload: q.payload.clone(),
            });
        }
        if let Some(t) = &self.telemetry {
            t.events_dispatched.inc();
            match &q.payload {
                TokenPayload::Signal { .. } => t.tokens_signal.inc(),
                TokenPayload::SelfTrigger { .. } => t.tokens_self_trigger.inc(),
                TokenPayload::Control(_) => t.tokens_control.inc(),
            }
        }
        match q.payload {
            TokenPayload::Signal { port, value } => {
                self.latches[q.target.index()][port] = value.clone();
                self.run_handler(q.target, |module, ctx| module.on_signal(ctx, port, &value));
            }
            TokenPayload::SelfTrigger { tag } => {
                self.run_handler(q.target, |module, ctx| module.on_self_trigger(ctx, tag));
            }
            TokenPayload::Control(message) => {
                self.run_handler(q.target, |module, ctx| module.on_control(ctx, &message));
            }
        }
    }

    fn run_handler(&mut self, target: ModuleId, f: impl FnOnce(&dyn Module, &mut ModuleCtx<'_>)) {
        if let Some(t) = &self.telemetry {
            t.activations[target.index()].inc();
        }
        let module = self.effective_module(target);
        let mut actions = std::mem::take(&mut self.scratch);
        actions.clear();
        {
            let mut ctx = ModuleCtx {
                module: target,
                time: self.time,
                inputs: &self.latches[target.index()],
                ports: module.ports(),
                state: &mut self.states[target.index()],
                actions: &mut actions,
            };
            f(module.as_ref(), &mut ctx);
        }
        for action in actions.drain(..) {
            match action {
                Action::Emit { port, value, delay } => {
                    self.latches[target.index()][port] = value.clone();
                    let from = PortRef {
                        module: target,
                        port,
                    };
                    if let Some(peer) = self.design.peer_of(from) {
                        self.enqueue(
                            self.time + delay,
                            peer.module,
                            TokenPayload::Signal {
                                port: peer.port,
                                value,
                            },
                        );
                    }
                }
                Action::SelfTrigger { delay, tag } => {
                    self.enqueue(self.time + delay, target, TokenPayload::SelfTrigger { tag });
                }
                Action::Control {
                    target: to,
                    delay,
                    message,
                } => {
                    self.enqueue(self.time + delay, to, TokenPayload::Control(message));
                }
            }
        }
        self.scratch = actions;
    }

    fn enqueue(&mut self, time: SimTime, target: ModuleId, payload: TokenPayload) {
        let seq = self.seq;
        self.seq += 1;
        if !self.owns(target) {
            // Another shard simulates `target`: divert to the outbox for
            // the coordinator's deterministic barrier merge. The local
            // sequence number rides along as the merge tiebreaker.
            self.outbox.push(CrossToken {
                time,
                origin_seq: seq,
                target,
                payload,
            });
            return;
        }
        self.queue.push(Reverse(Queued {
            time,
            seq,
            target,
            payload,
        }));
    }
}

impl fmt::Debug for Scheduler {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Scheduler")
            .field("time", &self.time)
            .field("pending", &self.queue.len())
            .field("events_processed", &self.events_processed)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::DesignBuilder;
    use crate::stdlib::{CaptureState, PrimaryOutput, RandomInput, Register};

    fn chain_design(patterns: u64) -> (Arc<Design>, ModuleId) {
        let mut b = DesignBuilder::new("chain");
        let s = b.add_module(Arc::new(RandomInput::new("IN", 8, 11, patterns)));
        let r = b.add_module(Arc::new(Register::new("REG", 8)));
        let o = b.add_module(Arc::new(PrimaryOutput::new("OUT", 8)));
        b.connect(s, "out", r, "d").unwrap();
        b.connect(r, "q", o, "in").unwrap();
        (Arc::new(b.build().unwrap()), o)
    }

    #[test]
    fn run_drains_queue() {
        let (design, out) = chain_design(5);
        let mut sched = Scheduler::new(Arc::clone(&design));
        sched.init();
        sched.run(None).unwrap();
        assert!(!sched.has_pending());
        let captured = sched.module_state::<CaptureState>(out).unwrap();
        // Register delays by one tick: 5 inputs yield 5 captures.
        assert_eq!(captured.history().len(), 5);
    }

    #[test]
    fn step_instant_reports_times() {
        let (design, _) = chain_design(3);
        let mut sched = Scheduler::new(design);
        sched.init();
        let mut instants = Vec::new();
        while let Some(t) = sched.step_instant().unwrap() {
            instants.push(t.ticks());
        }
        // Strictly increasing instants.
        for w in instants.windows(2) {
            assert!(w[0] < w[1], "{instants:?}");
        }
    }

    #[test]
    fn schedulers_are_isolated() {
        let (design, out) = chain_design(4);
        let mut s1 = Scheduler::new(Arc::clone(&design));
        let mut s2 = Scheduler::new(Arc::clone(&design));
        s1.init();
        s2.init();
        s1.run(None).unwrap();
        s2.run(None).unwrap();
        let h1 = s1
            .module_state::<CaptureState>(out)
            .unwrap()
            .history()
            .to_vec();
        let h2 = s2
            .module_state::<CaptureState>(out)
            .unwrap()
            .history()
            .to_vec();
        // Same seed, isolated state => identical histories, not interleaved.
        assert_eq!(h1, h2);
        assert_eq!(h1.len(), 4);
    }

    #[test]
    fn run_until_respects_limit() {
        let (design, out) = chain_design(100);
        let mut sched = Scheduler::new(design);
        sched.init();
        sched.run(Some(SimTime::new(10))).unwrap();
        let captured = sched.module_state::<CaptureState>(out).unwrap();
        assert!(captured.history().len() <= 11);
        assert!(sched.has_pending());
    }

    #[test]
    fn telemetry_counts_tokens_and_activations() {
        let (design, _) = chain_design(5);
        let obs = Collector::enabled();
        let mut sched = Scheduler::new(design);
        sched.set_collector(&obs);
        sched.init();
        sched.run(None).unwrap();
        let snap = obs.metrics().snapshot();
        assert_eq!(
            snap.counters["scheduler.events_dispatched"],
            sched.events_processed()
        );
        assert!(snap.counters["scheduler.tokens.signal"] > 0);
        assert!(snap.counters["scheduler.tokens.self_trigger"] > 0);
        assert!(snap.counters["scheduler.instants"] > 0);
        assert!(snap.counters["scheduler.module.IN.activations"] > 0);
        assert!(snap.counters["scheduler.module.OUT.activations"] > 0);
        assert!(!obs.trace().events_named("instant").is_empty());
    }

    #[test]
    fn uninstrumented_scheduler_records_nothing() {
        let (design, _) = chain_design(3);
        let mut sched = Scheduler::new(design);
        sched.init();
        sched.run(None).unwrap();
        // No telemetry attached: nothing to assert beyond "it ran", which
        // is the point — the hot loop never touches a collector.
        assert!(sched.events_processed() > 0);
    }

    #[test]
    fn event_limit_detects_runaway() {
        // A clock with period 0 would loop forever within one instant; the
        // stdlib forbids it, so emulate a runaway with a tight self-trigger
        // module.
        struct Loopy;
        impl crate::Module for Loopy {
            fn name(&self) -> &str {
                "loopy"
            }
            fn ports(&self) -> &[crate::PortSpec] {
                &[]
            }
            fn init(&self, ctx: &mut crate::ModuleCtx<'_>) {
                ctx.schedule_self(0, 0);
            }
            fn on_signal(&self, _: &mut crate::ModuleCtx<'_>, _: usize, _: &LogicVec) {}
            fn on_self_trigger(&self, ctx: &mut crate::ModuleCtx<'_>, _: u64) {
                ctx.schedule_self(0, 0);
            }
        }
        let mut b = DesignBuilder::new("loop");
        b.add_module(Arc::new(Loopy));
        let design = Arc::new(b.build().unwrap());
        let mut sched = Scheduler::new(design);
        sched.set_event_limit(1000);
        sched.init();
        assert_eq!(
            sched.run(None),
            Err(SimulationError::EventLimitExceeded { limit: 1000 })
        );
    }

    #[test]
    fn override_replaces_behaviour() {
        struct Stuck;
        impl crate::Module for Stuck {
            fn name(&self) -> &str {
                "stuck"
            }
            fn ports(&self) -> &[crate::PortSpec] {
                use std::sync::OnceLock;
                static PORTS: OnceLock<Vec<crate::PortSpec>> = OnceLock::new();
                PORTS.get_or_init(|| {
                    vec![
                        crate::PortSpec::input("d", 8),
                        crate::PortSpec::output("q", 8),
                    ]
                })
            }
            fn on_signal(&self, ctx: &mut crate::ModuleCtx<'_>, _: usize, _: &LogicVec) {
                // Always outputs zero, regardless of input.
                ctx.emit_after(1, LogicVec::zeros(8), 1);
            }
        }
        let (design, out) = chain_design(3);
        let reg = design.find_module("REG").unwrap();
        let mut sched = Scheduler::new(Arc::clone(&design));
        sched.override_module(reg, Arc::new(Stuck));
        sched.init();
        sched.run(None).unwrap();
        let captured = sched.module_state::<CaptureState>(out).unwrap();
        assert!(captured
            .history()
            .iter()
            .all(|(_, v)| v.to_word().map(|w| w.value()) == Some(0)));
    }

    #[test]
    fn malformed_injections_reported_not_panicking() {
        let (design, _) = chain_design(1);
        let reg = design.find_module("REG").unwrap();
        let mut sched = Scheduler::new(design);
        // Unknown module.
        assert!(matches!(
            sched.inject_control(ModuleId::from_index(99), vcad_rmi::Value::Null, 0),
            Err(SimulationError::MalformedInjection { .. })
        ));
        // Unknown port.
        assert!(matches!(
            sched.inject_signal(reg, 7, LogicVec::zeros(8), 0),
            Err(SimulationError::MalformedInjection { .. })
        ));
        // Non-input port (REG.q is port 1, an output).
        assert!(matches!(
            sched.inject_signal(reg, 1, LogicVec::zeros(8), 0),
            Err(SimulationError::MalformedInjection { .. })
        ));
        // Width mismatch.
        assert!(matches!(
            sched.inject_signal(reg, 0, LogicVec::zeros(4), 0),
            Err(SimulationError::MalformedInjection { .. })
        ));
        assert!(matches!(
            sched.preload_port(
                PortRef {
                    module: reg,
                    port: 0
                },
                LogicVec::zeros(3)
            ),
            Err(SimulationError::MalformedInjection { .. })
        ));
        // Nothing was enqueued or latched by the rejected injections.
        assert!(!sched.has_pending());
    }

    #[test]
    fn preload_and_peek_ports() {
        let (design, _) = chain_design(1);
        let reg = design.find_module("REG").unwrap();
        let mut sched = Scheduler::new(design);
        let d_port = PortRef {
            module: reg,
            port: 0,
        };
        assert!(!sched.port_value(d_port).is_binary()); // all-X initially
        sched
            .preload_port(d_port, LogicVec::from_u64(8, 0x5A))
            .unwrap();
        assert_eq!(sched.port_value(d_port).to_word().unwrap().value(), 0x5A);
        let snap = sched.snapshot(reg);
        assert_eq!(snap.ports[0].to_word().unwrap().value(), 0x5A);
    }
}

#[cfg(test)]
mod control_tests {
    use super::*;
    use crate::design::DesignBuilder;
    use crate::{Module, ModuleCtx, PortSpec, Value};
    use std::sync::Arc;

    /// A module that, once poked, walks the design by sending a control
    /// token to the next module in a ring, tagging the hop count — the
    /// paper's "tokens … provide a general communication paradigm to
    /// traverse the design".
    struct RingNode {
        name: String,
        next: std::sync::OnceLock<ModuleId>,
    }

    #[derive(Default)]
    struct HopState {
        hops_seen: Vec<i64>,
    }

    impl Module for RingNode {
        fn name(&self) -> &str {
            &self.name
        }
        fn ports(&self) -> &[PortSpec] {
            &[]
        }
        fn on_signal(&self, _: &mut ModuleCtx<'_>, _: usize, _: &vcad_logic::LogicVec) {}
        fn on_control(&self, ctx: &mut ModuleCtx<'_>, message: &Value) {
            let hop = message.as_i64().unwrap_or(0);
            ctx.state::<HopState>().hops_seen.push(hop);
            if hop < 10 {
                let next = *self.next.get().expect("ring wired");
                ctx.send_control(next, 1, Value::I64(hop + 1));
            }
        }
    }

    #[test]
    fn control_tokens_traverse_the_design() {
        let a = Arc::new(RingNode {
            name: "A".into(),
            next: std::sync::OnceLock::new(),
        });
        let b = Arc::new(RingNode {
            name: "B".into(),
            next: std::sync::OnceLock::new(),
        });
        let mut builder = DesignBuilder::new("ring");
        let ida = builder.add_module(a.clone());
        let idb = builder.add_module(b.clone());
        a.next.set(idb).unwrap();
        b.next.set(ida).unwrap();
        let design = Arc::new(builder.build().unwrap());

        let mut sched = Scheduler::new(design);
        sched.init();
        sched.inject_control(ida, Value::I64(0), 0).unwrap();
        sched.run(None).unwrap();

        // Hops 0,2,4,… landed on A; 1,3,5,… on B; one tick per hop.
        let hops_a = &sched.module_state::<HopState>(ida).unwrap().hops_seen;
        let hops_b = &sched.module_state::<HopState>(idb).unwrap().hops_seen;
        assert_eq!(hops_a, &vec![0, 2, 4, 6, 8, 10]);
        assert_eq!(hops_b, &vec![1, 3, 5, 7, 9]);
        assert_eq!(sched.time(), SimTime::new(10));
    }
}
