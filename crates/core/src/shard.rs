//! The simulation engine: one design, one or more event loops,
//! bit-identical results.
//!
//! A [`ShardPlan`] partitions a [`Design`] along connector boundaries —
//! modules tied by a connector always share a shard, so the zero-delay
//! signal traffic that dominates a simulation never crosses threads. A
//! [`SimEngine`] runs one `Scheduler` per shard; a sequential run is the
//! one-shard plan, driven by the same code on the calling thread. Extra
//! shards run on a persistent worker pool.
//!
//! When no connector crosses shards (every one-shard and every `Auto`
//! plan), [`SimEngine::run`] lets each shard free-run to the horizon in a
//! single round. Otherwise shards synchronise at virtual-time barriers:
//!
//! 1. The engine picks the next instant `T` = min over shards of their
//!    earliest pending token.
//! 2. Every shard with work at `T` steps that instant — *all* of its
//!    tokens at `T`, including shard-local zero-delay cascades — on its
//!    own thread.
//! 3. Tokens produced for modules owned by other shards (control tokens —
//!    the only traffic that can leave a connectivity component) are
//!    drained from per-shard outboxes and merged in
//!    `(timestamp, origin shard, origin sequence)` order, a total order
//!    that does not depend on thread scheduling.
//! 4. If the merge delivered more tokens *at* `T`, another micro-round of
//!    step 2 runs; otherwise the barrier completes and every shard's clock
//!    advances to `T`.
//!
//! A panic in a module handler is caught on whichever thread ran it, and
//! once every shard is parked again the first panic caught is re-raised
//! with its original payload.
//!
//! **Why bit-identity holds.** A module's behaviour depends only on its own
//! token stream and its own latches. Within one shard, tokens are processed
//! in `(time, sequence)` order and sequence numbers are handed out in the
//! same relative order as the sequential scheduler hands them to that
//! shard's modules (init walks modules in index order; dispatch within an
//! instant preserves enqueue order). Since a connectivity component never
//! straddles shards, every signal token is shard-local, so each module sees
//! exactly the sequential token stream — same latches, same state, same
//! outputs, same estimates. Cross-component control tokens are merged in
//! the canonical order above; the repository's designs never race a
//! cross-component control token against same-instant component-local
//! traffic on one module, which keeps the canonical order observationally
//! identical to the sequential one there too.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;

use vcad_obs::Collector;

use crate::design::{Design, ModuleId, PortRef};
use crate::estimate::PortSnapshot;
use crate::module::Module;
use crate::scheduler::{
    canonicalize_event_log, CrossToken, LoggedEvent, Scheduler, SimulationError, StateStore,
};
use crate::time::SimTime;

/// How a [`SimulationController`](crate::SimulationController) (or a
/// [`SimEngine`]) distributes one run across threads.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub enum ShardPolicy {
    /// One event loop, one thread — the classic scheduler.
    #[default]
    Sequential,
    /// Partition into at most this many shards along connectivity
    /// components, balancing module counts across shards. A value of 0 or
    /// 1 (or a single-component design) degenerates to `Sequential`.
    Auto(usize),
    /// Explicit module-index → shard-id assignment. Shard ids must be
    /// dense (`0..max+1`, none empty) and the assignment must cover every
    /// module. Splitting a connectivity component is allowed — runs stay
    /// deterministic — but bit-identity with the sequential scheduler is
    /// only guaranteed for component-respecting assignments such as the
    /// ones `Auto` produces.
    Manual(Vec<usize>),
}

/// A resolved partition of one design.
#[derive(Clone, Debug)]
pub struct ShardPlan {
    assignment: Arc<Vec<usize>>,
    shard_count: usize,
    component_count: usize,
    /// Connectors whose endpoints land on different shards. Zero for
    /// every component-respecting partition (all `Auto` plans); only a
    /// `Manual` plan that splits a component can make this positive.
    cross_edges: usize,
}

/// Connectors of `design` whose endpoints `assignment` places on
/// different shards.
fn count_cross_edges(design: &Design, assignment: &[usize]) -> usize {
    design
        .connector_endpoints()
        .filter(|(a, b)| assignment[a.module.index()] != assignment[b.module.index()])
        .count()
}

impl ShardPlan {
    /// Resolves a policy against a design.
    ///
    /// # Errors
    ///
    /// Returns [`SimulationError::InvalidShardPlan`] for a malformed
    /// [`ShardPolicy::Manual`] assignment (wrong length, non-dense ids).
    pub fn resolve(design: &Design, policy: &ShardPolicy) -> Result<ShardPlan, SimulationError> {
        match policy {
            ShardPolicy::Sequential => Ok(ShardPlan {
                assignment: Arc::new(vec![0; design.module_count()]),
                shard_count: 1,
                component_count: connectivity_components(design).1,
                cross_edges: 0,
            }),
            ShardPolicy::Auto(n) => Ok(ShardPlan::auto(design, *n)),
            ShardPolicy::Manual(assignment) => ShardPlan::manual(design, assignment.clone()),
        }
    }

    /// Auto-partitions: connectivity components are distributed over at
    /// most `shards` shards by longest-processing-time assignment (largest
    /// component first, onto the least-loaded shard, lowest shard id on
    /// ties) — deterministic for a given design.
    #[must_use]
    pub fn auto(design: &Design, shards: usize) -> ShardPlan {
        let (labels, component_count) = connectivity_components(design);
        let shard_count = shards.max(1).min(component_count.max(1));
        // Component sizes, then LPT order: size descending, first-module
        // index ascending as the deterministic tiebreaker.
        let mut sizes = vec![0usize; component_count];
        for &c in &labels {
            sizes[c] += 1;
        }
        let mut order: Vec<usize> = (0..component_count).collect();
        order.sort_by_key(|&c| (std::cmp::Reverse(sizes[c]), c));
        let mut loads = vec![0usize; shard_count];
        let mut component_shard = vec![0usize; component_count];
        for c in order {
            let shard = (0..shard_count).min_by_key(|&s| (loads[s], s)).unwrap_or(0);
            component_shard[c] = shard;
            loads[shard] += sizes[c];
        }
        // Whole components map to one shard each, so no connector can
        // cross a shard boundary.
        ShardPlan {
            assignment: Arc::new(labels.iter().map(|&c| component_shard[c]).collect()),
            shard_count,
            component_count,
            cross_edges: 0,
        }
    }

    /// Validates an explicit assignment.
    ///
    /// # Errors
    ///
    /// Returns [`SimulationError::InvalidShardPlan`] if the assignment
    /// length differs from the module count or the shard ids are not dense.
    pub fn manual(design: &Design, assignment: Vec<usize>) -> Result<ShardPlan, SimulationError> {
        if assignment.len() != design.module_count() {
            return Err(SimulationError::InvalidShardPlan {
                reason: format!(
                    "assignment covers {} modules but the design has {}",
                    assignment.len(),
                    design.module_count()
                ),
            });
        }
        let shard_count = assignment.iter().max().map_or(1, |m| m + 1);
        let mut seen = vec![false; shard_count];
        for &s in &assignment {
            seen[s] = true;
        }
        if let Some(empty) = seen.iter().position(|&s| !s) {
            return Err(SimulationError::InvalidShardPlan {
                reason: format!("shard {empty} owns no modules (ids must be dense)"),
            });
        }
        let cross_edges = count_cross_edges(design, &assignment);
        Ok(ShardPlan {
            assignment: Arc::new(assignment),
            shard_count,
            component_count: connectivity_components(design).1,
            cross_edges,
        })
    }

    /// Number of shards (≥ 1).
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shard_count
    }

    /// Number of connectivity components in the design.
    #[must_use]
    pub fn component_count(&self) -> usize {
        self.component_count
    }

    /// Module index → shard id.
    #[must_use]
    pub fn assignment(&self) -> &[usize] {
        &self.assignment
    }

    /// The shard that owns a module.
    #[must_use]
    pub fn shard_of(&self, module: ModuleId) -> usize {
        self.assignment[module.index()]
    }

    /// Connectors whose endpoints this plan places on different shards —
    /// zero for every component-respecting partition. A zero-cross-edge
    /// plan never exchanges tokens between shards, which lets
    /// [`SimEngine::run`] skip per-instant barriers entirely.
    #[must_use]
    pub fn cross_edges(&self) -> usize {
        self.cross_edges
    }
}

/// Labels each module with its connectivity component (modules joined
/// transitively by connectors), returning `(labels, component count)`.
///
/// Labels are normalised by first appearance in module-index order, so two
/// implementations of this traversal (this one and the linter's) can be
/// compared directly.
#[must_use]
pub fn connectivity_components(design: &Design) -> (Vec<usize>, usize) {
    let n = design.module_count();
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]]; // path halving
            x = parent[x];
        }
        x
    }
    for (a, b) in design.connector_endpoints() {
        let ra = find(&mut parent, a.module.index());
        let rb = find(&mut parent, b.module.index());
        if ra != rb {
            parent[ra.max(rb)] = ra.min(rb);
        }
    }
    let mut labels = vec![0usize; n];
    let mut next = 0usize;
    let mut label_of_root = vec![usize::MAX; n];
    for (i, label) in labels.iter_mut().enumerate() {
        let root = find(&mut parent, i);
        if label_of_root[root] == usize::MAX {
            label_of_root[root] = next;
            next += 1;
        }
        *label = label_of_root[root];
    }
    (labels, next)
}

/// Aggregated `sched.shard.*` statistics, emitted as metrics at the end of
/// an instrumented multi-shard run.
#[derive(Debug, Default)]
struct ShardStats {
    barriers: u64,
    micro_rounds: u64,
    cross_tokens: u64,
    barrier_waits: u64,
}

/// What a shard does when a round hands it out.
#[derive(Clone, Copy)]
enum Task {
    /// Process every token at the shard's next instant — its share of one
    /// barrier round.
    Step,
    /// Free-run: drain the shard's queue up to the horizon without
    /// stopping — only sound when the plan has no cross-shard edges.
    Run(Option<SimTime>),
}

impl Task {
    fn apply(self, sched: &mut Scheduler) -> Result<(), SimulationError> {
        match self {
            Task::Step => sched.step_instant().map(drop),
            Task::Run(until) => sched.run(until),
        }
    }
}

/// How one shard's task ended: a caught panic keeps its payload.
type Outcome = std::thread::Result<Result<(), SimulationError>>;

/// A persistent pool of shard workers. Workers idle on their job channel
/// between rounds; dropping the pool closes the channels and joins.
struct Pool {
    txs: Vec<mpsc::Sender<(usize, Scheduler, Task)>>,
    rx: mpsc::Receiver<(usize, Scheduler, Outcome)>,
    handles: Vec<JoinHandle<()>>,
}

impl Pool {
    fn new(workers: usize) -> Pool {
        let (done_tx, rx) = mpsc::channel();
        let mut txs = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for i in 0..workers {
            let (tx, job_rx) = mpsc::channel::<(usize, Scheduler, Task)>();
            let done = done_tx.clone();
            let handle = std::thread::Builder::new()
                .name(format!("vcad-shard-{i}"))
                .spawn(move || {
                    while let Ok((slot, mut sched, task)) = job_rx.recv() {
                        let outcome = catch_unwind(AssertUnwindSafe(|| task.apply(&mut sched)));
                        if done.send((slot, sched, outcome)).is_err() {
                            break;
                        }
                    }
                })
                .expect("spawn shard worker");
            txs.push(tx);
            handles.push(handle);
        }
        Pool { txs, rx, handles }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.txs.clear(); // close job channels so workers exit
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// The simulation engine: one event loop per shard of a [`ShardPlan`],
/// behind the run / step / inspect / inject API that
/// [`SimulationController`](crate::SimulationController) and the virtual
/// fault simulator use.
///
/// A sequential run is the one-shard plan: no worker threads, no outbox,
/// no child collectors and no `sched.shard.*` metrics — the one shard
/// runs on the calling thread and records straight into the run's
/// collector. Between rounds every shard is parked here, so inspection
/// and injection (snapshots, port values, module state, control/signal
/// injection, overrides) are routed to the shard that owns the module.
/// The module docs at the top of this file spell out the barrier protocol
/// and the bit-identity argument.
pub struct SimEngine {
    /// Module index → shard id.
    assignment: Arc<Vec<usize>>,
    cross_edges: usize,
    /// One scheduler per shard; `None` only while that shard is out on a
    /// worker thread during a round.
    shards: Vec<Option<Scheduler>>,
    pool: Option<Pool>,
    event_limit: u64,
    obs: Option<Collector>,
    children: Vec<Collector>,
    stats: ShardStats,
    telemetry_flushed: bool,
}

impl SimEngine {
    /// Builds the engine a policy asks for. [`ShardPolicy::Sequential`],
    /// and every policy that resolves to one shard (including
    /// [`ShardPolicy::Auto`] over a design with one connectivity
    /// component), runs a single shard on the calling thread.
    ///
    /// # Errors
    ///
    /// Returns [`SimulationError::InvalidShardPlan`] for malformed manual
    /// assignments.
    pub fn new(design: Arc<Design>, policy: &ShardPolicy) -> Result<SimEngine, SimulationError> {
        // A sequential run is the one-shard plan; it needs no
        // connectivity walk.
        let (assignment, shard_count, cross_edges) = match policy {
            ShardPolicy::Sequential => (Arc::new(vec![0; design.module_count()]), 1, 0),
            _ => {
                let plan = ShardPlan::resolve(&design, policy)?;
                (plan.assignment, plan.shard_count, plan.cross_edges)
            }
        };
        let shards = (0..shard_count)
            .map(|id| {
                let mut sched = Scheduler::new(Arc::clone(&design));
                if shard_count > 1 {
                    sched.configure_shard(id, Arc::clone(&assignment));
                }
                Some(sched)
            })
            .collect();
        Ok(SimEngine {
            assignment,
            cross_edges,
            shards,
            pool: (shard_count > 1).then(|| Pool::new(shard_count - 1)),
            event_limit: 10_000_000,
            obs: None,
            children: Vec::new(),
            stats: ShardStats::default(),
            telemetry_flushed: false,
        })
    }

    /// Number of shards running (1 for a sequential run).
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Replaces the runaway-event cap. Each shard is capped at the full
    /// limit (a zero-delay loop is always shard-local) and the engine
    /// additionally enforces the limit on the cross-shard total after
    /// every round.
    pub fn set_event_limit(&mut self, limit: u64) {
        self.event_limit = limit;
        for sched in self.shards.iter_mut().flatten() {
            sched.set_event_limit(limit);
        }
    }

    /// Routes telemetry into `obs`. One shard records into it directly;
    /// several each record into their own child collector (no contention
    /// on the hot path), all of them absorbed — together with the
    /// `sched.shard.*` barrier statistics — when the run finishes.
    pub fn set_collector(&mut self, obs: &Collector) {
        if let [Some(sched)] = self.shards.as_mut_slice() {
            sched.set_collector(obs);
            return;
        }
        self.children = self.shards.iter().map(|_| obs.child()).collect();
        for (sched, child) in self.shards.iter_mut().flatten().zip(&self.children) {
            sched.set_collector(child);
        }
        self.obs = Some(obs.clone());
    }

    /// Enables or disables per-shard event logging.
    pub fn set_event_log(&mut self, enabled: bool) {
        for sched in self.shards.iter_mut().flatten() {
            sched.set_event_log(enabled);
        }
    }

    /// Takes the merged event log in [canonical
    /// order](canonicalize_event_log).
    pub fn take_event_log(&mut self) -> Vec<LoggedEvent> {
        let mut merged = Vec::new();
        for sched in self.shards.iter_mut().flatten() {
            merged.extend(sched.take_event_log());
        }
        canonicalize_event_log(&mut merged);
        merged
    }

    /// The current simulation time: the latest instant any shard has
    /// reached.
    #[must_use]
    pub fn time(&self) -> SimTime {
        self.shards
            .iter()
            .flatten()
            .map(Scheduler::time)
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// Events processed so far, across all shards.
    #[must_use]
    pub fn events_processed(&self) -> u64 {
        self.shards
            .iter()
            .flatten()
            .map(Scheduler::events_processed)
            .sum()
    }

    /// Whether any shard still has a pending token.
    #[must_use]
    pub fn has_pending(&self) -> bool {
        self.shards.iter().flatten().any(Scheduler::has_pending)
    }

    /// The earliest pending instant across all shards.
    #[must_use]
    pub fn next_time(&self) -> Option<SimTime> {
        self.shards
            .iter()
            .flatten()
            .filter_map(Scheduler::next_time)
            .min()
    }

    /// Initialises every module, shard by shard in shard order (within a
    /// shard, module-index order — the sequential order restricted to that
    /// shard), then merges any cross-shard tokens init produced.
    pub fn init(&mut self) {
        for sched in self.shards.iter_mut().flatten() {
            sched.init();
        }
        self.merge_cross();
    }

    /// Processes all tokens of the earliest pending instant across every
    /// shard — one full barrier — and returns that instant, or `None` when
    /// every queue is empty.
    ///
    /// # Errors
    ///
    /// Returns [`SimulationError::EventLimitExceeded`] when a shard (or
    /// the cross-shard total) exceeds the event cap.
    ///
    /// # Panics
    ///
    /// Re-raises, payload intact, a panic that escaped a module handler.
    pub fn step_instant(&mut self) -> Result<Option<SimTime>, SimulationError> {
        let Some(instant) = self.next_time() else {
            return Ok(None);
        };
        // Micro-rounds: step every shard due at `instant`, merge the
        // cross-shard tokens, repeat while the merge keeps feeding the
        // same instant.
        loop {
            let ran = self.round(Task::Step, Some(instant))?;
            if ran > 1 {
                self.stats.barrier_waits += 1;
            }
            if ran == 0 || self.merge_cross() == 0 {
                break;
            }
        }
        self.stats.barriers += 1;
        for sched in self.shards.iter_mut().flatten() {
            sched.advance_time(instant);
        }
        self.check_event_limit()?;
        Ok(Some(instant))
    }

    /// Runs until every queue drains or `until` is passed.
    ///
    /// When the plan has [no cross-shard edges](ShardPlan::cross_edges) —
    /// every one-shard and every `Auto` plan — shards can never exchange
    /// tokens, so instead of a barrier per instant each shard free-runs to
    /// the horizon in a single round (conservative synchronization with
    /// unbounded lookahead). The results are identical; only the
    /// synchronization overhead disappears.
    ///
    /// # Errors
    ///
    /// As [`SimEngine::step_instant`]. On the free-run path a shard may
    /// process more events than a sequential run would before the limit
    /// trips; the reported error is the same.
    ///
    /// # Panics
    ///
    /// As [`SimEngine::step_instant`].
    pub fn run(&mut self, until: Option<SimTime>) -> Result<(), SimulationError> {
        if self.cross_edges == 0 {
            if self.round(Task::Run(until), until)? > 0 {
                self.stats.barriers += 1;
            }
            return self.check_event_limit();
        }
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

    /// One round: `task` runs on every shard with a token at or before
    /// `horizon` — the first on this thread, the rest on workers — and
    /// returns how many shards ran. Once every shard is parked again, the
    /// first panic caught (this thread's shard first, then workers in the
    /// order they report) is re-raised with its payload; otherwise the
    /// first error is returned.
    fn round(&mut self, task: Task, horizon: Option<SimTime>) -> Result<usize, SimulationError> {
        let due = |shard: &Option<Scheduler>| {
            shard
                .as_ref()
                .and_then(Scheduler::next_time)
                .is_some_and(|t| horizon.is_none_or(|h| t <= h))
        };
        let Some(local) = self.shards.iter().position(due) else {
            return Ok(0);
        };
        self.stats.micro_rounds += 1;
        let mut shipped = 0;
        for slot in local + 1..self.shards.len() {
            if due(&self.shards[slot]) {
                let pool = self.pool.as_ref().expect("several shards have workers");
                let sched = self.shards[slot].take().expect("shard parked");
                pool.txs[shipped % pool.txs.len()]
                    .send((slot, sched, task))
                    .expect("shard worker alive");
                shipped += 1;
            }
        }
        let (mut error, mut panic) = (None, None);
        let mut settle = |outcome: Outcome| match outcome {
            Ok(Ok(())) => {}
            Ok(Err(err)) => {
                error.get_or_insert(err);
            }
            Err(payload) => {
                panic.get_or_insert(payload);
            }
        };
        // The first due shard runs on this thread: a one-shard run, and
        // the common fully-partitioned case with one busy shard, never
        // pay a channel round-trip.
        let sched = self.shards[local].as_mut().expect("shard parked");
        settle(catch_unwind(AssertUnwindSafe(|| task.apply(sched))));
        for _ in 0..shipped {
            let pool = self.pool.as_ref().expect("several shards have workers");
            let (slot, sched, outcome) = pool.rx.recv().expect("shard worker alive");
            self.shards[slot] = Some(sched);
            settle(outcome);
        }
        if let Some(payload) = panic {
            resume_unwind(payload);
        }
        error.map_or(Ok(shipped + 1), Err)
    }

    fn check_event_limit(&self) -> Result<(), SimulationError> {
        if self.events_processed() > self.event_limit {
            return Err(SimulationError::EventLimitExceeded {
                limit: self.event_limit,
            });
        }
        Ok(())
    }

    /// Drains every shard's outbox and redelivers the tokens in canonical
    /// `(time, origin shard, origin sequence)` order. Returns how many
    /// tokens were delivered.
    fn merge_cross(&mut self) -> usize {
        let mut pending: Vec<(SimTime, usize, u64, CrossToken)> = Vec::new();
        for (origin, sched) in self.shards.iter_mut().enumerate() {
            if let Some(sched) = sched {
                for token in sched.take_cross() {
                    pending.push((token.time, origin, token.origin_seq, token));
                }
            }
        }
        pending.sort_by_key(|(time, origin, seq, _)| (*time, *origin, *seq));
        let delivered = pending.len();
        self.stats.cross_tokens += delivered as u64;
        for (_, _, _, token) in pending {
            self.owner_mut(token.target).receive_cross(token);
        }
        delivered
    }

    /// The shard that owns `module`. An out-of-range module resolves to
    /// shard 0, whose scheduler reports it as the sequential one does.
    fn shard_of(&self, module: ModuleId) -> usize {
        self.assignment.get(module.index()).copied().unwrap_or(0)
    }

    fn owner(&self, module: ModuleId) -> &Scheduler {
        self.shards[self.shard_of(module)]
            .as_ref()
            .expect("shard parked")
    }

    fn owner_mut(&mut self, module: ModuleId) -> &mut Scheduler {
        let shard = self.shard_of(module);
        self.shards[shard].as_mut().expect("shard parked")
    }

    /// The latched value of one port (from its owning shard).
    #[must_use]
    pub fn port_value(&self, port: PortRef) -> &vcad_logic::LogicVec {
        self.owner(port.module).port_value(port)
    }

    /// A snapshot of one module's port latches at its shard's current
    /// time.
    #[must_use]
    pub fn snapshot(&self, module: ModuleId) -> PortSnapshot {
        self.owner(module).snapshot(module)
    }

    /// Immutable access to a module's current state.
    #[must_use]
    pub fn module_state<T: 'static>(&self, module: ModuleId) -> Option<&T> {
        self.owner(module).module_state(module)
    }

    /// Replaces a module's behaviour in its owning shard only.
    pub fn override_module(&mut self, id: ModuleId, replacement: Arc<dyn Module>) {
        self.owner_mut(id).override_module(id, replacement);
    }

    /// Presets a port latch on the owning shard.
    ///
    /// # Errors
    ///
    /// Returns [`SimulationError::MalformedInjection`] if the port
    /// reference is out of range or the value's width does not match the
    /// port's.
    pub fn preload_port(
        &mut self,
        port: PortRef,
        value: vcad_logic::LogicVec,
    ) -> Result<(), SimulationError> {
        self.owner_mut(port.module).preload_port(port, value)
    }

    /// Enqueues a signal token on the owning shard.
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
        value: vcad_logic::LogicVec,
        delay: u64,
    ) -> Result<(), SimulationError> {
        self.owner_mut(target)
            .inject_signal(target, port, value, delay)
    }

    /// Enqueues a control token on the owning shard.
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
        self.owner_mut(target)
            .inject_control(target, message, delay)
    }

    /// Consumes the engine, merging every shard's state slots into one
    /// [`StateStore`] and flushing the `sched.shard.*` telemetry.
    #[must_use]
    pub fn into_state_store(mut self) -> StateStore {
        self.flush_telemetry();
        // A shard only ever creates state for the modules it owns, so
        // overlaying the shards' slots reassembles the whole store.
        let mut shards = self
            .shards
            .iter_mut()
            .filter_map(Option::take)
            .map(|sched| sched.into_state_store().into_slots());
        let mut merged = shards.next().unwrap_or_default();
        for slots in shards {
            for (into, slot) in merged.iter_mut().zip(slots) {
                if slot.is_some() {
                    *into = slot;
                }
            }
        }
        StateStore::from_slots(merged)
    }

    /// Emits the shard statistics and absorbs the per-shard child
    /// collectors into the collector passed to
    /// [`SimEngine::set_collector`]. A no-op for one shard, which recorded
    /// into that collector directly. Idempotent; also runs on drop.
    fn flush_telemetry(&mut self) {
        if self.telemetry_flushed {
            return;
        }
        self.telemetry_flushed = true;
        let Some(obs) = &self.obs else {
            return;
        };
        let m = obs.metrics();
        m.counter("sched.shard.count").add(self.shards.len() as u64);
        m.counter("sched.shard.barriers").add(self.stats.barriers);
        m.counter("sched.shard.micro_rounds")
            .add(self.stats.micro_rounds);
        m.counter("sched.shard.cross_tokens")
            .add(self.stats.cross_tokens);
        m.counter("sched.shard.barrier_waits")
            .add(self.stats.barrier_waits);
        let loads: Vec<u64> = self
            .shards
            .iter()
            .flatten()
            .map(Scheduler::events_processed)
            .collect();
        if let (Some(&max), Some(&min)) = (loads.iter().max(), loads.iter().min()) {
            m.gauge("sched.shard.load.max_events").set(max);
            m.gauge("sched.shard.load.min_events").set(min);
            let imbalance = ((max - min) * 100).checked_div(max).unwrap_or(0);
            m.gauge("sched.shard.load.imbalance_pct").set(imbalance);
        }
        for child in &self.children {
            obs.absorb(child);
        }
    }
}

impl Drop for SimEngine {
    fn drop(&mut self) {
        self.flush_telemetry();
    }
}

impl std::fmt::Debug for SimEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimEngine")
            .field("time", &self.time())
            .field("shards", &self.shard_count())
            .field("events_processed", &self.events_processed())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::DesignBuilder;
    use crate::stdlib::{CaptureState, PrimaryOutput, RandomInput, Register};

    /// `k` independent source→register→capture chains.
    fn chains(k: usize, patterns: u64) -> (Arc<Design>, Vec<ModuleId>) {
        let mut b = DesignBuilder::new("chains");
        let mut outs = Vec::new();
        for i in 0..k {
            let s = b.add_named(
                format!("IN{i}"),
                Arc::new(RandomInput::new("IN", 8, 11 + i as u64, patterns)) as Arc<dyn Module>,
            );
            let r = b.add_named(
                format!("REG{i}"),
                Arc::new(Register::new("REG", 8)) as Arc<dyn Module>,
            );
            let o = b.add_named(
                format!("OUT{i}"),
                Arc::new(PrimaryOutput::new("OUT", 8)) as Arc<dyn Module>,
            );
            b.connect(s, "out", r, "d").unwrap();
            b.connect(r, "q", o, "in").unwrap();
            outs.push(o);
        }
        (Arc::new(b.build().unwrap()), outs)
    }

    #[test]
    fn components_follow_connectors() {
        let (design, _) = chains(3, 2);
        let (labels, count) = connectivity_components(&design);
        assert_eq!(count, 3);
        assert_eq!(labels, vec![0, 0, 0, 1, 1, 1, 2, 2, 2]);
    }

    #[test]
    fn auto_plan_balances_components() {
        let (design, _) = chains(4, 2);
        let plan = ShardPlan::auto(&design, 2);
        assert_eq!(plan.shard_count(), 2);
        assert_eq!(plan.component_count(), 4);
        let mut loads = [0usize; 2];
        for &s in plan.assignment() {
            loads[s] += 1;
        }
        assert_eq!(loads, [6, 6]);
        // More shards than components degenerates to one per component.
        assert_eq!(ShardPlan::auto(&design, 9).shard_count(), 4);
    }

    #[test]
    fn manual_plan_validation() {
        let (design, _) = chains(2, 2);
        assert!(matches!(
            ShardPlan::manual(&design, vec![0; 3]),
            Err(SimulationError::InvalidShardPlan { .. })
        ));
        assert!(matches!(
            ShardPlan::manual(&design, vec![0, 0, 0, 2, 2, 2]),
            Err(SimulationError::InvalidShardPlan { .. })
        ));
        let plan = ShardPlan::manual(&design, vec![0, 0, 0, 1, 1, 1]).unwrap();
        assert_eq!(plan.shard_count(), 2);
    }

    #[test]
    fn sharded_run_matches_sequential() {
        let (design, outs) = chains(4, 16);
        let mut seq = Scheduler::new(Arc::clone(&design));
        seq.set_event_log(true);
        seq.init();
        seq.run(None).unwrap();
        let mut seq_log = seq.take_event_log();
        canonicalize_event_log(&mut seq_log);

        for shards in [2, 3, 4] {
            let mut par = SimEngine::new(Arc::clone(&design), &ShardPolicy::Auto(shards)).unwrap();
            assert_eq!(par.shard_count(), shards);
            par.set_event_log(true);
            par.init();
            par.run(None).unwrap();
            assert_eq!(par.time(), seq.time());
            assert_eq!(par.events_processed(), seq.events_processed());
            for &o in &outs {
                assert_eq!(
                    par.module_state::<CaptureState>(o).unwrap().history(),
                    seq.module_state::<CaptureState>(o).unwrap().history(),
                    "shards={shards}"
                );
            }
            assert_eq!(par.take_event_log(), seq_log, "shards={shards}");
        }
    }

    /// A one-component design: a source driving a capture sink.
    fn one_component() -> (Arc<Design>, ModuleId) {
        let mut b = DesignBuilder::new("one");
        let s = b.add_module(Arc::new(RandomInput::new("IN", 8, 1, 4)));
        let o = b.add_module(Arc::new(PrimaryOutput::new("OUT", 8)));
        b.connect(s, "out", o, "in").unwrap();
        (Arc::new(b.build().unwrap()), o)
    }

    #[test]
    fn engine_resolves_single_component_to_sequential() {
        let (design, _) = one_component();
        let engine = SimEngine::new(design, &ShardPolicy::Auto(8)).unwrap();
        assert_eq!(engine.shard_count(), 1);
    }

    /// Every metric name in a snapshot, whatever its kind.
    fn metric_names(obs: &Collector) -> Vec<String> {
        let snap = obs.metrics().snapshot();
        let mut names: Vec<String> = snap.counters.into_keys().collect();
        names.extend(snap.float_counters.into_keys());
        names.extend(snap.gauges.into_keys());
        names.extend(snap.histograms.into_keys());
        names.sort();
        names
    }

    #[test]
    fn every_one_shard_policy_is_the_sequential_run() {
        let (design, out) = one_component();
        let policies = [
            ShardPolicy::Sequential,
            ShardPolicy::Auto(0),
            ShardPolicy::Auto(1),
            ShardPolicy::Auto(8),
            ShardPolicy::Manual(vec![0; design.module_count()]),
        ];
        let run = |policy: &ShardPolicy| {
            let obs = Collector::enabled();
            let run = crate::SimulationController::new(Arc::clone(&design))
                .with_shards(policy.clone())
                .with_collector(obs.clone())
                .record_events()
                .run()
                .unwrap();
            (run, metric_names(&obs))
        };
        let (reference, _) = run(&ShardPolicy::Sequential);
        // The names a sequential run records: the scheduler's and the
        // controller's, and no `sched.shard.*` barrier statistics.
        let sequential_names = [
            "estimate.cache_hits",
            "estimate.degraded",
            "estimate.fees_cents",
            "estimate.records",
            "scheduler.events_dispatched",
            "scheduler.instants",
            "scheduler.module.IN.activations",
            "scheduler.module.OUT.activations",
            "scheduler.queue_depth",
            "scheduler.tokens.control",
            "scheduler.tokens.self_trigger",
            "scheduler.tokens.signal",
        ];
        for policy in &policies {
            let (run, names) = run(policy);
            assert_eq!(run.shard_count(), 1, "{policy:?}");
            assert_eq!(run.event_log(), reference.event_log(), "{policy:?}");
            assert_eq!(
                run.module_state::<CaptureState>(out).unwrap().history(),
                reference
                    .module_state::<CaptureState>(out)
                    .unwrap()
                    .history(),
                "{policy:?}"
            );
            assert_eq!(run.events_processed(), reference.events_processed());
            assert_eq!(run.end_time(), reference.end_time());
            assert_eq!(names, sequential_names, "{policy:?}");
        }
    }

    /// A sink whose signal handler panics.
    struct Boom(Vec<crate::PortSpec>);

    impl Module for Boom {
        fn name(&self) -> &str {
            "BOOM"
        }
        fn ports(&self) -> &[crate::PortSpec] {
            &self.0
        }
        fn on_signal(&self, _: &mut crate::ModuleCtx<'_>, _: usize, _: &vcad_logic::LogicVec) {
            panic!("boom");
        }
    }

    #[test]
    fn module_panics_keep_their_payload() {
        // Two components; the panicking sink sits in the second, which a
        // two-shard plan runs on a worker thread.
        let design = {
            let mut b = DesignBuilder::new("two");
            let s0 = b.add_module(Arc::new(RandomInput::new("IN0", 8, 1, 4)));
            let o0 = b.add_module(Arc::new(PrimaryOutput::new("OUT", 8)));
            let s1 = b.add_module(Arc::new(RandomInput::new("IN1", 8, 2, 4)));
            let o1 = b.add_module(Arc::new(Boom(vec![crate::PortSpec::input("in", 8)])));
            b.connect(s0, "out", o0, "in").unwrap();
            b.connect(s1, "out", o1, "in").unwrap();
            Arc::new(b.build().unwrap())
        };
        for policy in [ShardPolicy::Sequential, ShardPolicy::Auto(2)] {
            let controller =
                crate::SimulationController::new(Arc::clone(&design)).with_shards(policy.clone());
            let payload = catch_unwind(AssertUnwindSafe(|| controller.run())).unwrap_err();
            assert_eq!(payload.downcast_ref::<&str>(), Some(&"boom"), "{policy:?}");
        }
    }

    #[test]
    fn sharded_event_limit_reported() {
        let (design, _) = chains(2, 50);
        let mut par = SimEngine::new(design, &ShardPolicy::Auto(2)).unwrap();
        par.set_event_limit(10);
        par.init();
        assert_eq!(
            par.run(None),
            Err(SimulationError::EventLimitExceeded { limit: 10 })
        );
    }
}
