//! Virtual fault simulation over a `vcad-core` design (the paper's
//! Figure 5 algorithm).

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::error::Error;
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

use vcad_core::{
    Design, Module, ModuleCtx, ModuleId, PortSpec, ShardPolicy, SimEngine, SimulationError, Value,
};
use vcad_logic::LogicVec;
use vcad_netlist::Netlist;
use vcad_obs::Collector;

use crate::collapse::FaultUniverse;
use crate::detect::{logic_heap_bytes, testable_representatives, DetectionTable, FaultRows};
use crate::fault::{Fault, SymbolicFault};

/// Virtual-fault-simulation failures.
#[derive(Clone, Debug, PartialEq)]
pub enum VirtualSimError {
    /// The underlying event-driven simulation failed.
    Simulation(SimulationError),
    /// A detection-table source (local or remote) failed.
    Source(String),
    /// No IP blocks were bound — there is nothing to evaluate.
    NoBlocks,
    /// No primary outputs were given — nothing is observable.
    NoOutputs,
    /// A detection table's fault-free configuration, or one of its
    /// rows, does not match the bound block's output width — the source
    /// answered for a different component (or corrupted data survived
    /// the transport).
    MalformedTable {
        /// The offending block module's name.
        module: String,
        /// The block's total output width.
        expected: usize,
        /// The width of the table's first offending configuration.
        got: usize,
    },
}

impl fmt::Display for VirtualSimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VirtualSimError::Simulation(e) => write!(f, "simulation failed: {e}"),
            VirtualSimError::Source(m) => write!(f, "detection-table source failed: {m}"),
            VirtualSimError::NoBlocks => write!(f, "no IP blocks bound"),
            VirtualSimError::NoOutputs => write!(f, "no primary outputs to observe"),
            VirtualSimError::MalformedTable {
                module,
                expected,
                got,
            } => write!(
                f,
                "detection table for `{module}` is {got} bits wide; the block outputs {expected}"
            ),
        }
    }
}

impl Error for VirtualSimError {}

impl From<SimulationError> for VirtualSimError {
    fn from(e: SimulationError) -> VirtualSimError {
        VirtualSimError::Simulation(e)
    }
}

/// Where detection tables come from.
///
/// On the user side this is all that is known about an IP component's
/// testability: a symbolic fault list (phase 1 of the paper's protocol)
/// and an oracle producing per-pattern detection tables (phase 2). The
/// local implementation is [`NetlistDetectionSource`]; `vcad-ip` provides
/// a remote one that performs an RMI call per table.
pub trait DetectionTableSource: Send + Sync {
    /// The component's symbolic fault list (static, additive — phase 1).
    fn fault_list(&self) -> Vec<SymbolicFault>;

    /// The detection table for one input configuration (dynamic —
    /// phase 2).
    ///
    /// # Errors
    ///
    /// Returns [`VirtualSimError::Source`] when the provider cannot be
    /// reached or answers malformed data.
    fn detection_table(&self, inputs: &LogicVec) -> Result<DetectionTable, VirtualSimError>;

    /// Number of internal fault classes a static testability analysis
    /// proved untestable and removed from
    /// [`fault_list`](DetectionTableSource::fault_list). Defaults to 0 for sources
    /// without such an analysis (remote providers report it only
    /// implicitly, through the shorter list).
    fn untestable_count(&self) -> usize {
        0
    }
}

/// The bytes of tables one [`NetlistDetectionSource`] remembers.
const MEMO_BYTES: usize = 256 * 1024;

/// The provider-side (or fully local) detection-table source: owns the
/// protected netlist, compiled once, and computes tables on demand via
/// the parallel-fault transpose (64 fault classes per pass).
///
/// A table depends on nothing but the netlist and the inputs, so the
/// source remembers the tables it has simulated, in index form, and
/// answers a repeated input configuration without simulating it again;
/// concurrent requests for one configuration share one simulation. The
/// memo fills until the next table would take it past 256 KiB (counted
/// from capacities) and evicts nothing: asked for more distinct inputs
/// than fit, the source keeps the first ones and simulates the rest on
/// every request.
pub struct NetlistDetectionSource {
    netlist: Arc<Netlist>,
    universe: FaultUniverse,
    compiled: vcad_engine::CompiledNetlist,
    /// The testable representatives every table simulates, with their
    /// names: computed by the first table, reset by `with_testability`.
    interned: OnceLock<(Vec<Fault>, Vec<SymbolicFault>)>,
    /// Tables by input configuration, indexing into `interned`: reset
    /// with it.
    memo: Mutex<TableMemo>,
}

/// The tables a [`NetlistDetectionSource`] has simulated, each in a
/// cell that is claimed before its simulation starts: a concurrent
/// request for the same inputs waits for that simulation instead of
/// running a second one.
#[derive(Default)]
struct TableMemo {
    tables: HashMap<LogicVec, Arc<OnceLock<FaultRows>>>,
    /// What the filled cells hold, by [`TableMemo::entry_bytes`]; at
    /// most [`MEMO_BYTES`].
    bytes: usize,
    /// Set when a table did not fit: no cell is claimed after that.
    full: bool,
}

impl TableMemo {
    /// The cell for `inputs`: the one already claimed, or a new one
    /// while the memo is not full.
    fn claim(&mut self, inputs: &LogicVec) -> Option<Arc<OnceLock<FaultRows>>> {
        if let Some(cell) = self.tables.get(inputs) {
            return Some(Arc::clone(cell));
        }
        (!self.full).then(|| {
            let cell = Arc::default();
            self.tables.insert(inputs.clone(), Arc::clone(&cell));
            cell
        })
    }

    /// Counts the table just simulated into the cell of `inputs`, or
    /// gives the cell up and closes the memo if it does not fit.
    fn count(&mut self, inputs: &LogicVec, rows: &FaultRows) {
        let bytes = TableMemo::entry_bytes(inputs, rows);
        if self.bytes + bytes <= MEMO_BYTES {
            self.bytes += bytes;
        } else {
            self.tables.remove(inputs);
            self.full = true;
        }
    }

    /// One entry's bytes: its map slot, the `Arc`'s allocation (two
    /// counts and the cell) and the heap both hold.
    fn entry_bytes(inputs: &LogicVec, rows: &FaultRows) -> usize {
        size_of::<(LogicVec, Arc<OnceLock<FaultRows>>)>()
            + 2 * size_of::<usize>()
            + size_of::<OnceLock<FaultRows>>()
            + logic_heap_bytes(inputs)
            + rows.heap_bytes()
    }
}

impl NetlistDetectionSource {
    /// Creates a source over the component's (private) netlist.
    #[must_use]
    pub fn new(netlist: Arc<Netlist>) -> NetlistDetectionSource {
        // The plan first: it lives as long as the source, and allocated
        // after `collapsed` has freed its working set it would sit on
        // top of that hole and keep the allocator from returning it
        // (+4 MiB peak RSS per provider process on a 16-bit multiplier).
        let compiled = vcad_engine::CompiledNetlist::compile(&netlist);
        let universe = FaultUniverse::collapsed(&netlist);
        NetlistDetectionSource {
            netlist,
            universe,
            compiled,
            interned: OnceLock::new(),
            memo: Mutex::default(),
        }
    }

    /// Runs the static testability analysis over the netlist and marks
    /// provably untestable classes in the universe: they drop out of
    /// the advertised fault list and detection tables skip their
    /// simulation, while [`DetectionTableSource::untestable_count`]
    /// keeps the raw denominator reconstructible.
    #[must_use]
    pub fn with_testability(mut self) -> NetlistDetectionSource {
        let analysis = crate::testability::TestabilityAnalysis::analyze(&self.netlist);
        self.universe.apply_testability(&self.netlist, &analysis);
        self.interned = OnceLock::new();
        self.memo = Mutex::default();
        self
    }

    /// The collapsed fault universe of the component.
    #[must_use]
    pub fn universe(&self) -> &FaultUniverse {
        &self.universe
    }

    /// The memo, whole even if a panicking thread held it: no update
    /// runs code that can panic between its steps.
    fn memo(&self) -> MutexGuard<'_, TableMemo> {
        self.memo.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Whether a class consists solely of stem faults on the component's
    /// input pins. Per the paper, "the user directly handles faults
    /// affecting input or output signals" — boundary faults belong to the
    /// surrounding design, not to the provider's protected list.
    fn is_boundary_class(&self, class: &crate::collapse::FaultClass) -> bool {
        class.members.iter().all(|m| match m.site {
            crate::fault::FaultSite::Net(n) => self.netlist.net(n).is_input(),
            crate::fault::FaultSite::Pin { .. } => false,
        })
    }

    /// The internal (provider-owned) fault classes.
    pub(crate) fn internal_classes(&self) -> impl Iterator<Item = &crate::collapse::FaultClass> {
        self.universe
            .classes()
            .iter()
            .filter(|c| !self.is_boundary_class(c))
    }
}

impl DetectionTableSource for NetlistDetectionSource {
    fn fault_list(&self) -> Vec<SymbolicFault> {
        self.internal_classes()
            .filter(|c| c.is_testable())
            .map(|c| c.representative.name(&self.netlist))
            .collect()
    }

    fn untestable_count(&self) -> usize {
        self.internal_classes().filter(|c| !c.is_testable()).count()
    }

    fn detection_table(&self, inputs: &LogicVec) -> Result<DetectionTable, VirtualSimError> {
        let (faults, names) = self.interned.get_or_init(|| {
            let faults = testable_representatives(&self.universe);
            let names = faults.iter().map(|f| f.name(&self.netlist)).collect();
            (faults, names)
        });
        let name = |i: usize| names[i].clone();
        let simulate = || {
            let mut rows = FaultRows::simulate(&self.compiled, inputs, faults);
            rows.shrink_to_fit();
            rows
        };
        // The cell is claimed before the simulation, so that what the
        // memo keeps is allocated before the reply's short-lived names,
        // not among them: on `vfs_tcp` that kept 0.6 MiB off the
        // provider process's peak resident memory.
        let Some(cell) = self.memo().claim(inputs) else {
            return Ok(simulate().named(inputs, name));
        };
        let mut simulated = false;
        let rows = cell.get_or_init(|| {
            simulated = true;
            simulate()
        });
        if simulated {
            self.memo().count(inputs, rows);
        }
        Ok(rows.named(inputs, name))
    }
}

/// Binds one IP-component module instance in the design to its
/// detection-table source.
///
/// The binding assumes the standard component convention (which
/// [`NetlistBlock`](vcad_core::stdlib::NetlistBlock) follows): the
/// module's input ports, in port order, correspond to the component's
/// inputs, and its output ports, in port order, to the component's
/// outputs.
pub struct IpBlockBinding {
    /// The IP component's module instance.
    pub module: ModuleId,
    /// The testability oracle for the component.
    pub source: Arc<dyn DetectionTableSource>,
}

/// The module override used during injection runs: ignores all inputs and
/// drives a fixed erroneous configuration on the component's outputs when
/// poked with a control token.
struct ForcedOutputs {
    name: String,
    ports: Vec<PortSpec>,
    emissions: Vec<(usize, LogicVec)>,
}

impl Module for ForcedOutputs {
    fn name(&self) -> &str {
        &self.name
    }
    fn ports(&self) -> &[PortSpec] {
        &self.ports
    }
    fn on_signal(&self, _ctx: &mut ModuleCtx<'_>, _port: usize, _value: &LogicVec) {
        // A faulty component frozen at configuration `s` ignores inputs.
    }
    fn on_control(&self, ctx: &mut ModuleCtx<'_>, _message: &Value) {
        for (port, value) in &self.emissions {
            ctx.emit(*port, value.clone());
        }
    }
}

/// Cumulative coverage of one IP block.
#[derive(Clone, Debug)]
pub struct BlockCoverage {
    /// The bound module.
    pub module: ModuleId,
    /// Size of the symbolic fault list.
    pub total: usize,
    /// Internal fault classes the source's static testability analysis
    /// excluded from the list (0 when no analysis ran).
    pub untestable: usize,
    /// Detected faults, in detection order.
    pub detected: Vec<SymbolicFault>,
    /// `(pattern index, cumulative detected)` per simulated pattern.
    pub history: Vec<(usize, usize)>,
}

impl BlockCoverage {
    /// Fault coverage over the *detectable* universe in `[0, 1]` — the
    /// denominator excludes statically untestable classes, mirroring
    /// how boundary classes are already excluded.
    #[must_use]
    pub fn coverage(&self) -> f64 {
        if self.total == 0 {
            1.0
        } else {
            self.detected.len() as f64 / self.total as f64
        }
    }

    /// Fault coverage over the *raw* universe: untestable classes
    /// return to the denominator (and can never be detected), so this
    /// is the pessimistic figure a flow without static pruning would
    /// report.
    #[must_use]
    pub fn raw_coverage(&self) -> f64 {
        let raw = self.total + self.untestable;
        if raw == 0 {
            1.0
        } else {
            self.detected.len() as f64 / raw as f64
        }
    }
}

/// The outcome of a virtual fault simulation run.
#[derive(Clone, Debug)]
pub struct CoverageReport {
    /// Per-block coverage, in binding order.
    pub blocks: Vec<BlockCoverage>,
    /// Patterns simulated.
    pub patterns: usize,
    /// Detection tables requested from sources (cache misses).
    pub tables_requested: usize,
    /// Requests served from the per-input-configuration cache.
    pub cache_hits: usize,
    /// Injection runs performed.
    pub injections: usize,
}

/// The user-side virtual fault simulator.
///
/// Implements the paper's two-phase protocol over an elaborated design
/// containing IP blocks:
///
/// 1. build the global fault list as the union of the blocks' symbolic
///    fault lists;
/// 2. per test pattern: simulate the fault-free design, hand each block's
///    input configuration to its provider, receive the detection table,
///    and for each still-undetected erroneous output configuration run a
///    *single-instant injection*: a fresh scheduler preloaded with the
///    fault-free signal state, with the block's behaviour replaced by a
///    `ForcedOutputs` override; if any primary output differs, every
///    fault in that table row is detected and dropped.
///
/// The design's stimulus sources drive the patterns (one per tick), and
/// the observed primary outputs are the given capture modules' inputs.
/// The combinational paths from the IP blocks to the observed outputs
/// must be delay-free (gate-level blocks are), matching the paper's
/// combinational setting.
pub struct VirtualFaultSim {
    design: Arc<Design>,
    blocks: Vec<IpBlockBinding>,
    outputs: Vec<ModuleId>,
    table_cache: bool,
    obs: Collector,
    shards: ShardPolicy,
    engine: vcad_engine::EngineKind,
}

impl VirtualFaultSim {
    /// Creates a simulator observing the given primary-output modules.
    ///
    /// # Errors
    ///
    /// Returns [`VirtualSimError::NoBlocks`] / [`VirtualSimError::NoOutputs`]
    /// when there is nothing to evaluate or nothing to observe.
    pub fn new(
        design: Arc<Design>,
        blocks: Vec<IpBlockBinding>,
        outputs: Vec<ModuleId>,
    ) -> Result<VirtualFaultSim, VirtualSimError> {
        if blocks.is_empty() {
            return Err(VirtualSimError::NoBlocks);
        }
        if outputs.is_empty() {
            return Err(VirtualSimError::NoOutputs);
        }
        Ok(VirtualFaultSim {
            design,
            blocks,
            outputs,
            table_cache: true,
            obs: Collector::disabled(),
            shards: ShardPolicy::Sequential,
            engine: vcad_engine::EngineKind::default(),
        })
    }

    /// Selects the gate-evaluation backend for the good machine and
    /// every single-instant injection scheduler: `Compiled` replaces
    /// each module offering a compiled twin (the stdlib netlist blocks)
    /// with its bit-parallel equivalent. Coverage reports, detection
    /// order and fees are bit-identical across backends; only the wall
    /// clock moves.
    #[must_use]
    pub fn with_engine(mut self, engine: vcad_engine::EngineKind) -> VirtualFaultSim {
        self.engine = engine;
        self
    }

    /// Runs the *good machine* (the fault-free simulation that produces
    /// each pattern's signal configuration) under the given
    /// [`ShardPolicy`]. Injection runs stay sequential — each is a
    /// single instant. Coverage results are bit-identical to the
    /// sequential good machine.
    #[must_use]
    pub fn with_shards(mut self, policy: ShardPolicy) -> VirtualFaultSim {
        self.shards = policy;
        self
    }

    /// Routes run-level metrics (`faults.*` counters) and a per-run span
    /// into `obs`. The thousands of single-instant injection schedulers
    /// stay uninstrumented — their creation is the hot path the paper's
    /// figure 5 loop turns on.
    #[must_use]
    pub fn with_collector(mut self, obs: Collector) -> VirtualFaultSim {
        self.obs = obs;
        self
    }

    /// Disables the per-input-configuration detection-table cache, so
    /// every pattern issues a fresh provider request — the ablation
    /// `crates/faults/tests/proptests.rs` runs against the cached form.
    /// Results are unchanged; only the request count grows.
    #[must_use]
    pub fn without_table_cache(mut self) -> VirtualFaultSim {
        self.table_cache = false;
        self
    }

    /// Runs the full two-phase virtual fault simulation.
    ///
    /// # Errors
    ///
    /// Returns a [`VirtualSimError`] if the simulation or a
    /// detection-table source fails.
    pub fn run(&self) -> Result<CoverageReport, VirtualSimError> {
        let run_span = self
            .obs
            .is_enabled()
            .then(|| self.obs.span("faults", "run"));
        // Phase 1: the union of symbolic fault lists.
        let mut remaining: Vec<HashSet<SymbolicFault>> = Vec::new();
        let mut block_cov: Vec<BlockCoverage> = Vec::new();
        for b in &self.blocks {
            let list = b.source.fault_list();
            block_cov.push(BlockCoverage {
                module: b.module,
                total: list.len(),
                untestable: b.source.untestable_count(),
                detected: Vec::new(),
                history: Vec::new(),
            });
            remaining.push(list.into_iter().collect());
        }

        let mut table_cache: HashMap<(usize, LogicVec), DetectionTable> = HashMap::new();
        let mut tables_requested = 0;
        let mut cache_hits = 0;
        let mut injections = 0;

        // Phase 2: fault-free simulation, one pattern per instant.
        // Compiled-engine twins are computed once and shared (cheap Arc
        // clones) by the good machine and every injection scheduler.
        let overrides: Vec<(ModuleId, Arc<dyn Module>)> = match self.engine {
            vcad_engine::EngineKind::Event => Vec::new(),
            vcad_engine::EngineKind::Compiled => self.design.compiled_overrides(),
        };
        let mut good = SimEngine::new(Arc::clone(&self.design), &self.shards)?;
        for (id, twin) in &overrides {
            good.override_module(*id, Arc::clone(twin));
        }
        good.init();
        let mut pattern_index = 0usize;
        while good.step_instant()?.is_some() {
            // Snapshot the complete fault-free signal state.
            let snapshots: Vec<_> = self
                .design
                .modules()
                .map(|(id, _)| (id, good.snapshot(id)))
                .collect();
            let good_outputs = self.observed_outputs(&good);

            for (bi, binding) in self.blocks.iter().enumerate() {
                if remaining[bi].is_empty() {
                    let n = block_cov[bi].detected.len();
                    block_cov[bi].history.push((pattern_index, n));
                    continue;
                }
                let inputs = self.block_inputs(&good, binding.module);
                // The cache stores each table once and lends it; without
                // the cache nothing is ever inserted, so every pattern
                // misses and the fetched table lives in `fetched`.
                let fetched;
                let table = match table_cache.entry((bi, inputs)) {
                    Entry::Occupied(hit) => {
                        cache_hits += 1;
                        &*hit.into_mut()
                    }
                    Entry::Vacant(miss) => {
                        tables_requested += 1;
                        let mut t = binding.source.detection_table(&miss.key().1)?;
                        // Fail closed on tables answered for a different
                        // component: the forced-output injection below
                        // slices rows by the block's port widths.
                        let module = self.design.module(binding.module);
                        let expected: usize = module
                            .ports()
                            .iter()
                            .filter(|p| p.direction().produces_output())
                            .map(vcad_core::PortSpec::width)
                            .sum();
                        let mut widths = std::iter::once(t.fault_free())
                            .chain(t.rows().iter().map(|(out, _)| out))
                            .map(LogicVec::width);
                        if let Some(got) = widths.find(|w| *w != expected) {
                            return Err(VirtualSimError::MalformedTable {
                                module: module.name().to_owned(),
                                expected,
                                got,
                            });
                        }
                        if self.table_cache {
                            t.shrink_to_fit();
                            &*miss.insert(t)
                        } else {
                            fetched = t;
                            &fetched
                        }
                    }
                };

                let pending: Vec<&(LogicVec, Vec<SymbolicFault>)> = table
                    .rows()
                    .iter()
                    .filter(|(_, faults)| faults.iter().any(|f| remaining[bi].contains(f)))
                    .collect();
                injections += pending.len();
                for (out, faults) in pending {
                    let detected = self.inject_and_observe(
                        binding.module,
                        out,
                        &snapshots,
                        &good_outputs,
                        &overrides,
                    )?;
                    if detected {
                        for f in faults {
                            if remaining[bi].remove(f) {
                                block_cov[bi].detected.push(f.clone());
                            }
                        }
                    }
                }
                let n = block_cov[bi].detected.len();
                block_cov[bi].history.push((pattern_index, n));
            }
            pattern_index += 1;
        }

        let m = self.obs.metrics();
        m.counter("faults.patterns").add(pattern_index as u64);
        m.counter("faults.tables_requested")
            .add(tables_requested as u64);
        m.counter("faults.cache_hits").add(cache_hits as u64);
        m.counter("faults.injections").add(injections as u64);
        m.counter("faults.detected")
            .add(block_cov.iter().map(|b| b.detected.len() as u64).sum());
        drop(run_span);

        Ok(CoverageReport {
            blocks: block_cov,
            patterns: pattern_index,
            tables_requested,
            cache_hits,
            injections,
        })
    }

    /// The concatenated input-port configuration of a block.
    fn block_inputs(&self, sched: &SimEngine, module: ModuleId) -> LogicVec {
        let m = self.design.module(module);
        let mut v = LogicVec::zeros(0);
        for (i, p) in m.ports().iter().enumerate() {
            if p.direction().accepts_input() {
                v = v.concat(sched.port_value(vcad_core::PortRef { module, port: i }));
            }
        }
        v
    }

    /// The observed primary-output values (first port of each capture
    /// module).
    fn observed_outputs(&self, sched: &SimEngine) -> Vec<LogicVec> {
        self.outputs
            .iter()
            .map(|&m| {
                sched
                    .port_value(vcad_core::PortRef { module: m, port: 0 })
                    .clone()
            })
            .collect()
    }

    /// Step 2a/2b of Figure 5: one single-instant injection run.
    fn inject_and_observe(
        &self,
        block: ModuleId,
        faulty_out: &LogicVec,
        snapshots: &[(ModuleId, vcad_core::PortSnapshot)],
        good_outputs: &[LogicVec],
        overrides: &[(ModuleId, Arc<dyn Module>)],
    ) -> Result<bool, VirtualSimError> {
        let mut sched = SimEngine::new(Arc::clone(&self.design), &ShardPolicy::Sequential)?;
        // Compiled twins first; the injected block's ForcedOutputs
        // override below replaces its twin, so order matters.
        for (id, twin) in overrides {
            sched.override_module(*id, Arc::clone(twin));
        }
        // Reproduce the fault-free signal configuration everywhere.
        for (id, snap) in snapshots {
            for (port, value) in snap.ports.iter().enumerate() {
                sched.preload_port(vcad_core::PortRef { module: *id, port }, value.clone())?;
            }
        }
        // Replace the block's behaviour with the forced configuration.
        let original = self.design.module(block);
        let mut emissions = Vec::new();
        let mut offset = 0;
        for (i, p) in original.ports().iter().enumerate() {
            if p.direction().produces_output() {
                emissions.push((i, faulty_out.slice(offset, p.width())));
                offset += p.width();
            }
        }
        sched.override_module(
            block,
            Arc::new(ForcedOutputs {
                name: format!("{}*", original.name()),
                ports: original.ports().to_vec(),
                emissions,
            }),
        );
        // Poke the faulty block and let the error propagate.
        sched.inject_control(block, Value::Null, 0)?;
        sched.run(None)?;
        Ok(self.observed_outputs(&sched) != good_outputs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::SerialFaultSim;
    use vcad_core::stdlib::{NetlistBlock, PrimaryOutput, VectorInput};
    use vcad_core::DesignBuilder;
    use vcad_netlist::{generators, GateKind, NetlistBuilder};

    #[test]
    fn testability_pruning_shrinks_the_fault_list_not_the_tables() {
        let nl = Arc::new(generators::untestable_demo(2));
        let plain = NetlistDetectionSource::new(nl.clone());
        let pruned = NetlistDetectionSource::new(nl.clone()).with_testability();
        assert_eq!(plain.untestable_count(), 0);
        assert!(pruned.untestable_count() > 0);
        let full_list = plain.fault_list();
        let pruned_list = pruned.fault_list();
        // The pruned list plus the untestable count reconstructs the raw
        // denominator, and pruning only ever removes names.
        assert_eq!(
            pruned_list.len() + pruned.untestable_count(),
            full_list.len()
        );
        assert!(pruned_list.iter().all(|f| full_list.contains(f)));
        // Tables stay bit-identical: untestable classes never produce a
        // row anyway.
        for p in 0..16u64 {
            let inputs = LogicVec::from_u64(4, p);
            assert_eq!(
                plain.detection_table(&inputs).unwrap(),
                pruned.detection_table(&inputs).unwrap(),
                "under {inputs}"
            );
        }
    }

    #[test]
    fn with_testability_resets_the_interned_fault_names() {
        let nl = Arc::new(generators::untestable_demo(2));
        let source = NetlistDetectionSource::new(nl);
        assert!(
            source.interned.get().is_none(),
            "interned by the first table"
        );
        let _ = source.detection_table(&LogicVec::zeros(4)).unwrap();
        let all = source.interned.get().unwrap().0.len();
        assert_eq!(all, source.universe().class_count());
        let source = source.with_testability();
        assert!(source.interned.get().is_none());
        let _ = source.detection_table(&LogicVec::zeros(4)).unwrap();
        let (faults, names) = source.interned.get().unwrap();
        assert_eq!(faults.len(), source.universe().testable_class_count());
        assert!(faults.len() < all);
        assert_eq!(names.len(), faults.len());
    }

    /// Every input of a 4-bit multiplier, asked twice: the first answer
    /// is simulated, the second is served from the memo where the table
    /// fitted, and both encode byte for byte as a fresh build does.
    /// `with_testability` changes the simulated fault slice, so it must
    /// start an empty memo.
    #[test]
    fn memo_served_tables_encode_like_a_fresh_build() {
        let nl = Arc::new(generators::wallace_multiplier(4));
        let universe = FaultUniverse::collapsed(&nl);
        let fresh: Vec<Vec<u8>> = (0..256u64)
            .map(|p| {
                let inputs = LogicVec::from_u64(8, p);
                DetectionTable::build(&nl, &universe, &inputs)
                    .to_value()
                    .encode()
            })
            .collect();
        let ask_all_twice = |source: &NetlistDetectionSource| {
            for round in 0..2 {
                for (p, fresh) in fresh.iter().enumerate() {
                    let inputs = LogicVec::from_u64(8, p as u64);
                    let table = source.detection_table(&inputs).unwrap();
                    assert_eq!(table.to_value().encode(), *fresh, "{inputs}, round {round}");
                }
            }
            let memo = source.memo();
            assert!(!memo.tables.is_empty() && memo.bytes <= MEMO_BYTES);
        };
        let source = NetlistDetectionSource::new(Arc::clone(&nl));
        ask_all_twice(&source);
        let source = source.with_testability();
        assert!(source.memo().tables.is_empty() && source.memo().bytes == 0);
        ask_all_twice(&source);
    }

    /// Two threads released together ask for the same table: one cell,
    /// counted once, and both get the fresh build's table whichever
    /// simulated it.
    #[test]
    fn concurrent_requests_share_one_cell() {
        let nl = Arc::new(generators::wallace_multiplier(4));
        let source = NetlistDetectionSource::new(Arc::clone(&nl));
        let inputs = LogicVec::from_u64(8, 0xA7);
        let fresh = DetectionTable::build(&nl, &FaultUniverse::collapsed(&nl), &inputs);
        let barrier = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    barrier.wait();
                    assert_eq!(source.detection_table(&inputs).unwrap(), fresh);
                });
            }
        });
        let memo = source.memo();
        let cell = memo.tables.get(&inputs).expect("remembered");
        let rows = cell.get().expect("filled");
        assert_eq!(memo.tables.len(), 1);
        assert_eq!(memo.bytes, TableMemo::entry_bytes(&inputs, rows));
    }

    /// A remembered table is answered from the memo, not simulated
    /// again: rows planted in the memo come back as the reply.
    #[test]
    fn a_remembered_table_is_not_simulated_again() {
        let nl = Arc::new(generators::wallace_multiplier(4));
        let source = NetlistDetectionSource::new(nl);
        let inputs = LogicVec::from_u64(8, 0x35);
        assert!(!source.detection_table(&inputs).unwrap().rows().is_empty());
        let planted = FaultRows::simulate(&source.compiled, &inputs, &[]);
        source
            .memo()
            .tables
            .insert(inputs.clone(), Arc::new(OnceLock::from(planted)));
        assert!(source.detection_table(&inputs).unwrap().rows().is_empty());
    }

    /// Ten bounds' worth of distinct inputs to a 10-bit multiplier: the
    /// memo stops at its bound, and every table, remembered or not, is
    /// the one a fresh build gives.
    #[test]
    fn the_memo_stays_within_its_bound() {
        let nl = Arc::new(generators::wallace_multiplier(10));
        let universe = FaultUniverse::collapsed(&nl);
        let compiled = vcad_engine::CompiledNetlist::compile(&nl);
        let source = NetlistDetectionSource::new(Arc::clone(&nl));
        let mut state = 0x5EED_u64;
        let (mut offered, mut inputs) = (0, Vec::new());
        while offered < 10 * MEMO_BYTES {
            let x = LogicVec::from_u64(20, vcad_prng::splitmix64(&mut state) & 0xF_FFFF);
            let table = source.detection_table(&x).unwrap();
            assert_eq!(
                table,
                DetectionTable::build_compiled(&compiled, &nl, &universe, &x)
            );
            assert!(
                source.memo().bytes <= MEMO_BYTES,
                "after {} inputs",
                inputs.len()
            );
            let mut rows = FaultRows::simulate(&compiled, &x, &source.interned.get().unwrap().0);
            rows.shrink_to_fit();
            offered += TableMemo::entry_bytes(&x, &rows);
            inputs.push(x);
        }
        let memo_len = source.memo().tables.len();
        assert!(memo_len > 0 && memo_len < inputs.len() / 5, "{memo_len}");
        for x in &inputs {
            assert_eq!(
                source.detection_table(x).unwrap(),
                DetectionTable::build_compiled(&compiled, &nl, &universe, x)
            );
        }
        assert_eq!(source.memo().tables.len(), memo_len, "nothing evicted");
    }

    /// Builds the paper's Figure 4 circuit around IP1 (a NAND-style half
    /// adder): E = AND(A, B); (OIP1, OIP2) = IP1(E, C); F = AND(C, D);
    /// O1 = AND(OIP1, D); O2 = OR(OIP2, F).
    fn figure4_design(
        patterns: &[(u8, u8, u8, u8)],
    ) -> (Arc<Design>, ModuleId, Vec<ModuleId>, Arc<Netlist>) {
        let to_vec = |bits: Vec<u8>| -> Vec<LogicVec> {
            bits.into_iter()
                .map(|b| LogicVec::from_u64(1, u64::from(b)))
                .collect()
        };
        let ip1 = Arc::new(generators::half_adder_nand());

        // User-side glue logic as tiny netlists.
        let and2 = |name: &str| {
            let mut nb = NetlistBuilder::new(name);
            let x = nb.input("x");
            let y = nb.input("y");
            let o = nb.gate(GateKind::And, &[x, y]);
            nb.output("o", o);
            Arc::new(nb.build().unwrap())
        };
        let or2 = {
            let mut nb = NetlistBuilder::new("or2");
            let x = nb.input("x");
            let y = nb.input("y");
            let o = nb.gate(GateKind::Or, &[x, y]);
            nb.output("o", o);
            Arc::new(nb.build().unwrap())
        };

        let mut b = DesignBuilder::new("figure4");
        let ia = b.add_module(Arc::new(VectorInput::new(
            "A",
            to_vec(patterns.iter().map(|p| p.0).collect()),
        )));
        let ib = b.add_module(Arc::new(VectorInput::new(
            "B",
            to_vec(patterns.iter().map(|p| p.1).collect()),
        )));
        let ic = b.add_module(Arc::new(VectorInput::new(
            "C",
            to_vec(patterns.iter().map(|p| p.2).collect()),
        )));
        let id = b.add_module(Arc::new(VectorInput::new(
            "D",
            to_vec(patterns.iter().map(|p| p.3).collect()),
        )));
        // C and D feed two consumers each; connectors are point-to-point.
        let fan_c = b.add_module(Arc::new(vcad_core::stdlib::Fanout::uniform("FC", 1, 2)));
        let fan_d = b.add_module(Arc::new(vcad_core::stdlib::Fanout::uniform("FD", 1, 2)));
        let e_gate = b.add_module(Arc::new(NetlistBlock::new("E", and2("e_and"))));
        let ip = b.add_module(Arc::new(NetlistBlock::new("IP1", Arc::clone(&ip1))));
        let f_gate = b.add_module(Arc::new(NetlistBlock::new("F", and2("f_and"))));
        let o1_gate = b.add_module(Arc::new(NetlistBlock::new("O1G", and2("o1_and"))));
        let o2_gate = b.add_module(Arc::new(NetlistBlock::new("O2G", or2)));
        let o1 = b.add_module(Arc::new(PrimaryOutput::new("O1", 1)));
        let o2 = b.add_module(Arc::new(PrimaryOutput::new("O2", 1)));

        b.connect(ia, "out", e_gate, "x").unwrap();
        b.connect(ib, "out", e_gate, "y").unwrap();
        b.connect(ic, "out", fan_c, "in").unwrap();
        b.connect(id, "out", fan_d, "in").unwrap();
        b.connect(e_gate, "o", ip, "a").unwrap();
        b.connect(fan_c, "out0", ip, "b").unwrap();
        b.connect(fan_c, "out1", f_gate, "x").unwrap();
        b.connect(fan_d, "out0", f_gate, "y").unwrap();
        b.connect(ip, "sum", o1_gate, "x").unwrap();
        b.connect(fan_d, "out1", o1_gate, "y").unwrap();
        b.connect(ip, "carry", o2_gate, "x").unwrap();
        b.connect(f_gate, "o", o2_gate, "y").unwrap();
        b.connect(o1_gate, "o", o1, "in").unwrap();
        b.connect(o2_gate, "o", o2, "in").unwrap();
        (Arc::new(b.build().unwrap()), ip, vec![o1, o2], ip1)
    }

    /// The same circuit as one flat netlist, for the full-disclosure
    /// baseline.
    fn figure4_flat() -> Netlist {
        let mut nb = NetlistBuilder::new("figure4_flat");
        let a = nb.input("A");
        let b_ = nb.input("B");
        let c = nb.input("C");
        let d = nb.input("D");
        let e = nb.named_gate("E", GateKind::And, &[a, b_]);
        // IP1 internals (half_adder_nand structure).
        let i1 = nb.named_gate("I1", GateKind::Nand, &[e, c]);
        let i2 = nb.named_gate("I2", GateKind::Nand, &[e, i1]);
        let i3 = nb.named_gate("I3", GateKind::Nand, &[c, i1]);
        let i4 = nb.named_gate("I4", GateKind::Nand, &[i2, i3]);
        let i5 = nb.named_gate("I5", GateKind::Not, &[i1]);
        let i6 = nb.named_gate("I6", GateKind::Buf, &[i4]);
        let f = nb.named_gate("F", GateKind::And, &[c, d]);
        let o1 = nb.named_gate("O1", GateKind::And, &[i6, d]);
        let o2 = nb.named_gate("O2", GateKind::Or, &[i5, f]);
        nb.output("O1", o1);
        nb.output("O2", o2);
        nb.build().unwrap()
    }

    fn all_16_patterns() -> Vec<(u8, u8, u8, u8)> {
        (0..16u8)
            .map(|p| (p & 1, p >> 1 & 1, p >> 2 & 1, p >> 3 & 1))
            .collect()
    }

    #[test]
    fn paper_example_sum_flip_fault_needs_d_high_to_propagate() {
        // The paper's walk-through: with ABCD = 1100 the IP sees inputs
        // (1, 0); the fault that flips the sum output (their `I3sa0`)
        // produces an erroneous value on OIP1 that does NOT reach O1
        // because D = 0. Pattern 1101 propagates it. Our IP1 has its own
        // internal numbering, so identify the sum-flip fault from the
        // detection table instead of by the paper's gate name.
        let source_nl = Arc::new(generators::half_adder_nand());
        let probe = NetlistDetectionSource::new(Arc::clone(&source_nl));
        // IP inputs (a=1, b=0): fault-free (sum, carry) = (1, 0).
        let table = probe.detection_table(&"01".parse().unwrap()).unwrap();
        assert_eq!(table.fault_free().to_string(), "01");
        // The row flipping only the sum bit: (sum, carry) = (0, 0).
        let provider_list = probe.fault_list();
        let sum_flip_faults: Vec<SymbolicFault> = table
            .rows()
            .iter()
            .find(|(out, _)| out.to_string() == "00")
            .map(|(_, faults)| faults.clone())
            .expect("sum-flip row exists, as in the paper's table")
            .into_iter()
            // The row also names boundary faults (e.g. the stem of input
            // `a`); those are the user's responsibility and never appear
            // in the provider's list.
            .filter(|f| provider_list.contains(f))
            .collect();
        assert!(!sum_flip_faults.is_empty());

        // Pattern 1100 alone: not detected.
        let (design, ip, outputs, ip1) = figure4_design(&[(1, 1, 0, 0)]);
        let sim = VirtualFaultSim::new(
            design,
            vec![IpBlockBinding {
                module: ip,
                source: Arc::new(NetlistDetectionSource::new(Arc::clone(&ip1))),
            }],
            outputs,
        )
        .unwrap();
        let report = sim.run().unwrap();
        for f in &sum_flip_faults {
            assert!(
                !report.blocks[0].detected.contains(f),
                "D=0 must block propagation of {f}"
            );
        }

        // Patterns 1100 then 1101: detected with the second pattern.
        let (design, ip, outputs, ip1) = figure4_design(&[(1, 1, 0, 0), (1, 1, 0, 1)]);
        let sim = VirtualFaultSim::new(
            design,
            vec![IpBlockBinding {
                module: ip,
                source: Arc::new(NetlistDetectionSource::new(ip1)),
            }],
            outputs,
        )
        .unwrap();
        let report = sim.run().unwrap();
        let cov = &report.blocks[0];
        for f in &sum_flip_faults {
            assert!(cov.detected.contains(f), "detected: {:?}", cov.detected);
        }
        assert!(cov.history[1].1 > cov.history[0].1);
    }

    #[test]
    fn virtual_equals_flat_full_disclosure_coverage() {
        let patterns = all_16_patterns();
        let (design, ip, outputs, ip1) = figure4_design(&patterns);
        let source = Arc::new(NetlistDetectionSource::new(Arc::clone(&ip1)));
        let sim = VirtualFaultSim::new(
            design,
            vec![IpBlockBinding {
                module: ip,
                source: source.clone(),
            }],
            outputs,
        )
        .unwrap();
        let report = sim.run().unwrap();
        let virtual_detected: HashSet<String> = report.blocks[0]
            .detected
            .iter()
            .map(|f| f.as_str().to_owned())
            .collect();

        // Flat baseline: same IP-internal fault classes, simulated with
        // full structural knowledge in the flattened netlist.
        let flat = figure4_flat();
        let ip_universe = source.universe();
        // Map the IP's collapsed representatives onto the flat netlist by
        // name (the flat copy uses identical internal net names).
        let flat_universe = FaultUniverse::collapsed(&flat);
        let flat_patterns: Vec<LogicVec> = patterns
            .iter()
            .map(|(a, b, c, d)| {
                LogicVec::from_u64(
                    4,
                    u64::from(*a) | u64::from(*b) << 1 | u64::from(*c) << 2 | u64::from(*d) << 3,
                )
            })
            .collect();
        let flat_detected =
            SerialFaultSim::new(&flat, flat_universe.representatives()).run(&flat_patterns);
        let flat_names: HashSet<String> = flat_detected
            .iter()
            .map(|f| f.name(&flat).as_str().to_owned())
            .collect();

        // Every IP-internal fault name that the virtual sim tracked must
        // be classified identically by the flat sim. (The flat universe
        // collapses across the IP boundary too, so compare per member
        // name, checking whether its flat class was detected.)
        let mut member_names: HashMap<String, String> = HashMap::new();
        for cl in flat_universe.classes() {
            let rep = cl.representative.name(&flat).as_str().to_owned();
            for m in &cl.members {
                member_names.insert(m.name(&flat).as_str().to_owned(), rep.clone());
            }
        }
        // Boundary (input-stem) classes belong to the user, not to the
        // provider's list; compare internal classes only.
        let internal = ip_universe.classes().iter().filter(|c| {
            c.members.iter().any(|m| match m.site {
                crate::fault::FaultSite::Net(n) => !ip1.net(n).is_input(),
                crate::fault::FaultSite::Pin { .. } => true,
            })
        });
        for class in internal {
            let ip_name = class.representative.name(&ip1).as_str().to_owned();
            let Some(flat_rep) = member_names.get(&ip_name) else {
                panic!("ip fault {ip_name} missing from flat universe");
            };
            let flat_hit = flat_names.contains(flat_rep);
            let virt_hit = virtual_detected.contains(&ip_name);
            assert_eq!(
                flat_hit, virt_hit,
                "fault {ip_name}: flat={flat_hit} virtual={virt_hit}"
            );
        }
    }

    #[test]
    fn detection_tables_are_cached_per_input_configuration() {
        // Repeating the same pattern should hit the cache.
        let (design, ip, outputs, ip1) =
            figure4_design(&[(1, 1, 0, 1), (1, 1, 0, 1), (1, 1, 0, 1)]);
        let sim = VirtualFaultSim::new(
            design,
            vec![IpBlockBinding {
                module: ip,
                source: Arc::new(NetlistDetectionSource::new(ip1)),
            }],
            outputs,
        )
        .unwrap();
        let report = sim.run().unwrap();
        assert_eq!(report.patterns, 3);
        assert!(report.cache_hits >= 2, "{report:?}");
        assert_eq!(report.tables_requested, 1);
    }

    #[test]
    fn collector_mirrors_report_counts() {
        let (design, ip, outputs, ip1) = figure4_design(&all_16_patterns());
        let obs = Collector::enabled();
        let sim = VirtualFaultSim::new(
            design,
            vec![IpBlockBinding {
                module: ip,
                source: Arc::new(NetlistDetectionSource::new(ip1)),
            }],
            outputs,
        )
        .unwrap()
        .with_collector(obs.clone());
        let report = sim.run().unwrap();
        let snap = obs.metrics().snapshot();
        assert_eq!(snap.counters["faults.patterns"], report.patterns as u64);
        assert_eq!(
            snap.counters["faults.tables_requested"],
            report.tables_requested as u64
        );
        assert_eq!(snap.counters["faults.cache_hits"], report.cache_hits as u64);
        assert_eq!(snap.counters["faults.injections"], report.injections as u64);
        assert_eq!(obs.trace().events_named("run").len(), 1);
    }

    #[test]
    fn typed_errors_for_malformed_configuration() {
        let (design, ip, outputs, ip1) = figure4_design(&[(1, 1, 0, 0)]);
        let source: Arc<dyn DetectionTableSource> =
            Arc::new(NetlistDetectionSource::new(Arc::clone(&ip1)));
        assert_eq!(
            VirtualFaultSim::new(Arc::clone(&design), vec![], outputs.clone()).err(),
            Some(VirtualSimError::NoBlocks)
        );
        assert_eq!(
            VirtualFaultSim::new(
                Arc::clone(&design),
                vec![IpBlockBinding {
                    module: ip,
                    source: Arc::clone(&source),
                }],
                vec![],
            )
            .err(),
            Some(VirtualSimError::NoOutputs)
        );
        // A source answering for a different component: its tables are one
        // bit wide while the bound block outputs two. The run must fail
        // closed instead of slicing garbage.
        let mut nb = NetlistBuilder::new("and2_wrong");
        let x = nb.input("x");
        let y = nb.input("y");
        let o = nb.gate(GateKind::And, &[x, y]);
        nb.output("o", o);
        let wrong = Arc::new(nb.build().unwrap());
        let sim = VirtualFaultSim::new(
            design,
            vec![IpBlockBinding {
                module: ip,
                source: Arc::new(NetlistDetectionSource::new(wrong)),
            }],
            outputs,
        )
        .unwrap();
        assert!(matches!(
            sim.run(),
            Err(VirtualSimError::MalformedTable {
                expected: 2,
                got: 1,
                ..
            })
        ));
    }

    /// A source answering every request with one canned result, and
    /// advertising the fault its short row names.
    struct CannedSource(Result<DetectionTable, VirtualSimError>);

    impl DetectionTableSource for CannedSource {
        fn fault_list(&self) -> Vec<SymbolicFault> {
            vec![SymbolicFault::from("f")]
        }
        fn detection_table(&self, _inputs: &LogicVec) -> Result<DetectionTable, VirtualSimError> {
            self.0.clone()
        }
    }

    fn run_figure4_against(source: CannedSource) -> Result<CoverageReport, VirtualSimError> {
        let (design, ip, outputs, _) = figure4_design(&[(1, 1, 0, 1)]);
        VirtualFaultSim::new(
            design,
            vec![IpBlockBinding {
                module: ip,
                source: Arc::new(source),
            }],
            outputs,
        )
        .unwrap()
        .run()
    }

    /// IP1 outputs two bits; the fault-free configuration is right but
    /// the row for `f` is one bit short, so forcing it would slice past
    /// its end.
    fn short_row_table() -> DetectionTable {
        DetectionTable::from_parts(
            "01".parse().unwrap(),
            "01".parse().unwrap(),
            vec![("0".parse().unwrap(), vec![SymbolicFault::from("f")])],
        )
    }

    #[test]
    fn short_row_off_the_wire_is_a_typed_error_not_a_panic() {
        // What `RemoteDetectionSource` does with a provider's answer.
        let decoded = DetectionTable::from_value(&short_row_table().to_value())
            .ok_or_else(|| VirtualSimError::Source("malformed detection table".into()));
        assert!(matches!(
            run_figure4_against(CannedSource(decoded)),
            Err(VirtualSimError::Source(_))
        ));
    }

    #[test]
    fn short_row_from_a_local_source_is_a_malformed_table() {
        assert!(matches!(
            run_figure4_against(CannedSource(Ok(short_row_table()))),
            Err(VirtualSimError::MalformedTable {
                expected: 2,
                got: 1,
                ..
            })
        ));
    }

    #[test]
    fn coverage_monotone_and_bounded() {
        let (design, ip, outputs, ip1) = figure4_design(&all_16_patterns());
        let sim = VirtualFaultSim::new(
            design,
            vec![IpBlockBinding {
                module: ip,
                source: Arc::new(NetlistDetectionSource::new(ip1)),
            }],
            outputs,
        )
        .unwrap();
        let report = sim.run().unwrap();
        let cov = &report.blocks[0];
        assert!(cov.coverage() > 0.0 && cov.coverage() <= 1.0);
        for w in cov.history.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
        assert_eq!(cov.detected.len(), cov.history.last().unwrap().1);
    }
}
