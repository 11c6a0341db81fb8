//! The paper's performance case study: the Figure 2 circuit in three
//! deployment scenarios.
//!
//! * **AL** (all local): the user owns everything — local functional
//!   model, local gate-level power estimator, no RMI anywhere.
//! * **ER** (estimator remote): the functional model (public part) runs
//!   locally; only the accurate power-estimation method is invoked on the
//!   provider's server, with pattern buffering.
//! * **MR** (multiplier remote): the entire multiplier is remote — every
//!   simulation event crosses the RMI boundary ("not realistic, but
//!   useful for comparison").

use std::sync::Arc;
use std::time::{Duration, Instant};

use vcad_core::stdlib::{NetlistBusBlock, PrimaryOutput, RandomInput, Register, WordMultiplier};
use vcad_core::{
    Design, DesignBuilder, Estimator, Module, ModuleId, Parameter, SetupController, SetupCriterion,
    ShardPolicy, SimulationController,
};
use vcad_ip::{ClientSession, ComponentOffering, IpCache, IpComponentModule, ProviderServer};
use vcad_netlist::generators;
use vcad_obs::{Collector, MetricsSnapshot};
use vcad_power::{PowerModel, TogglePowerEstimator};
use vcad_rmi::{heavy_chaos_stack, InProcTransport, Transport, TransportStats};

/// The three deployment scenarios of Table 2.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scenario {
    /// All design components local (classical, no IP protection).
    AllLocal,
    /// Only the accurate estimator method is remote.
    EstimatorRemote,
    /// The entire multiplier is remote.
    MultiplierRemote,
}

impl Scenario {
    /// All scenarios, in the paper's order.
    pub const ALL: [Scenario; 3] = [
        Scenario::AllLocal,
        Scenario::EstimatorRemote,
        Scenario::MultiplierRemote,
    ];

    /// The paper's label for the scenario.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Scenario::AllLocal => "All local",
            Scenario::EstimatorRemote => "Estimator remote",
            Scenario::MultiplierRemote => "Multiplier remote",
        }
    }
}

/// A ready-to-run instantiation of the Figure 2 circuit.
///
/// All RMI traffic, provider fees and scheduler activity funnel into one
/// [`Collector`] — the single source of truth the run report reads its
/// transport numbers from.
pub struct ScenarioRig {
    design: Arc<Design>,
    controller: SimulationController,
    output: ModuleId,
    obs: Collector,
    cache: Option<Arc<IpCache>>,
    // Kept alive for the duration of the rig: the provider process.
    _server: Option<ProviderServer>,
}

/// The measured outcome of one scenario run.
#[derive(Clone, Debug)]
pub struct ScenarioRun {
    /// Which scenario ran.
    pub scenario: Scenario,
    /// Client CPU time (measured wall time of the in-process run).
    pub cpu: Duration,
    /// RMI traffic incurred (zeros for AL).
    pub stats: TransportStats,
    /// Simulation events processed.
    pub events: u64,
    /// Captured output patterns (sanity check).
    pub outputs: usize,
    /// Estimation fees charged to the user during this run, cents.
    pub fees_cents: f64,
    /// Cache lookups served locally during this run (0 without a
    /// cache).
    pub cache_hits: u64,
    /// Cache lookups that had to cross the wire (0 without a cache).
    pub cache_misses: u64,
}

impl ScenarioRun {
    /// Cache hits over total cache lookups this run (0.0 without a
    /// cache or on an all-miss run).
    #[must_use]
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

/// Builds the Figure 2 circuit for one scenario.
///
/// `width` is the operand width (16 in the paper), `patterns` the random
/// pattern count (100), `buffer` the estimation pattern buffer (5).
///
/// # Panics
///
/// Panics when provider communication fails during setup (this is a
/// benchmarking rig; failures here are bugs, not recoverable states).
#[must_use]
pub fn build(scenario: Scenario, width: usize, patterns: u64, buffer: usize) -> ScenarioRig {
    build_with_obs(scenario, width, patterns, buffer, Collector::disabled())
}

/// Like [`build`], wiring the whole rig — provider server, transport,
/// dispatcher and simulation controller — to `obs`. Pass an enabled
/// collector to get a full trace; a disabled one still aggregates the
/// metrics [`ScenarioRig::run`] reports.
#[must_use]
pub fn build_with_obs(
    scenario: Scenario,
    width: usize,
    patterns: u64,
    buffer: usize,
    obs: Collector,
) -> ScenarioRig {
    build_full(scenario, width, patterns, buffer, obs, None, None)
}

/// Like [`build_with_obs`], with the two link options. With `chaos_seed`
/// set, the transport is wrapped in [`heavy_chaos_stack`] seeded by it,
/// so the run's results match the fault-free rig bit for bit while the
/// `rmi.chaos.*` / `rmi.retry.*` counters record the turbulence. With
/// `cache` set, the session memoizes the protocol's pure calls in it, so
/// a warm rerun over the same patterns never crosses the wire and is
/// charged no fees. The cache must be per-rig — keys include the
/// provider host and object ids, which repeat across independently
/// built rigs.
#[must_use]
pub fn build_full(
    scenario: Scenario,
    width: usize,
    patterns: u64,
    buffer: usize,
    obs: Collector,
    chaos_seed: Option<u64>,
    cache: Option<Arc<IpCache>>,
) -> ScenarioRig {
    let chaos_wrap = |transport: Arc<dyn Transport>| -> Arc<dyn Transport> {
        let Some(seed) = chaos_seed else {
            return transport;
        };
        heavy_chaos_stack(transport, seed, &obs).0
    };
    let (mult_module, server): (Arc<dyn Module>, Option<ProviderServer>) = match scenario {
        Scenario::AllLocal => {
            // Full disclosure: the user owns the netlist and runs the
            // gate-level power estimator locally.
            let netlist = Arc::new(generators::wallace_multiplier(width));
            let toggle: Arc<dyn Estimator> = Arc::new(TogglePowerEstimator::new(
                Arc::clone(&netlist),
                PowerModel::default(),
                vec![0, 1],
                false,
            ));
            let module: Arc<dyn Module> = Arc::new(IpComponentModule::new(
                Arc::new(WordMultiplier::new("MULT", width)),
                vec![toggle],
            ));
            (module, None)
        }
        Scenario::EstimatorRemote | Scenario::MultiplierRemote => {
            let server = ProviderServer::with_collector("provider.example.com", obs.clone());
            server.offer(ComponentOffering::fast_low_power_multiplier());
            let transport: Arc<dyn Transport> = chaos_wrap(Arc::new(
                InProcTransport::with_collector(server.dispatcher(), &obs),
            ));
            let mut session = ClientSession::connect(transport, server.host());
            if let Some(c) = &cache {
                session = session.with_cache(Arc::clone(c));
            }
            // Traced runs get a `client:{method}` span per call and the
            // session/provider baggage on every frame; untraced runs keep
            // the frozen context-free v1 frames.
            if obs.is_enabled() {
                session = session.with_collector(obs.clone());
            }
            let component = session
                .instantiate("MultFastLowPower", width)
                .expect("instantiate remote multiplier");
            let module = if scenario == Scenario::EstimatorRemote {
                component
                    .functional_module("MULT")
                    .expect("download public part")
            } else {
                component
                    .fully_remote_module("MULT")
                    .expect("build remote module")
            };
            (module, Some(server))
        }
    };

    let mut b = DesignBuilder::new(format!("fig2-{}", scenario.label()));
    let ina = b.add_module(Arc::new(RandomInput::new("INA", width, 0xA, patterns)));
    let inb = b.add_module(Arc::new(RandomInput::new("INB", width, 0xB, patterns)));
    let rega = b.add_module(Arc::new(Register::new("REGA", width)));
    let regb = b.add_module(Arc::new(Register::new("REGB", width)));
    let mult = b.add_module(mult_module);
    let out = b.add_module(Arc::new(PrimaryOutput::new("OUT", 2 * width)));
    b.connect(ina, "out", rega, "d").expect("wire INA");
    b.connect(inb, "out", regb, "d").expect("wire INB");
    b.connect(rega, "q", mult, "a").expect("wire REGA");
    b.connect(regb, "q", mult, "b").expect("wire REGB");
    b.connect(mult, "p", out, "in").expect("wire OUT");
    let design = Arc::new(b.build().expect("figure 2 design is valid"));

    // The paper's setup: accurate (gate-level) power on the multiplier,
    // with the given pattern buffer.
    let mut setup = SetupController::new();
    setup.set(
        Parameter::AvgPower,
        SetupCriterion::Named("power/gate-level-toggle".into()),
    );
    setup.set_buffer_size(buffer);
    let binding = setup.apply_to(&design, "MULT");

    let controller = SimulationController::new(Arc::clone(&design))
        .with_setup(binding)
        .with_collector(obs.clone());
    ScenarioRig {
        design,
        controller,
        output: out,
        obs,
        cache,
        _server: server,
    }
}

/// Transport counters read from a metrics snapshot.
fn transport_stats(snapshot: &MetricsSnapshot) -> TransportStats {
    let get = |name: &str| snapshot.counters.get(name).copied().unwrap_or(0);
    TransportStats {
        calls: get("rmi.transport.calls"),
        bytes_sent: get("rmi.transport.bytes_sent"),
        bytes_received: get("rmi.transport.bytes_received"),
    }
}

impl ScenarioRig {
    /// The elaborated design.
    #[must_use]
    pub fn design(&self) -> &Arc<Design> {
        &self.design
    }

    /// Reruns this rig's controller under a shard policy. The Figure 2
    /// circuit is one connectivity component, so [`ShardPolicy::Auto`]
    /// degenerates to the sequential scheduler here; `table2 --shards`
    /// and the golden test assert exactly that.
    pub fn set_shards(&mut self, policy: ShardPolicy) {
        self.controller = self.controller.clone().with_shards(policy);
    }

    /// Runs the simulation once, measuring client time and RMI traffic.
    ///
    /// Traffic is the delta of the rig collector's `rmi.transport.*`
    /// counters over the run — the transports count once, into the
    /// registry, and everyone reads from there.
    ///
    /// # Panics
    ///
    /// Panics if the simulation itself fails.
    #[must_use]
    pub fn run(&self, scenario: Scenario) -> ScenarioRun {
        let before = transport_stats(&self.obs.metrics().snapshot());
        let cache_stats = || self.cache.as_ref().map(|c| c.stats()).unwrap_or_default();
        let cache_before = cache_stats();
        let start = Instant::now();
        let run = self.controller.run().expect("scenario simulation");
        let cpu = start.elapsed();
        let after = transport_stats(&self.obs.metrics().snapshot());
        let cache_after = cache_stats();
        let outputs = run
            .module_state::<vcad_core::stdlib::CaptureState>(self.output)
            .map(|c| c.history().len())
            .unwrap_or(0);
        ScenarioRun {
            scenario,
            cpu,
            stats: TransportStats {
                calls: after.calls - before.calls,
                bytes_sent: after.bytes_sent - before.bytes_sent,
                bytes_received: after.bytes_received - before.bytes_received,
            },
            events: run.events_processed(),
            outputs,
            fees_cents: run.estimates().total_fees_cents(),
            cache_hits: cache_after.hits - cache_before.hits,
            cache_misses: cache_after.misses - cache_before.misses,
        }
    }
}

/// Builds and runs one scenario in one call.
#[must_use]
pub fn run(scenario: Scenario, width: usize, patterns: u64, buffer: usize) -> ScenarioRun {
    build(scenario, width, patterns, buffer).run(scenario)
}

/// A shard-scaling benchmark design: `components` independent copies of
/// a heavy gate-level pipeline.
///
/// Each copy is `RandomInput ×2 → Register ×2 → gate-level Wallace
/// multiplier → PrimaryOutput`, with no connector crossing copies — so
/// [`vcad_core::connectivity_components`] finds exactly `components`
/// components and [`ShardPolicy::Auto`] spreads them over worker
/// threads. The multiplier is a [`NetlistBusBlock`] evaluated gate by
/// gate on every event, which makes per-event work heavy enough for
/// sharding to show a real wall-clock difference (the Figure 2
/// scenarios are one component each and cannot).
pub struct MultiRig {
    controller: SimulationController,
    outputs: Vec<ModuleId>,
}

/// The measured outcome of one [`MultiRig`] run.
#[derive(Clone, Debug)]
pub struct MultiRun {
    /// Wall time of the run.
    pub cpu: Duration,
    /// Simulation events processed.
    pub events: u64,
    /// Shards the scheduler actually used (1 when sequential).
    pub shard_count: usize,
    /// Captured output words, one history per component. Runs under
    /// different shard policies must agree on these bit for bit.
    pub words: Vec<Vec<u128>>,
}

/// Builds the multi-component shard benchmark.
///
/// `components` independent pipelines, operand `width` bits, `patterns`
/// random vectors each, scheduled under `policy`.
///
/// # Panics
///
/// Panics when the design fails to elaborate (a bug, not a recoverable
/// state).
#[must_use]
pub fn build_multi_component(
    components: usize,
    width: usize,
    patterns: u64,
    policy: ShardPolicy,
) -> MultiRig {
    let netlist = Arc::new(generators::wallace_multiplier(width));
    let mut b = DesignBuilder::new(format!("shard-bench-{components}x{width}"));
    let mut outputs = Vec::with_capacity(components);
    for k in 0..components {
        // Distinct seeds per copy: identical streams would let a
        // value-memoizing scheduler cheat the benchmark.
        let seed = 2 * k as u64;
        let ina = b.add_module(Arc::new(RandomInput::new(
            format!("INA{k}"),
            width,
            0xA000 + seed,
            patterns,
        )));
        let inb = b.add_module(Arc::new(RandomInput::new(
            format!("INB{k}"),
            width,
            0xB000 + seed,
            patterns,
        )));
        let rega = b.add_module(Arc::new(Register::new(format!("REGA{k}"), width)));
        let regb = b.add_module(Arc::new(Register::new(format!("REGB{k}"), width)));
        let mult = b.add_module(Arc::new(NetlistBusBlock::new(
            format!("MULT{k}"),
            Arc::clone(&netlist),
            &[("a", width), ("b", width)],
            &[("p", 2 * width)],
        )));
        let out = b.add_module(Arc::new(PrimaryOutput::new(format!("OUT{k}"), 2 * width)));
        b.connect(ina, "out", rega, "d").expect("wire INA");
        b.connect(inb, "out", regb, "d").expect("wire INB");
        b.connect(rega, "q", mult, "a").expect("wire REGA");
        b.connect(regb, "q", mult, "b").expect("wire REGB");
        b.connect(mult, "p", out, "in").expect("wire OUT");
        outputs.push(out);
    }
    let design = Arc::new(b.build().expect("shard bench design is valid"));
    MultiRig {
        controller: SimulationController::new(design).with_shards(policy),
        outputs,
    }
}

impl MultiRig {
    /// Runs the benchmark once, measuring wall time and capturing every
    /// component's output history.
    ///
    /// # Panics
    ///
    /// Panics if the simulation itself fails.
    #[must_use]
    pub fn run(&self) -> MultiRun {
        let start = Instant::now();
        let run = self.controller.run().expect("shard bench simulation");
        let cpu = start.elapsed();
        let words = self
            .outputs
            .iter()
            .map(|&out| {
                run.module_state::<vcad_core::stdlib::CaptureState>(out)
                    .expect("output captured")
                    .words()
            })
            .collect();
        MultiRun {
            cpu,
            events: run.events_processed(),
            shard_count: run.shard_count(),
            words,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_scenarios_produce_identical_functional_results() {
        // The deployment flavour must not change functional behaviour.
        let mut reference: Option<Vec<u128>> = None;
        for scenario in Scenario::ALL {
            let rig = build(scenario, 8, 10, 5);
            let run = rig.controller.run().unwrap();
            let words = run
                .module_state::<vcad_core::stdlib::CaptureState>(rig.output)
                .unwrap()
                .words();
            assert!(!words.is_empty(), "{scenario:?}");
            match &reference {
                None => reference = Some(words),
                Some(r) => assert_eq!(&words, r, "{scenario:?} diverged"),
            }
        }
    }

    #[test]
    fn traffic_ordering_matches_the_paper() {
        let al = run(Scenario::AllLocal, 8, 20, 5);
        let er = run(Scenario::EstimatorRemote, 8, 20, 5);
        let mr = run(Scenario::MultiplierRemote, 8, 20, 5);
        assert_eq!(al.stats.calls, 0);
        assert!(er.stats.calls > 0);
        // MR marshals per event: strictly more round trips than ER.
        assert!(
            mr.stats.calls > er.stats.calls,
            "mr {} vs er {}",
            mr.stats.calls,
            er.stats.calls
        );
        assert!(mr.stats.bytes_sent > er.stats.bytes_sent);
    }

    #[test]
    fn multi_component_rig_is_shard_invariant() {
        let seq = build_multi_component(4, 6, 8, ShardPolicy::Sequential).run();
        assert_eq!(seq.shard_count, 1);
        assert_eq!(seq.words.len(), 4);
        for shards in [2, 4] {
            let par = build_multi_component(4, 6, 8, ShardPolicy::Auto(shards)).run();
            assert_eq!(par.shard_count, shards);
            assert_eq!(par.events, seq.events, "{shards} shards");
            assert_eq!(par.words, seq.words, "{shards} shards diverged");
        }
    }

    #[test]
    fn larger_buffers_reduce_round_trips() {
        let small = run(Scenario::EstimatorRemote, 8, 40, 1);
        let large = run(Scenario::EstimatorRemote, 8, 40, 20);
        assert!(small.stats.calls > large.stats.calls);
    }
}
