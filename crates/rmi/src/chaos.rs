//! Deterministic fault injection for transports.
//!
//! A [`FaultPlan`] is a reproducible schedule of network faults drawn
//! from a seeded [`vcad_prng::Rng`]; a [`FaultyTransport`] wraps any
//! [`Transport`] and applies the plan call by call — drops, added
//! latency, frame corruption, duplicate delivery, connection resets and
//! temporary server blackouts. Two plans built from the same seed and
//! [`FaultConfig`] inject byte-identical fault schedules, so chaos runs
//! are as reproducible as fault-free ones.
//!
//! The injector composes with every transport in the crate
//! (`InProcTransport`, `TcpTransport`, `ShapedTransport`) and is meant
//! to sit *under* a
//! [`ResilientTransport`](crate::ResilientTransport), which must make all
//! of this invisible to the caller.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use vcad_obs::{Collector, Counter, Histogram};
use vcad_prng::Rng;

use crate::error::RmiError;
use crate::resilience::{
    BreakerConfig, ResilienceClock, ResilientTransport, RetryPolicy, VirtualClock,
};
use crate::transport::{Transport, TransportStats};

/// Fault rates and magnitudes of a [`FaultPlan`].
///
/// All rates are per-call probabilities in `[0, 1]`.
#[derive(Clone, Debug)]
pub struct FaultConfig {
    /// Request vanishes before reaching the server.
    pub drop_request: f64,
    /// Server executes but the response vanishes.
    pub drop_response: f64,
    /// One request byte is flipped in flight.
    pub corrupt_request: f64,
    /// One response byte is flipped in flight.
    pub corrupt_response: f64,
    /// The request is delivered twice (the server sees both).
    pub duplicate: f64,
    /// The connection resets mid-call (nothing delivered).
    pub reset: f64,
    /// Added round-trip latency.
    pub delay: f64,
    /// Injected latency range in nanoseconds, `[min, max)`.
    pub delay_ns: (u64, u64),
    /// A temporary server blackout begins on this call.
    pub blackout: f64,
    /// Blackout length range in calls, inclusive.
    pub blackout_calls: (u64, u64),
}

impl FaultConfig {
    /// No faults at all: a `FaultyTransport` with this config is a
    /// pass-through (useful as a baseline with identical call paths).
    #[must_use]
    pub fn off() -> FaultConfig {
        FaultConfig {
            drop_request: 0.0,
            drop_response: 0.0,
            corrupt_request: 0.0,
            corrupt_response: 0.0,
            duplicate: 0.0,
            reset: 0.0,
            delay: 0.0,
            delay_ns: (0, 1),
            blackout: 0.0,
            blackout_calls: (1, 1),
        }
    }

    /// Mild flakiness: ~1% of everything, short delays.
    #[must_use]
    pub fn mild() -> FaultConfig {
        FaultConfig {
            drop_request: 0.01,
            drop_response: 0.01,
            corrupt_request: 0.01,
            corrupt_response: 0.01,
            duplicate: 0.01,
            reset: 0.01,
            delay: 0.05,
            delay_ns: (100_000, 5_000_000),
            blackout: 0.0,
            blackout_calls: (1, 1),
        }
    }

    /// Heavy chaos: ≥5% drop/corrupt/duplicate/reset rates, 10% delays
    /// and occasional multi-call blackouts — the soak-test setting.
    #[must_use]
    pub fn heavy() -> FaultConfig {
        FaultConfig {
            drop_request: 0.05,
            drop_response: 0.05,
            corrupt_request: 0.05,
            corrupt_response: 0.05,
            duplicate: 0.05,
            reset: 0.05,
            delay: 0.10,
            delay_ns: (1_000_000, 50_000_000),
            blackout: 0.005,
            blackout_calls: (2, 4),
        }
    }

    /// Total outage: every request is dropped. Models a provider that
    /// stays dark longer than any retry budget.
    #[must_use]
    pub fn blackhole() -> FaultConfig {
        FaultConfig {
            drop_request: 1.0,
            ..FaultConfig::off()
        }
    }
}

impl Default for FaultConfig {
    fn default() -> FaultConfig {
        FaultConfig::mild()
    }
}

/// The faults to inject into one transport call.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultDecision {
    /// Drop the request before delivery.
    pub drop_request: bool,
    /// Drop the response after execution.
    pub drop_response: bool,
    /// Flip `(position_seed, xor_mask)` in the request, if set.
    pub corrupt_request: Option<(u64, u8)>,
    /// Flip `(position_seed, xor_mask)` in the response, if set.
    pub corrupt_response: Option<(u64, u8)>,
    /// Deliver the request twice.
    pub duplicate: bool,
    /// Reset the connection (nothing delivered).
    pub reset: bool,
    /// Added latency in nanoseconds (0 = none).
    pub delay_ns: u64,
    /// This call falls inside a server blackout.
    pub blackout: bool,
}

impl FaultDecision {
    /// Whether any fault at all is injected on this call.
    #[must_use]
    pub fn is_faulty(&self) -> bool {
        self.drop_request
            || self.drop_response
            || self.corrupt_request.is_some()
            || self.corrupt_response.is_some()
            || self.duplicate
            || self.reset
            || self.delay_ns > 0
            || self.blackout
    }
}

/// A reproducible per-call fault schedule.
///
/// The plan draws every random quantity on every call in a fixed order,
/// whether or not the corresponding fault fires — the stream stays
/// aligned across config changes, and two plans with equal `(seed,
/// config)` make identical decisions forever.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    seed: u64,
    cfg: FaultConfig,
    rng: Rng,
    blackout_remaining: u64,
    calls: u64,
}

impl FaultPlan {
    /// Builds the schedule for `seed` and `cfg`.
    #[must_use]
    pub fn new(seed: u64, cfg: FaultConfig) -> FaultPlan {
        FaultPlan {
            seed,
            rng: Rng::seed_from_u64(seed),
            cfg,
            blackout_remaining: 0,
            calls: 0,
        }
    }

    /// The seed this plan was built from.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Calls decided so far.
    #[must_use]
    pub fn calls(&self) -> u64 {
        self.calls
    }

    /// Decides the faults for the next call.
    pub fn draw(&mut self) -> FaultDecision {
        self.calls += 1;
        let cfg = &self.cfg;
        // Fixed draw order — see the type-level comment.
        let drop_request = self.rng.gen_bool(cfg.drop_request);
        let drop_response = self.rng.gen_bool(cfg.drop_response);
        let corrupt_request = self.rng.gen_bool(cfg.corrupt_request);
        let corrupt_req_at = self.rng.next_u64();
        let corrupt_req_mask = self.rng.gen_range(1u64..256) as u8;
        let corrupt_response = self.rng.gen_bool(cfg.corrupt_response);
        let corrupt_resp_at = self.rng.next_u64();
        let corrupt_resp_mask = self.rng.gen_range(1u64..256) as u8;
        let duplicate = self.rng.gen_bool(cfg.duplicate);
        let reset = self.rng.gen_bool(cfg.reset);
        let delayed = self.rng.gen_bool(cfg.delay);
        let delay_draw = {
            let (lo, hi) = cfg.delay_ns;
            self.rng.gen_range(lo..hi.max(lo + 1))
        };
        let blackout_starts = self.rng.gen_bool(cfg.blackout);
        let blackout_len = {
            let (lo, hi) = cfg.blackout_calls;
            self.rng.gen_range(lo..hi.max(lo) + 1)
        };
        let blackout = if self.blackout_remaining > 0 {
            self.blackout_remaining -= 1;
            true
        } else if blackout_starts {
            self.blackout_remaining = blackout_len.saturating_sub(1);
            true
        } else {
            false
        };
        FaultDecision {
            drop_request,
            drop_response,
            corrupt_request: corrupt_request.then_some((corrupt_req_at, corrupt_req_mask)),
            corrupt_response: corrupt_response.then_some((corrupt_resp_at, corrupt_resp_mask)),
            duplicate,
            reset,
            delay_ns: if delayed { delay_draw } else { 0 },
            blackout,
        }
    }
}

struct ChaosTelemetry {
    calls: Counter,
    injected_total: Counter,
    drop_request: Counter,
    drop_response: Counter,
    corrupt_request: Counter,
    corrupt_response: Counter,
    duplicate: Counter,
    reset: Counter,
    delay: Counter,
    blackout: Counter,
    delay_ns: Histogram,
}

impl ChaosTelemetry {
    fn new(obs: &Collector) -> ChaosTelemetry {
        let m = obs.metrics();
        ChaosTelemetry {
            calls: m.counter("rmi.chaos.calls"),
            injected_total: m.counter("rmi.chaos.injected.total"),
            drop_request: m.counter("rmi.chaos.injected.drop_request"),
            drop_response: m.counter("rmi.chaos.injected.drop_response"),
            corrupt_request: m.counter("rmi.chaos.injected.corrupt_request"),
            corrupt_response: m.counter("rmi.chaos.injected.corrupt_response"),
            duplicate: m.counter("rmi.chaos.injected.duplicate"),
            reset: m.counter("rmi.chaos.injected.reset"),
            delay: m.counter("rmi.chaos.injected.delay"),
            blackout: m.counter("rmi.chaos.injected.blackout"),
            delay_ns: m.histogram("rmi.chaos.delay_ns"),
        }
    }
}

/// Flips one byte of `frame` at a plan-chosen position.
fn corrupt(frame: &mut [u8], position_seed: u64, mask: u8) {
    if frame.is_empty() {
        return;
    }
    let at = (position_seed % frame.len() as u64) as usize;
    frame[at] ^= mask;
}

/// A [`Transport`] wrapper injecting the faults a [`FaultPlan`] dictates.
///
/// Faults are applied in network order: blackout and reset kill the call
/// outright, injected latency accounts on the attached clock, then the
/// request may be dropped or corrupted on the way in, executed (twice,
/// when duplicated), and the response dropped or corrupted on the way
/// out. Every injection is counted under `rmi.chaos.*`.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use vcad_rmi::{
///     Client, Dispatcher, FaultConfig, FaultPlan, FaultyTransport,
///     InProcTransport, ObjectRegistry, ResilientTransport, RetryPolicy,
/// };
/// # use vcad_rmi::{RemoteObject, RmiError, ServerCtx, Value};
/// # struct Echo;
/// # impl RemoteObject for Echo {
/// #     fn invoke(&self, _m: &str, args: &[Value], _c: &ServerCtx) -> Result<Value, RmiError> {
/// #         Ok(args.first().cloned().unwrap_or(Value::Null))
/// #     }
/// # }
///
/// let registry = Arc::new(ObjectRegistry::new());
/// registry.register_root(Arc::new(Echo));
/// let dispatcher = Arc::new(Dispatcher::new(registry));
/// let inner = Arc::new(InProcTransport::new(dispatcher));
/// // A lossy link, fully reproducible from seed 42…
/// let faulty = Arc::new(FaultyTransport::new(
///     inner,
///     FaultPlan::new(42, FaultConfig::heavy()),
/// ));
/// // …hidden behind retries + dedup.
/// let transport = Arc::new(ResilientTransport::new(
///     faulty,
///     RetryPolicy::default().with_max_attempts(12),
/// ));
/// let client = Client::new(transport);
/// assert_eq!(client.root().invoke("echo", vec![Value::I64(1)])?, Value::I64(1));
/// # Ok::<(), vcad_rmi::RmiError>(())
/// ```
pub struct FaultyTransport {
    inner: Arc<dyn Transport>,
    plan: Mutex<FaultPlan>,
    clock: Option<Arc<dyn ResilienceClock>>,
    telemetry: ChaosTelemetry,
}

impl FaultyTransport {
    /// Wraps `inner` with the given fault schedule.
    #[must_use]
    pub fn new(inner: Arc<dyn Transport>, plan: FaultPlan) -> FaultyTransport {
        FaultyTransport {
            inner,
            plan: Mutex::new(plan),
            clock: None,
            telemetry: ChaosTelemetry::new(&Collector::disabled()),
        }
    }

    /// Accounts injected latency on `clock` (instead of really sleeping —
    /// pair with the [`VirtualClock`](crate::VirtualClock) a
    /// [`ResilientTransport`](crate::ResilientTransport) runs on).
    #[must_use]
    pub fn with_clock(mut self, clock: Arc<dyn ResilienceClock>) -> FaultyTransport {
        self.clock = Some(clock);
        self
    }

    /// Routes `rmi.chaos.*` metrics into `obs`.
    #[must_use]
    pub fn with_collector(mut self, obs: &Collector) -> FaultyTransport {
        self.telemetry = ChaosTelemetry::new(obs);
        self
    }

    /// Swaps in a new fault schedule mid-flight — e.g. connect cleanly,
    /// then pull the plug with [`FaultConfig::blackhole`].
    pub fn set_plan(&self, plan: FaultPlan) {
        *self.plan.lock().unwrap() = plan;
    }

    /// Total faults injected so far.
    #[must_use]
    pub fn injected_total(&self) -> u64 {
        self.telemetry.injected_total.get()
    }
}

impl Transport for FaultyTransport {
    fn call(&self, request: &[u8]) -> Result<Vec<u8>, RmiError> {
        let decision = self.plan.lock().unwrap().draw();
        let t = &self.telemetry;
        t.calls.inc();
        if decision.is_faulty() {
            t.injected_total.inc();
        }
        if decision.delay_ns > 0 {
            t.delay.inc();
            t.delay_ns.record(decision.delay_ns);
            if let Some(clock) = &self.clock {
                clock.sleep(Duration::from_nanos(decision.delay_ns));
            }
        }
        if decision.blackout {
            t.blackout.inc();
            return Err(RmiError::Transport("injected: provider blackout".into()));
        }
        if decision.reset {
            t.reset.inc();
            return Err(RmiError::Transport(
                "injected: connection reset by peer".into(),
            ));
        }
        if decision.drop_request {
            t.drop_request.inc();
            return Err(RmiError::Transport("injected: request dropped".into()));
        }
        let request = if let Some((at, mask)) = decision.corrupt_request {
            t.corrupt_request.inc();
            let mut owned = request.to_vec();
            corrupt(&mut owned, at, mask);
            std::borrow::Cow::Owned(owned)
        } else {
            std::borrow::Cow::Borrowed(request)
        };
        let mut response = self.inner.call(&request)?;
        if decision.duplicate {
            t.duplicate.inc();
            // The server sees the request twice; the caller gets the
            // second delivery's response.
            response = self.inner.call(&request)?;
        }
        if decision.drop_response {
            t.drop_response.inc();
            return Err(RmiError::Transport("injected: response dropped".into()));
        }
        if let Some((at, mask)) = decision.corrupt_response {
            t.corrupt_response.inc();
            corrupt(&mut response, at, mask);
        }
        Ok(response)
    }

    fn stats(&self) -> TransportStats {
        self.inner.stats()
    }
}

/// The chaos rig every bench, example and soak test runs through:
/// `inner` under a [`FaultConfig::heavy`] schedule seeded by `seed`,
/// under a [`ResilientTransport`] whose retry budget comfortably
/// outlasts the schedule's worst bursts — so results match the fault-free
/// run bit for bit while `rmi.chaos.*` / `rmi.retry.*` in `obs` record
/// the turbulence. Both layers share one fresh [`VirtualClock`]: injected
/// latency and backoffs are accounted, never slept.
///
/// Returns the stack plus the injector inside it, for callers that swap
/// the plan mid-run ([`FaultyTransport::set_plan`]).
#[must_use]
pub fn heavy_chaos_stack(
    inner: Arc<dyn Transport>,
    seed: u64,
    obs: &Collector,
) -> (Arc<dyn Transport>, Arc<FaultyTransport>) {
    let clock = Arc::new(VirtualClock::new());
    let faulty = Arc::new(
        FaultyTransport::new(inner, FaultPlan::new(seed, FaultConfig::heavy()))
            .with_clock(clock.clone())
            .with_collector(obs),
    );
    let policy = RetryPolicy::default()
        .with_max_attempts(12)
        .with_deadline(Duration::from_secs(30))
        .with_backoff(Duration::from_millis(1), Duration::from_millis(50));
    let breaker = BreakerConfig {
        failure_threshold: 16,
        cooldown: Duration::from_secs(5),
    };
    let resilient = ResilientTransport::new(faulty.clone(), policy)
        .with_breaker(breaker)
        .with_clock(clock)
        .with_collector(obs);
    (Arc::new(resilient), faulty)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch::{Dispatcher, ObjectRegistry, RemoteObject, ServerCtx};
    use crate::resilience::VirtualClock;
    use crate::transport::InProcTransport;
    use crate::value::Value;
    use crate::{Client, ResilientTransport, RetryPolicy};

    #[test]
    fn same_seed_same_schedule() {
        let mut a = FaultPlan::new(99, FaultConfig::heavy());
        let mut b = FaultPlan::new(99, FaultConfig::heavy());
        for _ in 0..1000 {
            assert_eq!(a.draw(), b.draw());
        }
        assert_eq!(a.calls(), 1000);
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = FaultPlan::new(1, FaultConfig::heavy());
        let mut b = FaultPlan::new(2, FaultConfig::heavy());
        let sa: Vec<FaultDecision> = (0..200).map(|_| a.draw()).collect();
        let sb: Vec<FaultDecision> = (0..200).map(|_| b.draw()).collect();
        assert_ne!(sa, sb);
    }

    #[test]
    fn off_config_injects_nothing() {
        let mut plan = FaultPlan::new(7, FaultConfig::off());
        for _ in 0..500 {
            assert!(!plan.draw().is_faulty());
        }
    }

    #[test]
    fn heavy_config_hits_every_fault_kind() {
        let mut plan = FaultPlan::new(12345, FaultConfig::heavy());
        let decisions: Vec<FaultDecision> = (0..2000).map(|_| plan.draw()).collect();
        assert!(decisions.iter().any(|d| d.drop_request));
        assert!(decisions.iter().any(|d| d.drop_response));
        assert!(decisions.iter().any(|d| d.corrupt_request.is_some()));
        assert!(decisions.iter().any(|d| d.corrupt_response.is_some()));
        assert!(decisions.iter().any(|d| d.duplicate));
        assert!(decisions.iter().any(|d| d.reset));
        assert!(decisions.iter().any(|d| d.delay_ns > 0));
        assert!(decisions.iter().any(|d| d.blackout));
    }

    #[test]
    fn blackouts_span_consecutive_calls() {
        let cfg = FaultConfig {
            blackout: 1.0,
            blackout_calls: (3, 3),
            ..FaultConfig::off()
        };
        let mut plan = FaultPlan::new(5, cfg);
        // Every call is in a blackout (each one either starts or
        // continues an outage), proving the length counter carries over.
        for _ in 0..10 {
            assert!(plan.draw().blackout);
        }
    }

    struct Echo;
    impl RemoteObject for Echo {
        fn invoke(
            &self,
            method: &str,
            args: &[Value],
            _ctx: &ServerCtx,
        ) -> Result<Value, RmiError> {
            match method {
                "echo" => Ok(args.first().cloned().unwrap_or(Value::Null)),
                _ => Err(RmiError::unknown_method("Echo", method)),
            }
        }
    }

    fn echo_dispatcher() -> Arc<Dispatcher> {
        let reg = Arc::new(ObjectRegistry::new());
        reg.register_root(Arc::new(Echo));
        Arc::new(Dispatcher::new(reg))
    }

    #[test]
    fn faulty_transport_with_off_plan_is_transparent() {
        let t = FaultyTransport::new(
            Arc::new(InProcTransport::new(echo_dispatcher())),
            FaultPlan::new(3, FaultConfig::off()),
        );
        let client = Client::new(Arc::new(t) as Arc<dyn Transport>);
        for i in 0..20i64 {
            assert_eq!(
                client.root().invoke("echo", vec![Value::I64(i)]).unwrap(),
                Value::I64(i)
            );
        }
    }

    #[test]
    fn resilient_stack_survives_heavy_chaos() {
        let obs = Collector::disabled();
        let clock = Arc::new(VirtualClock::new());
        let faulty = Arc::new(
            FaultyTransport::new(
                Arc::new(InProcTransport::new(echo_dispatcher())),
                FaultPlan::new(2024, FaultConfig::heavy()),
            )
            .with_clock(Arc::clone(&clock) as Arc<dyn ResilienceClock>)
            .with_collector(&obs),
        );
        let transport = ResilientTransport::new(
            faulty as Arc<dyn Transport>,
            RetryPolicy::default()
                .with_max_attempts(16)
                .with_deadline(Duration::from_secs(60)),
        )
        .with_clock(Arc::clone(&clock) as Arc<dyn ResilienceClock>)
        .with_collector(&obs);
        let client = Client::new(Arc::new(transport) as Arc<dyn Transport>);
        for i in 0..100i64 {
            assert_eq!(
                client.root().invoke("echo", vec![Value::I64(i)]).unwrap(),
                Value::I64(i),
                "call {i} must be invisible to the caller"
            );
        }
        let snap = obs.metrics().snapshot();
        assert!(snap.counter("rmi.chaos.injected.total") > 0);
        assert!(snap.counter("rmi.retry.retries") > 0);
        assert_eq!(snap.counter("rmi.retry.exhausted"), 0);
        assert_eq!(snap.counter("rmi.retry.timeouts"), 0);
    }

    #[test]
    fn injected_latency_accounts_on_the_clock() {
        let clock = Arc::new(VirtualClock::new());
        let cfg = FaultConfig {
            delay: 1.0,
            delay_ns: (1_000_000, 1_000_001),
            ..FaultConfig::off()
        };
        let t = FaultyTransport::new(
            Arc::new(InProcTransport::new(echo_dispatcher())),
            FaultPlan::new(1, cfg),
        )
        .with_clock(Arc::clone(&clock) as Arc<dyn ResilienceClock>);
        let client = Client::new(Arc::new(t) as Arc<dyn Transport>);
        client.root().invoke("echo", vec![]).unwrap();
        client.root().invoke("echo", vec![]).unwrap();
        assert_eq!(clock.now(), Duration::from_nanos(2_000_000));
    }

    #[test]
    fn set_plan_swaps_schedules() {
        let obs = Collector::disabled();
        let t = FaultyTransport::new(
            Arc::new(InProcTransport::new(echo_dispatcher())),
            FaultPlan::new(1, FaultConfig::off()),
        )
        .with_collector(&obs);
        assert!(t.call(b"\0").is_ok(), "off plan passes through");
        t.set_plan(FaultPlan::new(1, FaultConfig::blackhole()));
        assert!(matches!(t.call(b"\0"), Err(RmiError::Transport(_))));
        assert!(t.injected_total() > 0);
    }
}
