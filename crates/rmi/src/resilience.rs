//! Retries, deadlines, request deduplication and circuit breaking.
//!
//! The distributed-object layer runs over networks that drop, delay,
//! corrupt and duplicate frames (see [`crate::chaos`] for the matching
//! fault injector). This module makes a [`Transport`] survive that:
//!
//! * [`RetryPolicy`] — exponential backoff with deterministic jitter, a
//!   per-call deadline and a bounded attempt budget;
//! * a *tracked call* envelope — each logical call is stamped with a
//!   process-unique 128-bit request id and an FNV-1a checksum, so the
//!   [`Dispatcher`](crate::Dispatcher) detects in-flight corruption and
//!   deduplicates retried calls through a bounded reply cache
//!   (at-most-once execution: a retry of an already-executed call replays
//!   the cached response instead of executing again). The envelope's
//!   bytes are laid out in `frame.rs`; this module only sends and checks
//!   it;
//! * [`CircuitBreaker`] — per-endpoint closed → open → half-open machine
//!   that fails fast during provider blackouts instead of burning the
//!   whole retry budget on every call;
//! * [`ResilientTransport`] — the wrapper tying the three together behind
//!   the ordinary [`Transport`] trait.
//!
//! Time is abstracted behind [`ResilienceClock`] so tests (and the chaos
//! soak) drive backoff, deadlines and breaker cooldowns on a
//! [`VirtualClock`] — deterministic and instantaneous, with no wall-clock
//! leaks into results or metrics.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use vcad_obs::{Collector, Counter, Gauge, Histogram};
use vcad_prng::Rng;

use crate::error::RmiError;
use crate::frame::{response_is_shed, tracked_call, unwrap_tracked_reply, TrackedResponse};
use crate::transport::{Transport, TransportStats};

/// The time source resilience machinery runs on.
///
/// `now` is monotonic time since the clock's epoch. [`RealClock`] maps
/// `sleep` onto the OS; [`VirtualClock`] advances instantly, which keeps
/// chaos tests deterministic and fast.
pub trait ResilienceClock: Send + Sync {
    /// Monotonic time since the clock's epoch.
    fn now(&self) -> Duration;
    /// Blocks (or accounts) for `d`.
    fn sleep(&self, d: Duration);
}

/// Wall-clock time: `sleep` really sleeps.
pub struct RealClock {
    epoch: Instant,
}

impl RealClock {
    /// A clock whose epoch is "now".
    #[must_use]
    pub fn new() -> RealClock {
        RealClock {
            epoch: Instant::now(),
        }
    }
}

impl Default for RealClock {
    fn default() -> RealClock {
        RealClock::new()
    }
}

impl ResilienceClock for RealClock {
    fn now(&self) -> Duration {
        self.epoch.elapsed()
    }

    fn sleep(&self, d: Duration) {
        std::thread::sleep(d);
    }
}

/// A manually advanced clock: `sleep` moves time forward without blocking.
///
/// Share one instance between a
/// [`FaultyTransport`](crate::chaos::FaultyTransport) (injected latency)
/// and a [`ResilientTransport`] (backoff, deadlines, breaker cooldown) so
/// an entire chaos scenario plays out on one deterministic timeline.
#[derive(Default)]
pub struct VirtualClock {
    now: Mutex<Duration>,
}

impl VirtualClock {
    /// A virtual clock starting at zero.
    #[must_use]
    pub fn new() -> VirtualClock {
        VirtualClock::default()
    }

    /// Advances the clock by `d` without sleeping.
    pub fn advance(&self, d: Duration) {
        *self.now.lock().unwrap() += d;
    }
}

impl ResilienceClock for VirtualClock {
    fn now(&self) -> Duration {
        *self.now.lock().unwrap()
    }

    fn sleep(&self, d: Duration) {
        self.advance(d);
    }
}

/// How a [`ResilientTransport`] retries failed calls.
///
/// Backoff for attempt *n* (1-based) is
/// `base_backoff · multiplier^(n−1)`, capped at `max_backoff` and scaled
/// by a deterministic jitter factor in `[1 − jitter, 1 + jitter]` drawn
/// from a seeded [`vcad_prng::Rng`] — two transports built with the same
/// policy produce the same backoff schedule.
#[derive(Clone, Debug)]
pub struct RetryPolicy {
    /// Total attempts per call, including the first (≥ 1).
    pub max_attempts: u32,
    /// Backoff before the first retry.
    pub base_backoff: Duration,
    /// Upper bound on any single backoff.
    pub max_backoff: Duration,
    /// Exponential growth factor between retries.
    pub multiplier: f64,
    /// Jitter fraction in `[0, 1)`; `0.1` means ±10%.
    pub jitter: f64,
    /// Budget for one logical call across all attempts and backoffs.
    pub call_deadline: Duration,
    /// Seed of the jitter stream.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 4,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_secs(2),
            multiplier: 2.0,
            jitter: 0.1,
            call_deadline: Duration::from_secs(10),
            jitter_seed: 0x5EED,
        }
    }
}

impl RetryPolicy {
    /// Sets the attempt budget (clamped to at least 1).
    #[must_use]
    pub fn with_max_attempts(mut self, attempts: u32) -> RetryPolicy {
        self.max_attempts = attempts.max(1);
        self
    }

    /// Sets the per-call deadline.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> RetryPolicy {
        self.call_deadline = deadline;
        self
    }

    /// Sets the backoff range.
    #[must_use]
    pub fn with_backoff(mut self, base: Duration, max: Duration) -> RetryPolicy {
        self.base_backoff = base;
        self.max_backoff = max;
        self
    }

    /// The backoff to sleep after failed attempt `attempt` (1-based).
    fn backoff(&self, attempt: u32, jitter_rng: &mut Rng) -> Duration {
        let exponent = attempt.saturating_sub(1).min(63);
        let raw = self.base_backoff.as_secs_f64() * self.multiplier.powi(exponent as i32);
        let capped = raw.min(self.max_backoff.as_secs_f64());
        // One draw per backoff keeps the jitter stream aligned with the
        // retry sequence, independent of which attempts failed.
        let factor = 1.0 + self.jitter * (2.0 * jitter_rng.next_f64() - 1.0);
        Duration::from_secs_f64((capped * factor).max(0.0))
    }
}

/// Circuit breaker state (exported for the `rmi.breaker.state` gauge:
/// closed = 0, open = 1, half-open = 2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BreakerState {
    /// Calls flow normally.
    Closed,
    /// Recent calls failed; admit nothing until the cooldown elapses.
    Open,
    /// Cooldown elapsed; one probe call decides open vs closed.
    HalfOpen,
}

impl BreakerState {
    fn gauge_value(self) -> u64 {
        match self {
            BreakerState::Closed => 0,
            BreakerState::Open => 1,
            BreakerState::HalfOpen => 2,
        }
    }
}

/// Tuning of a [`CircuitBreaker`].
#[derive(Clone, Copy, Debug)]
pub struct BreakerConfig {
    /// Consecutive delivery failures that trip the breaker open.
    pub failure_threshold: u32,
    /// How long the breaker stays open before admitting a probe.
    pub cooldown: Duration,
}

impl Default for BreakerConfig {
    fn default() -> BreakerConfig {
        BreakerConfig {
            failure_threshold: 8,
            cooldown: Duration::from_secs(5),
        }
    }
}

struct BreakerInner {
    state: BreakerState,
    consecutive_failures: u32,
    opened_at: Duration,
}

/// A per-endpoint closed → open → half-open circuit breaker.
///
/// Only *retryable* failures (see [`RmiError::is_retryable`]) are counted:
/// an application error proves the endpoint is alive.
pub struct CircuitBreaker {
    cfg: BreakerConfig,
    clock: Arc<dyn ResilienceClock>,
    inner: Mutex<BreakerInner>,
    state_gauge: Gauge,
    opened: Counter,
    fast_fails: Counter,
    probes: Counter,
}

impl CircuitBreaker {
    /// Creates a closed breaker reporting its metrics into `obs`.
    #[must_use]
    pub fn new(
        cfg: BreakerConfig,
        clock: Arc<dyn ResilienceClock>,
        obs: &Collector,
    ) -> CircuitBreaker {
        let m = obs.metrics();
        let state_gauge = m.gauge("rmi.breaker.state");
        state_gauge.set(BreakerState::Closed.gauge_value());
        CircuitBreaker {
            cfg,
            clock,
            inner: Mutex::new(BreakerInner {
                state: BreakerState::Closed,
                consecutive_failures: 0,
                opened_at: Duration::ZERO,
            }),
            state_gauge,
            opened: m.counter("rmi.breaker.opened"),
            fast_fails: m.counter("rmi.breaker.fast_fails"),
            probes: m.counter("rmi.breaker.probes"),
        }
    }

    /// The current state.
    #[must_use]
    pub fn state(&self) -> BreakerState {
        self.inner.lock().unwrap().state
    }

    /// Gate before an attempt: `Ok` admits the call (possibly as a
    /// half-open probe), `Err` fails fast with [`RmiError::CircuitOpen`].
    ///
    /// # Errors
    ///
    /// Returns [`RmiError::CircuitOpen`] while the breaker is open and the
    /// cooldown has not elapsed.
    pub fn admit(&self) -> Result<(), RmiError> {
        let mut inner = self.inner.lock().unwrap();
        match inner.state {
            BreakerState::Closed => Ok(()),
            BreakerState::HalfOpen => {
                self.probes.inc();
                Ok(())
            }
            BreakerState::Open => {
                if self.clock.now() >= inner.opened_at + self.cfg.cooldown {
                    inner.state = BreakerState::HalfOpen;
                    self.state_gauge.set(BreakerState::HalfOpen.gauge_value());
                    self.probes.inc();
                    Ok(())
                } else {
                    self.fast_fails.inc();
                    Err(RmiError::CircuitOpen(format!(
                        "cooling down for {:?} after {} consecutive failures",
                        self.cfg.cooldown, inner.consecutive_failures
                    )))
                }
            }
        }
    }

    /// Records a successful call: the breaker closes.
    pub fn record_success(&self) {
        let mut inner = self.inner.lock().unwrap();
        inner.consecutive_failures = 0;
        if inner.state != BreakerState::Closed {
            inner.state = BreakerState::Closed;
            self.state_gauge.set(BreakerState::Closed.gauge_value());
        }
    }

    /// Records a retryable delivery failure; trips the breaker at the
    /// configured threshold, and re-opens it from a failed probe.
    pub fn record_failure(&self) {
        let mut inner = self.inner.lock().unwrap();
        inner.consecutive_failures = inner.consecutive_failures.saturating_add(1);
        let trip = match inner.state {
            BreakerState::HalfOpen => true,
            BreakerState::Closed => inner.consecutive_failures >= self.cfg.failure_threshold,
            BreakerState::Open => false,
        };
        if trip {
            inner.state = BreakerState::Open;
            inner.opened_at = self.clock.now();
            self.opened.inc();
            self.state_gauge.set(BreakerState::Open.gauge_value());
        }
    }
}

/// Counters/histograms a [`ResilientTransport`] maintains.
struct RetryTelemetry {
    attempts: Counter,
    retries: Counter,
    recovered: Counter,
    exhausted: Counter,
    timeouts: Counter,
    corruption_detected: Counter,
    backoff_ns: Histogram,
    attempt_latency_ns: Histogram,
}

/// Attempt indices at and above this share one histogram
/// (`rmi.retry.attempt.8.latency_ns`), bounding the metric namespace no
/// matter how generous the retry budget is.
const ATTEMPT_INDEX_CAP: u32 = 8;

impl RetryTelemetry {
    fn new(obs: &Collector) -> RetryTelemetry {
        let m = obs.metrics();
        RetryTelemetry {
            attempts: m.counter("rmi.retry.attempts"),
            retries: m.counter("rmi.retry.retries"),
            recovered: m.counter("rmi.retry.recovered"),
            exhausted: m.counter("rmi.retry.exhausted"),
            timeouts: m.counter("rmi.retry.timeouts"),
            corruption_detected: m.counter("rmi.retry.corruption_detected"),
            backoff_ns: m.histogram("rmi.retry.backoff_ns"),
            attempt_latency_ns: m.histogram("rmi.retry.attempt_latency_ns"),
        }
    }

    /// Records one attempt's latency both in the aggregate histogram and
    /// in the per-attempt-index one, so a latency profile that only the
    /// *third* try exhibits (a warmed breaker probe, say) stays visible.
    fn record_attempt_latency(&self, obs: &Collector, attempt_no: u32, latency: Duration) {
        self.attempt_latency_ns.record_duration(latency);
        let idx = attempt_no.min(ATTEMPT_INDEX_CAP);
        obs.metrics()
            .histogram(&format!("rmi.retry.attempt.{idx}.latency_ns"))
            .record_duration(latency);
    }
}

/// Distinguishes request-id streams of different transports in one
/// process, so two resilient stacks never collide in a reply cache.
static NEXT_INSTANCE: AtomicU64 = AtomicU64::new(1);

/// Wraps any [`Transport`] with retries, request tracking (dedup +
/// integrity) and a circuit breaker.
///
/// Every logical call is sent as a tracked envelope; the server's
/// [`Dispatcher`](crate::Dispatcher) executes it at most once and replays
/// the cached response to retries, so retried non-idempotent calls (a
/// charged estimate, an instantiation) never execute — or bill — twice.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use vcad_rmi::{
///     Client, Dispatcher, InProcTransport, ObjectRegistry, ResilientTransport,
///     RetryPolicy,
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
/// let resilient = Arc::new(ResilientTransport::new(inner, RetryPolicy::default()));
/// let client = Client::new(resilient);
/// assert_eq!(client.root().invoke("echo", vec![Value::I64(7)])?, Value::I64(7));
/// # Ok::<(), vcad_rmi::RmiError>(())
/// ```
pub struct ResilientTransport {
    inner: Arc<dyn Transport>,
    policy: RetryPolicy,
    breaker_cfg: BreakerConfig,
    clock: Arc<dyn ResilienceClock>,
    obs: Collector,
    breaker: CircuitBreaker,
    telemetry: RetryTelemetry,
    jitter: Mutex<Rng>,
    instance: u64,
    next_seq: AtomicU64,
}

impl ResilientTransport {
    /// Wraps `inner` with `policy`, a default breaker, the real clock and
    /// detached telemetry.
    #[must_use]
    pub fn new(inner: Arc<dyn Transport>, policy: RetryPolicy) -> ResilientTransport {
        let clock: Arc<dyn ResilienceClock> = Arc::new(RealClock::new());
        let obs = Collector::disabled();
        let breaker_cfg = BreakerConfig::default();
        ResilientTransport {
            breaker: CircuitBreaker::new(breaker_cfg, Arc::clone(&clock), &obs),
            telemetry: RetryTelemetry::new(&obs),
            jitter: Mutex::new(Rng::seed_from_u64(policy.jitter_seed)),
            instance: NEXT_INSTANCE.fetch_add(1, Ordering::Relaxed),
            next_seq: AtomicU64::new(1),
            inner,
            policy,
            breaker_cfg,
            clock,
            obs,
        }
    }

    /// Replaces the breaker tuning.
    #[must_use]
    pub fn with_breaker(mut self, cfg: BreakerConfig) -> ResilientTransport {
        self.breaker_cfg = cfg;
        self.rebuild();
        self
    }

    /// Replaces the time source (backoff, deadlines, breaker cooldown).
    #[must_use]
    pub fn with_clock(mut self, clock: Arc<dyn ResilienceClock>) -> ResilientTransport {
        self.clock = clock;
        self.rebuild();
        self
    }

    /// Routes `rmi.retry.*` and `rmi.breaker.*` metrics into `obs`.
    #[must_use]
    pub fn with_collector(mut self, obs: &Collector) -> ResilientTransport {
        self.obs = obs.clone();
        self.rebuild();
        self
    }

    fn rebuild(&mut self) {
        self.breaker = CircuitBreaker::new(self.breaker_cfg, Arc::clone(&self.clock), &self.obs);
        self.telemetry = RetryTelemetry::new(&self.obs);
    }

    /// The breaker's current state.
    #[must_use]
    pub fn breaker_state(&self) -> BreakerState {
        self.breaker.state()
    }

    fn next_request_id(&self) -> u128 {
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        (u128::from(self.instance) << 64) | u128::from(seq)
    }

    /// One delivery attempt: send the envelope, verify the reply.
    fn attempt(&self, tracked: &[u8], request_id: u128) -> Result<Vec<u8>, RmiError> {
        let raw = self.inner.call(tracked)?;
        match unwrap_tracked_reply(raw) {
            Ok(TrackedResponse::Ok(payload)) => {
                // A load-shed response is a delivery failure in disguise:
                // convert it back into the retryable error so this retry
                // loop absorbs the shed (with backoff) instead of
                // surfacing it to the caller on the first bounce.
                if response_is_shed(&payload) {
                    self.obs.metrics().counter("rmi.resilient.shed").inc();
                    return Err(RmiError::overloaded(format!(
                        "request {request_id:#034x} shed by server admission control"
                    )));
                }
                Ok(payload)
            }
            Ok(TrackedResponse::CorruptRequest) => {
                self.telemetry.corruption_detected.inc();
                Err(RmiError::Transport(format!(
                    "request {request_id:#034x} corrupted in flight"
                )))
            }
            Err(e) => {
                self.telemetry.corruption_detected.inc();
                Err(RmiError::Transport(format!(
                    "response corrupted in flight: {e}"
                )))
            }
        }
    }
}

impl Transport for ResilientTransport {
    fn call(&self, request: &[u8]) -> Result<Vec<u8>, RmiError> {
        let request_id = self.next_request_id();
        let tracked = tracked_call(request_id, request);
        let deadline = self.clock.now() + self.policy.call_deadline;
        // The whole retry loop is one span; every attempt is a child span,
        // so a recovered flake reads as "resilient:call → attempt:1 (fail)
        // → attempt:2 (ok)" in a stitched trace.
        let mut span = self.obs.traced_span("rmi", "resilient:call");
        let mut attempt_no = 0u32;
        let (outcome, result) = loop {
            attempt_no += 1;
            self.telemetry.attempts.inc();
            if attempt_no > 1 {
                self.telemetry.retries.inc();
            }
            if let Err(e) = self.breaker.admit() {
                self.obs.traced_event(
                    "rmi",
                    "breaker:reject",
                    vec![("attempt".into(), u64::from(attempt_no).into())],
                );
                break ("circuit_open", Err(e));
            }
            let started = self.clock.now();
            let attempted = {
                let mut attempt_span = self.obs.traced_span("rmi", format!("attempt:{attempt_no}"));
                let r = self.attempt(&tracked, request_id);
                attempt_span.arg("ok", u64::from(r.is_ok()));
                r
            };
            self.telemetry.record_attempt_latency(
                &self.obs,
                attempt_no,
                self.clock.now().saturating_sub(started),
            );
            match attempted {
                Ok(payload) => {
                    self.breaker.record_success();
                    if attempt_no > 1 {
                        self.telemetry.recovered.inc();
                    }
                    break ("ok", Ok(payload));
                }
                Err(e) if !e.is_retryable() => break ("non_retryable", Err(e)),
                Err(e) => {
                    self.breaker.record_failure();
                    if attempt_no >= self.policy.max_attempts {
                        self.telemetry.exhausted.inc();
                        break ("exhausted", Err(e));
                    }
                    let backoff = {
                        let mut jitter = self.jitter.lock().unwrap();
                        self.policy.backoff(attempt_no, &mut jitter)
                    };
                    if self.clock.now() + backoff >= deadline {
                        self.telemetry.timeouts.inc();
                        break (
                            "timeout",
                            Err(RmiError::Timeout(format!(
                                "call deadline {:?} exhausted after {attempt_no} attempts; \
                                 last error: {e}",
                                self.policy.call_deadline
                            ))),
                        );
                    }
                    self.telemetry.backoff_ns.record_duration(backoff);
                    self.clock.sleep(backoff);
                }
            }
        };
        span.arg("attempts", u64::from(attempt_no));
        span.arg("outcome", outcome);
        result
    }

    fn stats(&self) -> TransportStats {
        self.inner.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch::{Dispatcher, ObjectRegistry, RemoteObject, ServerCtx};
    use crate::frame::{
        corrupt_request_reply as encode_tracked_resp_corrupt, fnv1a64,
        open_tracked_call as decode_tracked_call, open_tracked_reply as decode_tracked_resp,
        tracked_call as encode_tracked_call, tracked_ok_reply as encode_tracked_resp_ok,
    };
    use crate::transport::InProcTransport;
    use crate::value::Value;
    use crate::Client;

    #[test]
    fn fnv_is_stable_and_input_sensitive() {
        // Known FNV-1a vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(fnv1a64(b"ab"), fnv1a64(b"ba"));
    }

    #[test]
    fn tracked_envelopes_round_trip() {
        let payload = b"call frame bytes".to_vec();
        let call = encode_tracked_call(0xDEAD_BEEF, &payload);
        let (id, inner) = decode_tracked_call(&call).unwrap();
        assert_eq!(id, 0xDEAD_BEEF);
        assert_eq!(inner, payload);

        let resp = encode_tracked_resp_ok(&payload);
        match decode_tracked_resp(&resp).unwrap() {
            TrackedResponse::Ok(p) => assert_eq!(p, payload),
            TrackedResponse::CorruptRequest => panic!("wrong status"),
        }
        match decode_tracked_resp(&encode_tracked_resp_corrupt()).unwrap() {
            TrackedResponse::CorruptRequest => {}
            TrackedResponse::Ok(_) => panic!("wrong status"),
        }
    }

    #[test]
    fn corrupted_envelopes_fail_checksum() {
        let mut call = encode_tracked_call(7, b"payload");
        let last = call.len() - 1;
        call[last] ^= 0x40;
        assert!(decode_tracked_call(&call).is_err());

        let mut resp = encode_tracked_resp_ok(b"result");
        let last = resp.len() - 1;
        resp[last] ^= 0x01;
        assert!(decode_tracked_resp(&resp).is_err());
    }

    #[test]
    fn backoff_grows_is_capped_and_deterministic() {
        let policy = RetryPolicy::default()
            .with_backoff(Duration::from_millis(10), Duration::from_millis(200));
        let mut a = Rng::seed_from_u64(policy.jitter_seed);
        let mut b = Rng::seed_from_u64(policy.jitter_seed);
        let seq_a: Vec<Duration> = (1..8).map(|n| policy.backoff(n, &mut a)).collect();
        let seq_b: Vec<Duration> = (1..8).map(|n| policy.backoff(n, &mut b)).collect();
        assert_eq!(seq_a, seq_b, "same seed, same backoff schedule");
        // Roughly exponential up to the cap (jitter is ±10%).
        assert!(seq_a[0] >= Duration::from_millis(9) && seq_a[0] <= Duration::from_millis(11));
        assert!(seq_a[1] > seq_a[0]);
        for d in &seq_a {
            assert!(*d <= Duration::from_millis(220), "cap plus jitter: {d:?}");
        }
    }

    #[test]
    fn virtual_clock_sleeps_instantly() {
        let clock = VirtualClock::new();
        assert_eq!(clock.now(), Duration::ZERO);
        clock.sleep(Duration::from_secs(3600));
        assert_eq!(clock.now(), Duration::from_secs(3600));
    }

    #[test]
    fn breaker_full_cycle() {
        let clock = Arc::new(VirtualClock::new());
        let obs = Collector::disabled();
        let b = CircuitBreaker::new(
            BreakerConfig {
                failure_threshold: 3,
                cooldown: Duration::from_secs(5),
            },
            Arc::clone(&clock) as Arc<dyn ResilienceClock>,
            &obs,
        );
        assert_eq!(b.state(), BreakerState::Closed);
        b.record_failure();
        b.record_failure();
        assert_eq!(b.state(), BreakerState::Closed);
        b.record_failure();
        assert_eq!(b.state(), BreakerState::Open);
        // Open: fail fast until the cooldown elapses.
        assert!(matches!(b.admit(), Err(RmiError::CircuitOpen(_))));
        clock.advance(Duration::from_secs(5));
        // Probe admitted; a failing probe re-opens…
        assert!(b.admit().is_ok());
        assert_eq!(b.state(), BreakerState::HalfOpen);
        b.record_failure();
        assert_eq!(b.state(), BreakerState::Open);
        // …and a succeeding probe closes.
        clock.advance(Duration::from_secs(5));
        assert!(b.admit().is_ok());
        b.record_success();
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.admit().is_ok());
        let snap = obs.metrics().snapshot();
        assert_eq!(snap.counters.get("rmi.breaker.opened"), Some(&2));
        assert_eq!(snap.counters.get("rmi.breaker.probes"), Some(&2));
        assert_eq!(snap.counters.get("rmi.breaker.fast_fails"), Some(&1));
    }

    /// Fails the first `fail_first` calls with a transport error, then
    /// delegates to a dispatcher.
    struct FlakyTransport {
        dispatcher: Arc<Dispatcher>,
        remaining_failures: Mutex<u32>,
        calls: AtomicU64,
    }

    impl FlakyTransport {
        fn new(dispatcher: Arc<Dispatcher>, fail_first: u32) -> FlakyTransport {
            FlakyTransport {
                dispatcher,
                remaining_failures: Mutex::new(fail_first),
                calls: AtomicU64::new(0),
            }
        }
    }

    impl Transport for FlakyTransport {
        fn call(&self, request: &[u8]) -> Result<Vec<u8>, RmiError> {
            self.calls.fetch_add(1, Ordering::Relaxed);
            let mut remaining = self.remaining_failures.lock().unwrap();
            if *remaining > 0 {
                *remaining -= 1;
                return Err(RmiError::Transport("injected flake".into()));
            }
            Ok(self.dispatcher.handle_bytes(request))
        }

        fn stats(&self) -> TransportStats {
            TransportStats::default()
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
    fn retries_through_transient_failures() {
        let obs = Collector::disabled();
        let clock = Arc::new(VirtualClock::new());
        let flaky = Arc::new(FlakyTransport::new(echo_dispatcher(), 2));
        let t = ResilientTransport::new(
            Arc::clone(&flaky) as Arc<dyn Transport>,
            RetryPolicy::default().with_max_attempts(4),
        )
        .with_clock(Arc::clone(&clock) as Arc<dyn ResilienceClock>)
        .with_collector(&obs);
        let client = Client::new(Arc::new(t) as Arc<dyn Transport>);
        let v = client.root().invoke("echo", vec![Value::I64(9)]).unwrap();
        assert_eq!(v, Value::I64(9));
        assert_eq!(flaky.calls.load(Ordering::Relaxed), 3);
        let snap = obs.metrics().snapshot();
        assert_eq!(snap.counters.get("rmi.retry.attempts"), Some(&3));
        assert_eq!(snap.counters.get("rmi.retry.retries"), Some(&2));
        assert_eq!(snap.counters.get("rmi.retry.recovered"), Some(&1));
        assert_eq!(
            snap.histograms.get("rmi.retry.backoff_ns").unwrap().count,
            2
        );
        // Backoff advanced the virtual clock, not the wall clock.
        assert!(clock.now() > Duration::ZERO);
    }

    #[test]
    fn attempt_budget_exhausts() {
        let obs = Collector::disabled();
        let clock = Arc::new(VirtualClock::new());
        let flaky = Arc::new(FlakyTransport::new(echo_dispatcher(), u32::MAX));
        let t = ResilientTransport::new(
            flaky as Arc<dyn Transport>,
            RetryPolicy::default().with_max_attempts(3),
        )
        .with_clock(clock as Arc<dyn ResilienceClock>)
        .with_collector(&obs);
        let err = t.call(b"whatever").unwrap_err();
        assert!(matches!(err, RmiError::Transport(_)), "{err}");
        let snap = obs.metrics().snapshot();
        assert_eq!(snap.counters.get("rmi.retry.attempts"), Some(&3));
        assert_eq!(snap.counters.get("rmi.retry.exhausted"), Some(&1));
    }

    #[test]
    fn deadline_cuts_retries_short() {
        let clock = Arc::new(VirtualClock::new());
        let obs = Collector::disabled();
        let flaky = Arc::new(FlakyTransport::new(echo_dispatcher(), u32::MAX));
        let t = ResilientTransport::new(
            flaky as Arc<dyn Transport>,
            RetryPolicy::default()
                .with_max_attempts(100)
                .with_backoff(Duration::from_millis(100), Duration::from_millis(100))
                .with_deadline(Duration::from_millis(250)),
        )
        .with_clock(clock as Arc<dyn ResilienceClock>)
        .with_collector(&obs);
        let err = t.call(b"x").unwrap_err();
        assert!(matches!(err, RmiError::Timeout(_)), "{err}");
        let snap = obs.metrics().snapshot();
        assert_eq!(snap.counters.get("rmi.retry.timeouts"), Some(&1));
        // 100ms backoffs into a 250ms budget: three attempts at most.
        assert!(snap.counters.get("rmi.retry.attempts").copied().unwrap() <= 3);
    }

    #[test]
    fn non_retryable_errors_pass_through_once() {
        let flaky = Arc::new(FlakyTransport::new(echo_dispatcher(), 0));
        let t = ResilientTransport::new(
            Arc::clone(&flaky) as Arc<dyn Transport>,
            RetryPolicy::default(),
        );
        let client = Client::new(Arc::new(t) as Arc<dyn Transport>);
        let err = client.root().invoke("nope", vec![]).unwrap_err();
        assert!(matches!(err, RmiError::Remote { .. }), "{err}");
        // One attempt: remote application errors are not retried.
        assert_eq!(flaky.calls.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn breaker_opens_under_sustained_failure_and_recovers() {
        let obs = Collector::disabled();
        let clock = Arc::new(VirtualClock::new());
        // 5 injected failures: 3 burn the first call's attempts (tripping
        // the breaker), and the next two feed one failed probe each.
        let flaky = Arc::new(FlakyTransport::new(echo_dispatcher(), 5));
        let t = ResilientTransport::new(
            Arc::clone(&flaky) as Arc<dyn Transport>,
            RetryPolicy::default()
                .with_max_attempts(3)
                .with_backoff(Duration::from_millis(1), Duration::from_millis(1)),
        )
        .with_breaker(BreakerConfig {
            failure_threshold: 3,
            cooldown: Duration::from_secs(2),
        })
        .with_clock(Arc::clone(&clock) as Arc<dyn ResilienceClock>)
        .with_collector(&obs);
        // First call: 3 attempts fail, breaker trips at the threshold.
        assert!(t.call(b"a").is_err());
        assert_eq!(t.breaker_state(), BreakerState::Open);
        // While open: immediate CircuitOpen, no transport traffic.
        let before = flaky.calls.load(Ordering::Relaxed);
        assert!(matches!(t.call(b"b"), Err(RmiError::CircuitOpen(_))));
        assert_eq!(flaky.calls.load(Ordering::Relaxed), before);
        // After the cooldown the probe goes through. The flaky transport
        // has 3 injected failures left: probe fails, breaker re-opens,
        // retry loop returns CircuitOpen on the next admit.
        clock.advance(Duration::from_secs(2));
        assert!(t.call(b"c").is_err());
        // Burn the remaining failures, then recover for real.
        clock.advance(Duration::from_secs(2));
        let _ = t.call(b"d");
        clock.advance(Duration::from_secs(2));
        let ok = t.call(
            &Frame::Call(crate::frame::CallFrame {
                call_id: 1,
                object: crate::value::ObjectId::ROOT,
                method: "echo".into(),
                args: vec![Value::I64(1)],
                context: None,
                tenant: None,
            })
            .encode(),
        );
        assert!(ok.is_ok(), "{ok:?}");
        assert_eq!(t.breaker_state(), BreakerState::Closed);
        let snap = obs.metrics().snapshot();
        assert!(snap.counters.get("rmi.breaker.opened").copied().unwrap() >= 1);
        assert!(
            snap.counters
                .get("rmi.breaker.fast_fails")
                .copied()
                .unwrap()
                >= 1
        );
        assert_eq!(snap.gauges.get("rmi.breaker.state").unwrap().value, 0);
    }

    #[test]
    fn dedup_keeps_at_most_once_semantics() {
        // A transport that duplicates every request: without dedup the
        // counter below would double-count.
        struct CountingObject {
            hits: AtomicU64,
        }
        impl RemoteObject for CountingObject {
            fn invoke(&self, _m: &str, _a: &[Value], _c: &ServerCtx) -> Result<Value, RmiError> {
                Ok(Value::I64(self.hits.fetch_add(1, Ordering::Relaxed) as i64))
            }
        }
        struct DuplicatingTransport {
            dispatcher: Arc<Dispatcher>,
        }
        impl Transport for DuplicatingTransport {
            fn call(&self, request: &[u8]) -> Result<Vec<u8>, RmiError> {
                let first = self.dispatcher.handle_bytes(request);
                let second = self.dispatcher.handle_bytes(request);
                assert_eq!(first, second, "dedup must replay identical bytes");
                Ok(second)
            }
            fn stats(&self) -> TransportStats {
                TransportStats::default()
            }
        }
        let reg = Arc::new(ObjectRegistry::new());
        let counter = Arc::new(CountingObject {
            hits: AtomicU64::new(0),
        });
        reg.register_root(Arc::clone(&counter) as Arc<dyn RemoteObject>);
        let dispatcher = Arc::new(Dispatcher::new(reg));
        let t = ResilientTransport::new(
            Arc::new(DuplicatingTransport {
                dispatcher: Arc::clone(&dispatcher),
            }),
            RetryPolicy::default(),
        );
        let client = Client::new(Arc::new(t) as Arc<dyn Transport>);
        let v1 = client.root().invoke("count", vec![]).unwrap();
        let v2 = client.root().invoke("count", vec![]).unwrap();
        assert_eq!(v1, Value::I64(0));
        assert_eq!(v2, Value::I64(1));
        // Each logical call executed exactly once despite duplication.
        assert_eq!(counter.hits.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn resilient_over_inproc_is_transparent() {
        let obs = Collector::disabled();
        let inner = Arc::new(InProcTransport::with_collector(echo_dispatcher(), &obs));
        let t = ResilientTransport::new(inner, RetryPolicy::default()).with_collector(&obs);
        let client = Client::new(Arc::new(t) as Arc<dyn Transport>);
        for i in 0..5i64 {
            assert_eq!(
                client.root().invoke("echo", vec![Value::I64(i)]).unwrap(),
                Value::I64(i)
            );
        }
        let snap = obs.metrics().snapshot();
        assert_eq!(snap.counter("rmi.retry.attempts"), 5);
        assert_eq!(snap.counter("rmi.retry.retries"), 0);
    }

    #[test]
    fn attempts_are_traced_and_profiled_per_index() {
        let obs = Collector::enabled();
        let clock = Arc::new(VirtualClock::new());
        let flaky = Arc::new(FlakyTransport::new(echo_dispatcher(), 2));
        let t = ResilientTransport::new(
            Arc::clone(&flaky) as Arc<dyn Transport>,
            RetryPolicy::default().with_max_attempts(4),
        )
        .with_clock(Arc::clone(&clock) as Arc<dyn ResilienceClock>)
        .with_collector(&obs);
        let client = Client::new(Arc::new(t) as Arc<dyn Transport>);
        client.root().invoke("echo", vec![Value::I64(1)]).unwrap();

        let snap = obs.metrics().snapshot();
        let aggregate = snap.histograms.get("rmi.retry.attempt_latency_ns").unwrap();
        assert_eq!(aggregate.count, 3);
        for i in 1..=3u32 {
            let h = snap
                .histograms
                .get(&format!("rmi.retry.attempt.{i}.latency_ns"))
                .unwrap_or_else(|| panic!("missing per-attempt histogram {i}"));
            assert_eq!(h.count, 1);
        }

        let trace = obs.trace();
        let outer = trace.events_named("resilient:call");
        assert_eq!(outer.len(), 1);
        assert!(outer[0]
            .args
            .iter()
            .any(|(k, v)| k == "attempts" && matches!(v, ArgValue::U64(3))));
        assert!(outer[0]
            .args
            .iter()
            .any(|(k, v)| k == "outcome" && matches!(v, ArgValue::Str(s) if s == "ok")));
        // Each delivery attempt is its own child span.
        assert_eq!(trace.events_named("attempt:").len(), 3);
    }

    #[test]
    fn breaker_rejection_is_a_traced_event() {
        let obs = Collector::enabled();
        let clock = Arc::new(VirtualClock::new());
        let flaky = Arc::new(FlakyTransport::new(echo_dispatcher(), u32::MAX));
        let t = ResilientTransport::new(
            flaky as Arc<dyn Transport>,
            RetryPolicy::default()
                .with_max_attempts(3)
                .with_backoff(Duration::from_millis(1), Duration::from_millis(1)),
        )
        .with_breaker(BreakerConfig {
            failure_threshold: 3,
            cooldown: Duration::from_secs(5),
        })
        .with_clock(clock as Arc<dyn ResilienceClock>)
        .with_collector(&obs);
        assert!(t.call(b"a").is_err(), "three failures trip the breaker");
        assert!(matches!(t.call(b"b"), Err(RmiError::CircuitOpen(_))));

        let trace = obs.trace();
        assert_eq!(trace.events_named("breaker:reject").len(), 1);
        let outer = trace.events_named("resilient:call");
        assert_eq!(outer.len(), 2);
        assert!(outer.iter().any(|e| {
            e.args.iter().any(|(k, v)| {
                k == "outcome" && matches!(v, ArgValue::Str(s) if s == "circuit_open")
            })
        }));
        assert!(outer.iter().any(|e| {
            e.args
                .iter()
                .any(|(k, v)| k == "outcome" && matches!(v, ArgValue::Str(s) if s == "exhausted"))
        }));
    }

    use crate::frame::Frame;
    use vcad_obs::ArgValue;
}
