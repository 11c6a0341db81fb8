//! Per-tenant admission control: token-bucket rate limits, hard call
//! quotas and session accounting.
//!
//! The paper's provider serves many simultaneous fee-paying users; this
//! module is the policy layer that keeps one tenant from starving the
//! rest. An [`AdmissionControl`] sits in front of the
//! [`Dispatcher`](crate::Dispatcher): every tenant-stamped call frame
//! (the v3 envelope, see [`CallFrame`](crate::CallFrame)) must take a
//! token from its tenant's bucket before it dispatches. A dry bucket
//! sheds the call with the *retryable*
//! [`RemoteErrorKind::Overloaded`](crate::RemoteErrorKind) — clients
//! behind a [`ResilientTransport`](crate::ResilientTransport) back off
//! and retry — while an exhausted hard quota denies with the
//! non-retryable `QuotaExceeded`.
//!
//! All timing runs on a [`ResilienceClock`], so tests drive the limiter
//! on a [`VirtualClock`](crate::VirtualClock) and shed counts become
//! deterministic, reproducible numbers rather than wall-time artifacts.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use vcad_obs::Collector;

use crate::error::RmiError;
use crate::resilience::{RealClock, ResilienceClock};

/// A token bucket: capacity `burst`, refilled continuously at
/// `rate_per_sec`. Starts full.
///
/// Time is supplied by the caller (a [`ResilienceClock`] reading), so
/// the bucket itself is a pure state machine — the property tests replay
/// arbitrary schedules on a virtual clock.
#[derive(Clone, Debug)]
pub struct TokenBucket {
    rate_per_sec: f64,
    burst: f64,
    tokens: f64,
    last: Duration,
}

impl TokenBucket {
    /// A full bucket holding `burst` tokens, refilling at
    /// `rate_per_sec`, with `now` as its epoch.
    #[must_use]
    pub fn new(rate_per_sec: f64, burst: f64, now: Duration) -> TokenBucket {
        TokenBucket {
            rate_per_sec: rate_per_sec.max(0.0),
            burst: burst.max(0.0),
            tokens: burst.max(0.0),
            last: now,
        }
    }

    fn refill(&mut self, now: Duration) {
        if now > self.last {
            let dt = (now - self.last).as_secs_f64();
            self.tokens = (self.tokens + dt * self.rate_per_sec).min(self.burst);
        }
        // A clock that never goes backwards is the caller's contract;
        // if it does, keep the last epoch rather than minting tokens.
        self.last = self.last.max(now);
    }

    /// Takes one token if available. Returns `false` (and takes nothing)
    /// when the bucket is dry.
    pub fn try_take(&mut self, now: Duration) -> bool {
        self.refill(now);
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }

    /// Tokens currently available (after refilling to `now`).
    pub fn available(&mut self, now: Duration) -> f64 {
        self.refill(now);
        self.tokens
    }
}

/// The admission policy for one tenant.
#[derive(Clone, Debug)]
pub struct TenantQuota {
    /// Sustained calls per second the token bucket refills at.
    pub rate_per_sec: f64,
    /// Bucket capacity: how far a tenant may burst above the rate.
    pub burst: f64,
    /// Lifetime call budget; `None` is unlimited. Exhaustion is a hard
    /// (non-retryable) `QuotaExceeded` denial.
    pub max_calls: Option<u64>,
}

impl TenantQuota {
    /// No limits at all — the default for unknown tenants.
    #[must_use]
    pub fn unlimited() -> TenantQuota {
        TenantQuota {
            rate_per_sec: f64::INFINITY,
            burst: f64::INFINITY,
            max_calls: None,
        }
    }

    /// A rate-limited quota: `rate_per_sec` sustained, bursting to
    /// `burst`.
    #[must_use]
    pub fn rate_limited(rate_per_sec: f64, burst: f64) -> TenantQuota {
        TenantQuota {
            rate_per_sec,
            burst,
            max_calls: None,
        }
    }

    /// Caps the lifetime call budget.
    #[must_use]
    pub fn with_max_calls(mut self, max_calls: u64) -> TenantQuota {
        self.max_calls = Some(max_calls);
        self
    }
}

/// Why a call was not admitted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShedReason {
    /// The tenant's token bucket is dry — transient, retryable.
    RateLimited,
    /// The tenant's lifetime call budget is spent — permanent.
    QuotaExhausted,
}

/// Per-tenant admission counters, for tests and reports.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TenantStats {
    /// Calls admitted to the dispatcher.
    pub admitted: u64,
    /// Calls shed by the rate limiter (retryable).
    pub shed_rate: u64,
    /// Calls denied by the hard quota (non-retryable).
    pub shed_quota: u64,
    /// Sessions currently open.
    pub sessions: usize,
}

struct TenantState {
    quota: TenantQuota,
    bucket: TokenBucket,
    stats: TenantStats,
}

impl TenantState {
    fn new(quota: TenantQuota, now: Duration) -> TenantState {
        let bucket = TokenBucket::new(quota.rate_per_sec, quota.burst, now);
        TenantState {
            quota,
            bucket,
            stats: TenantStats::default(),
        }
    }
}

/// The per-tenant session registry and admission gate.
///
/// One instance fronts one provider process: the
/// [`Dispatcher`](crate::Dispatcher) consults it per call (via
/// [`Dispatcher::with_admission`](crate::Dispatcher::with_admission)),
/// and the multiplexed server registers sessions against it as
/// connections identify their tenant. Calls with *no* tenant stamp
/// (frozen v1/v2 frames from legacy clients) bypass tenant policy — the
/// queue-level backpressure of the multiplexed server still applies to
/// them.
pub struct AdmissionControl {
    clock: Arc<dyn ResilienceClock>,
    default_quota: TenantQuota,
    tenants: Mutex<BTreeMap<String, TenantState>>,
    obs: Collector,
}

impl AdmissionControl {
    /// An admission gate on the real clock, admitting everything until
    /// quotas are set.
    #[must_use]
    pub fn new() -> AdmissionControl {
        AdmissionControl::with_clock(Arc::new(RealClock::new()))
    }

    /// An admission gate on an explicit clock — pass a
    /// [`VirtualClock`](crate::VirtualClock) for deterministic shed
    /// counts.
    #[must_use]
    pub fn with_clock(clock: Arc<dyn ResilienceClock>) -> AdmissionControl {
        AdmissionControl {
            clock,
            default_quota: TenantQuota::unlimited(),
            tenants: Mutex::new(BTreeMap::new()),
            obs: Collector::disabled(),
        }
    }

    /// Routes `tenant.*` admission metrics into `obs`.
    #[must_use]
    pub fn with_collector(mut self, obs: &Collector) -> AdmissionControl {
        self.obs = obs.clone();
        self
    }

    /// The quota applied to tenants without an explicit one.
    #[must_use]
    pub fn with_default_quota(mut self, quota: TenantQuota) -> AdmissionControl {
        self.default_quota = quota;
        self
    }

    /// Sets (or replaces) one tenant's quota. The token bucket restarts
    /// full at the new capacity.
    pub fn set_quota(&self, tenant: &str, quota: TenantQuota) {
        let now = self.clock.now();
        let mut tenants = self.tenants.lock().unwrap();
        match tenants.get_mut(tenant) {
            Some(state) => {
                state.bucket = TokenBucket::new(quota.rate_per_sec, quota.burst, now);
                state.quota = quota;
            }
            None => {
                tenants.insert(tenant.to_owned(), TenantState::new(quota, now));
            }
        }
    }

    /// Admits or sheds one call for `tenant`. `None` (an unstamped
    /// legacy frame) is always admitted.
    ///
    /// # Errors
    ///
    /// [`RmiError::overloaded`] when the rate limiter sheds the call
    /// (retryable), [`RmiError::quota_exceeded`] when the tenant's hard
    /// budget is spent.
    pub fn admit(&self, tenant: Option<&str>) -> Result<(), RmiError> {
        let Some(tenant) = tenant else { return Ok(()) };
        let now = self.clock.now();
        let verdict = {
            let mut tenants = self.tenants.lock().unwrap();
            let state = tenants
                .entry(tenant.to_owned())
                .or_insert_with(|| TenantState::new(self.default_quota.clone(), now));
            let lifetime = state.stats.admitted + state.stats.shed_rate;
            if state.quota.max_calls.is_some_and(|max| lifetime >= max) {
                state.stats.shed_quota += 1;
                Err(ShedReason::QuotaExhausted)
            } else if state.bucket.try_take(now) {
                state.stats.admitted += 1;
                Ok(())
            } else {
                state.stats.shed_rate += 1;
                Err(ShedReason::RateLimited)
            }
        };
        let metrics = self.obs.metrics();
        match verdict {
            Ok(()) => {
                metrics.counter(&format!("tenant.{tenant}.admitted")).inc();
                metrics.counter("server.admitted").inc();
                Ok(())
            }
            Err(ShedReason::RateLimited) => {
                metrics.counter(&format!("tenant.{tenant}.shed")).inc();
                metrics.counter("server.shed").inc();
                Err(RmiError::overloaded(format!(
                    "tenant `{tenant}` rate limit: retry after backoff"
                )))
            }
            Err(ShedReason::QuotaExhausted) => {
                metrics
                    .counter(&format!("tenant.{tenant}.quota_denied"))
                    .inc();
                metrics.counter("server.quota_denied").inc();
                Err(RmiError::quota_exceeded(format!(
                    "tenant `{tenant}` call budget exhausted"
                )))
            }
        }
    }

    /// Registers one session (connection) for `tenant`.
    pub(crate) fn open_session(&self, tenant: &str) {
        let now = self.clock.now();
        let mut tenants = self.tenants.lock().unwrap();
        let state = tenants
            .entry(tenant.to_owned())
            .or_insert_with(|| TenantState::new(self.default_quota.clone(), now));
        state.stats.sessions += 1;
        self.obs
            .metrics()
            .gauge(&format!("tenant.{tenant}.sessions"))
            .set(state.stats.sessions as u64);
    }

    /// Releases one session for `tenant`.
    pub(crate) fn close_session(&self, tenant: &str) {
        let mut tenants = self.tenants.lock().unwrap();
        if let Some(state) = tenants.get_mut(tenant) {
            state.stats.sessions = state.stats.sessions.saturating_sub(1);
            self.obs
                .metrics()
                .gauge(&format!("tenant.{tenant}.sessions"))
                .set(state.stats.sessions as u64);
        }
    }

    /// One tenant's counters (zeroes for a tenant never seen).
    #[must_use]
    pub fn tenant_stats(&self, tenant: &str) -> TenantStats {
        self.tenants
            .lock()
            .unwrap()
            .get(tenant)
            .map(|s| s.stats.clone())
            .unwrap_or_default()
    }

    /// All tenants' counters, in tenant order (deterministic).
    #[must_use]
    pub fn all_stats(&self) -> Vec<(String, TenantStats)> {
        self.tenants
            .lock()
            .unwrap()
            .iter()
            .map(|(k, v)| (k.clone(), v.stats.clone()))
            .collect()
    }

    /// The clock this gate reads.
    #[must_use]
    pub fn clock(&self) -> &Arc<dyn ResilienceClock> {
        &self.clock
    }
}

impl Default for AdmissionControl {
    fn default() -> AdmissionControl {
        AdmissionControl::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resilience::VirtualClock;
    use crate::RemoteErrorKind;

    #[test]
    fn bucket_bursts_then_refills() {
        let mut b = TokenBucket::new(10.0, 3.0, Duration::ZERO);
        // Burst capacity drains first...
        assert!(b.try_take(Duration::ZERO));
        assert!(b.try_take(Duration::ZERO));
        assert!(b.try_take(Duration::ZERO));
        assert!(!b.try_take(Duration::ZERO));
        // ...100ms buys exactly one token at 10/s...
        assert!(b.try_take(Duration::from_millis(100)));
        assert!(!b.try_take(Duration::from_millis(100)));
        // ...and a long idle refills to full, never beyond.
        assert!((b.available(Duration::from_secs(60)) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn bucket_ignores_backwards_time() {
        let mut b = TokenBucket::new(1.0, 1.0, Duration::from_secs(10));
        assert!(b.try_take(Duration::from_secs(10)));
        // An earlier reading mints nothing.
        assert!(!b.try_take(Duration::from_secs(5)));
        assert!(b.try_take(Duration::from_secs(11)));
    }

    #[test]
    fn admission_sheds_on_rate_then_recovers() {
        let clock = Arc::new(VirtualClock::new());
        let ac = AdmissionControl::with_clock(clock.clone());
        ac.set_quota("acme", TenantQuota::rate_limited(10.0, 2.0));
        assert!(ac.admit(Some("acme")).is_ok());
        assert!(ac.admit(Some("acme")).is_ok());
        let err = ac.admit(Some("acme")).unwrap_err();
        assert_eq!(err.remote_kind(), Some(RemoteErrorKind::Overloaded));
        assert!(err.is_retryable());
        clock.advance(Duration::from_millis(100));
        assert!(ac.admit(Some("acme")).is_ok());
        let stats = ac.tenant_stats("acme");
        assert_eq!(stats.admitted, 3);
        assert_eq!(stats.shed_rate, 1);
    }

    #[test]
    fn hard_quota_is_a_permanent_typed_denial() {
        let clock = Arc::new(VirtualClock::new());
        let ac = AdmissionControl::with_clock(clock.clone());
        ac.set_quota(
            "smallco",
            TenantQuota::rate_limited(1000.0, 1000.0).with_max_calls(2),
        );
        assert!(ac.admit(Some("smallco")).is_ok());
        assert!(ac.admit(Some("smallco")).is_ok());
        let err = ac.admit(Some("smallco")).unwrap_err();
        assert_eq!(err.remote_kind(), Some(RemoteErrorKind::QuotaExceeded));
        assert!(!err.is_retryable());
        // Waiting does not help: the budget is lifetime, not windowed.
        clock.advance(Duration::from_secs(3600));
        assert!(ac.admit(Some("smallco")).is_err());
    }

    #[test]
    fn anonymous_and_unknown_tenants_pass_by_default() {
        let ac = AdmissionControl::with_clock(Arc::new(VirtualClock::new()));
        assert!(ac.admit(None).is_ok());
        assert!(ac.admit(Some("never-configured")).is_ok());
    }

    #[test]
    fn default_quota_applies_to_new_tenants() {
        let ac = AdmissionControl::with_clock(Arc::new(VirtualClock::new()))
            .with_default_quota(TenantQuota::rate_limited(1.0, 1.0));
        assert!(ac.admit(Some("walk-in")).is_ok());
        assert!(ac.admit(Some("walk-in")).is_err());
    }

    #[test]
    fn sessions_are_counted_and_metered() {
        let obs = Collector::enabled();
        let ac = AdmissionControl::with_clock(Arc::new(VirtualClock::new())).with_collector(&obs);
        for _ in 0..3 {
            ac.open_session("acme");
        }
        ac.close_session("acme");
        assert_eq!(ac.tenant_stats("acme").sessions, 2);
        let snap = obs.metrics().snapshot();
        assert_eq!(
            snap.gauges.get("tenant.acme.sessions").map(|g| g.value),
            Some(2)
        );
    }
}
