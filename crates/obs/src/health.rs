//! Health exposition: a snapshot of the metrics registry.
//!
//! A [`HealthSnapshot`] condenses a [`MetricsSnapshot`] into the
//! operational signals a provider operator watches: raw counters and
//! gauges, histogram quantiles (p50/p90/p99), circuit-breaker states,
//! cache hit ratios, shard utilization and per-tenant fees and sessions.
//! It renders as one JSON document through [`json::render`]; `loadgen`'s
//! `--health <path>` flag writes the server side's final snapshot.

use crate::collector::Collector;
use crate::json::{self, JsonValue};
use crate::metrics::MetricsSnapshot;

/// Condensed histogram view.
#[derive(Clone, Debug, PartialEq)]
pub struct HistogramHealth {
    /// Samples.
    pub count: u64,
    /// Mean sample.
    pub mean: f64,
    /// Median (bucket floor).
    pub p50: u64,
    /// 90th percentile (bucket floor).
    pub p90: u64,
    /// 99th percentile (bucket floor).
    pub p99: u64,
    /// Largest sample.
    pub max: u64,
}

/// One circuit breaker's state, decoded from its `rmi.breaker.state`
/// gauge (0 = closed, 1 = open, 2 = half-open).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BreakerHealth {
    /// The gauge name the state came from.
    pub metric: String,
    /// `closed` / `open` / `half-open` (or `unknown(n)`).
    pub state: String,
}

/// One tenant's admission/fee picture, aggregated from the
/// `tenant.<id>.*` metrics a multi-tenant provider emits.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TenantHealth {
    /// The tenant id.
    pub tenant: String,
    /// Calls admitted past admission control.
    pub admitted: u64,
    /// Calls shed by rate limiting (retryable).
    pub shed: u64,
    /// Calls denied by an exhausted hard quota (permanent).
    pub quota_denied: u64,
    /// Currently open sessions.
    pub sessions: u64,
    /// High-water mark of concurrent sessions.
    pub sessions_high_water: u64,
    /// Fees charged to this tenant, cents.
    pub fees_cents: f64,
}

/// The provider-side serving picture, aggregated from `server.*`
/// metrics (admission totals plus the mux server's connection and
/// queue signals).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ServerHealth {
    /// Calls admitted across all tenants.
    pub admitted: u64,
    /// Calls shed by rate limiting across all tenants.
    pub shed: u64,
    /// Calls denied on hard quota across all tenants.
    pub quota_denied: u64,
    /// Connections accepted by the mux server.
    pub accepted: u64,
    /// Connections rejected at the connection cap.
    pub conn_rejected: u64,
    /// Frames shed because the dispatch queue was full.
    pub queue_shed: u64,
    /// Currently open connections.
    pub connections: u64,
    /// High-water mark of concurrent connections.
    pub connections_high_water: u64,
    /// High-water mark of dispatch queue depth.
    pub queue_depth_high_water: u64,
}

/// A point-in-time health view over one metrics domain.
#[derive(Clone, Debug, Default)]
pub struct HealthSnapshot {
    /// Counters, verbatim.
    pub counters: Vec<(String, u64)>,
    /// Float counters, verbatim.
    pub float_counters: Vec<(String, f64)>,
    /// Gauges: (name, value, high water).
    pub gauges: Vec<(String, u64, u64)>,
    /// Histogram quantiles.
    pub histograms: Vec<(String, HistogramHealth)>,
    /// Circuit-breaker states.
    pub breakers: Vec<BreakerHealth>,
    /// Remote-call cache hit ratio in [0, 1], when the cache saw traffic.
    pub cache_hit_ratio: Option<f64>,
    /// Shard load imbalance percentage, when sharding ran.
    pub shard_imbalance_pct: Option<u64>,
    /// Per-tenant admission and fee signals, in tenant-id order.
    pub tenants: Vec<TenantHealth>,
    /// Aggregate serving signals, when a multi-tenant server ran.
    pub server: Option<ServerHealth>,
}

/// Splits a `tenant.<id>.<suffix>` metric name into its tenant id, for
/// a fixed suffix. Tenant ids may themselves contain dots; the known
/// suffix anchors the parse.
fn tenant_of<'a>(key: &'a str, suffix: &str) -> Option<&'a str> {
    key.strip_prefix("tenant.")?.strip_suffix(suffix)
}

fn collect_tenants(metrics: &MetricsSnapshot) -> Vec<TenantHealth> {
    type TenantMap = std::collections::BTreeMap<String, TenantHealth>;
    fn slot<'a>(by_id: &'a mut TenantMap, id: &str) -> &'a mut TenantHealth {
        by_id.entry(id.to_owned()).or_default()
    }
    let mut by_id = TenantMap::new();
    for (k, v) in &metrics.counters {
        if let Some(t) = tenant_of(k, ".admitted") {
            slot(&mut by_id, t).admitted = *v;
        } else if let Some(t) = tenant_of(k, ".shed") {
            slot(&mut by_id, t).shed = *v;
        } else if let Some(t) = tenant_of(k, ".quota_denied") {
            slot(&mut by_id, t).quota_denied = *v;
        }
    }
    for (k, v) in &metrics.float_counters {
        if let Some(t) = tenant_of(k, ".fees_cents") {
            slot(&mut by_id, t).fees_cents = *v;
        }
    }
    for (k, g) in &metrics.gauges {
        if let Some(t) = tenant_of(k, ".sessions") {
            let s = slot(&mut by_id, t);
            s.sessions = g.value;
            s.sessions_high_water = g.high_water;
        }
    }
    by_id
        .into_iter()
        .map(|(tenant, mut h)| {
            h.tenant = tenant;
            h
        })
        .collect()
}

fn collect_server(metrics: &MetricsSnapshot) -> Option<ServerHealth> {
    let saw = metrics.counters.keys().any(|k| k.starts_with("server."))
        || metrics.gauges.keys().any(|k| k.starts_with("server."));
    if !saw {
        return None;
    }
    let conns = metrics.gauges.get("server.connections");
    Some(ServerHealth {
        admitted: metrics.counter("server.admitted"),
        shed: metrics.counter("server.shed"),
        quota_denied: metrics.counter("server.quota_denied"),
        accepted: metrics.counter("server.accepted"),
        conn_rejected: metrics.counter("server.conn_rejected"),
        queue_shed: metrics.counter("server.queue_shed"),
        connections: conns.map_or(0, |g| g.value),
        connections_high_water: conns.map_or(0, |g| g.high_water),
        queue_depth_high_water: metrics
            .gauges
            .get("server.queue_depth")
            .map_or(0, |g| g.high_water),
    })
}

fn breaker_state_name(v: u64) -> String {
    match v {
        0 => "closed".to_string(),
        1 => "open".to_string(),
        2 => "half-open".to_string(),
        n => format!("unknown({n})"),
    }
}

impl HealthSnapshot {
    /// Builds a health view from a metrics snapshot.
    #[must_use]
    pub fn capture(metrics: &MetricsSnapshot) -> HealthSnapshot {
        let breakers = metrics
            .gauges
            .iter()
            .filter(|(k, _)| k.ends_with("breaker.state"))
            .map(|(k, g)| BreakerHealth {
                metric: k.clone(),
                state: breaker_state_name(g.value),
            })
            .collect();
        let hits = metrics.counter("cache.hits");
        let misses = metrics.counter("cache.misses");
        let cache_hit_ratio = if hits + misses > 0 {
            Some(hits as f64 / (hits + misses) as f64)
        } else {
            None
        };
        let shard_imbalance_pct = metrics
            .gauges
            .get("sched.shard.load.imbalance_pct")
            .map(|g| g.value);
        let tenants = collect_tenants(metrics);
        let server = collect_server(metrics);
        HealthSnapshot {
            counters: metrics
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), *v))
                .collect(),
            float_counters: metrics
                .float_counters
                .iter()
                .map(|(k, v)| (k.clone(), *v))
                .collect(),
            gauges: metrics
                .gauges
                .iter()
                .map(|(k, g)| (k.clone(), g.value, g.high_water))
                .collect(),
            histograms: metrics
                .histograms
                .iter()
                .map(|(k, h)| {
                    (
                        k.clone(),
                        HistogramHealth {
                            count: h.count,
                            mean: h.mean(),
                            p50: h.quantile(0.50),
                            p90: h.quantile(0.90),
                            p99: h.quantile(0.99),
                            max: h.max,
                        },
                    )
                })
                .collect(),
            breakers,
            cache_hit_ratio,
            shard_imbalance_pct,
            tenants,
            server,
        }
    }

    /// Convenience: capture from a collector's registry.
    #[must_use]
    pub fn of(obs: &Collector) -> HealthSnapshot {
        HealthSnapshot::capture(&obs.metrics().snapshot())
    }

    /// Renders the snapshot as a JSON document: `counters`,
    /// `float_counters`, `gauges` (`value`, `high_water`), `histograms`
    /// (`count`, `mean`, `p50`, `p90`, `p99`, `max`), `breakers`,
    /// `cache_hit_ratio`, `shard_imbalance_pct`, `tenants` (`admitted`,
    /// `shed`, `quota_denied`, `sessions`, `sessions_high_water`,
    /// `fees_cents`) and `server`; an absent ratio, percentage or server
    /// section is `null`.
    #[must_use]
    pub fn to_json(&self) -> String {
        let n = |v: u64| JsonValue::Number(v as f64);
        let histogram = |h: &HistogramHealth| {
            object([
                ("count", n(h.count)),
                ("mean", JsonValue::Number(h.mean)),
                ("p50", n(h.p50)),
                ("p90", n(h.p90)),
                ("p99", n(h.p99)),
                ("max", n(h.max)),
            ])
        };
        let tenant = |t: &TenantHealth| {
            object([
                ("admitted", n(t.admitted)),
                ("shed", n(t.shed)),
                ("quota_denied", n(t.quota_denied)),
                ("sessions", n(t.sessions)),
                ("sessions_high_water", n(t.sessions_high_water)),
                ("fees_cents", JsonValue::Number(t.fees_cents)),
            ])
        };
        let server = |s: &ServerHealth| {
            object([
                ("admitted", n(s.admitted)),
                ("shed", n(s.shed)),
                ("quota_denied", n(s.quota_denied)),
                ("accepted", n(s.accepted)),
                ("conn_rejected", n(s.conn_rejected)),
                ("queue_shed", n(s.queue_shed)),
                ("connections", n(s.connections)),
                ("connections_high_water", n(s.connections_high_water)),
                ("queue_depth_high_water", n(s.queue_depth_high_water)),
            ])
        };
        let doc = object([
            (
                "counters",
                object(self.counters.iter().map(|(k, v)| (k.as_str(), n(*v)))),
            ),
            (
                "float_counters",
                object(
                    self.float_counters
                        .iter()
                        .map(|(k, v)| (k.as_str(), JsonValue::Number(*v))),
                ),
            ),
            (
                "gauges",
                object(self.gauges.iter().map(|(k, v, hw)| {
                    (
                        k.as_str(),
                        object([("value", n(*v)), ("high_water", n(*hw))]),
                    )
                })),
            ),
            (
                "histograms",
                object(
                    self.histograms
                        .iter()
                        .map(|(k, h)| (k.as_str(), histogram(h))),
                ),
            ),
            (
                "breakers",
                object(
                    self.breakers
                        .iter()
                        .map(|b| (b.metric.as_str(), JsonValue::String(b.state.clone()))),
                ),
            ),
            (
                "cache_hit_ratio",
                self.cache_hit_ratio
                    .map_or(JsonValue::Null, JsonValue::Number),
            ),
            (
                "shard_imbalance_pct",
                self.shard_imbalance_pct.map_or(JsonValue::Null, n),
            ),
            (
                "tenants",
                object(self.tenants.iter().map(|t| (t.tenant.as_str(), tenant(t)))),
            ),
            (
                "server",
                self.server.as_ref().map_or(JsonValue::Null, server),
            ),
        ]);
        json::render(&doc)
    }
}

/// A JSON object from `(key, value)` pairs.
fn object<'a>(members: impl IntoIterator<Item = (&'a str, JsonValue)>) -> JsonValue {
    JsonValue::Object(
        members
            .into_iter()
            .map(|(k, v)| (k.to_owned(), v))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn sample_collector() -> Collector {
        let c = Collector::enabled();
        let m = c.metrics();
        m.counter("cache.hits").add(3);
        m.counter("cache.misses").add(1);
        m.gauge("rmi.breaker.state").set(1);
        m.gauge("sched.shard.load.imbalance_pct").set(12);
        m.float_counter("ip.fees_cents").add(12.5);
        for v in [100u64, 200, 400, 100_000] {
            m.histogram("rmi.method.AREA.latency_ns").record(v);
        }
        c
    }

    #[test]
    fn snapshot_decodes_breakers_and_ratios() {
        let s = HealthSnapshot::of(&sample_collector());
        assert_eq!(s.breakers.len(), 1);
        assert_eq!(s.breakers[0].state, "open");
        assert!((s.cache_hit_ratio.unwrap() - 0.75).abs() < 1e-12);
        assert_eq!(s.shard_imbalance_pct, Some(12));
        let (_, h) = &s.histograms[0];
        assert_eq!(h.count, 4);
        assert!(h.p99 >= h.p50);
    }

    #[test]
    fn json_is_parseable_and_complete() {
        let s = HealthSnapshot::of(&sample_collector());
        let doc = json::parse(&s.to_json()).expect("health JSON parses");
        assert_eq!(
            doc.get("breakers")
                .unwrap()
                .get("rmi.breaker.state")
                .unwrap()
                .as_str(),
            Some("open")
        );
        assert!((doc.get("cache_hit_ratio").unwrap().as_f64().unwrap() - 0.75).abs() < 1e-12);
        let hist = doc
            .get("histograms")
            .unwrap()
            .get("rmi.method.AREA.latency_ns")
            .unwrap();
        assert_eq!(hist.get("count").unwrap().as_u64(), Some(4));
        assert!(hist.get("p99").unwrap().as_u64().unwrap() >= 1);
        let counters = doc.get("counters").unwrap();
        assert_eq!(counters.get("cache.hits").unwrap().as_u64(), Some(3));
        let gauge = doc.get("gauges").unwrap().get("rmi.breaker.state").unwrap();
        assert_eq!(gauge.get("high_water").unwrap().as_u64(), Some(1));
    }

    #[test]
    fn tenant_and_server_sections_aggregate_prefixed_metrics() {
        let c = Collector::enabled();
        let m = c.metrics();
        m.counter("tenant.acme.admitted").add(40);
        m.counter("tenant.acme.shed").add(2);
        m.float_counter("tenant.acme.fees_cents").add(17.5);
        m.gauge("tenant.acme.sessions").set(3);
        m.counter("tenant.zeta.co.admitted").add(5);
        m.counter("tenant.zeta.co.quota_denied").add(1);
        m.counter("server.admitted").add(45);
        m.counter("server.shed").add(2);
        m.counter("server.accepted").add(4);
        m.gauge("server.connections").set(4);
        m.gauge("server.queue_depth").set(9);
        m.gauge("server.queue_depth").set(1);
        let s = HealthSnapshot::of(&c);

        assert_eq!(s.tenants.len(), 2);
        assert_eq!(s.tenants[0].tenant, "acme");
        assert_eq!(s.tenants[0].admitted, 40);
        assert_eq!(s.tenants[0].shed, 2);
        assert!((s.tenants[0].fees_cents - 17.5).abs() < 1e-12);
        assert_eq!(s.tenants[0].sessions, 3);
        // A dotted tenant id parses because the suffix anchors the split.
        assert_eq!(s.tenants[1].tenant, "zeta.co");
        assert_eq!(s.tenants[1].quota_denied, 1);

        let srv = s.server.as_ref().expect("server section present");
        assert_eq!(srv.admitted, 45);
        assert_eq!(srv.shed, 2);
        assert_eq!(srv.accepted, 4);
        assert_eq!(srv.connections, 4);
        assert_eq!(srv.queue_depth_high_water, 9);

        let doc = json::parse(&s.to_json()).expect("health JSON parses");
        let acme = doc.get("tenants").unwrap().get("acme").unwrap();
        assert_eq!(acme.get("admitted").unwrap().as_u64(), Some(40));
        assert!((acme.get("fees_cents").unwrap().as_f64().unwrap() - 17.5).abs() < 1e-12);
        assert_eq!(
            doc.get("server")
                .unwrap()
                .get("queue_shed")
                .unwrap()
                .as_u64(),
            Some(0)
        );
        let zeta = doc.get("tenants").unwrap().get("zeta.co").unwrap();
        assert_eq!(zeta.get("quota_denied").unwrap().as_u64(), Some(1));
        let server = doc.get("server").unwrap();
        assert_eq!(server.get("admitted").unwrap().as_u64(), Some(45));
    }

    #[test]
    fn empty_registry_renders_null_ratios() {
        let s = HealthSnapshot::of(&Collector::disabled());
        let doc = json::parse(&s.to_json()).unwrap();
        assert_eq!(doc.get("cache_hit_ratio"), Some(&json::JsonValue::Null));
    }
}
