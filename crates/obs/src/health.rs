//! Live health exposition: periodic snapshots of the metrics registry.
//!
//! A [`HealthSnapshot`] condenses a [`MetricsSnapshot`] into the
//! operational signals a provider operator watches: raw counters and
//! gauges, histogram quantiles (p50/p90/p99), circuit-breaker states,
//! cache hit ratios and shard utilization. It renders as a plain-text
//! table or as hand-rolled JSON; [`HealthReporter`] rewrites a file with
//! the current snapshot on a fixed cadence (and once more on shutdown),
//! which is `loadgen`'s `--health <path>[:interval_ms]` flag.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::collector::Collector;
use crate::json;
use crate::metrics::MetricsSnapshot;
use crate::summary::{fmt_ns, table};

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

    /// Renders the snapshot as plain text.
    #[must_use]
    pub fn to_text(&self) -> String {
        let mut out = String::from("== vcad health ==\n");
        if let Some(r) = self.cache_hit_ratio {
            let _ = writeln!(out, "cache hit ratio: {:.1}%", r * 100.0);
        }
        if let Some(p) = self.shard_imbalance_pct {
            let _ = writeln!(out, "shard load imbalance: {p}%");
        }
        if let Some(s) = &self.server {
            let _ = writeln!(
                out,
                "server: admitted {} shed {} quota-denied {} accepted {} \
                 conn-rejected {} queue-shed {} conns {}/{} queue-hw {}",
                s.admitted,
                s.shed,
                s.quota_denied,
                s.accepted,
                s.conn_rejected,
                s.queue_shed,
                s.connections,
                s.connections_high_water,
                s.queue_depth_high_water
            );
        }
        if !self.tenants.is_empty() {
            out.push_str("tenants\n");
            let rows: Vec<Vec<String>> = self
                .tenants
                .iter()
                .map(|t| {
                    vec![
                        t.tenant.clone(),
                        t.admitted.to_string(),
                        t.shed.to_string(),
                        t.quota_denied.to_string(),
                        format!("{}/{}", t.sessions, t.sessions_high_water),
                        format!("{:.2}", t.fees_cents),
                    ]
                })
                .collect();
            table(
                &mut out,
                &[
                    "tenant",
                    "admitted",
                    "shed",
                    "quota-denied",
                    "sessions",
                    "fees",
                ],
                &rows,
            );
        }
        if !self.breakers.is_empty() {
            out.push_str("breakers\n");
            let rows: Vec<Vec<String>> = self
                .breakers
                .iter()
                .map(|b| vec![b.metric.clone(), b.state.clone()])
                .collect();
            table(&mut out, &["breaker", "state"], &rows);
        }
        if !self.histograms.is_empty() {
            out.push_str("histograms\n");
            let rows: Vec<Vec<String>> = self
                .histograms
                .iter()
                .map(|(k, h)| {
                    vec![
                        k.clone(),
                        h.count.to_string(),
                        fmt_ns(h.mean as u64),
                        fmt_ns(h.p50),
                        fmt_ns(h.p90),
                        fmt_ns(h.p99),
                        fmt_ns(h.max),
                    ]
                })
                .collect();
            table(
                &mut out,
                &["name", "count", "mean", "p50", "p90", "p99", "max"],
                &rows,
            );
        }
        if !self.counters.is_empty() || !self.float_counters.is_empty() {
            out.push_str("counters\n");
            let mut rows: Vec<Vec<String>> = self
                .counters
                .iter()
                .map(|(k, v)| vec![k.clone(), v.to_string()])
                .collect();
            rows.extend(
                self.float_counters
                    .iter()
                    .map(|(k, v)| vec![k.clone(), format!("{v:.2}")]),
            );
            table(&mut out, &["name", "value"], &rows);
        }
        if !self.gauges.is_empty() {
            out.push_str("gauges\n");
            let rows: Vec<Vec<String>> = self
                .gauges
                .iter()
                .map(|(k, v, hw)| vec![k.clone(), v.to_string(), hw.to_string()])
                .collect();
            table(&mut out, &["name", "value", "high-water"], &rows);
        }
        out
    }

    /// Renders the snapshot as a JSON document.
    #[must_use]
    pub fn to_json(&self) -> String {
        fn json_f64(v: f64) -> String {
            if v.is_finite() {
                format!("{v}")
            } else {
                "null".to_string()
            }
        }
        let mut out = String::from("{\"counters\":{");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}:{v}", json::quote(k));
        }
        out.push_str("},\"float_counters\":{");
        for (i, (k, v)) in self.float_counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}:{}", json::quote(k), json_f64(*v));
        }
        out.push_str("},\"gauges\":{");
        for (i, (k, v, hw)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{}:{{\"value\":{v},\"high_water\":{hw}}}",
                json::quote(k)
            );
        }
        out.push_str("},\"histograms\":{");
        for (i, (k, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{}:{{\"count\":{},\"mean\":{},\"p50\":{},\"p90\":{},\"p99\":{},\"max\":{}}}",
                json::quote(k),
                h.count,
                json_f64(h.mean),
                h.p50,
                h.p90,
                h.p99,
                h.max
            );
        }
        out.push_str("},\"breakers\":{");
        for (i, b) in self.breakers.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}:{}", json::quote(&b.metric), json::quote(&b.state));
        }
        out.push('}');
        match self.cache_hit_ratio {
            Some(r) => {
                let _ = write!(out, ",\"cache_hit_ratio\":{}", json_f64(r));
            }
            None => out.push_str(",\"cache_hit_ratio\":null"),
        }
        match self.shard_imbalance_pct {
            Some(p) => {
                let _ = write!(out, ",\"shard_imbalance_pct\":{p}");
            }
            None => out.push_str(",\"shard_imbalance_pct\":null"),
        }
        out.push_str(",\"tenants\":{");
        for (i, t) in self.tenants.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{}:{{\"admitted\":{},\"shed\":{},\"quota_denied\":{},\
                 \"sessions\":{},\"sessions_high_water\":{},\"fees_cents\":{}}}",
                json::quote(&t.tenant),
                t.admitted,
                t.shed,
                t.quota_denied,
                t.sessions,
                t.sessions_high_water,
                json_f64(t.fees_cents)
            );
        }
        out.push('}');
        match &self.server {
            Some(s) => {
                let _ = write!(
                    out,
                    ",\"server\":{{\"admitted\":{},\"shed\":{},\"quota_denied\":{},\
                     \"accepted\":{},\"conn_rejected\":{},\"queue_shed\":{},\
                     \"connections\":{},\"connections_high_water\":{},\
                     \"queue_depth_high_water\":{}}}",
                    s.admitted,
                    s.shed,
                    s.quota_denied,
                    s.accepted,
                    s.conn_rejected,
                    s.queue_shed,
                    s.connections,
                    s.connections_high_water,
                    s.queue_depth_high_water
                );
            }
            None => out.push_str(",\"server\":null"),
        }
        out.push('}');
        out
    }
}

/// Background writer that keeps a health file fresh.
///
/// Writes `path` with the JSON snapshot every `interval` (when one is
/// given), and always once more when stopped or dropped — so even a
/// short run leaves a final snapshot behind. The companion text render
/// goes to `path` with `.txt` appended.
pub struct HealthReporter {
    obs: Collector,
    path: PathBuf,
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl HealthReporter {
    /// Starts the reporter. `interval = None` means "final snapshot
    /// only" — no background thread is spawned.
    #[must_use]
    pub fn start(obs: &Collector, path: PathBuf, interval: Option<Duration>) -> HealthReporter {
        let stop = Arc::new(AtomicBool::new(false));
        let handle = interval.map(|period| {
            let obs = obs.clone();
            let path = path.clone();
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("vcad-health".to_string())
                .spawn(move || {
                    // Tick in small slices so stop() is prompt even for
                    // long intervals.
                    let slice = Duration::from_millis(25).min(period);
                    let mut elapsed = Duration::ZERO;
                    while !stop.load(Ordering::Relaxed) {
                        std::thread::sleep(slice);
                        elapsed += slice;
                        if elapsed >= period {
                            elapsed = Duration::ZERO;
                            write_snapshot(&obs, &path);
                        }
                    }
                })
                .expect("spawn health reporter")
        });
        HealthReporter {
            obs: obs.clone(),
            path,
            stop,
            handle,
        }
    }

    /// Stops the background thread (if any) and writes the final
    /// snapshot.
    pub fn stop(mut self) {
        self.finish();
    }

    fn finish(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
        write_snapshot(&self.obs, &self.path);
    }
}

impl Drop for HealthReporter {
    fn drop(&mut self) {
        if self.handle.is_some() || !self.stop.load(Ordering::Relaxed) {
            self.finish();
        }
    }
}

fn write_snapshot(obs: &Collector, path: &std::path::Path) {
    let snap = HealthSnapshot::of(obs);
    // Health files are advisory; an unwritable path must not kill a run.
    let _ = std::fs::write(path, snap.to_json());
    let mut txt = path.as_os_str().to_owned();
    txt.push(".txt");
    let _ = std::fs::write(txt, snap.to_text());
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
        assert!(s.to_text().contains("cache hit ratio: 75.0%"));
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
        let text = s.to_text();
        assert!(text.contains("tenants"));
        assert!(text.contains("zeta.co"));
        assert!(text.contains("server: admitted 45"));
    }

    #[test]
    fn empty_registry_renders_null_ratios() {
        let s = HealthSnapshot::of(&Collector::disabled());
        let doc = json::parse(&s.to_json()).unwrap();
        assert_eq!(doc.get("cache_hit_ratio"), Some(&json::JsonValue::Null));
    }

    #[test]
    fn reporter_writes_final_snapshot() {
        let dir = std::env::temp_dir().join(format!("vcad-health-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("health.json");
        let c = sample_collector();
        let r = HealthReporter::start(&c, path.clone(), None);
        r.stop();
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(json::parse(&body).is_ok());
        assert!(
            path.with_extension("json.txt").exists() || {
                let mut t = path.clone().into_os_string();
                t.push(".txt");
                std::path::PathBuf::from(t).exists()
            }
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn periodic_reporter_refreshes_the_file() {
        let dir = std::env::temp_dir().join(format!("vcad-health-p-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("health.json");
        let c = sample_collector();
        let r = HealthReporter::start(&c, path.clone(), Some(Duration::from_millis(30)));
        std::thread::sleep(Duration::from_millis(120));
        assert!(path.exists(), "periodic write happened");
        c.metrics().counter("cache.hits").add(100);
        r.stop();
        let body = std::fs::read_to_string(&path).unwrap();
        let doc = json::parse(&body).unwrap();
        assert_eq!(
            doc.get("counters")
                .unwrap()
                .get("cache.hits")
                .unwrap()
                .as_u64(),
            Some(103)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
