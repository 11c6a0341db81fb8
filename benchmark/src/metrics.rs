//! The metric registry: every name a run may print, with its unit.
//!
//! `BENCHMARK.json` at the repository root is the one list of workloads,
//! metrics, units and bounds; it is compiled into the binary, so a run
//! can only ever report against the manifest it was built beside. Every
//! workload reports every end-to-end metric untraced and every per-layer
//! metric traced — a layer a workload does not touch reads 0 (that
//! `rmi.calls` is 0 on `al_gates` is itself a result).

use std::sync::OnceLock;

use vcad_obs::json::{self, JsonValue};

/// One `end_to_end` or `per_layer` entry of the manifest.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    /// The share by which an end-to-end metric may get worse; per-layer
    /// metrics have none.
    pub bound: Option<f64>,
}

/// What the benchmark reads out of `BENCHMARK.json`.
#[derive(Debug)]
pub struct Manifest {
    pub run_seconds: f64,
    /// In the order `run.sh` runs them.
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

impl Manifest {
    /// The metrics a run reports against.
    pub fn registry(&self, trace: bool) -> &[Metric] {
        if trace {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }
}

fn parse(text: &str) -> Result<Manifest, String> {
    let doc = json::parse(text).map_err(|e| e.to_string())?;
    let list = |key: &str| {
        doc.get(key)
            .and_then(JsonValue::as_array)
            .ok_or(format!("no `{key}` array"))
    };
    let name = |entry: &JsonValue| {
        entry
            .get("name")
            .and_then(JsonValue::as_str)
            .map(str::to_owned)
            .ok_or("entry without a name")
    };
    let metrics = |key: &str| -> Result<Vec<Metric>, String> {
        list(key)?
            .iter()
            .map(|m| {
                Ok(Metric {
                    name: name(m)?,
                    unit: m
                        .get("unit")
                        .and_then(JsonValue::as_str)
                        .ok_or("metric without a unit")?
                        .to_owned(),
                    bound: m.get("bound").and_then(JsonValue::as_f64),
                })
            })
            .collect()
    };
    Ok(Manifest {
        run_seconds: doc
            .get("run_seconds")
            .and_then(JsonValue::as_f64)
            .ok_or("no `run_seconds`")?,
        workloads: list("workloads")?
            .iter()
            .map(|w| Ok(name(w)?))
            .collect::<Result<_, String>>()?,
        end_to_end: metrics("end_to_end")?,
        per_layer: metrics("per_layer")?,
    })
}

/// The manifest this binary was built beside.
pub fn manifest() -> &'static Manifest {
    static MANIFEST: OnceLock<Manifest> = OnceLock::new();
    MANIFEST.get_or_init(|| {
        parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json is well formed")
    })
}

/// Per-layer metrics that must be identical between any two runs of the
/// same commit, seed and `--seconds`: counts, and simulated time
/// computed from counts. `rmi.mux.enqueued` is not among them: the poll
/// thread bumps it after handing the frame over, so a reply can reach
/// the client — and the benchmark read the counter — one count early.
pub const EXACT: &[&str] = &[
    "rmi.calls",
    "rmi.bytes_sent",
    "rmi.bytes_recv",
    "rmi.mux.accepted",
    "rmi.mux.queue_shed",
    "rmi.mux.rejected_connections",
    "rmi.retry.retries",
    "ip.ledger.entries",
    "ip.fees_cents",
    "core.events",
    "engine.gates",
    "engine.levels",
    "faults.table.bytes",
    "faults.tables_requested",
    "faults.table_cache_hits",
    "faults.injections",
    "faults.detected",
    "faults.total",
    "campaign.cells",
    "campaign.failed",
    "campaign.fees_cents",
    "campaign.journal.bytes",
    "netsim.wan_model_s",
    "netsim.lan_model_s",
    "netsim.local_model_s",
    "bench.nproc",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_manifest_holds_what_the_benchmark_relies_on() {
        let m = manifest();
        assert!(m.run_seconds >= 1.0);
        assert!(m.end_to_end.iter().all(|e| e.bound.is_some()));
        assert!(m.end_to_end.iter().any(|e| e.name == "setup_s"));
        for name in EXACT {
            assert!(m.per_layer.iter().any(|e| e.name == *name), "{name}");
        }
        let mut all: Vec<&str> = m
            .end_to_end
            .iter()
            .chain(&m.per_layer)
            .map(|e| e.name.as_str())
            .collect();
        all.sort_unstable();
        let before = all.len();
        all.dedup();
        assert_eq!(all.len(), before, "metric names are used once");
    }

    #[test]
    fn a_malformed_manifest_is_refused() {
        assert!(parse("{}").is_err());
        assert!(parse(r#"{"run_seconds": 1, "workloads": [{}]}"#).is_err());
    }
}
