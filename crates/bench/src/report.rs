//! Network-time accounting, table formatting, and the shared
//! read-merge-write discipline for benchmark baseline files.

use std::path::Path;
use std::time::Duration;

use vcad_netsim::NetworkModel;
use vcad_obs::json::{self, JsonValue};
use vcad_rmi::TransportStats;

/// The modeled network time of a batch of RMI calls: per round trip, two
/// base latencies plus framing overhead, plus the payload transfer time.
#[must_use]
pub fn modeled_network_time(stats: &TransportStats, model: &NetworkModel) -> Duration {
    if stats.calls == 0 {
        return Duration::ZERO;
    }
    let latency = model.latency() * 2 * stats.calls as u32;
    let wire_bytes =
        stats.bytes_sent + stats.bytes_received + 2 * stats.calls * model.overhead_bytes() as u64;
    latency + Duration::from_secs_f64(wire_bytes as f64 / model.bandwidth())
}

/// Real (wall-clock) time of a run: measured client time plus the modeled
/// network time for the given environment.
#[must_use]
pub fn modeled_real_time(cpu: Duration, stats: &TransportStats, model: &NetworkModel) -> Duration {
    cpu + modeled_network_time(stats, model)
}

/// Formats seconds with two significant decimals for table output.
#[must_use]
pub fn secs(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

/// Merges `updates` (a JSON object rendered as text) into the baseline
/// file at `path`: existing top-level keys not named in `updates`
/// survive, so independent bins can each own a section of one baseline
/// (the campaign gate owns the throughput keys of `BENCH_faultsim.json`
/// while `faultscale --bench` owns its `engine_bench` section,
/// whichever runs first). A missing or unparsable baseline starts
/// fresh.
///
/// # Panics
///
/// Panics when `updates` is not a JSON object or the file cannot be
/// written — baseline corruption should fail the bench loudly.
pub fn merge_bench_sections(path: &Path, updates: &str) {
    let updates = json::parse(updates).expect("bench update must be valid JSON");
    let JsonValue::Object(updates) = updates else {
        panic!("bench update must be a JSON object");
    };
    let mut doc = std::fs::read_to_string(path)
        .ok()
        .and_then(|text| json::parse(&text).ok())
        .and_then(|v| match v {
            JsonValue::Object(map) => Some(map),
            _ => None,
        })
        .unwrap_or_default();
    for (key, value) in updates {
        doc.insert(key, value);
    }
    let mut rendered = json::render(&JsonValue::Object(doc));
    rendered.push('\n');
    std::fs::write(path, rendered).expect("write bench baseline");
}

/// Prints a markdown table.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n### {title}\n");
    println!("| {} |", header.join(" | "));
    println!(
        "|{}|",
        header.iter().map(|_| "---").collect::<Vec<_>>().join("|")
    );
    for row in rows {
        println!("| {} |", row.join(" | "));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_calls_no_network_time() {
        let stats = TransportStats::default();
        assert_eq!(
            modeled_network_time(&stats, &NetworkModel::wan_1999()),
            Duration::ZERO
        );
    }

    #[test]
    fn wan_dominates_lan() {
        let stats = TransportStats {
            calls: 20,
            bytes_sent: 40_000,
            bytes_received: 4_000,
        };
        let lan = modeled_network_time(&stats, &NetworkModel::lan_1999());
        let wan = modeled_network_time(&stats, &NetworkModel::wan_1999());
        assert!(wan > lan * 4, "{wan:?} vs {lan:?}");
    }

    #[test]
    fn real_time_exceeds_cpu_when_remote() {
        let stats = TransportStats {
            calls: 5,
            bytes_sent: 1000,
            bytes_received: 100,
        };
        let cpu = Duration::from_millis(100);
        assert!(modeled_real_time(cpu, &stats, &NetworkModel::local_host()) > cpu);
    }

    #[test]
    fn merge_preserves_foreign_sections() {
        let dir = std::env::temp_dir().join(format!("vcad-bench-merge-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("baseline.json");
        let _ = std::fs::remove_file(&path);

        merge_bench_sections(&path, r#"{"bench": "campaign", "executed": 16}"#);
        merge_bench_sections(&path, r#"{"engine": {"speedup": 9.0}}"#);
        // A rerun of the first writer updates its keys, keeps the other's.
        merge_bench_sections(&path, r#"{"bench": "campaign", "executed": 20}"#);

        let doc = vcad_obs::json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(doc.get("executed").unwrap().as_u64(), Some(20));
        assert_eq!(
            doc.get("engine").unwrap().get("speedup").unwrap().as_f64(),
            Some(9.0)
        );
        std::fs::remove_file(&path).unwrap();
    }
}
