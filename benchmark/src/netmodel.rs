//! Network-only modelled time of a run, from its exact call and byte
//! counts.
//!
//! This is the paper's Table 2 "real time" column without the host-CPU
//! term: simulated seconds, not measured ones. It repeats exactly for a
//! given seed and moves only when round trips or bytes do. The loopback
//! interface the workloads actually use says nothing about link rates.

use vcad_netsim::NetworkModel;
use vcad_rmi::TransportStats;

/// `2·latency·calls + (sent + received + 2·calls·overhead) / bandwidth`,
/// in seconds — the closed form of summing `NetworkModel::round_trip`
/// over every call.
pub fn modelled_seconds(model: &NetworkModel, traffic: &TransportStats) -> f64 {
    let calls = traffic.calls as f64;
    let wire_bytes = traffic.bytes_sent as f64
        + traffic.bytes_received as f64
        + 2.0 * calls * model.overhead_bytes() as f64;
    2.0 * model.latency().as_secs_f64() * calls + wire_bytes / model.bandwidth()
}

/// `after − before`, field by field.
pub fn traffic_delta(before: &TransportStats, after: &TransportStats) -> TransportStats {
    TransportStats {
        calls: after.calls - before.calls,
        bytes_sent: after.bytes_sent - before.bytes_sent,
        bytes_received: after.bytes_received - before.bytes_received,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_form_equals_round_trips_summed_per_call() {
        let frames: [(usize, usize); 5] = [(96, 41), (101, 4_812), (17, 3), (250, 250), (96, 41)];
        let traffic = TransportStats {
            calls: frames.len() as u64,
            bytes_sent: frames.iter().map(|f| f.0 as u64).sum(),
            bytes_received: frames.iter().map(|f| f.1 as u64).sum(),
        };
        for model in [
            NetworkModel::wan_1999(),
            NetworkModel::lan_1999(),
            NetworkModel::local_host(),
        ] {
            let summed: f64 = frames
                .iter()
                .map(|&(req, resp)| model.round_trip(req, resp).as_secs_f64())
                .sum();
            let closed = modelled_seconds(&model, &traffic);
            // `round_trip` rounds each leg to whole nanoseconds.
            assert!(
                (closed - summed).abs() < 1e-8 * frames.len() as f64,
                "{}: {closed} vs {summed}",
                model.name()
            );
        }
    }

    #[test]
    fn no_calls_cost_nothing() {
        let idle = TransportStats::default();
        assert_eq!(modelled_seconds(&NetworkModel::wan_1999(), &idle), 0.0);
    }
}
