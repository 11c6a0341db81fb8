//! Network-time accounting and table formatting.

use std::time::Duration;

use vcad_netsim::NetworkModel;
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
    use std::sync::Arc;
    use vcad_rmi::{
        Client, Dispatcher, InProcTransport, ObjectRegistry, RemoteObject, RmiError, ServerCtx,
        Transport, Value,
    };

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

    /// Echoes its first argument, so reply size follows request size.
    struct Echo;

    impl RemoteObject for Echo {
        fn invoke(&self, _: &str, args: &[Value], _: &ServerCtx) -> Result<Value, RmiError> {
            Ok(args.first().cloned().unwrap_or(Value::Null))
        }
    }

    /// Table 2's real-time column applies the closed form to a run's
    /// transport counters; it must equal the per-call oracle — every
    /// round trip's `NetworkModel::round_trip`, summed — on the same
    /// traffic. Each leg's `Duration` is rounded on its own, so allow
    /// 1 ns per leg.
    #[test]
    fn closed_form_matches_the_virtual_timeline() {
        let registry = Arc::new(ObjectRegistry::new());
        registry.register_root(Arc::new(Echo));
        let transport = Arc::new(InProcTransport::new(Arc::new(Dispatcher::new(registry))));
        let client = Client::new(Arc::clone(&transport) as Arc<dyn Transport>);
        let mut frames = Vec::new();
        for len in [0, 1, 17, 512, 4096, 65_536] {
            let before = transport.stats();
            let payload = Value::Bytes(vec![0xa5; len]);
            assert_eq!(
                client.root().invoke("echo", vec![payload.clone()]).unwrap(),
                payload
            );
            let after = transport.stats();
            frames.push((
                (after.bytes_sent - before.bytes_sent) as usize,
                (after.bytes_received - before.bytes_received) as usize,
            ));
        }
        let stats = transport.stats();
        assert_eq!(stats.calls, frames.len() as u64);
        for model in [
            NetworkModel::local_host(),
            NetworkModel::lan_1999(),
            NetworkModel::wan_1999(),
        ] {
            let summed: Duration = frames
                .iter()
                .map(|&(request, response)| model.round_trip(request, response))
                .sum();
            let closed = modeled_network_time(&stats, &model).as_nanos();
            let legs = 2 * u128::from(stats.calls);
            assert!(
                closed.abs_diff(summed.as_nanos()) <= legs,
                "{}: closed form {closed} ns vs per-call sum {summed:?}",
                model.name()
            );
        }
    }
}
