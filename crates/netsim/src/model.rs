//! Parametric point-to-point network models.

use std::fmt;
use std::time::Duration;

/// A point-to-point network link model.
///
/// The transfer time of a message of `n` payload bytes is
///
/// ```text
/// one_way(n) = latency + (n + overhead) / bandwidth
/// ```
///
/// — deterministic, so a modeled run is reproducible. The three
/// canonical profiles are calibrated so that the Table 2 / Figure 3
/// harnesses reproduce the *shape* of the paper's 1999 measurements
/// (orderings and ratios, not absolute seconds).
///
/// # Examples
///
/// ```
/// use vcad_netsim::NetworkModel;
///
/// let lan = NetworkModel::lan_1999();
/// let wan = NetworkModel::wan_1999();
/// assert!(wan.round_trip(1024, 64) > lan.round_trip(1024, 64));
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct NetworkModel {
    name: String,
    latency: Duration,
    bandwidth_bytes_per_sec: f64,
    overhead_bytes: usize,
}

impl NetworkModel {
    /// Creates a model from raw parameters.
    ///
    /// # Panics
    ///
    /// Panics if `bandwidth_bytes_per_sec` is not strictly positive.
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        latency: Duration,
        bandwidth_bytes_per_sec: f64,
        overhead_bytes: usize,
    ) -> NetworkModel {
        assert!(bandwidth_bytes_per_sec > 0.0, "bandwidth must be positive");
        NetworkModel {
            name: name.into(),
            latency,
            bandwidth_bytes_per_sec,
            overhead_bytes,
        }
    }

    /// Loopback communication on a single machine: the paper's
    /// "local host" environment. RMI still serialises, but transfer cost
    /// is dominated by memory copies.
    #[must_use]
    pub fn local_host() -> NetworkModel {
        NetworkModel::new(
            "local host",
            Duration::from_micros(50),
            200e6, // ~200 MB/s effective loopback copy rate
            64,
        )
    }

    /// A loaded departmental 10 Mbit/s Ethernet, as in the 1999
    /// measurements at the University of Bologna.
    #[must_use]
    pub fn lan_1999() -> NetworkModel {
        NetworkModel::new(
            "LAN (1999)",
            Duration::from_millis(2),
            600e3, // ~5 Mbit/s effective on loaded shared Ethernet
            256,
        )
    }

    /// A long-distance 1999 Internet path (Bologna–Padova): tens of
    /// milliseconds of latency and tens of kilobytes per second of
    /// sustained throughput.
    #[must_use]
    pub fn wan_1999() -> NetworkModel {
        NetworkModel::new(
            "WAN (1999)",
            Duration::from_millis(45),
            40e3, // ~40 kB/s sustained
            512,
        )
    }

    /// The model's display name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The one-way base latency.
    #[must_use]
    pub fn latency(&self) -> Duration {
        self.latency
    }

    /// The modeled sustained bandwidth in bytes per second.
    #[must_use]
    pub fn bandwidth(&self) -> f64 {
        self.bandwidth_bytes_per_sec
    }

    /// Fixed per-message framing overhead in bytes (headers, RMI framing).
    #[must_use]
    pub fn overhead_bytes(&self) -> usize {
        self.overhead_bytes
    }

    /// Deterministic one-way transfer time of a `bytes`-byte payload.
    #[must_use]
    pub fn one_way(&self, bytes: usize) -> Duration {
        let wire_bytes = (bytes + self.overhead_bytes) as f64;
        self.latency + Duration::from_secs_f64(wire_bytes / self.bandwidth_bytes_per_sec)
    }

    /// Deterministic request/response round-trip time.
    #[must_use]
    pub fn round_trip(&self, request_bytes: usize, response_bytes: usize) -> Duration {
        self.one_way(request_bytes) + self.one_way(response_bytes)
    }
}

impl fmt::Display for NetworkModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {:?} latency, {:.0} kB/s",
            self.name,
            self.latency,
            self.bandwidth_bytes_per_sec / 1e3
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_way_scales_with_payload() {
        let m = NetworkModel::lan_1999();
        assert!(m.one_way(100_000) > m.one_way(1_000));
        // Latency floor: even the empty message pays the base latency.
        assert!(m.one_way(0) >= m.latency());
    }

    #[test]
    fn profiles_are_ordered() {
        let small = 512;
        let local = NetworkModel::local_host().round_trip(small, small);
        let lan = NetworkModel::lan_1999().round_trip(small, small);
        let wan = NetworkModel::wan_1999().round_trip(small, small);
        assert!(local < lan, "{local:?} vs {lan:?}");
        assert!(lan < wan, "{lan:?} vs {wan:?}");
    }

    #[test]
    fn round_trip_is_sum_of_one_ways() {
        let m = NetworkModel::wan_1999();
        assert_eq!(m.round_trip(100, 200), m.one_way(100) + m.one_way(200));
    }

    #[test]
    #[should_panic(expected = "bandwidth")]
    fn rejects_zero_bandwidth() {
        let _ = NetworkModel::new("bad", Duration::ZERO, 0.0, 0);
    }

    #[test]
    fn amortisation_favours_batching() {
        // One big message beats n small ones: the basis of Figure 3.
        let m = NetworkModel::wan_1999();
        let batched = m.one_way(100 * 64);
        let unbatched: Duration = (0..100).map(|_| m.one_way(64)).sum();
        assert!(batched < unbatched / 10);
    }
}
