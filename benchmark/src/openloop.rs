//! Open-loop load generation: calls are issued on a fixed schedule, not
//! when the previous reply arrives.
//!
//! Independent fee-paying users do not wait for each other, so arrival
//! is open-loop. Each call is timed from the instant it was *due*: when
//! the connection stalls, every call queued behind the stall is charged
//! the time it spent waiting, which a closed loop would silently skip.
//! The generator sleeps until a call is due — it never spins, so two
//! generator threads do not starve the server on a two-core box.

use std::time::{Duration, Instant};

/// What one generator thread saw.
#[derive(Debug, Default)]
pub struct OpenLoopLog {
    /// Completion time minus due time of every completed call, in ns.
    pub latency_ns: Vec<u64>,
    /// Service time (completion minus issue) of the same calls, in ns.
    pub service_ns: Vec<u64>,
    /// How late the generator issued a call it was *free* to issue on
    /// time (it had been sleeping, not waiting for a reply), in ns.
    pub gen_late_ns: Vec<u64>,
    /// Calls whose callback reported failure.
    pub failed: u64,
    /// Calls still unissued when the cutoff passed.
    pub abandoned: u64,
}

/// Issues `call(i)` at `start + offsets[i]` for every `i`, in order, on
/// the calling thread. A call that is due while an earlier one is still
/// in flight is issued the moment that one returns. Calls not yet
/// issued at `cutoff` are abandoned.
pub fn run_schedule(
    start: Instant,
    offsets: &[Duration],
    cutoff: Instant,
    mut call: impl FnMut(usize) -> bool,
) -> OpenLoopLog {
    let mut log = OpenLoopLog {
        latency_ns: Vec::with_capacity(offsets.len()),
        service_ns: Vec::with_capacity(offsets.len()),
        gen_late_ns: Vec::with_capacity(offsets.len()),
        ..OpenLoopLog::default()
    };
    for (index, offset) in offsets.iter().enumerate() {
        let due = start + *offset;
        let mut slept = false;
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
            slept = true;
        }
        let issued = Instant::now();
        if issued > cutoff {
            log.abandoned = (offsets.len() - index) as u64;
            break;
        }
        if slept {
            log.gen_late_ns
                .push(issued.saturating_duration_since(due).as_nanos() as u64);
        }
        let ok = call(index);
        let done = Instant::now();
        if ok {
            log.latency_ns
                .push(done.saturating_duration_since(due).as_nanos() as u64);
            log.service_ns.push((done - issued).as_nanos() as u64);
        } else {
            log.failed += 1;
        }
    }
    log
}

/// The due offsets of connection `k` of `connections` sharing
/// `calls_per_s` for `seconds`: the connections' schedules interleave,
/// so the server sees one evenly spaced arrival stream.
pub fn interleaved(calls_per_s: u32, seconds: f64, connections: usize, k: usize) -> Vec<Duration> {
    let total = (f64::from(calls_per_s) * seconds).round() as usize;
    (0..total)
        .filter(|i| i % connections == k)
        .map(|i| Duration::from_secs_f64(i as f64 / f64::from(calls_per_s)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_stall_is_charged_to_the_calls_scheduled_during_it() {
        // 200 calls, one per millisecond; call 50 stalls for 50 ms.
        let offsets: Vec<Duration> = (0..200).map(Duration::from_millis).collect();
        let start = Instant::now() + Duration::from_millis(5);
        let log = run_schedule(start, &offsets, start + Duration::from_secs(5), |i| {
            std::thread::sleep(if i == 50 {
                Duration::from_millis(50)
            } else {
                Duration::from_micros(100)
            });
            true
        });
        assert_eq!(log.latency_ns.len(), 200);
        assert_eq!((log.failed, log.abandoned), (0, 0));
        let over_10ms = |v: &[u64]| v.iter().filter(|&&ns| ns > 10_000_000).count();
        // Only the stalled call itself was slow to serve …
        assert_eq!(over_10ms(&log.service_ns), 1);
        // … but the ~40 calls that came due while it hung each waited
        // more than 10 ms, and timing from the due instant says so.
        assert!(
            over_10ms(&log.latency_ns) >= 30,
            "{}",
            over_10ms(&log.latency_ns)
        );
        let mut from_due: Vec<f64> = log.latency_ns.iter().map(|&n| n as f64).collect();
        let mut served: Vec<f64> = log.service_ns.iter().map(|&n| n as f64).collect();
        from_due.sort_by(|a, b| a.partial_cmp(b).unwrap());
        served.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let p90_due = crate::stats::percentile(&from_due, 90.0).unwrap();
        let p90_served = crate::stats::percentile(&served, 90.0).unwrap();
        assert!(p90_due > 20.0 * p90_served, "{p90_due} vs {p90_served}");
        // Calls behind the stall were not the generator's fault: its
        // lateness is recorded only where it slept and woke up.
        assert!(log.gen_late_ns.len() < 200 - 30);
        assert!(log.gen_late_ns.iter().all(|&ns| ns < 20_000_000));
    }

    #[test]
    fn calls_past_the_cutoff_are_abandoned_not_lost() {
        let offsets: Vec<Duration> = (0..10).map(|i| Duration::from_millis(10 * i)).collect();
        let start = Instant::now();
        let log = run_schedule(start, &offsets, start + Duration::from_millis(35), |i| {
            i != 1
        });
        assert_eq!(log.failed, 1);
        assert_eq!(log.latency_ns.len() as u64 + log.failed + log.abandoned, 10);
        assert!(log.abandoned >= 5);
    }

    #[test]
    fn interleaved_schedules_partition_one_even_stream() {
        let a = interleaved(1000, 0.01, 2, 0);
        let b = interleaved(1000, 0.01, 2, 1);
        assert_eq!((a.len(), b.len()), (5, 5));
        assert_eq!(a[1], Duration::from_millis(2));
        assert_eq!(b[0], Duration::from_millis(1));
    }
}
