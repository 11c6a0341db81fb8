//! Human-readable summary tables for a drained [`Trace`].
//!
//! Renders plain-text tables of counters, gauges, histogram quantiles
//! and per-name span aggregates — the appendix `table2 --trace` prints
//! alongside the Chrome JSON file.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::collector::{EventKind, Trace};
use crate::metrics::MetricsSnapshot;

fn rule(out: &mut String, widths: &[usize]) {
    for w in widths {
        out.push('+');
        for _ in 0..w + 2 {
            out.push('-');
        }
    }
    out.push_str("+\n");
}

fn row(out: &mut String, widths: &[usize], cells: &[String]) {
    for (w, cell) in widths.iter().zip(cells) {
        let _ = write!(out, "| {cell:<w$} ");
    }
    out.push_str("|\n");
}

pub(crate) fn table(out: &mut String, header: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for r in rows {
        for (w, cell) in widths.iter_mut().zip(r) {
            *w = (*w).max(cell.len());
        }
    }
    rule(out, &widths);
    row(
        out,
        &widths,
        &header.iter().map(|h| (*h).to_owned()).collect::<Vec<_>>(),
    );
    rule(out, &widths);
    for r in rows {
        row(out, &widths, r);
    }
    rule(out, &widths);
}

/// Formats a nanosecond count with an adaptive unit (`ns`/`us`/`ms`/`s`).
#[must_use]
pub fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3} us", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

/// Renders just the metrics portion (counters, gauges, histograms).
#[must_use]
pub fn render_metrics(metrics: &MetricsSnapshot) -> String {
    let mut out = String::new();
    if !metrics.counters.is_empty() || !metrics.float_counters.is_empty() {
        out.push_str("counters\n");
        let mut rows: Vec<Vec<String>> = metrics
            .counters
            .iter()
            .map(|(k, v)| vec![k.clone(), v.to_string()])
            .collect();
        rows.extend(
            metrics
                .float_counters
                .iter()
                .map(|(k, v)| vec![k.clone(), format!("{v:.2}")]),
        );
        table(&mut out, &["name", "value"], &rows);
    }
    if !metrics.gauges.is_empty() {
        out.push_str("gauges\n");
        let rows: Vec<Vec<String>> = metrics
            .gauges
            .iter()
            .map(|(k, g)| vec![k.clone(), g.value.to_string(), g.high_water.to_string()])
            .collect();
        table(&mut out, &["name", "value", "high-water"], &rows);
    }
    if !metrics.histograms.is_empty() {
        out.push_str("histograms\n");
        let rows: Vec<Vec<String>> = metrics
            .histograms
            .iter()
            .map(|(k, h)| {
                vec![
                    k.clone(),
                    h.count.to_string(),
                    fmt_ns(h.mean() as u64),
                    fmt_ns(h.quantile(0.5)),
                    fmt_ns(h.quantile(0.99)),
                    fmt_ns(h.max),
                ]
            })
            .collect();
        table(
            &mut out,
            &["name", "count", "mean", "p50", "p99", "max"],
            &rows,
        );
    }
    out
}

/// Renders the whole trace: metrics plus per-name span aggregates and
/// the instant-event census.
#[must_use]
pub fn render_summary(trace: &Trace) -> String {
    let mut out = String::new();
    out.push_str("== vcad-obs trace summary ==\n\n");

    // Span aggregates keyed by category.name.
    let mut spans: BTreeMap<String, (u64, u64, u64)> = BTreeMap::new(); // count, total_ns, max_ns
    let mut instants: BTreeMap<String, u64> = BTreeMap::new();
    for e in &trace.events {
        let key = format!("{}.{}", e.category, e.name);
        match e.kind {
            EventKind::Span { dur_ns } => {
                let entry = spans.entry(key).or_insert((0, 0, 0));
                entry.0 += 1;
                entry.1 += dur_ns;
                entry.2 = entry.2.max(dur_ns);
            }
            EventKind::Instant => *instants.entry(key).or_insert(0) += 1,
        }
    }
    if !spans.is_empty() {
        out.push_str("spans\n");
        let rows: Vec<Vec<String>> = spans
            .iter()
            .map(|(k, (count, total, max))| {
                vec![
                    k.clone(),
                    count.to_string(),
                    fmt_ns(total / (*count).max(1)),
                    fmt_ns(*total),
                    fmt_ns(*max),
                ]
            })
            .collect();
        table(&mut out, &["span", "count", "mean", "total", "max"], &rows);
    }
    if !instants.is_empty() {
        out.push_str("events\n");
        let rows: Vec<Vec<String>> = instants
            .iter()
            .map(|(k, n)| vec![k.clone(), n.to_string()])
            .collect();
        table(&mut out, &["event", "count"], &rows);
    }
    out.push_str(&render_metrics(&trace.metrics));
    if trace.dropped > 0 {
        let _ = writeln!(out, "(ring overflow: {} events dropped)", trace.dropped);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::Collector;

    #[test]
    fn summary_covers_spans_events_and_metrics() {
        let c = Collector::enabled();
        {
            let _s = c.span("rmi", "call");
        }
        c.event("scheduler", "token");
        c.metrics().counter("rmi.calls").add(7);
        c.metrics().gauge("scheduler.queue_depth").set(3);
        c.metrics().histogram("rmi.latency_ns").record(1_500);
        let text = render_summary(&c.trace());
        assert!(text.contains("rmi.call"));
        assert!(text.contains("scheduler.token"));
        assert!(text.contains("rmi.calls"));
        assert!(text.contains("| 7"));
        assert!(text.contains("scheduler.queue_depth"));
        assert!(text.contains("rmi.latency_ns"));
        assert!(text.contains("p99"));
    }

    #[test]
    fn ns_formatting_scales() {
        assert_eq!(fmt_ns(17), "17 ns");
        assert_eq!(fmt_ns(1_500), "1.500 us");
        assert_eq!(fmt_ns(2_250_000), "2.250 ms");
        assert_eq!(fmt_ns(3_000_000_000), "3.000 s");
    }
}
