//! Distributed-trace analysis: stitching, orphan detection, latency
//! attribution and critical paths.
//!
//! The input is one or more [`ProcessLane`]s — typically the client's
//! collector dump plus one per provider process, each on its own clock.
//! Stitching re-anchors every non-reference lane so each cross-process
//! child span starts no earlier than its parent, which is the strongest
//! guarantee available without synchronized clocks. On top of the
//! stitched span forest the analyzer computes:
//!
//! * **consistency** — orphan spans (parent id missing everywhere),
//!   crossed spans (parent exists but in a different trace), duplicate
//!   span ids; all of which gate CI,
//! * **per-process/per-span percentile tables** (exact, from sorted
//!   durations, unlike the log₂ histogram approximations),
//! * **per-RPC latency breakdown** — client total split into client
//!   overhead / wire / provider compute / fee ledger,
//! * the **critical path** of the longest trace.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::chrome::ProcessLane;
use crate::collector::EventKind;
use crate::context::{PARENT_ARG, SPAN_ARG, TRACE_ARG};
use crate::summary::{fmt_ns, table};

/// One traced span after stitching.
#[derive(Clone, Debug)]
pub struct SpanNode {
    /// Process lane name the span was recorded in.
    pub process: String,
    /// Lane index into the analysis input.
    pub lane: usize,
    /// Span name (e.g. `client:POWER_TOGGLE`).
    pub name: String,
    /// Span category (`rmi`, `ip`, `scheduler`, …).
    pub category: String,
    /// Trace the span belongs to.
    pub trace_id: u64,
    /// The span's own id.
    pub span_id: u64,
    /// Parent span id, when not a root.
    pub parent: Option<u64>,
    /// Start, nanoseconds on the stitched clock.
    pub start_ns: u64,
    /// Duration, nanoseconds.
    pub dur_ns: u64,
}

impl SpanNode {
    fn end_ns(&self) -> u64 {
        self.start_ns.saturating_add(self.dur_ns)
    }
}

/// How one input lane was anchored.
#[derive(Clone, Debug)]
pub struct LaneReport {
    /// Lane (process) name.
    pub name: String,
    /// `pid` in the source document.
    pub pid: u32,
    /// Offset added to the lane's timestamps, nanoseconds.
    pub offset_ns: i64,
    /// Traced spans contributed.
    pub spans: usize,
    /// Whether a cross-lane parent link fixed the lane's clock; an
    /// unanchored lane keeps its own epoch (offset 0).
    pub anchored: bool,
}

/// Exact latency percentiles for one (process, span name) group.
#[derive(Clone, Debug)]
pub struct SpanStats {
    /// Process lane name.
    pub process: String,
    /// Span name.
    pub name: String,
    /// Samples.
    pub count: u64,
    /// Mean duration, ns.
    pub mean_ns: u64,
    /// Median, ns.
    pub p50_ns: u64,
    /// 90th percentile, ns.
    pub p90_ns: u64,
    /// 99th percentile, ns.
    pub p99_ns: u64,
    /// Largest sample, ns.
    pub max_ns: u64,
}

/// Average per-call latency attribution for one RPC method.
#[derive(Clone, Debug)]
pub struct RpcBreakdown {
    /// Method name (the `client:` span suffix).
    pub method: String,
    /// Client-side calls observed.
    pub count: u64,
    /// Mean end-to-end client latency, ns.
    pub total_ns: u64,
    /// Mean time outside any transport send: marshalling, retry
    /// backoff, queueing, ns.
    pub client_ns: u64,
    /// Mean time on the wire (transport send minus provider dispatch),
    /// ns.
    pub wire_ns: u64,
    /// Mean provider compute (dispatch minus ledger), ns.
    pub provider_ns: u64,
    /// Mean fee-ledger time, ns.
    pub ledger_ns: u64,
}

/// One step of the critical path.
#[derive(Clone, Debug)]
pub struct CriticalStep {
    /// Nesting depth from the root.
    pub depth: usize,
    /// Process lane name.
    pub process: String,
    /// Span name.
    pub name: String,
    /// Duration, ns.
    pub dur_ns: u64,
    /// Duration not covered by the next step down, ns.
    pub self_ns: u64,
}

/// The full analysis result.
#[derive(Clone, Debug, Default)]
pub struct Analysis {
    /// Per-lane anchoring report.
    pub lanes: Vec<LaneReport>,
    /// Every traced span, stitched.
    pub spans: Vec<SpanNode>,
    /// Span ids whose parent id exists nowhere in the input.
    pub orphans: Vec<u64>,
    /// Span ids whose parent lives in a *different* trace (crossed
    /// parents — a propagation bug).
    pub crossed: Vec<u64>,
    /// Span ids seen more than once.
    pub duplicates: Vec<u64>,
    /// Percentile tables per (process, span name).
    pub tables: Vec<SpanStats>,
    /// Per-method latency attribution.
    pub breakdowns: Vec<RpcBreakdown>,
    /// Critical path of the longest root span.
    pub critical_path: Vec<CriticalStep>,
}

fn arg_u64(e: &crate::collector::TraceEvent, key: &str) -> Option<u64> {
    e.args.iter().find(|(k, _)| k == key).and_then(|(_, v)| {
        if let crate::collector::ArgValue::U64(n) = v {
            Some(*n)
        } else {
            None
        }
    })
}

fn traced_spans(lane: &ProcessLane, lane_idx: usize) -> Vec<SpanNode> {
    lane.events
        .iter()
        .filter_map(|e| {
            let EventKind::Span { dur_ns } = e.kind else {
                return None;
            };
            let span_id = arg_u64(e, SPAN_ARG)?;
            Some(SpanNode {
                process: lane.name.clone(),
                lane: lane_idx,
                name: e.name.to_string(),
                category: e.category.to_string(),
                trace_id: arg_u64(e, TRACE_ARG).unwrap_or(0),
                span_id,
                parent: arg_u64(e, PARENT_ARG),
                start_ns: e.wall_ns,
                dur_ns,
            })
        })
        .collect()
}

/// Computes lane offsets so that cross-lane children never start before
/// their parents. Returns (offsets, anchored flags); the reference lane
/// is the one with the most root spans (ties: first).
fn lane_offsets(per_lane: &[Vec<SpanNode>]) -> (Vec<i128>, Vec<bool>) {
    let n = per_lane.len();
    let mut offsets = vec![0i128; n];
    let mut anchored = vec![false; n];
    if n == 0 {
        return (offsets, anchored);
    }
    // Where does each span id live?
    let mut home: BTreeMap<u64, (usize, usize)> = BTreeMap::new();
    for (li, spans) in per_lane.iter().enumerate() {
        for (si, s) in spans.iter().enumerate() {
            home.entry(s.span_id).or_insert((li, si));
        }
    }
    let reference = (0..n)
        .max_by_key(|&li| per_lane[li].iter().filter(|s| s.parent.is_none()).count())
        .unwrap_or(0);
    anchored[reference] = true;
    loop {
        let mut progressed = false;
        for li in 0..n {
            if anchored[li] {
                continue;
            }
            // Tightest offset that puts every cross-lane child at or
            // after its (already anchored) parent's start.
            let mut best: Option<i128> = None;
            for s in &per_lane[li] {
                let Some(pid) = s.parent else { continue };
                let Some(&(pl, ps)) = home.get(&pid) else {
                    continue;
                };
                if pl == li || !anchored[pl] {
                    continue;
                }
                let parent = &per_lane[pl][ps];
                let candidate = i128::from(parent.start_ns) + offsets[pl] - i128::from(s.start_ns);
                best = Some(best.map_or(candidate, |b: i128| b.max(candidate)));
            }
            if let Some(off) = best {
                offsets[li] = off;
                anchored[li] = true;
                progressed = true;
            }
        }
        if !progressed {
            break;
        }
    }
    (offsets, anchored)
}

/// Applies the stitching offsets to full lanes (all events, traced or
/// not), for writing a merged multi-process dump.
#[must_use]
pub fn stitched_lanes(lanes: &[ProcessLane]) -> Vec<ProcessLane> {
    let per_lane: Vec<Vec<SpanNode>> = lanes
        .iter()
        .enumerate()
        .map(|(i, l)| traced_spans(l, i))
        .collect();
    let (offsets, _) = lane_offsets(&per_lane);
    lanes
        .iter()
        .zip(&offsets)
        .map(|(lane, &off)| {
            let mut out = lane.clone();
            for e in &mut out.events {
                let shifted = i128::from(e.wall_ns) + off;
                e.wall_ns = u64::try_from(shifted.max(0)).unwrap_or(u64::MAX);
            }
            out
        })
        .collect()
}

fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    // Nearest-rank.
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Runs the full analysis over parsed lanes.
#[must_use]
pub fn analyze(lanes: &[ProcessLane]) -> Analysis {
    let per_lane: Vec<Vec<SpanNode>> = lanes
        .iter()
        .enumerate()
        .map(|(i, l)| traced_spans(l, i))
        .collect();
    let (offsets, anchored) = lane_offsets(&per_lane);

    let mut spans: Vec<SpanNode> = Vec::new();
    for (li, lane_spans) in per_lane.into_iter().enumerate() {
        for mut s in lane_spans {
            let shifted = i128::from(s.start_ns) + offsets[li];
            s.start_ns = u64::try_from(shifted.max(0)).unwrap_or(u64::MAX);
            spans.push(s);
        }
    }
    spans.sort_by_key(|s| (s.start_ns, s.span_id));

    let lane_reports = lanes
        .iter()
        .enumerate()
        .map(|(li, l)| LaneReport {
            name: l.name.clone(),
            pid: l.pid,
            offset_ns: i64::try_from(offsets[li]).unwrap_or(i64::MAX),
            spans: spans.iter().filter(|s| s.lane == li).count(),
            anchored: anchored[li],
        })
        .collect();

    // Consistency: duplicates, orphans, crossed parents.
    let mut by_id: BTreeMap<u64, usize> = BTreeMap::new();
    let mut duplicates = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        if by_id.insert(s.span_id, i).is_some() {
            duplicates.push(s.span_id);
        }
    }
    let mut orphans = Vec::new();
    let mut crossed = Vec::new();
    for s in &spans {
        if let Some(p) = s.parent {
            match by_id.get(&p) {
                None => orphans.push(s.span_id),
                Some(&pi) => {
                    if spans[pi].trace_id != s.trace_id {
                        crossed.push(s.span_id);
                    }
                }
            }
        }
    }

    // Percentile tables per (process, name).
    let mut groups: BTreeMap<(String, String), Vec<u64>> = BTreeMap::new();
    for s in &spans {
        groups
            .entry((s.process.clone(), s.name.clone()))
            .or_default()
            .push(s.dur_ns);
    }
    let tables = groups
        .into_iter()
        .map(|((process, name), mut durs)| {
            durs.sort_unstable();
            let count = durs.len() as u64;
            let sum: u64 = durs.iter().sum();
            SpanStats {
                process,
                name,
                count,
                mean_ns: sum / count.max(1),
                p50_ns: percentile(&durs, 0.50),
                p90_ns: percentile(&durs, 0.90),
                p99_ns: percentile(&durs, 0.99),
                max_ns: *durs.last().unwrap_or(&0),
            }
        })
        .collect();

    // Children index for tree walks.
    let mut children: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push(i);
        }
    }

    // Per-RPC breakdown, aggregated over client:* spans by method.
    let mut acc: BTreeMap<String, (u64, u64, u64, u64, u64)> = BTreeMap::new();
    for s in &spans {
        let Some(method) = s.name.strip_prefix("client:") else {
            continue;
        };
        let mut wire_total = 0u64;
        let mut dispatch_total = 0u64;
        let mut ledger_total = 0u64;
        let mut stack: Vec<u64> = vec![s.span_id];
        while let Some(id) = stack.pop() {
            if let Some(kids) = children.get(&id) {
                for &ki in kids {
                    let k = &spans[ki];
                    if k.category == "rmi" && k.name == "call" {
                        wire_total += k.dur_ns;
                    } else if k.name.starts_with("dispatch:") {
                        dispatch_total += k.dur_ns;
                    } else if k.name.starts_with("charge:") {
                        ledger_total += k.dur_ns;
                    }
                    stack.push(k.span_id);
                }
            }
        }
        let e = acc.entry(method.to_string()).or_insert((0, 0, 0, 0, 0));
        e.0 += 1;
        e.1 += s.dur_ns;
        e.2 += wire_total;
        e.3 += dispatch_total;
        e.4 += ledger_total;
    }
    let breakdowns = acc
        .into_iter()
        .map(|(method, (count, total, wire, dispatch, ledger))| {
            let n = count.max(1);
            RpcBreakdown {
                method,
                count,
                total_ns: total / n,
                client_ns: total.saturating_sub(wire) / n,
                wire_ns: wire.saturating_sub(dispatch) / n,
                provider_ns: dispatch.saturating_sub(ledger) / n,
                ledger_ns: ledger / n,
            }
        })
        .collect();

    // Critical path: descend the longest root by max-duration child.
    let mut critical_path = Vec::new();
    let root = spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.parent.is_none())
        .max_by_key(|(_, s)| s.dur_ns);
    if let Some((mut idx, _)) = root {
        for depth in 0..64 {
            let s = &spans[idx];
            let next = children
                .get(&s.span_id)
                .and_then(|kids| kids.iter().copied().max_by_key(|&ki| spans[ki].dur_ns));
            let child_dur = next.map_or(0, |ki| spans[ki].dur_ns);
            critical_path.push(CriticalStep {
                depth,
                process: s.process.clone(),
                name: s.name.clone(),
                dur_ns: s.dur_ns,
                self_ns: s.dur_ns.saturating_sub(child_dur),
            });
            match next {
                Some(ki) => idx = ki,
                None => break,
            }
        }
    }

    Analysis {
        lanes: lane_reports,
        spans,
        orphans,
        crossed,
        duplicates,
        tables,
        breakdowns,
        critical_path,
    }
}

impl Analysis {
    /// True when no orphaned, crossed or duplicated spans were found.
    #[must_use]
    pub fn is_consistent(&self) -> bool {
        self.orphans.is_empty() && self.crossed.is_empty() && self.duplicates.is_empty()
    }

    /// End-to-end wall span of the stitched trace, ns.
    #[must_use]
    pub fn total_ns(&self) -> u64 {
        let start = self.spans.iter().map(|s| s.start_ns).min().unwrap_or(0);
        let end = self.spans.iter().map(SpanNode::end_ns).max().unwrap_or(0);
        end.saturating_sub(start)
    }

    /// Renders the analysis as plain-text tables.
    #[must_use]
    pub fn render_text(&self) -> String {
        let mut out = String::from("== vcad-obs distributed trace report ==\n\n");
        let _ = writeln!(
            out,
            "lanes: {}   spans: {}   wall: {}",
            self.lanes.len(),
            self.spans.len(),
            fmt_ns(self.total_ns())
        );
        let _ = writeln!(
            out,
            "consistency: {} orphan(s), {} crossed, {} duplicate id(s)\n",
            self.orphans.len(),
            self.crossed.len(),
            self.duplicates.len()
        );
        if !self.lanes.is_empty() {
            out.push_str("process lanes\n");
            let rows: Vec<Vec<String>> = self
                .lanes
                .iter()
                .map(|l| {
                    vec![
                        l.name.clone(),
                        l.pid.to_string(),
                        l.spans.to_string(),
                        format!("{:+} ns", l.offset_ns),
                        if l.anchored { "yes" } else { "no" }.to_string(),
                    ]
                })
                .collect();
            table(
                &mut out,
                &["process", "pid", "spans", "clock offset", "anchored"],
                &rows,
            );
        }
        if !self.tables.is_empty() {
            out.push_str("span latency percentiles (exact)\n");
            let rows: Vec<Vec<String>> = self
                .tables
                .iter()
                .map(|t| {
                    vec![
                        t.process.clone(),
                        t.name.clone(),
                        t.count.to_string(),
                        fmt_ns(t.mean_ns),
                        fmt_ns(t.p50_ns),
                        fmt_ns(t.p90_ns),
                        fmt_ns(t.p99_ns),
                        fmt_ns(t.max_ns),
                    ]
                })
                .collect();
            table(
                &mut out,
                &[
                    "process", "span", "count", "mean", "p50", "p90", "p99", "max",
                ],
                &rows,
            );
        }
        if !self.breakdowns.is_empty() {
            out.push_str("per-RPC latency breakdown (mean per call)\n");
            let rows: Vec<Vec<String>> = self
                .breakdowns
                .iter()
                .map(|b| {
                    vec![
                        b.method.clone(),
                        b.count.to_string(),
                        fmt_ns(b.total_ns),
                        fmt_ns(b.client_ns),
                        fmt_ns(b.wire_ns),
                        fmt_ns(b.provider_ns),
                        fmt_ns(b.ledger_ns),
                    ]
                })
                .collect();
            table(
                &mut out,
                &[
                    "method", "calls", "total", "client", "wire", "provider", "ledger",
                ],
                &rows,
            );
        }
        if !self.critical_path.is_empty() {
            out.push_str("critical path\n");
            let rows: Vec<Vec<String>> = self
                .critical_path
                .iter()
                .map(|c| {
                    vec![
                        format!("{}{}", "  ".repeat(c.depth), c.name),
                        c.process.clone(),
                        fmt_ns(c.dur_ns),
                        fmt_ns(c.self_ns),
                    ]
                })
                .collect();
            table(&mut out, &["span", "process", "total", "self"], &rows);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::borrow::Cow;

    use crate::collector::{ArgValue, TraceEvent};

    fn span(
        name: &str,
        cat: &str,
        start_ns: u64,
        dur_ns: u64,
        trace: u64,
        id: u64,
        parent: Option<u64>,
    ) -> TraceEvent {
        let mut args = vec![
            (Cow::from(TRACE_ARG), ArgValue::U64(trace)),
            (Cow::from(SPAN_ARG), ArgValue::U64(id)),
        ];
        if let Some(p) = parent {
            args.push((Cow::from(PARENT_ARG), ArgValue::U64(p)));
        }
        TraceEvent {
            name: Cow::Owned(name.to_string()),
            category: Cow::Owned(cat.to_string()),
            kind: EventKind::Span { dur_ns },
            wall_ns: start_ns,
            thread: 1,
            args,
        }
    }

    fn lane(pid: u32, name: &str, events: Vec<TraceEvent>) -> ProcessLane {
        ProcessLane {
            pid,
            name: name.to_string(),
            events,
        }
    }

    #[test]
    fn stitching_anchors_provider_lane_under_client() {
        // Client lane: root(1) -> client:AREA(2) -> call(3).
        let client = lane(
            1,
            "client",
            vec![
                span("run", "controller", 0, 10_000, 7, 1, None),
                span("client:AREA", "rmi", 1_000, 6_000, 7, 2, Some(1)),
                span("call", "rmi", 1_500, 5_000, 7, 3, Some(2)),
            ],
        );
        // Provider lane on a clock ~1 000 000 ns ahead.
        let provider = lane(
            2,
            "provider1",
            vec![
                span("dispatch:AREA", "rmi", 1_000_000, 2_000, 7, 4, Some(2)),
                span("charge:AREA", "ip", 1_000_500, 500, 7, 5, Some(4)),
            ],
        );
        let a = analyze(&[client, provider]);
        assert!(a.is_consistent(), "orphans {:?}", a.orphans);
        assert_eq!(a.spans.len(), 5);
        // Provider dispatch must now start at/after the client span.
        let dispatch = a.spans.iter().find(|s| s.span_id == 4).unwrap();
        let parent = a.spans.iter().find(|s| s.span_id == 2).unwrap();
        assert!(dispatch.start_ns >= parent.start_ns);
        assert!(a.lanes[1].anchored);
        assert!(a.lanes[1].offset_ns < 0);
        // Breakdown attributes dispatch time to the provider bucket.
        assert_eq!(a.breakdowns.len(), 1);
        let b = &a.breakdowns[0];
        assert_eq!(b.method, "AREA");
        assert_eq!(b.count, 1);
        assert_eq!(b.total_ns, 6_000);
        assert_eq!(b.wire_ns, 3_000); // 5000 call - 2000 dispatch
        assert_eq!(b.provider_ns, 1_500); // 2000 - 500 ledger
        assert_eq!(b.ledger_ns, 500);
        assert_eq!(b.client_ns, 1_000); // 6000 - 5000 call
                                        // Critical path descends from the run root.
        assert_eq!(a.critical_path[0].name, "run");
        assert_eq!(a.critical_path[1].name, "client:AREA");
    }

    #[test]
    fn orphans_and_crossed_parents_are_detected() {
        let l = lane(
            1,
            "client",
            vec![
                span("a", "t", 0, 100, 1, 1, None),
                span("b", "t", 10, 50, 1, 2, Some(99)), // missing parent
                span("c", "t", 20, 30, 2, 3, Some(1)),  // wrong trace
            ],
        );
        let a = analyze(&[l]);
        assert_eq!(a.orphans, vec![2]);
        assert_eq!(a.crossed, vec![3]);
        assert!(!a.is_consistent());
    }

    #[test]
    fn duplicate_span_ids_are_detected() {
        let l = lane(
            1,
            "x",
            vec![
                span("a", "t", 0, 10, 1, 5, None),
                span("b", "t", 5, 10, 1, 5, None),
            ],
        );
        let a = analyze(&[l]);
        assert_eq!(a.duplicates, vec![5]);
    }

    #[test]
    fn percentiles_are_exact_nearest_rank() {
        let events: Vec<TraceEvent> = (1..=100)
            .map(|i| span("s", "t", i * 10, i * 1_000, 1, i, None))
            .collect();
        let a = analyze(&[lane(1, "p", events)]);
        let t = &a.tables[0];
        assert_eq!(t.count, 100);
        assert_eq!(t.p50_ns, 50_000);
        assert_eq!(t.p90_ns, 90_000);
        assert_eq!(t.p99_ns, 99_000);
        assert_eq!(t.max_ns, 100_000);
    }

    #[test]
    fn report_renders_text() {
        let l = lane(
            1,
            "client",
            vec![
                span("run", "controller", 0, 1_000, 1, 1, None),
                span("client:AREA", "rmi", 100, 500, 1, 2, Some(1)),
            ],
        );
        let a = analyze(&[l]);
        let text = a.render_text();
        assert!(text.contains("critical path"));
        assert!(text.contains("client:AREA"));
        assert!(text.contains("p99"));
        assert!(text.contains("lanes: 1   spans: 2"));
    }

    #[test]
    fn unlinked_lane_stays_on_its_own_clock() {
        let a = lane(1, "a", vec![span("x", "t", 0, 10, 1, 1, None)]);
        let b = lane(2, "b", vec![span("y", "t", 0, 10, 2, 2, None)]);
        let r = analyze(&[a, b]);
        assert!(r.is_consistent());
        let unanchored: Vec<_> = r.lanes.iter().filter(|l| !l.anchored).collect();
        assert_eq!(unanchored.len(), 1);
        assert_eq!(unanchored[0].offset_ns, 0);
    }
}
