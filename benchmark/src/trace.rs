//! The benchmark's own span recorder.
//!
//! Spans are recorded around calls *into* the product, from the
//! benchmark's wrappers; nothing inside the product is instrumented.
//! Each span carries a name, start, end, the span that caused it and the
//! trace id of its top-level operation. They live in one preallocated
//! vector and are written out (Chrome trace-event JSON, the dialect
//! `obs-report` and Perfetto read) after the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Index of a span in its recorder, plus one; `0` means "no span".
pub type SpanId = u32;

/// One recorded interval.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: SpanId,
    pub trace: u32,
}

/// A thread-safe in-memory span sink.
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A recorder with room for `capacity` spans before it reallocates.
    pub fn with_capacity(capacity: usize) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::with_capacity(capacity)),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::close`].
    pub fn open(&self, name: &'static str, parent: SpanId, trace: u32) -> SpanId {
        let start_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("span sink lock");
        spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            trace,
        });
        spans.len() as SpanId
    }

    /// Stamps the end of span `id`.
    pub fn close(&self, id: SpanId) {
        let end_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("span sink lock");
        if let Some(span) = spans.get_mut(id as usize - 1) {
            span.end_ns = end_ns;
        }
    }

    /// A copy of everything recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span sink lock").clone()
    }
}

/// Where one client thread's wrappers hang their spans: the recorder
/// plus the innermost open span. Passed explicitly — no thread-local
/// ambient state. One context serves one thread at a time.
pub struct TraceCtx {
    pub tracer: Tracer,
    current: AtomicU32,
    trace: AtomicU32,
}

/// An open span and the parent to restore when it closes.
pub struct Scope {
    id: SpanId,
    outer: SpanId,
}

impl TraceCtx {
    pub fn with_capacity(capacity: usize) -> TraceCtx {
        TraceCtx {
            tracer: Tracer::with_capacity(capacity),
            current: AtomicU32::new(0),
            trace: AtomicU32::new(0),
        }
    }

    /// Opens a span under the innermost open one and makes it the parent
    /// of whatever the wrappers record until [`TraceCtx::exit`]. A span
    /// opened with nothing above it is a top-level operation and starts
    /// a fresh trace id.
    pub fn enter(&self, name: &'static str) -> Scope {
        let outer = self.current.load(Ordering::Relaxed);
        let trace = if outer == 0 {
            self.trace.fetch_add(1, Ordering::Relaxed) + 1
        } else {
            self.trace.load(Ordering::Relaxed)
        };
        let id = self.tracer.open(name, outer, trace);
        self.current.store(id, Ordering::Relaxed);
        Scope { id, outer }
    }

    pub fn exit(&self, scope: Scope) {
        self.tracer.close(scope.id);
        self.current.store(scope.outer, Ordering::Relaxed);
    }
}

/// Runs `f` and returns its result with the host seconds it took, under
/// a `name` span when tracing.
pub fn timed<R>(trace: Option<&TraceCtx>, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
    let scope = trace.map(|t| t.enter(name));
    let started = Instant::now();
    let result = f();
    let secs = started.elapsed().as_secs_f64();
    if let (Some(t), Some(scope)) = (trace, scope) {
        t.exit(scope);
    }
    (result, secs)
}

/// Total self time per span name: each span's duration minus the part of
/// it that its direct children cover. Overlapping children (two threads
/// working under one parent) are merged first, so shared time is
/// subtracted once.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(slot) = (span.parent as usize)
            .checked_sub(1)
            .and_then(|p| children.get_mut(p))
        {
            slot.push((span.start_ns, span.end_ns));
        }
    }
    let mut totals = BTreeMap::new();
    for (span, kids) in spans.iter().zip(&mut children) {
        kids.sort_unstable();
        let mut covered = 0u64;
        let mut cursor = span.start_ns;
        for &(start, end) in kids.iter() {
            let start = start.clamp(cursor, span.end_ns);
            let end = end.clamp(cursor, span.end_ns);
            covered += end - start;
            cursor = end;
        }
        let own = (span.end_ns - span.start_ns) - covered;
        *totals.entry(span.name).or_insert(0) += own;
    }
    totals
}

/// Renders `lanes` (one per client thread) as Chrome trace-event JSON.
/// Span ids are made unique across lanes by offsetting each lane.
pub fn chrome_json<S: AsRef<str>>(lanes: &[(S, Vec<Span>)]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    let mut offset = 0u64;
    for (pid, (lane, spans)) in lanes.iter().enumerate() {
        let pid = pid + 1;
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(
            out,
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
             \"args\":{{\"name\":\"{}\"}}}}",
            lane.as_ref()
        );
        for (index, span) in spans.iter().enumerate() {
            let id = offset + index as u64 + 1;
            let _ = write!(
                out,
                ",{{\"name\":\"{}\",\"cat\":\"bench\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":{pid},\"tid\":1,\"args\":{{\"trace\":{},\"span\":{id}",
                span.name,
                span.start_ns as f64 / 1_000.0,
                (span.end_ns - span.start_ns) as f64 / 1_000.0,
                u64::from(span.trace) + offset,
            );
            if span.parent != 0 {
                let _ = write!(out, ",\"parent\":{}", u64::from(span.parent) + offset);
            }
            out.push_str("}}");
        }
        offset += spans.len() as u64;
    }
    out.push_str("],\"displayTimeUnit\":\"ns\"}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: SpanId) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            trace: 1,
        }
    }

    #[test]
    fn self_time_subtracts_disjoint_children() {
        let spans = [
            span("run", 0, 100, 0),
            span("rpc", 10, 30, 1),
            span("rpc", 50, 90, 1),
        ];
        let t = self_times(&spans);
        assert_eq!(t["run"], 40);
        assert_eq!(t["rpc"], 60);
    }

    #[test]
    fn overlapping_children_are_subtracted_once() {
        // Two workers under one parent overlap on [30, 50]: the parent's
        // covered time is the union [10, 70] = 60, not the sum 80.
        let spans = [
            span("campaign", 0, 100, 0),
            span("cell", 10, 50, 1),
            span("cell", 30, 70, 1),
        ];
        let t = self_times(&spans);
        assert_eq!(t["campaign"], 40);
        assert_eq!(t["cell"], 80);
    }

    #[test]
    fn grandchildren_only_reduce_their_own_parent() {
        let spans = [
            span("run", 0, 100, 0),
            span("rpc", 20, 80, 1),
            span("tcp", 30, 70, 2),
            // A child that outlives its parent is clipped to it.
            span("late", 90, 130, 1),
        ];
        let t = self_times(&spans);
        assert_eq!(t["run"], 100 - 60 - 10);
        assert_eq!(t["rpc"], 20);
        assert_eq!(t["tcp"], 40);
    }

    #[test]
    fn roots_get_fresh_trace_ids_and_children_inherit_them() {
        let ctx = TraceCtx::with_capacity(8);
        let op = ctx.enter("op");
        let rpc = ctx.enter("rpc");
        let tcp = ctx.enter("tcp");
        ctx.exit(tcp);
        ctx.exit(rpc);
        ctx.exit(op);
        let next = ctx.enter("op");
        ctx.exit(next);
        let spans = ctx.tracer.spans();
        let shape: Vec<_> = spans.iter().map(|s| (s.name, s.trace, s.parent)).collect();
        assert_eq!(
            shape,
            [("op", 1, 0), ("rpc", 1, 1), ("tcp", 1, 2), ("op", 2, 0)]
        );
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
    }

    #[test]
    fn chrome_json_is_parseable_and_keeps_parent_links() {
        let lanes = [
            (
                "client-0",
                vec![span("run", 0, 2_000, 0), span("rpc", 500, 1_500, 1)],
            ),
            ("client-1", vec![span("run", 0, 1_000, 0)]),
        ];
        let doc = vcad_obs::json::parse(&chrome_json(&lanes)).expect("valid JSON");
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        let spans: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").unwrap().as_str() == Some("X"))
            .collect();
        assert_eq!(spans.len(), 3);
        let args = spans[1].get("args").unwrap();
        assert_eq!(args.get("span").unwrap().as_u64(), Some(2));
        assert_eq!(args.get("parent").unwrap().as_u64(), Some(1));
        assert_eq!(spans[1].get("dur").unwrap().as_f64(), Some(1.0));
        // The second lane's ids do not collide with the first's.
        assert_eq!(
            spans[2].get("args").unwrap().get("span").unwrap().as_u64(),
            Some(3)
        );
    }
}
