//! The trace collector: spans and instant events with wall-clock
//! timestamps.
//!
//! A [`Collector`] is a cheap clonable handle. Recording an event when
//! tracing is disabled costs **one relaxed atomic load** — collectors
//! are threaded through the scheduler, transports and fault simulator
//! unconditionally, and only pay for themselves when a trace was asked
//! for. Enabled recording pushes into the bounded lock-free ring from
//! [`crate::ring`], so a burst of events can never stall or unbounded-ly
//! bloat a simulation; overflow is counted, not waited on.
//!
//! Concurrent schedulers each get an isolated child collector
//! ([`Collector::child`]) — mirroring the per-scheduler state isolation
//! of the simulation backplane itself — and fold their traces back with
//! [`Collector::absorb`].

use std::borrow::Cow;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

use crate::context::{self, ContextGuard, TraceContext};
use crate::metrics::{MetricsRegistry, MetricsSnapshot};
use crate::ring::RingBuffer;

/// Default ring capacity (events) for enabled collectors.
pub const DEFAULT_CAPACITY: usize = 64 * 1024;

static NEXT_THREAD_ID: AtomicU32 = AtomicU32::new(1);

thread_local! {
    static THREAD_ID: u32 = NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed);
}

/// A small, process-unique id for the calling thread (dense, unlike
/// `std::thread::ThreadId`, so trace viewers get tidy rows).
#[must_use]
pub fn thread_id() -> u32 {
    THREAD_ID.with(|id| *id)
}

/// An argument value attached to a trace event.
#[derive(Clone, Debug, PartialEq)]
pub enum ArgValue {
    /// Unsigned integer.
    U64(u64),
    /// Float.
    F64(f64),
    /// Text.
    Str(String),
}

impl From<u64> for ArgValue {
    fn from(v: u64) -> ArgValue {
        ArgValue::U64(v)
    }
}
impl From<usize> for ArgValue {
    fn from(v: usize) -> ArgValue {
        ArgValue::U64(v as u64)
    }
}
impl From<f64> for ArgValue {
    fn from(v: f64) -> ArgValue {
        ArgValue::F64(v)
    }
}
impl From<String> for ArgValue {
    fn from(v: String) -> ArgValue {
        ArgValue::Str(v)
    }
}
impl From<&str> for ArgValue {
    fn from(v: &str) -> ArgValue {
        ArgValue::Str(v.to_owned())
    }
}

/// What a [`TraceEvent`] records.
#[derive(Clone, Debug, PartialEq)]
pub enum EventKind {
    /// A completed span with its duration in nanoseconds.
    Span {
        /// Wall-clock duration, nanoseconds.
        dur_ns: u64,
    },
    /// A point-in-time marker.
    Instant,
}

/// One recorded event.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceEvent {
    /// Event name (e.g. `rmi.call:power_toggle`).
    pub name: Cow<'static, str>,
    /// Category (subsystem: `scheduler`, `rmi`, `ip`, `faults`, …).
    pub category: Cow<'static, str>,
    /// Span or instant.
    pub kind: EventKind,
    /// Start time, nanoseconds since the collector epoch.
    pub wall_ns: u64,
    /// Recording thread (see [`thread_id`]).
    pub thread: u32,
    /// Attached key/value arguments.
    pub args: Vec<(Cow<'static, str>, ArgValue)>,
}

struct CollectorInner {
    enabled: AtomicBool,
    epoch: Instant,
    capacity: usize,
    ring: RingBuffer<TraceEvent>,
    metrics: MetricsRegistry,
    /// Process lane name stamped onto exported traces.
    process: RwLock<String>,
    /// Fallback trace context used by [`Collector::traced_span`] when the
    /// calling thread has no ambient context (e.g. shard worker threads).
    default_context: RwLock<Option<TraceContext>>,
    /// Events already drained out of children (absorbed traces).
    absorbed_events: Mutex<Vec<TraceEvent>>,
    /// Drop counts inherited from absorbed children.
    absorbed_dropped: Mutex<u64>,
}

/// A clonable handle to one tracing + metrics domain.
#[derive(Clone)]
pub struct Collector {
    inner: Arc<CollectorInner>,
}

impl Default for Collector {
    fn default() -> Collector {
        Collector::disabled()
    }
}

impl std::fmt::Debug for Collector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Collector")
            .field("enabled", &self.is_enabled())
            .finish_non_exhaustive()
    }
}

impl Collector {
    fn with_enabled(enabled: bool, capacity: usize) -> Collector {
        Collector {
            inner: Arc::new(CollectorInner {
                enabled: AtomicBool::new(enabled),
                epoch: Instant::now(),
                capacity,
                ring: RingBuffer::with_capacity(capacity),
                metrics: MetricsRegistry::new(),
                process: RwLock::new(String::from("vcad")),
                default_context: RwLock::new(None),
                absorbed_events: Mutex::new(Vec::new()),
                absorbed_dropped: Mutex::new(0),
            }),
        }
    }

    /// An enabled collector with the default ring capacity.
    #[must_use]
    pub fn enabled() -> Collector {
        Collector::with_enabled(true, DEFAULT_CAPACITY)
    }

    /// An enabled collector with an explicit ring capacity.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Collector {
        Collector::with_enabled(true, capacity)
    }

    /// A disabled collector: metrics still aggregate (they are single
    /// atomic ops), but span/event recording is a near-no-op.
    #[must_use]
    pub fn disabled() -> Collector {
        // A tiny ring: nothing is ever pushed while disabled.
        Collector::with_enabled(false, 2)
    }

    /// Whether event recording is on.
    #[inline]
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.enabled.load(Ordering::Relaxed)
    }

    /// The metrics registry of this collector's domain.
    #[must_use]
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.inner.metrics
    }

    /// Names the process lane exported traces belong to (e.g. `client`,
    /// `provider1.example.com`). Children inherit the name at
    /// [`Collector::child`] time.
    pub fn set_process_name(&self, name: &str) {
        name.clone_into(&mut self.inner.process.write().unwrap());
    }

    /// Builder form of [`Collector::set_process_name`].
    #[must_use]
    pub fn with_process_name(self, name: &str) -> Collector {
        self.set_process_name(name);
        self
    }

    /// The process lane name (defaults to `vcad`).
    #[must_use]
    pub fn process_name(&self) -> String {
        self.inner.process.read().unwrap().clone()
    }

    /// Sets the fallback trace context used by [`Collector::traced_span`]
    /// when the calling thread carries no ambient context. This is how a
    /// run's root context reaches shard worker threads, whose stacks the
    /// controller never runs on.
    pub fn set_default_context(&self, ctx: Option<TraceContext>) {
        *self.inner.default_context.write().unwrap() = ctx;
    }

    /// The fallback trace context, if one was set.
    #[must_use]
    pub fn default_context(&self) -> Option<TraceContext> {
        self.inner.default_context.read().unwrap().clone()
    }

    /// Nanoseconds since this collector's epoch.
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.inner.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records an instant event. One relaxed load when disabled.
    pub fn event(
        &self,
        category: impl Into<Cow<'static, str>>,
        name: impl Into<Cow<'static, str>>,
    ) {
        if !self.is_enabled() {
            return;
        }
        self.push(TraceEvent {
            name: name.into(),
            category: category.into(),
            kind: EventKind::Instant,
            wall_ns: self.now_ns(),
            thread: thread_id(),
            args: Vec::new(),
        });
    }

    /// Records an instant event with arguments.
    pub fn event_with_args(
        &self,
        category: impl Into<Cow<'static, str>>,
        name: impl Into<Cow<'static, str>>,
        args: Vec<(Cow<'static, str>, ArgValue)>,
    ) {
        if !self.is_enabled() {
            return;
        }
        self.push(TraceEvent {
            name: name.into(),
            category: category.into(),
            kind: EventKind::Instant,
            wall_ns: self.now_ns(),
            thread: thread_id(),
            args,
        });
    }

    /// Opens a span; the span records itself when the guard drops.
    /// One relaxed load when disabled.
    #[must_use = "dropping the guard immediately records a zero-length span"]
    pub fn span(
        &self,
        category: impl Into<Cow<'static, str>>,
        name: impl Into<Cow<'static, str>>,
    ) -> SpanGuard {
        if !self.is_enabled() {
            return SpanGuard { state: None };
        }
        SpanGuard {
            state: Some(SpanState {
                collector: self.clone(),
                name: name.into(),
                category: category.into(),
                start_wall: self.now_ns(),
                args: Vec::new(),
            }),
        }
    }

    /// Opens a span that participates in distributed tracing.
    ///
    /// The span allocates a fresh span id, parents under the thread's
    /// ambient context (falling back to the collector's default context,
    /// then to a fresh root), records `trace`/`span`/`parent` arguments,
    /// and keeps its own context ambient for its lifetime so nested
    /// traced spans — and RMI calls injecting the context on the wire —
    /// chain under it. One relaxed load when disabled.
    #[must_use = "dropping the guard immediately records a zero-length span"]
    pub fn traced_span(
        &self,
        category: impl Into<Cow<'static, str>>,
        name: impl Into<Cow<'static, str>>,
    ) -> TracedSpan {
        if !self.is_enabled() {
            return TracedSpan {
                span: SpanGuard { state: None },
                ctx: None,
                _guard: None,
            };
        }
        let parent = context::current().or_else(|| self.default_context());
        let ctx = parent
            .as_ref()
            .map_or_else(TraceContext::root, TraceContext::child);
        let mut span = self.span(category, name);
        span.arg(context::TRACE_ARG, ctx.trace_id);
        span.arg(context::SPAN_ARG, ctx.span_id);
        if let Some(p) = &parent {
            span.arg(context::PARENT_ARG, p.span_id);
        }
        let guard = context::push(ctx.clone());
        TracedSpan {
            span,
            ctx: Some(ctx),
            _guard: Some(guard),
        }
    }

    /// Records an instant event stamped with the current trace context
    /// (ambient, else the collector default) as `trace`/`parent` args.
    pub fn traced_event(
        &self,
        category: impl Into<Cow<'static, str>>,
        name: impl Into<Cow<'static, str>>,
        mut args: Vec<(Cow<'static, str>, ArgValue)>,
    ) {
        if !self.is_enabled() {
            return;
        }
        if let Some(ctx) = context::current().or_else(|| self.default_context()) {
            args.push((
                Cow::Borrowed(context::TRACE_ARG),
                ArgValue::U64(ctx.trace_id),
            ));
            args.push((
                Cow::Borrowed(context::PARENT_ARG),
                ArgValue::U64(ctx.span_id),
            ));
        }
        self.event_with_args(category, name, args);
    }

    fn push(&self, event: TraceEvent) {
        // Drop-on-full: the ring counts what it sheds.
        let _ = self.inner.ring.push(event);
    }

    /// An isolated child sharing nothing but configuration (enablement,
    /// ring capacity, process name, default context) — one per concurrent
    /// scheduler. Fold it back with [`Collector::absorb`].
    #[must_use]
    pub fn child(&self) -> Collector {
        let child = Collector::with_enabled(self.is_enabled(), self.inner.capacity);
        *child.inner.process.write().unwrap() = self.inner.process.read().unwrap().clone();
        *child.inner.default_context.write().unwrap() =
            self.inner.default_context.read().unwrap().clone();
        child
    }

    /// Merges a child collector's events and metrics into this one.
    ///
    /// Child event timestamps are re-based onto this collector's epoch
    /// so a merged trace stays on one clock.
    pub fn absorb(&self, child: &Collector) {
        let offset_ns = {
            let child_epoch = child.inner.epoch;
            let parent_epoch = self.inner.epoch;
            if child_epoch >= parent_epoch {
                i128::try_from((child_epoch - parent_epoch).as_nanos()).unwrap_or(i128::MAX)
            } else {
                -i128::try_from((parent_epoch - child_epoch).as_nanos()).unwrap_or(i128::MAX)
            }
        };
        let mut events = child.inner.ring.drain();
        {
            let mut child_absorbed = child.inner.absorbed_events.lock().unwrap();
            events.extend(child_absorbed.drain(..));
        }
        for e in &mut events {
            let shifted = i128::from(e.wall_ns) + offset_ns;
            e.wall_ns = u64::try_from(shifted.max(0)).unwrap_or(u64::MAX);
        }
        self.inner.absorbed_events.lock().unwrap().extend(events);
        *self.inner.absorbed_dropped.lock().unwrap() +=
            child.inner.ring.dropped() + *child.inner.absorbed_dropped.lock().unwrap();
        self.inner.metrics.absorb(child.metrics().snapshot());
    }

    /// Drains everything recorded so far into an exportable [`Trace`].
    #[must_use]
    pub fn trace(&self) -> Trace {
        let mut events = self
            .inner
            .absorbed_events
            .lock()
            .unwrap()
            .drain(..)
            .collect::<Vec<_>>();
        events.extend(self.inner.ring.drain());
        events.sort_by_key(|e| e.wall_ns);
        Trace {
            process: self.process_name(),
            events,
            metrics: self.inner.metrics.snapshot(),
            dropped: self.inner.ring.dropped() + *self.inner.absorbed_dropped.lock().unwrap(),
        }
    }
}

struct SpanState {
    collector: Collector,
    name: Cow<'static, str>,
    category: Cow<'static, str>,
    start_wall: u64,
    args: Vec<(Cow<'static, str>, ArgValue)>,
}

/// An open span; records a [`EventKind::Span`] event when dropped.
#[must_use = "a span records on drop; binding it to _ ends it immediately"]
pub struct SpanGuard {
    state: Option<SpanState>,
}

impl SpanGuard {
    /// Attaches an argument to the span (no-op when tracing is off).
    pub fn arg(&mut self, key: impl Into<Cow<'static, str>>, value: impl Into<ArgValue>) {
        if let Some(s) = &mut self.state {
            s.args.push((key.into(), value.into()));
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(s) = self.state.take() {
            let end = s.collector.now_ns();
            s.collector.push(TraceEvent {
                name: s.name,
                category: s.category,
                kind: EventKind::Span {
                    dur_ns: end.saturating_sub(s.start_wall),
                },
                wall_ns: s.start_wall,
                thread: thread_id(),
                args: s.args,
            });
        }
    }
}

/// A guard pairing an open [`SpanGuard`] with the ambient trace context
/// it pushed; see [`Collector::traced_span`]. Field order matters: the
/// span must record (first field drops first) before its context pops.
#[must_use = "a span records on drop; binding it to _ ends it immediately"]
pub struct TracedSpan {
    span: SpanGuard,
    ctx: Option<TraceContext>,
    /// Held purely for its Drop (pops the ambient stack).
    _guard: Option<ContextGuard>,
}

impl TracedSpan {
    /// Attaches an argument to the span (no-op when tracing is off).
    pub fn arg(&mut self, key: impl Into<Cow<'static, str>>, value: impl Into<ArgValue>) {
        self.span.arg(key, value);
    }

    /// The span's own trace context (None when tracing is off) — this is
    /// what an RMI client serializes onto the wire.
    #[must_use]
    pub fn context(&self) -> Option<&TraceContext> {
        self.ctx.as_ref()
    }
}

/// A drained, exportable trace: events, metrics, and how many events
/// the ring had to shed.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// The process lane these events belong to (see
    /// [`Collector::set_process_name`]).
    pub process: String,
    /// All recorded events, sorted by wall-clock start.
    pub events: Vec<TraceEvent>,
    /// The metrics aggregate at drain time.
    pub metrics: MetricsSnapshot,
    /// Events dropped due to ring overflow.
    pub dropped: u64,
}

impl Trace {
    /// Events whose name starts with `prefix`.
    #[must_use]
    pub fn events_named(&self, prefix: &str) -> Vec<&TraceEvent> {
        self.events
            .iter()
            .filter(|e| e.name.starts_with(prefix))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn disabled_collector_records_nothing() {
        let c = Collector::disabled();
        c.event("test", "e1");
        let mut span = c.span("test", "s1");
        span.arg("k", 1u64);
        drop(span);
        let t = c.trace();
        assert!(t.events.is_empty());
        assert_eq!(t.dropped, 0);
    }

    #[test]
    fn disabled_collector_still_counts_metrics() {
        // Campaign cells read their retry and chaos counters off a
        // disabled collector; only events are switched off.
        let c = Collector::disabled();
        c.metrics().counter("rmi.retry.retries").add(3);
        c.metrics().counter("rmi.retry.retries").add(2);
        assert_eq!(c.metrics().snapshot().counter("rmi.retry.retries"), 5);
        assert_eq!(c.trace().metrics.counter("rmi.retry.retries"), 5);
    }

    #[test]
    fn spans_measure_nonzero_time() {
        let c = Collector::enabled();
        {
            let mut span = c.span("test", "slow");
            span.arg("n", 3u64);
            std::thread::sleep(Duration::from_millis(2));
        }
        let t = c.trace();
        assert_eq!(t.events.len(), 1);
        match &t.events[0].kind {
            EventKind::Span { dur_ns } => assert!(*dur_ns >= 1_000_000, "dur {dur_ns}"),
            other => panic!("expected span, got {other:?}"),
        }
        assert_eq!(t.events[0].args[0].0, "n");
    }

    #[test]
    fn children_absorb_back_into_the_parent() {
        let parent = Collector::enabled();
        parent.metrics().counter("n").add(1);
        let child = parent.child();
        assert!(child.is_enabled());
        child.event("test", "from-child");
        child.metrics().counter("n").add(9);
        parent.absorb(&child);
        let t = parent.trace();
        assert_eq!(t.events.len(), 1);
        assert_eq!(t.events[0].name, "from-child");
        assert_eq!(t.metrics.counter("n"), 10);
    }

    #[test]
    fn overflow_is_counted_not_blocking() {
        let c = Collector::with_capacity(4);
        for i in 0..10 {
            c.event("test", format!("e{i}"));
        }
        let t = c.trace();
        assert_eq!(t.events.len(), 4);
        assert_eq!(t.dropped, 6);
    }

    fn span_arg(e: &TraceEvent, key: &str) -> Option<u64> {
        e.args.iter().find(|(k, _)| k == key).and_then(|(_, v)| {
            if let ArgValue::U64(n) = v {
                Some(*n)
            } else {
                None
            }
        })
    }

    #[test]
    fn traced_spans_nest_and_record_context_args() {
        let c = Collector::enabled();
        {
            let outer = c.traced_span("test", "outer");
            let outer_ctx = outer.context().unwrap().clone();
            {
                let inner = c.traced_span("test", "inner");
                assert_eq!(inner.context().unwrap().trace_id, outer_ctx.trace_id);
            }
            drop(outer);
        }
        let t = c.trace();
        assert_eq!(t.events.len(), 2);
        let outer = t.events.iter().find(|e| e.name == "outer").unwrap();
        let inner = t.events.iter().find(|e| e.name == "inner").unwrap();
        assert_eq!(span_arg(outer, context::PARENT_ARG), None);
        assert_eq!(
            span_arg(inner, context::PARENT_ARG),
            span_arg(outer, context::SPAN_ARG)
        );
        assert_eq!(
            span_arg(inner, context::TRACE_ARG),
            span_arg(outer, context::TRACE_ARG)
        );
    }

    #[test]
    fn traced_span_uses_default_context_when_ambient_is_empty() {
        let c = Collector::enabled();
        let run = TraceContext::root();
        c.set_default_context(Some(run.clone()));
        // A fresh thread has no ambient stack: the default context is the
        // parent, mirroring shard worker threads.
        let c2 = c.clone();
        std::thread::spawn(move || {
            let _s = c2.traced_span("test", "worker");
        })
        .join()
        .unwrap();
        let t = c.trace();
        assert_eq!(
            span_arg(&t.events[0], context::PARENT_ARG),
            Some(run.span_id)
        );
        assert_eq!(
            span_arg(&t.events[0], context::TRACE_ARG),
            Some(run.trace_id)
        );
    }

    #[test]
    fn traced_event_inherits_ambient_context() {
        let c = Collector::enabled();
        {
            let s = c.traced_span("test", "parent");
            let sid = s.context().unwrap().span_id;
            c.traced_event("test", "marker", vec![("n".into(), 7u64.into())]);
            drop(s);
            let t = c.trace();
            let marker = t.events.iter().find(|e| e.name == "marker").unwrap();
            assert_eq!(span_arg(marker, context::PARENT_ARG), Some(sid));
            assert_eq!(span_arg(marker, "n"), Some(7));
        }
    }

    #[test]
    fn disabled_traced_span_is_inert_and_contextless() {
        let c = Collector::disabled();
        let s = c.traced_span("test", "ghost");
        assert!(s.context().is_none());
        assert!(context::current().is_none());
        drop(s);
        assert!(c.trace().events.is_empty());
    }

    #[test]
    fn children_inherit_process_name_and_default_context() {
        let parent = Collector::enabled().with_process_name("lane-a");
        parent.set_default_context(Some(TraceContext::root()));
        let child = parent.child();
        assert_eq!(child.process_name(), "lane-a");
        assert_eq!(child.default_context(), parent.default_context());
        assert_eq!(parent.trace().process, "lane-a");
    }
}
