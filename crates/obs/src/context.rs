//! Distributed trace context: identifiers and ambient propagation.
//!
//! A [`TraceContext`] names one span in one trace: the `trace_id` groups
//! every span of a distributed run, the `span_id` names this span, and the
//! baggage carries a handful of opaque string pairs (session, provider,
//! method) along the call chain. Contexts cross process boundaries inside
//! RMI request frames; inside a process they flow implicitly through a
//! thread-local ambient stack so instrumented layers nest without plumbing
//! a context argument through every signature.
//!
//! Identifier allocation is process-global and collision-free: span ids are
//! drawn from a single atomic counter, so two collectors in the same
//! process (client session and in-process provider, or several shards)
//! never mint the same id. Across real processes the dump-merging tool
//! relies on `trace_id` to tell lanes apart, and each process draws span
//! ids while the other holds the connection, so id reuse would require two
//! processes minting the same (trace, span) pair — the stitcher treats that
//! as a corrupt input rather than guessing.

use std::cell::RefCell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};

/// Span argument key under which a span's trace id is recorded.
pub const TRACE_ARG: &str = "trace";
/// Span argument key under which a span's own id is recorded.
pub const SPAN_ARG: &str = "span";
/// Span argument key under which a span's parent id is recorded.
pub const PARENT_ARG: &str = "parent";

/// Upper bound on baggage entries accepted on the wire. Baggage is a small
/// set of routing labels, not a data channel; the cap keeps a hostile frame
/// from smuggling bulk data past the privacy audit.
pub const MAX_BAGGAGE: usize = 16;

/// Identity of one span within one distributed trace, plus the baggage
/// labels that travel with the call chain.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceContext {
    /// Groups all spans of one distributed run.
    pub trace_id: u64,
    /// Identifies this span; children carry it as their parent.
    pub span_id: u64,
    /// Small opaque key/value labels (session, provider, method). Never
    /// structural design data — `tests/trace_propagation.rs` audits the
    /// baggage that crosses the wire.
    pub baggage: Vec<(String, String)>,
}

impl TraceContext {
    /// Mints a fresh root context: new trace id, new span id, no baggage.
    #[must_use]
    pub fn root() -> TraceContext {
        TraceContext {
            trace_id: next_trace_id(),
            span_id: next_span_id(),
            baggage: Vec::new(),
        }
    }

    /// Mints a child of this context: same trace, fresh span id, baggage
    /// inherited.
    #[must_use]
    pub fn child(&self) -> TraceContext {
        TraceContext {
            trace_id: self.trace_id,
            span_id: next_span_id(),
            baggage: self.baggage.clone(),
        }
    }

    /// Adds (or replaces) one baggage label, builder style.
    #[must_use]
    pub fn with_baggage(mut self, key: &str, value: &str) -> TraceContext {
        self.set_baggage(key, value);
        self
    }

    /// Adds (or replaces) one baggage label in place.
    pub fn set_baggage(&mut self, key: &str, value: &str) {
        if let Some(slot) = self.baggage.iter_mut().find(|(k, _)| k == key) {
            slot.1 = value.to_string();
        } else {
            self.baggage.push((key.to_string(), value.to_string()));
        }
    }
}

static NEXT_SPAN: AtomicU64 = AtomicU64::new(1);
static NEXT_TRACE: AtomicU64 = AtomicU64::new(1);

/// Allocates a process-unique span id (never zero).
#[must_use]
pub fn next_span_id() -> u64 {
    NEXT_SPAN.fetch_add(1, Ordering::Relaxed)
}

/// Allocates a process-unique trace id (never zero).
#[must_use]
pub fn next_trace_id() -> u64 {
    NEXT_TRACE.fetch_add(1, Ordering::Relaxed)
}

thread_local! {
    static AMBIENT: RefCell<Vec<TraceContext>> = const { RefCell::new(Vec::new()) };
}

/// The context on top of this thread's ambient stack, if any.
#[must_use]
pub fn current() -> Option<TraceContext> {
    AMBIENT.with(|s| s.borrow().last().cloned())
}

/// Pushes `ctx` onto this thread's ambient stack; the returned guard pops
/// it on drop. Guards must be dropped in LIFO order (the natural result of
/// holding them in nested scopes) — the guard is `!Send` so a push can
/// never be popped from another thread.
#[must_use]
pub fn push(ctx: TraceContext) -> ContextGuard {
    AMBIENT.with(|s| s.borrow_mut().push(ctx));
    ContextGuard {
        _not_send: PhantomData,
    }
}

/// RAII guard returned by [`push`]; pops the ambient stack on drop.
#[derive(Debug)]
pub struct ContextGuard {
    _not_send: PhantomData<*const ()>,
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        AMBIENT.with(|s| {
            s.borrow_mut().pop();
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique_and_nonzero() {
        let a = TraceContext::root();
        let b = TraceContext::root();
        assert_ne!(a.trace_id, b.trace_id);
        assert_ne!(a.span_id, b.span_id);
        assert_ne!(a.span_id, 0);
        assert_ne!(a.trace_id, 0);
    }

    #[test]
    fn child_shares_trace_and_baggage() {
        let root = TraceContext::root().with_baggage("provider", "p1");
        let kid = root.child();
        assert_eq!(kid.trace_id, root.trace_id);
        assert_ne!(kid.span_id, root.span_id);
        assert_eq!(kid.baggage, [("provider".to_string(), "p1".to_string())]);
    }

    #[test]
    fn with_baggage_replaces_existing_key() {
        let ctx = TraceContext::root()
            .with_baggage("k", "v1")
            .with_baggage("k", "v2");
        assert_eq!(ctx.baggage, [("k".to_string(), "v2".to_string())]);
    }

    #[test]
    fn ambient_stack_is_lifo() {
        assert_eq!(current(), None);
        let a = TraceContext::root();
        let g1 = push(a.clone());
        assert_eq!(current().unwrap().span_id, a.span_id);
        let b = a.child();
        {
            let _g2 = push(b.clone());
            assert_eq!(current().unwrap().span_id, b.span_id);
        }
        assert_eq!(current().unwrap().span_id, a.span_id);
        drop(g1);
        assert_eq!(current(), None);
    }

    #[test]
    fn ambient_is_per_thread() {
        let _g = push(TraceContext::root());
        std::thread::spawn(|| assert_eq!(current(), None))
            .join()
            .unwrap();
    }
}
