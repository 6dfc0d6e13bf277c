//! Hierarchical tracing: causal parent/child spans layered over the flat
//! span histograms.
//!
//! Every enabled [`SpanTimer`](crate::SpanTimer) obtained from a
//! [`Registry`](crate::Registry) participates in a trace: it gets a
//! process-unique id, infers its parent from a **thread-local span
//! stack**, and on drop deposits a completed [`TraceSpan`] — name, full
//! path, timing, thread id, and attributes — into a bounded [`TraceRing`]
//! kept by the registry. Cross-thread causality is explicit: a spawner
//! captures a [`SpanContext`] with
//! [`current_ctx`](crate::Registry::current_ctx) and a worker
//! [adopts](crate::adopt) it for the whole of its work, so fan-out work
//! (the query's per-cube and per-shard workers, the shards of a write)
//! nests under the operation that spawned it exactly as it would on the
//! spawner's thread.
//!
//! The ring is export-ready: [`chrome_trace_json`] renders a snapshot as
//! a chrome `trace_event` document (open it in `chrome://tracing` or
//! Perfetto), and `Snapshot::to_jsonl` emits one `"kind":"trace"` line
//! per retained span.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::report::json_escape;

/// One completed span. `id` is process-unique and never zero; `parent`
/// is the id of the enclosing span, or `0` for a root span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSpan {
    /// Process-unique span id (never zero).
    pub id: u64,
    /// Id of the parent span, `0` when this span is a root.
    pub parent: u64,
    /// Span name (dotted, same convention as metric names).
    pub name: String,
    /// Full path from the root span, names joined by `/`.
    pub path: String,
    /// Small per-thread id (assigned in thread-creation order, from 1).
    pub tid: u64,
    /// Start time, nanoseconds since the owning registry was created.
    pub start_ns: u64,
    /// Wall-clock duration in nanoseconds.
    pub dur_ns: u64,
    /// Attributes attached while the span was open, in attachment order.
    pub attrs: Vec<(String, String)>,
}

impl TraceSpan {
    /// True when this span has no parent.
    pub fn is_root(&self) -> bool {
        self.parent == 0
    }
}

/// A capturable reference to the current span, for handing causality to
/// another thread: capture on the spawning thread, [adopt](crate::adopt)
/// it on the worker.
#[derive(Debug, Clone, Default)]
pub struct SpanContext {
    pub(crate) parent: u64,
    pub(crate) path: String,
}

impl SpanContext {
    /// A context under which spans open as roots.
    pub fn root() -> SpanContext {
        SpanContext::default()
    }

    /// The id of the span this context points at (`0` = root).
    pub fn span_id(&self) -> u64 {
        self.parent
    }
}

/// A bounded multi-producer buffer keeping the most recent `capacity`
/// completed spans (same slot-claim design as the event ring).
#[derive(Debug)]
pub struct TraceRing {
    slots: Vec<Mutex<Option<TraceSpan>>>,
    head: AtomicU64,
}

impl TraceRing {
    /// A ring holding at most `capacity` spans (min 1).
    pub fn new(capacity: usize) -> TraceRing {
        let capacity = capacity.max(1);
        TraceRing {
            slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
            head: AtomicU64::new(0),
        }
    }

    /// Capacity in spans.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total number of spans ever pushed.
    pub fn pushed(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Records a completed span, overwriting the oldest when full.
    /// Returns `true` when an older span was evicted.
    pub fn push(&self, span: TraceSpan) -> bool {
        let seq = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = (seq % self.slots.len() as u64) as usize;
        self.slots[slot]
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .replace(span)
            .is_some()
    }

    /// The retained spans, oldest first (by start time, then id).
    pub fn snapshot(&self) -> Vec<TraceSpan> {
        let mut out: Vec<TraceSpan> = self
            .slots
            .iter()
            .filter_map(|s| s.lock().unwrap_or_else(|e| e.into_inner()).clone())
            .collect();
        out.sort_by_key(|s| (s.start_ns, s.id));
        out
    }

    /// Clears all retained spans (test/CLI support).
    pub fn reset(&self) {
        for s in &self.slots {
            *s.lock().unwrap_or_else(|e| e.into_inner()) = None;
        }
        self.head.store(0, Ordering::Relaxed);
    }
}

/// An open span sitting on a thread's stack: everything needed to emit
/// the [`TraceSpan`] when its timer drops.
#[derive(Debug)]
pub(crate) struct OpenSpan {
    pub(crate) id: u64,
    pub(crate) parent: u64,
    pub(crate) name: String,
    pub(crate) path: String,
    pub(crate) attrs: Vec<(String, String)>,
}

static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static STACK: RefCell<Vec<OpenSpan>> = const { RefCell::new(Vec::new()) };
    static TID: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    /// The context this thread [adopted](crate::adopt): the parent of the
    /// spans it opens while no span of its own is open.
    static ADOPTED: RefCell<Option<SpanContext>> = const { RefCell::new(None) };
}

/// The guard of an [adopted](crate::adopt) span context: while it lives,
/// the spans its thread opens outside its own open spans nest under the
/// context; on drop the thread's previous context is restored.
#[must_use = "the context is adopted only while the guard lives"]
pub struct Adopted {
    /// The context to restore on drop; `None` for an inert guard.
    prev: Option<Option<SpanContext>>,
}

impl Adopted {
    #[cfg(not(feature = "off"))]
    pub(crate) fn new(ctx: &SpanContext) -> Adopted {
        let prev = ADOPTED.with(|a| a.replace(Some(ctx.clone())));
        Adopted { prev: Some(prev) }
    }

    /// A guard that adopted nothing (the `off` build).
    #[cfg(feature = "off")]
    pub(crate) fn inert() -> Adopted {
        Adopted { prev: None }
    }
}

impl Drop for Adopted {
    fn drop(&mut self) {
        if let Some(prev) = self.prev.take() {
            ADOPTED.with(|a| *a.borrow_mut() = prev);
        }
    }
}

/// Allocates a fresh process-unique span id.
pub(crate) fn next_span_id() -> u64 {
    NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed)
}

/// The calling thread's small trace id (assigned lazily, from 1).
pub(crate) fn current_tid() -> u64 {
    TID.with(|t| {
        if t.get() == 0 {
            t.set(NEXT_TID.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

/// Pushes an open span onto the calling thread's stack.
pub(crate) fn push_open(span: OpenSpan) {
    STACK.with(|s| s.borrow_mut().push(span));
}

/// Removes the open span with `id` from the calling thread's stack
/// (normally the top). Returns `None` if the timer was dropped on a
/// different thread than it was opened on — the histogram still records,
/// but no trace span is emitted.
pub(crate) fn close_open(id: u64) -> Option<OpenSpan> {
    STACK.with(|s| {
        let mut stack = s.borrow_mut();
        let pos = stack.iter().rposition(|o| o.id == id)?;
        Some(stack.remove(pos))
    })
}

/// The context of the innermost open span on this thread, else the
/// context the thread adopted, if any.
pub(crate) fn top_ctx() -> Option<SpanContext> {
    let top = STACK.with(|s| {
        s.borrow().last().map(|o| SpanContext {
            parent: o.id,
            path: o.path.clone(),
        })
    });
    top.or_else(|| ADOPTED.with(|a| a.borrow().clone()))
}

/// Attaches an attribute to the innermost open span on this thread.
/// Returns `false` when no span is open (the attribute is discarded).
pub(crate) fn set_attr(key: &str, value: String) -> bool {
    STACK.with(|s| {
        let mut stack = s.borrow_mut();
        match stack.last_mut() {
            Some(o) => {
                o.attrs.push((key.to_string(), value));
                true
            }
            None => false,
        }
    })
}

/// Renders completed spans as a chrome `trace_event` JSON document
/// (load it in `chrome://tracing` or [Perfetto](https://ui.perfetto.dev)).
/// Each span becomes one complete (`"ph":"X"`) event; `ts`/`dur` are in
/// microseconds as the format requires, and the span/parent ids travel in
/// `args` so the parent/child tree survives the export.
pub fn chrome_trace_json(spans: &[TraceSpan]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"specdr\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\"args\":{{\"id\":{},\"parent\":{}",
            json_escape(&s.name),
            s.start_ns as f64 / 1e3,
            s.dur_ns as f64 / 1e3,
            s.tid,
            s.id,
            s.parent,
        ));
        for (k, v) in &s.attrs {
            out.push_str(&format!(",\"{}\":\"{}\"", json_escape(k), json_escape(v)));
        }
        out.push_str("}}");
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    #[test]
    fn parent_inferred_from_thread_stack() {
        let r = Registry::new();
        r.set_enabled(true);
        {
            let _outer = r.span("outer");
            {
                let _inner = r.span("inner");
            }
            let _sibling = r.span("sibling");
        }
        let spans = r.traces().snapshot();
        assert_eq!(spans.len(), 3);
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        let sibling = spans.iter().find(|s| s.name == "sibling").unwrap();
        assert!(outer.is_root());
        assert_eq!(inner.parent, outer.id);
        assert_eq!(sibling.parent, outer.id);
        assert_eq!(inner.path, "outer/inner");
        assert_eq!(r.open_spans(), 0, "every span closed");
    }

    #[test]
    fn cross_thread_handoff_preserves_causality() {
        let r = Registry::new();
        r.set_enabled(true);
        let parent_id;
        {
            let _op = r.span("op");
            let ctx = r.current_ctx();
            parent_id = ctx.span_id();
            assert_ne!(parent_id, 0);
            std::thread::scope(|s| {
                for _ in 0..3 {
                    let ctx = ctx.clone();
                    let r = &r;
                    s.spawn(move || {
                        let _adopted = crate::adopt(&ctx);
                        let _w = r.span("op.chunk");
                        let _leaf = r.span("op.chunk.leaf");
                    });
                }
            });
        }
        let spans = r.traces().snapshot();
        let chunks: Vec<_> = spans.iter().filter(|s| s.name == "op.chunk").collect();
        assert_eq!(chunks.len(), 3);
        for c in &chunks {
            assert_eq!(c.parent, parent_id);
            assert_eq!(c.path, "op/op.chunk");
            assert_ne!(c.tid, spans.iter().find(|s| s.name == "op").unwrap().tid);
            let leaf = spans.iter().find(|s| s.parent == c.id).unwrap();
            assert_eq!(leaf.path, "op/op.chunk/op.chunk.leaf");
        }
        assert_eq!(r.open_spans(), 0);
        // The guard restores the thread's previous context on drop.
        let ctx = r.current_ctx();
        assert_eq!(ctx.span_id(), 0);
        {
            let _a = crate::adopt(&SpanContext {
                parent: parent_id,
                path: "op".into(),
            });
            assert_eq!(r.current_ctx().span_id(), parent_id);
        }
        assert_eq!(r.current_ctx().span_id(), 0);
    }

    #[test]
    fn attributes_attach_to_innermost_open_span() {
        let r = Registry::new();
        r.set_enabled(true);
        {
            let _a = r.span("a");
            r.attr("rows_in", 10u64);
            {
                let _b = r.span("b");
                r.attr("rows_out", 7u64);
            }
            r.attr("late", "x");
        }
        let spans = r.traces().snapshot();
        let a = spans.iter().find(|s| s.name == "a").unwrap();
        let b = spans.iter().find(|s| s.name == "b").unwrap();
        assert_eq!(
            a.attrs,
            vec![
                ("rows_in".to_string(), "10".to_string()),
                ("late".to_string(), "x".to_string())
            ]
        );
        assert_eq!(b.attrs, vec![("rows_out".to_string(), "7".to_string())]);
    }

    #[test]
    fn ring_keeps_newest_and_counts_evictions() {
        let ring = TraceRing::new(2);
        let mk = |id: u64| TraceSpan {
            id,
            parent: 0,
            name: "s".into(),
            path: "s".into(),
            tid: 1,
            start_ns: id,
            dur_ns: 1,
            attrs: vec![],
        };
        assert!(!ring.push(mk(1)));
        assert!(!ring.push(mk(2)));
        assert!(ring.push(mk(3)));
        let got = ring.snapshot();
        assert_eq!(got.iter().map(|s| s.id).collect::<Vec<_>>(), vec![2, 3]);
        assert_eq!(ring.pushed(), 3);
    }

    #[test]
    fn chrome_export_is_well_formed() {
        let r = Registry::new();
        r.set_enabled(true);
        {
            let _outer = r.span("outer");
            r.attr("subcube", "K1");
            let _inner = r.span("inner");
        }
        let spans = r.traces().snapshot();
        let json = chrome_trace_json(&spans);
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"subcube\":\"K1\""));
        // Both spans exported, parent id of the inner one points at outer.
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        assert!(json.contains(&format!("\"parent\":{}", outer.id)));
    }

    #[test]
    fn slow_ops_land_in_the_event_ring_with_their_path() {
        let r = Registry::new();
        r.set_enabled(true);
        r.set_slow_op_threshold_ns(0); // everything is "slow"
        {
            let _outer = r.span("outer");
            let _inner = r.span("inner");
        }
        let evs = r.events().snapshot();
        assert_eq!(evs.len(), 2);
        assert!(evs.iter().all(|e| e.name == "obs.slow_op"));
        assert!(
            evs.iter().any(|e| e.detail.contains("outer/inner")),
            "{evs:?}"
        );
    }

    #[test]
    fn disabled_registry_traces_nothing() {
        let r = Registry::new();
        {
            let _t = r.span("op");
            r.attr("k", "v");
        }
        assert_eq!(r.traces().pushed(), 0);
        assert_eq!(r.open_spans(), 0);
    }
}
