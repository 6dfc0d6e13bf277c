//! The benchmark's own span recorder.
//!
//! Spans are recorded *from outside the program*, around each call the
//! benchmark makes into a layer's public functions (and, through
//! [`crate::metered_fs::MeteredFs`], around every filesystem call the
//! program makes back out). They are kept in memory and written as a
//! chrome trace when the run ends. A span carries its name, start, end,
//! the span that caused it, and the id of the request (query, simulated
//! day, restart cycle) it belongs to.
//!
//! A layer is the part of a span name before the first `.`; a layer's
//! self time is its spans' durations minus the part of each interval that
//! child spans cover.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One completed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Unique per recorder, from 1.
    pub id: u64,
    /// Id of the causing span; 0 for a root.
    pub parent: u64,
    /// The request this span belongs to (shared by a whole span tree).
    pub request: u64,
    /// Small per-thread number, for the chrome-trace lanes.
    pub tid: u64,
}

thread_local! {
    /// Open spans on this thread, innermost last: `(id, request)`.
    static STACK: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

/// An in-memory span sink. Disabled by default: a disabled recorder
/// hands out inert guards and costs one relaxed load per call.
pub struct Recorder {
    enabled: AtomicBool,
    origin: Instant,
    next_id: AtomicU64,
    /// The open *operation* span `(id, request)`: the parent of spans
    /// opened on threads that have no open span of their own. The writer
    /// side runs one operation at a time, and the program fans its
    /// filesystem calls out to per-shard threads, so this is how those
    /// calls find the `bulk_load`/`age`/`checkpoint` that caused them.
    current_op: Mutex<(u64, u64)>,
    spans: Mutex<Vec<Span>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            enabled: AtomicBool::new(false),
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            current_op: Mutex::new((0, 0)),
            spans: Mutex::new(Vec::new()),
        }
    }
}

/// An open span; records itself when dropped.
pub struct Guard<'a> {
    rec: Option<&'a Recorder>,
    name: &'static str,
    start_ns: u64,
    id: u64,
    parent: u64,
    request: u64,
    is_op: bool,
}

impl Recorder {
    pub fn set_enabled(&self, on: bool) {
        // Relaxed: the flag publishes no other data.
        self.enabled.store(on, Ordering::Relaxed);
    }

    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open span of this thread, or,
    /// when the thread has none, under the open operation span. A root
    /// span (no parent at all) starts request `request`; a child inherits
    /// its parent's request id.
    pub fn span(&self, name: &'static str, request: u64) -> Guard<'_> {
        self.open(name, request, false)
    }

    /// [`Recorder::span`], additionally registered as the open operation
    /// for spans opened on other threads. At most one at a time.
    pub fn op_span(&self, name: &'static str, request: u64) -> Guard<'_> {
        self.open(name, request, true)
    }

    fn open(&self, name: &'static str, request: u64, is_op: bool) -> Guard<'_> {
        if !self.enabled() {
            return Guard {
                rec: None,
                name,
                start_ns: 0,
                id: 0,
                parent: 0,
                request: 0,
                is_op: false,
            };
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let local = STACK.with(|s| s.borrow().last().copied());
        let (parent, request) = match local {
            Some(p) => p,
            None => match *self.current_op.lock().expect("recorder lock") {
                (0, _) => (0, request),
                op => op,
            },
        };
        STACK.with(|s| s.borrow_mut().push((id, request)));
        if is_op {
            *self.current_op.lock().expect("recorder lock") = (id, request);
        }
        Guard {
            rec: Some(self),
            name,
            start_ns: self.now_ns(),
            id,
            parent,
            request,
            is_op,
        }
    }

    /// Every completed span, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("recorder lock").clone()
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        let Some(rec) = self.rec else { return };
        let end_ns = rec.now_ns();
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            if let Some(pos) = s.iter().rposition(|&(id, _)| id == self.id) {
                s.truncate(pos);
            }
        });
        // Never panic in Drop: a poisoned lock just loses the span.
        if self.is_op {
            if let Ok(mut op) = rec.current_op.lock() {
                if op.0 == self.id {
                    *op = (0, 0);
                }
            }
        }
        if let Ok(mut spans) = rec.spans.lock() {
            spans.push(Span {
                name: self.name,
                start_ns: self.start_ns,
                end_ns,
                id: self.id,
                parent: self.parent,
                request: self.request,
                tid: TID.with(|t| *t),
            });
        }
    }
}

/// The layer a span name belongs to: the text before the first `.`.
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Self time of every span, on the blocking path: a span's duration
/// minus the part of its interval its child spans cover. Children on
/// parallel threads overlap; an instant covered by several siblings is
/// given to the one that started first, so the self times of a span tree
/// add up to exactly the root's duration and layer shares add up to 1.
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
    let ids: std::collections::BTreeSet<u64> = spans.iter().map(|s| s.id).collect();
    let mut roots = Vec::new();
    for s in spans {
        if ids.contains(&s.parent) {
            children.entry(s.parent).or_default().push(s);
        } else {
            roots.push((s, s.start_ns, s.end_ns));
        }
    }
    // Top-down: each span owns the interval `[lo, hi)` left to it.
    let mut out = BTreeMap::new();
    let mut stack = roots;
    while let Some((span, lo, hi)) = stack.pop() {
        let mut covered = 0;
        if let Some(kids) = children.get_mut(&span.id) {
            kids.sort_unstable_by_key(|k| (k.start_ns, k.id));
            let mut cursor = lo;
            for kid in kids.iter() {
                let (a, b) = (kid.start_ns.max(cursor), kid.end_ns.min(hi));
                if b > a {
                    covered += b - a;
                    cursor = b;
                    stack.push((kid, a, b));
                } else {
                    stack.push((kid, a, a));
                }
            }
        }
        out.insert(span.id, hi.saturating_sub(lo) - covered);
    }
    out
}

/// One row of the per-name table.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NameRow {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Span count, total and self time by span name.
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, NameRow> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, NameRow> = BTreeMap::new();
    for s in spans {
        let row = out.entry(s.name).or_default();
        row.count += 1;
        row.total_ns += s.end_ns - s.start_ns;
        row.self_ns += selfs[&s.id];
    }
    out
}

/// Self time summed per layer.
pub fn by_layer(spans: &[Span]) -> BTreeMap<String, u64> {
    let mut out: BTreeMap<String, u64> = BTreeMap::new();
    for (name, row) in by_name(spans) {
        *out.entry(layer_of(name).to_string()).or_default() += row.self_ns;
    }
    out
}

/// The self-time table, for people.
pub fn render_table(spans: &[Span]) -> String {
    let mut out = format!(
        "{:<28} {:>9} {:>12} {:>12}\n",
        "span", "count", "total ms", "self ms"
    );
    for (name, row) in by_name(spans) {
        out.push_str(&format!(
            "{:<28} {:>9} {:>12.3} {:>12.3}\n",
            name,
            row.count,
            row.total_ns as f64 / 1e6,
            row.self_ns as f64 / 1e6
        ));
    }
    out
}

/// Chrome-trace (`chrome://tracing`, Perfetto) JSON: one complete event
/// per span, timestamps in microseconds.
pub fn chrome_trace(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"id\":{},\"parent\":{},\"request\":{}}}}}",
            s.name,
            layer_of(s.name),
            s.tid,
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3,
            s.id,
            s.parent,
            s.request
        ));
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(id: u64, parent: u64, start: u64, end: u64, name: &'static str) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            id,
            parent,
            request: 1,
            tid: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            sp(1, 0, 0, 100, "subcube.bulk_load"),
            // Two overlapping children (parallel shard threads) ...
            sp(2, 1, 10, 40, "storage.fs.append"),
            sp(3, 1, 30, 60, "storage.fs.append"),
            // ... one disjoint, and one sticking out past the parent.
            sp(4, 1, 70, 80, "storage.fs.append"),
            sp(5, 1, 90, 120, "storage.fs.append"),
            // A grandchild takes from its own parent only.
            sp(6, 2, 15, 20, "loadgen.inner"),
        ];
        let selfs = self_times(&spans);
        // Covered: [10,60) + [70,80) + [90,100) = 70.
        assert_eq!(selfs[&1], 30);
        assert_eq!(selfs[&2], 25, "30 long, 5 of it under its own child");
        assert_eq!(selfs[&3], 20, "[30,40) already went to its earlier sibling");
        assert_eq!(selfs[&5], 10, "clipped to the parent");
        let layers = by_layer(&spans);
        assert_eq!(layers["subcube"], 30);
        assert_eq!(layers["storage"], 25 + 20 + 10 + 10);
        assert_eq!(layers["loadgen"], 5);
        // Nothing is counted twice: the tree adds up to its root.
        assert_eq!(selfs.values().sum::<u64>(), 100);
    }

    #[test]
    fn spans_nest_per_thread_and_under_the_open_operation() {
        let rec = Recorder::default();
        assert!(rec.span("a.x", 1).rec.is_none(), "disabled: inert guard");
        rec.set_enabled(true);
        {
            let _day = rec.span("loadgen.day", 7);
            let _load = rec.op_span("subcube.bulk_load", 0);
            // A program-side worker thread has no open span of its own:
            // it parents under the open operation and inherits request 7.
            std::thread::scope(|s| {
                s.spawn(|| drop(rec.span("storage.fs.append", 0)));
            });
        }
        drop(rec.span("serve.request", 9));
        let spans = rec.spans();
        let find = |n: &str| spans.iter().find(|s| s.name == n).unwrap().clone();
        let (day, load, fs, req) = (
            find("loadgen.day"),
            find("subcube.bulk_load"),
            find("storage.fs.append"),
            find("serve.request"),
        );
        assert_eq!(day.parent, 0);
        assert_eq!(load.parent, day.id);
        assert_eq!(fs.parent, load.id);
        assert_eq!((day.request, load.request, fs.request), (7, 7, 7));
        assert_eq!((req.parent, req.request), (0, 9));
        assert_ne!(fs.tid, day.tid);
        let json = chrome_trace(&spans);
        assert!(json.contains("\"name\":\"storage.fs.append\",\"cat\":\"storage\""));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 4);
    }
}
