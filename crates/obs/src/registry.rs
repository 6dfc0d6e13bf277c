//! The metric [`Registry`]: named registration, the global instance, RAII
//! span timers, and point-in-time snapshots.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};
use std::time::Instant;

use crate::metrics::{Counter, Gauge, Histogram};
use crate::report::Snapshot;
use crate::ring::EventRing;
use crate::trace::{self, OpenSpan, SpanContext, TraceRing, TraceSpan};

/// Default event-ring capacity.
pub const DEFAULT_EVENT_CAPACITY: usize = 256;

/// Default trace-ring capacity (completed spans retained).
pub const DEFAULT_TRACE_CAPACITY: usize = 2048;

type Map<T> = RwLock<BTreeMap<String, Arc<T>>>;

/// A collection of named metrics with a shared enable switch.
///
/// Metric names follow the `crate.subsystem.name` scheme (see
/// `DESIGN.md`). Handles returned by [`counter`](Registry::counter) /
/// [`gauge`](Registry::gauge) / [`histogram`](Registry::histogram) are
/// `Arc`s: look them up once outside hot loops and update them freely —
/// updates are single relaxed atomics.
///
/// The registry starts **disabled**: updates through the convenience
/// free functions in the crate root are skipped entirely, so
/// un-instrumented runs pay only an atomic-bool load per operation.
#[derive(Debug)]
pub struct Registry {
    enabled: AtomicBool,
    start: Instant,
    counters: Map<Counter>,
    gauges: Map<Gauge>,
    histograms: Map<Histogram>,
    spans: Map<Histogram>,
    events: EventRing,
    traces: TraceRing,
    open_spans: AtomicI64,
    slow_ns: AtomicU64,
}

impl Default for Registry {
    fn default() -> Registry {
        Registry::with_capacities(DEFAULT_EVENT_CAPACITY, DEFAULT_TRACE_CAPACITY)
    }
}

fn get_or_insert<T: Default>(map: &Map<T>, name: &str) -> Arc<T> {
    if let Some(m) = map.read().unwrap_or_else(|e| e.into_inner()).get(name) {
        return Arc::clone(m);
    }
    let mut w = map.write().unwrap_or_else(|e| e.into_inner());
    Arc::clone(w.entry(name.to_string()).or_default())
}

impl Registry {
    /// A disabled registry with the default event capacity.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// A disabled registry with a custom event-ring capacity and the
    /// default trace capacity.
    pub fn with_event_capacity(capacity: usize) -> Registry {
        Registry::with_capacities(capacity, DEFAULT_TRACE_CAPACITY)
    }

    /// A disabled registry with custom event- and trace-ring capacities.
    pub fn with_capacities(event_capacity: usize, trace_capacity: usize) -> Registry {
        Registry {
            enabled: AtomicBool::new(false),
            start: Instant::now(),
            counters: RwLock::new(BTreeMap::new()),
            gauges: RwLock::new(BTreeMap::new()),
            histograms: RwLock::new(BTreeMap::new()),
            spans: RwLock::new(BTreeMap::new()),
            events: EventRing::new(event_capacity),
            traces: TraceRing::new(trace_capacity),
            open_spans: AtomicI64::new(0),
            slow_ns: AtomicU64::new(u64::MAX),
        }
    }

    /// True when instrumentation should record.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turns recording on or off.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Nanoseconds since the registry was created.
    pub fn now_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    /// The named counter, registering it on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        get_or_insert(&self.counters, name)
    }

    /// The named gauge, registering it on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        get_or_insert(&self.gauges, name)
    }

    /// The named histogram, registering it on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        get_or_insert(&self.histograms, name)
    }

    /// Starts a span timer: the elapsed wall time (ns) is recorded into
    /// the span histogram `name` when the guard drops, and a completed
    /// [`TraceSpan`] — parented under the innermost span already open on
    /// this thread, else under the context the thread
    /// [adopted](crate::adopt) — lands in the trace ring. A no-op guard is
    /// returned while the registry is disabled.
    pub fn span(&self, name: &str) -> SpanTimer<'_> {
        if !self.enabled() {
            return SpanTimer::disabled();
        }
        let ctx = trace::top_ctx().unwrap_or_default();
        let id = trace::next_span_id();
        let path = if ctx.path.is_empty() {
            name.to_string()
        } else {
            format!("{}/{name}", ctx.path)
        };
        trace::push_open(OpenSpan {
            id,
            parent: ctx.parent,
            name: name.to_string(),
            path,
            attrs: Vec::new(),
        });
        self.open_spans.fetch_add(1, Ordering::Relaxed);
        SpanTimer {
            target: Some((get_or_insert(&self.spans, name), Instant::now())),
            trace: Some((self, id, self.now_ns())),
        }
    }

    /// Captures the innermost open span on this thread as a context a
    /// worker thread can [adopt](crate::adopt). Returns a root context while
    /// the registry is disabled or no span is open.
    pub fn current_ctx(&self) -> SpanContext {
        if !self.enabled() {
            return SpanContext::root();
        }
        trace::top_ctx().unwrap_or_default()
    }

    /// Attaches a `key=value` attribute to the innermost span open on
    /// this thread (no-op while disabled or with no open span).
    pub fn attr(&self, key: &str, value: impl std::fmt::Display) {
        if self.enabled() {
            let _ = trace::set_attr(key, value.to_string());
        }
    }

    /// Number of span timers currently open (started but not yet
    /// dropped). Zero after every instrumented operation completes — the
    /// leak check the observability suite asserts.
    pub fn open_spans(&self) -> i64 {
        self.open_spans.load(Ordering::Relaxed)
    }

    /// Sets the slow-op threshold: any span whose duration reaches `ns`
    /// is logged into the event ring as an `obs.slow_op` event carrying
    /// its full span path. Defaults to `u64::MAX` (off).
    pub fn set_slow_op_threshold_ns(&self, ns: u64) {
        self.slow_ns.store(ns, Ordering::Relaxed);
    }

    /// The current slow-op threshold in nanoseconds.
    pub fn slow_op_threshold_ns(&self) -> u64 {
        self.slow_ns.load(Ordering::Relaxed)
    }

    /// The completed-span trace ring.
    pub fn traces(&self) -> &TraceRing {
        &self.traces
    }

    /// Called from a span timer's drop: assembles and records the
    /// completed trace span.
    fn finish_span(&self, id: u64, start_ns: u64, dur_ns: u64) {
        self.open_spans.fetch_sub(1, Ordering::Relaxed);
        // A timer dropped on a foreign thread cannot find its stack
        // entry; the histogram keeps the timing, the trace drops it.
        let Some(open) = trace::close_open(id) else {
            return;
        };
        if dur_ns >= self.slow_ns.load(Ordering::Relaxed) {
            self.events.push(
                "obs.slow_op",
                format!("path={} dur_ns={dur_ns}", open.path),
                self.now_ns(),
            );
        }
        let evicted = self.traces.push(TraceSpan {
            id,
            parent: open.parent,
            name: open.name,
            path: open.path,
            tid: trace::current_tid(),
            start_ns,
            dur_ns,
            attrs: open.attrs,
        });
        self.counter("obs.trace.spans_closed").inc();
        if evicted {
            self.counter("obs.trace.spans_evicted").inc();
        }
    }

    /// Records an event into the ring (skipped while disabled).
    pub fn event(&self, name: &str, detail: impl Into<String>) {
        if self.enabled() {
            self.events.push(name, detail, self.now_ns());
        }
    }

    /// The event ring.
    pub fn events(&self) -> &EventRing {
        &self.events
    }

    /// A point-in-time snapshot of every registered metric.
    pub fn snapshot(&self) -> Snapshot {
        let read = |m: &Map<Counter>| {
            m.read()
                .unwrap_or_else(|e| e.into_inner())
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect()
        };
        Snapshot {
            counters: read(&self.counters),
            gauges: self
                .gauges
                .read()
                .unwrap_or_else(|e| e.into_inner())
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: self
                .histograms
                .read()
                .unwrap_or_else(|e| e.into_inner())
                .iter()
                .map(|(k, v)| (k.clone(), v.summarize()))
                .collect(),
            spans: self
                .spans
                .read()
                .unwrap_or_else(|e| e.into_inner())
                .iter()
                .map(|(k, v)| (k.clone(), v.summarize()))
                .collect(),
            events: self.events.snapshot(),
            traces: self.traces.snapshot(),
        }
    }

    /// Zeroes every metric and clears the event ring, keeping
    /// registrations and handles valid (tests and the CLI use this to
    /// scope measurements to one operation).
    pub fn reset(&self) {
        for c in self
            .counters
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .values()
        {
            c.reset();
        }
        for g in self
            .gauges
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .values()
        {
            g.reset();
        }
        for h in self
            .histograms
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .values()
        {
            h.reset();
        }
        for s in self
            .spans
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .values()
        {
            s.reset();
        }
        self.events.reset();
        self.traces.reset();
    }
}

/// RAII guard recording its lifetime into a span histogram — and, since
/// the introspection layer, a [`TraceSpan`] into the trace ring — on
/// drop. Obtained from [`Registry::span`]; a
/// disabled registry hands out inert guards that never touch the clock.
///
/// Timers must drop on the thread that created them (the RAII style
/// guarantees this everywhere in the workspace); a timer smuggled across
/// threads still records its histogram but loses its trace span.
#[derive(Debug)]
#[must_use = "a span timer records on drop; binding it to _ discards the measurement immediately"]
pub struct SpanTimer<'a> {
    target: Option<(Arc<Histogram>, Instant)>,
    trace: Option<(&'a Registry, u64, u64)>,
}

impl SpanTimer<'_> {
    /// An inert timer (records nothing).
    pub fn disabled() -> SpanTimer<'static> {
        SpanTimer {
            target: None,
            trace: None,
        }
    }

    /// True when this timer will record on drop.
    pub fn is_recording(&self) -> bool {
        self.target.is_some()
    }
}

impl Drop for SpanTimer<'_> {
    fn drop(&mut self) {
        if let Some((hist, start)) = self.target.take() {
            let dur_ns = start.elapsed().as_nanos() as u64;
            hist.record(dur_ns);
            if let Some((reg, id, start_ns)) = self.trace.take() {
                reg.finish_span(id, start_ns, dur_ns);
            }
        }
    }
}

/// The process-wide registry used by the `obs::...` free functions.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::default)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_is_idempotent() {
        let r = Registry::new();
        let a = r.counter("x.y.z");
        let b = r.counter("x.y.z");
        a.inc();
        b.add(2);
        assert_eq!(r.counter("x.y.z").get(), 3);
        assert_eq!(r.snapshot().counters, vec![("x.y.z".to_string(), 3)]);
    }

    #[test]
    fn span_records_only_when_enabled() {
        let r = Registry::new();
        {
            let _t = r.span("op");
        }
        assert!(
            r.snapshot().spans.is_empty(),
            "disabled span must not register"
        );
        r.set_enabled(true);
        {
            let t = r.span("op");
            assert!(t.is_recording());
        }
        let snap = r.snapshot();
        assert_eq!(snap.spans.len(), 1);
        assert_eq!(snap.spans[0].1.count, 1);
    }

    #[test]
    fn events_respect_enable_switch() {
        let r = Registry::new();
        r.event("skipped", "");
        r.set_enabled(true);
        r.event("kept", "detail");
        let evs = r.snapshot().events;
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].name, "kept");
    }

    #[test]
    fn concurrent_hammering_is_race_free() {
        // The satellite-task test: many threads against one registry;
        // counters, histograms, and the ring must lose nothing (ring
        // keeps the newest `capacity`).
        let r = Registry::new();
        r.set_enabled(true);
        const THREADS: u64 = 8;
        const PER: u64 = 2_000;
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let r = &r;
                s.spawn(move || {
                    let c = r.counter("hammer.count");
                    let h = r.histogram("hammer.lat");
                    for i in 0..PER {
                        c.inc();
                        h.record(i % 1000);
                        if i % 100 == 0 {
                            r.event("hammer.tick", format!("{t}:{i}"));
                        }
                    }
                });
            }
        });
        let snap = r.snapshot();
        assert_eq!(snap.counters, vec![("hammer.count".into(), THREADS * PER)]);
        let h = &snap.histograms[0].1;
        assert_eq!(h.count, THREADS * PER);
        assert_eq!(r.events().pushed(), THREADS * (PER / 100));
        assert_eq!(snap.events.len(), DEFAULT_EVENT_CAPACITY.min(160));
    }

    #[test]
    fn reset_keeps_handles_live() {
        let r = Registry::new();
        let c = r.counter("a");
        c.add(5);
        r.reset();
        assert_eq!(c.get(), 0);
        c.inc();
        assert_eq!(r.counter("a").get(), 1);
    }
}
