//! # sdr-obs — zero-dependency metrics and tracing
//!
//! The observability layer for the specification-based-data-reduction
//! workspace: atomic [`Counter`]s and [`Gauge`]s, fixed-bucket log₂
//! [`Histogram`]s with p50/p90/p99 summaries, RAII [`SpanTimer`] guards
//! that double as hierarchical [`TraceSpan`]s (thread-local parent
//! inference, explicit cross-thread handoff via [`SpanContext`],
//! attributes, a bounded [`TraceRing`], a chrome-`trace_event` exporter,
//! and a slow-op log), a bounded multi-producer [`EventRing`], and a
//! named-metric [`Registry`] whose [`Snapshot`] serializes to JSON-lines
//! or an aligned table.
//!
//! ## Design rules
//!
//! * **Zero dependencies.** Everything is `std` atomics and locks;
//!   `cargo tree -p sdr-obs` is one line.
//! * **Disabled by default, cheap when disabled.** The global registry
//!   starts off; every free function below early-returns after one
//!   relaxed atomic-bool load, and instrumented crates accumulate into
//!   plain locals first, publishing once per operation. `specdr` runs
//!   without `--metrics` are indistinguishable from un-instrumented
//!   builds.
//! * **Names are `crate.subsystem.name`** (e.g.
//!   `reduce.facts_collapsed`, `subcube.chunks.rewritten`,
//!   `query.select.cells_visited`). Span histograms record nanoseconds.
//! * **Metrics never drift from authoritative numbers.** Instrumented
//!   code publishes the same locals it returns to callers (e.g.
//!   `AgeStats`); the integration suite asserts equality.
//!
//! ## Usage
//!
//! ```
//! sdr_obs::set_enabled(true);
//! {
//!     let _t = sdr_obs::span("demo.work");      // records on drop
//!     sdr_obs::add("demo.items", 3);
//! }
//! let snap = sdr_obs::snapshot();
//! assert_eq!(snap.counter("demo.items"), Some(3));
//! assert_eq!(snap.span("demo.work").unwrap().count, 1);
//! println!("{}", snap.to_jsonl());
//! # sdr_obs::set_enabled(false);
//! # sdr_obs::reset();
//! ```

#![warn(missing_docs)]

pub mod metrics;
pub mod registry;
pub mod report;
pub mod ring;
pub mod trace;

pub use metrics::{bucket_bounds, bucket_index, Counter, Gauge, Histogram, HistogramSummary};
pub use registry::{global, Registry, SpanTimer};
pub use report::Snapshot;
pub use ring::{Event, EventRing};
pub use trace::{chrome_trace_json, Adopted, SpanContext, TraceRing, TraceSpan};

// With the `off` feature every free function below compiles to a no-op
// (the baseline build `scripts/ci.sh` uses to prove the disabled-registry
// path is branch-only). The types stay available so dependents compile
// unchanged.

/// True when the global registry is recording.
pub fn enabled() -> bool {
    #[cfg(feature = "off")]
    {
        false
    }
    #[cfg(not(feature = "off"))]
    {
        global().enabled()
    }
}

/// Turns the global registry on or off.
pub fn set_enabled(on: bool) {
    #[cfg(feature = "off")]
    let _ = on;
    #[cfg(not(feature = "off"))]
    global().set_enabled(on);
}

/// Adds `n` to the named global counter (no-op while disabled).
pub fn add(name: &str, n: u64) {
    #[cfg(feature = "off")]
    let _ = (name, n);
    #[cfg(not(feature = "off"))]
    {
        let g = global();
        if g.enabled() {
            g.counter(name).add(n);
        }
    }
}

/// Increments the named global counter by one (no-op while disabled).
pub fn inc(name: &str) {
    add(name, 1);
}

/// Sets the named global gauge (no-op while disabled).
pub fn gauge_set(name: &str, v: i64) {
    #[cfg(feature = "off")]
    let _ = (name, v);
    #[cfg(not(feature = "off"))]
    {
        let g = global();
        if g.enabled() {
            g.gauge(name).set(v);
        }
    }
}

/// Records a sample into the named global histogram (no-op while
/// disabled).
pub fn record(name: &str, v: u64) {
    #[cfg(feature = "off")]
    let _ = (name, v);
    #[cfg(not(feature = "off"))]
    {
        let g = global();
        if g.enabled() {
            g.histogram(name).record(v);
        }
    }
}

/// Starts a global span timer (inert guard while disabled). The span
/// parents under the innermost span already open on this thread, else
/// under the context the thread [adopted](crate::adopt).
pub fn span(name: &str) -> SpanTimer<'static> {
    #[cfg(feature = "off")]
    {
        let _ = name;
        SpanTimer::disabled()
    }
    #[cfg(not(feature = "off"))]
    {
        global().span(name)
    }
}

/// Captures the current span context for a worker thread to
/// [adopt] (root context while disabled).
pub fn ctx() -> SpanContext {
    #[cfg(feature = "off")]
    {
        SpanContext::root()
    }
    #[cfg(not(feature = "off"))]
    {
        global().current_ctx()
    }
}

/// Adopts `ctx` on this thread until the guard drops: every span the
/// thread opens outside its own open spans nests under `ctx` — the
/// cross-thread handoff for a fan-out worker's whole work, whatever spans
/// it opens (see [`ctx`]).
pub fn adopt(ctx: &SpanContext) -> Adopted {
    #[cfg(feature = "off")]
    {
        let _ = ctx;
        Adopted::inert()
    }
    #[cfg(not(feature = "off"))]
    {
        Adopted::new(ctx)
    }
}

/// Attaches a `key=value` attribute to the innermost span open on this
/// thread (no-op while disabled).
pub fn attr(key: &str, value: impl std::fmt::Display) {
    #[cfg(feature = "off")]
    let _ = (key, value);
    #[cfg(not(feature = "off"))]
    global().attr(key, value);
}

/// Number of globally open span timers (0 after every operation
/// completes — the span-leak check).
pub fn open_spans() -> i64 {
    #[cfg(feature = "off")]
    {
        0
    }
    #[cfg(not(feature = "off"))]
    {
        global().open_spans()
    }
}

/// Sets the global slow-op threshold: spans at least this long are
/// logged into the event ring with their full path.
pub fn set_slow_op_threshold_ns(ns: u64) {
    #[cfg(feature = "off")]
    let _ = ns;
    #[cfg(not(feature = "off"))]
    global().set_slow_op_threshold_ns(ns);
}

/// Records a global event (no-op while disabled).
pub fn event(name: &str, detail: impl Into<String>) {
    #[cfg(feature = "off")]
    let _ = (name, detail.into());
    #[cfg(not(feature = "off"))]
    global().event(name, detail);
}

/// Snapshots the global registry.
pub fn snapshot() -> Snapshot {
    #[cfg(feature = "off")]
    {
        Snapshot::default()
    }
    #[cfg(not(feature = "off"))]
    {
        global().snapshot()
    }
}

/// Zeroes the global registry's metrics and events.
pub fn reset() {
    #[cfg(not(feature = "off"))]
    global().reset();
}
