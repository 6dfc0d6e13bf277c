//! `sdr-sync` — a vendored-style shim over the sync primitives the hot
//! warehouse protocols use, with two backends:
//!
//! * **real** (default): zero-cost pass-through to `std::sync` with the
//!   non-poisoning parking_lot-style API the workspace already uses.
//!   This is what every production build compiles.
//! * **model** (feature `model`): a deterministic cooperative scheduler
//!   plus DFS explorer (`model::check`) that exhaustively enumerates
//!   thread interleavings up to a preemption bound, with sleep-set
//!   (DPOR-lite) pruning and a replayable schedule trace printed on any
//!   failure. Used by `sdr-check` / `specdr check`; never compiled into
//!   release `specdr serve` (the `specdr` crate carries a compile-time
//!   assertion).
//!
//! The shim covers exactly what the epoch-publish, group-commit,
//! cross-shard, and connection-admission protocols need: [`Mutex`],
//! [`RwLock`], [`Condvar`], atomics with explicit `Ordering`
//! ([`atomic`]), the `Arc`-swap publish primitive ([`Swap`]), the
//! write-once [`OnceCell`], scoped threads ([`thread`]), the admission
//! [`Gate`], and failpoints ([`fail`]) for fault injection and mutation
//! testing under the model.

#![forbid(unsafe_op_in_unsafe_fn)]
#![deny(missing_docs)]

pub mod atomic;
mod gate;
mod lock;
#[cfg(feature = "model")]
pub mod model;
mod once;
mod swap;
pub mod thread;

pub use gate::{Gate, GatePermit};
pub use lock::{Condvar, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};
pub use once::OnceCell;
pub use swap::Swap;

/// True when this build of `sdr-sync` contains the model backend.
/// Production builds assert this is `false` (see the `specdr` crate's
/// feature-hygiene test).
pub const MODEL_COMPILED: bool = cfg!(feature = "model");

/// Failpoints: named, execution-scoped fault-injection hooks.
///
/// `point(name)` is `false` (and fully inlined away) without the `model`
/// feature; under the model it consumes one token of an armed failpoint
/// as a schedule point. Used both to inject protocol faults (e.g. a WAL
/// append failure on one shard) and to enable deliberate mutations the
/// checker must catch.
pub mod fail {
    /// Returns true when the named failpoint is armed in the current
    /// model execution and a token remains; always false otherwise.
    #[cfg(feature = "model")]
    #[track_caller]
    pub fn point(name: &str) -> bool {
        crate::model::failpoint(name)
    }

    /// Returns true when the named failpoint is armed in the current
    /// model execution and a token remains; always false otherwise.
    #[cfg(not(feature = "model"))]
    #[inline(always)]
    pub fn point(name: &str) -> bool {
        let _ = name;
        false
    }

    /// Arms failpoint `name` with `count` one-shot tokens for the
    /// current model execution. Panics outside one.
    #[cfg(feature = "model")]
    pub fn arm(name: &'static str, count: usize) {
        crate::model::arm_failpoint(name, count);
    }
}
