//! [`OnceCell`]: a write-once cell for values derived lazily from
//! immutable state — the warehouse builds a cube's contiguous fact view
//! and its folded statistics through it, at most once per cube version.
//!
//! Every initializer of one cell computes the same value (it is a pure
//! function of the immutable state around the cell), so the only thing
//! an interleaving decides is *who* computes it. Initialization runs
//! under a shim [`Mutex`]: in a model execution every `get_or_init` is
//! a lock/unlock pair the scheduler sees and can preempt around, while
//! the real backend takes the lock only when the cell is still empty.

use std::fmt;
use std::sync::OnceLock;

use crate::lock::Mutex;

/// A cell that is written at most once and read by reference afterwards
/// (see module docs).
pub struct OnceCell<T> {
    init: Mutex<()>,
    value: OnceLock<T>,
}

impl<T> OnceCell<T> {
    /// Creates an empty cell.
    pub const fn new() -> OnceCell<T> {
        OnceCell {
            init: Mutex::new(()),
            value: OnceLock::new(),
        }
    }

    /// Creates a cell that already holds `value`.
    pub fn with_value(value: T) -> OnceCell<T> {
        OnceCell {
            init: Mutex::new(()),
            value: OnceLock::from(value),
        }
    }

    /// The value, if the cell was initialized.
    pub fn get(&self) -> Option<&T> {
        self.value.get()
    }

    /// The value, computing it with `f` if the cell is empty. `f` runs
    /// at most once per cell, under the cell's lock; it must not touch
    /// the cell again.
    #[track_caller]
    pub fn get_or_init(&self, f: impl FnOnce() -> T) -> &T {
        #[cfg(not(feature = "model"))]
        if let Some(v) = self.value.get() {
            return v;
        }
        let _g = self.init.lock();
        self.value.get_or_init(f)
    }
}

impl<T> Default for OnceCell<T> {
    fn default() -> OnceCell<T> {
        OnceCell::new()
    }
}

impl<T: fmt::Debug> fmt::Debug for OnceCell<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("OnceCell").field(&self.value.get()).finish()
    }
}
