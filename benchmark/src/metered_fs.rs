//! `MeteredFs`: a counting and timing [`Fs`] over [`RealFs`].
//!
//! The traced runs hand this to `ShardRouter::create_with_fs` /
//! `recover_with_fs`, so every filesystem call the storage layer makes is
//! counted (calls, bytes) and timed per method, and shows up as a
//! `storage.fs.*` span under the warehouse operation that caused it. The
//! wrapped calls are `RealFs`'s own — the flush policy (every append,
//! write and rename synced) is exactly the shipped one.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use sdr_storage::{Fs, RealFs};

use crate::trace::Recorder;

/// Calls, bytes and busy time of one [`Fs`] method.
#[derive(Debug, Default)]
pub struct MethodMeter {
    calls: AtomicU64,
    bytes: AtomicU64,
    busy_ns: AtomicU64,
}

impl MethodMeter {
    // Relaxed throughout: these are statistics read after the threads
    // that bump them have been joined.
    fn note(&self, bytes: u64, t0: Instant) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(bytes, Ordering::Relaxed);
        self.busy_ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }

    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    pub fn busy_ns(&self) -> u64 {
        self.busy_ns.load(Ordering::Relaxed)
    }
}

/// A point-in-time copy of the counters, for taking differences across a
/// measured window.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FsCounts {
    pub reads: u64,
    pub writes: u64,
    pub appends: u64,
    pub renames: u64,
    pub bytes_read: u64,
    /// Bytes of `write` and `append` together.
    pub bytes_written: u64,
    /// Bytes of `append` alone (the WAL).
    pub bytes_appended: u64,
    pub busy_ns: u64,
}

impl FsCounts {
    /// `self - earlier`, field by field.
    pub fn since(&self, earlier: &FsCounts) -> FsCounts {
        FsCounts {
            reads: self.reads - earlier.reads,
            writes: self.writes - earlier.writes,
            appends: self.appends - earlier.appends,
            renames: self.renames - earlier.renames,
            bytes_read: self.bytes_read - earlier.bytes_read,
            bytes_written: self.bytes_written - earlier.bytes_written,
            bytes_appended: self.bytes_appended - earlier.bytes_appended,
            busy_ns: self.busy_ns - earlier.busy_ns,
        }
    }
}

/// The metered filesystem. Busy time is summed per call, so with several
/// shard threads inside the filesystem at once it can exceed wall time.
pub struct MeteredFs {
    inner: RealFs,
    rec: Arc<Recorder>,
    pub read: MethodMeter,
    pub write: MethodMeter,
    pub append: MethodMeter,
    pub rename: MethodMeter,
    /// Everything else: directory creation/listing/sync, removals, `exists`.
    pub other: MethodMeter,
}

impl MeteredFs {
    pub fn new(rec: Arc<Recorder>) -> Arc<MeteredFs> {
        Arc::new(MeteredFs {
            inner: RealFs,
            rec,
            read: MethodMeter::default(),
            write: MethodMeter::default(),
            append: MethodMeter::default(),
            rename: MethodMeter::default(),
            other: MethodMeter::default(),
        })
    }

    pub fn counts(&self) -> FsCounts {
        FsCounts {
            reads: self.read.calls(),
            writes: self.write.calls(),
            appends: self.append.calls(),
            renames: self.rename.calls(),
            bytes_read: self.read.bytes(),
            bytes_written: self.write.bytes() + self.append.bytes(),
            bytes_appended: self.append.bytes(),
            busy_ns: self.read.busy_ns()
                + self.write.busy_ns()
                + self.append.busy_ns()
                + self.rename.busy_ns()
                + self.other.busy_ns(),
        }
    }

    fn metered<T>(
        &self,
        meter: &MethodMeter,
        span: &'static str,
        bytes_of: impl FnOnce(&T) -> u64,
        call: impl FnOnce() -> io::Result<T>,
    ) -> io::Result<T> {
        let _span = self.rec.span(span, 0);
        let t0 = Instant::now();
        let out = call();
        meter.note(out.as_ref().map_or(0, bytes_of), t0);
        out
    }
}

impl Fs for MeteredFs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.metered(
            &self.read,
            "storage.fs.read",
            |b: &Vec<u8>| b.len() as u64,
            || self.inner.read(path),
        )
    }

    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        let n = data.len() as u64;
        self.metered(
            &self.write,
            "storage.fs.write",
            |_| n,
            || self.inner.write(path, data),
        )
    }

    fn append(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        let n = data.len() as u64;
        self.metered(
            &self.append,
            "storage.fs.append",
            |_| n,
            || self.inner.append(path, data),
        )
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.metered(
            &self.rename,
            "storage.fs.rename",
            |_| 0,
            || self.inner.rename(from, to),
        )
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.metered(
            &self.other,
            "storage.fs.other",
            |_| 0,
            || self.inner.create_dir_all(path),
        )
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.metered(
            &self.other,
            "storage.fs.other",
            |_| 0,
            || self.inner.remove_file(path),
        )
    }

    fn remove_dir_all(&self, path: &Path) -> io::Result<()> {
        self.metered(
            &self.other,
            "storage.fs.other",
            |_| 0,
            || self.inner.remove_dir_all(path),
        )
    }

    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        self.metered(
            &self.other,
            "storage.fs.other",
            |_| 0,
            || self.inner.sync_dir(path),
        )
    }

    fn exists(&self, path: &Path) -> bool {
        let t0 = Instant::now();
        let out = self.inner.exists(path);
        self.other.note(0, t0);
        out
    }

    fn read_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
        self.metered(
            &self.other,
            "storage.fs.other",
            |_| 0,
            || self.inner.read_dir(path),
        )
    }
}
