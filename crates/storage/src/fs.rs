//! Filesystem abstraction with deterministic fault injection.
//!
//! Every durability-relevant byte the warehouse writes goes through the
//! [`Fs`] trait: [`RealFs`] is the production implementation (explicit
//! `fsync` of files *and* their parent directories, so a completed call
//! survives power loss), and [`FailpointFs`] is a seeded, deterministic
//! shim that fails the Nth mutating operation — cleanly, with a torn
//! prefix, or by "killing the process" — driving the crash-recovery test
//! matrix without ever forking or sleeping.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// The filesystem operations the durability layer performs.
///
/// Mutating operations (`write`, `append`, `rename`) are *durable on
/// return*: implementations flush file contents and metadata before
/// reporting success, so a write-ahead-log append that returned `Ok` is
/// recoverable after any later crash.
pub trait Fs: Send + Sync {
    /// Reads a whole file.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// Creates/truncates `path`, writes `data`, and syncs the file.
    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()>;
    /// Appends `data` to `path` (creating it) and syncs the file.
    fn append(&self, path: &Path, data: &[u8]) -> io::Result<()>;
    /// Atomically renames `from` to `to` and syncs the parent directory.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Creates a directory and all parents.
    fn create_dir_all(&self, path: &Path) -> io::Result<()>;
    /// Removes a file (used for garbage, never for committed state).
    fn remove_file(&self, path: &Path) -> io::Result<()>;
    /// Removes a directory tree (used for superseded checkpoints).
    fn remove_dir_all(&self, path: &Path) -> io::Result<()>;
    /// Syncs a directory's entry list to disk.
    fn sync_dir(&self, path: &Path) -> io::Result<()>;
    /// True when the path exists.
    fn exists(&self, path: &Path) -> bool;
    /// The entries of a directory (file names only, unsorted).
    fn read_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>>;
}

/// The production [`Fs`]: `std::fs` plus the fsync discipline a
/// write-ahead log requires.
#[derive(Debug, Default, Clone, Copy)]
pub struct RealFs;

impl RealFs {
    /// A shared handle to the real filesystem.
    pub fn shared() -> Arc<dyn Fs> {
        Arc::new(RealFs)
    }

    fn sync_parent(path: &Path) -> io::Result<()> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                // Directory fsync can be unsupported on exotic filesystems;
                // treat that one condition as best-effort.
                match std::fs::File::open(parent).and_then(|d| d.sync_all()) {
                    Ok(()) => {}
                    Err(e) if e.kind() == io::ErrorKind::Unsupported => {}
                    Err(e) => return Err(e),
                }
            }
        }
        Ok(())
    }
}

impl Fs for RealFs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }

    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        use io::Write;
        let mut f = std::fs::File::create(path)?;
        f.write_all(data)?;
        f.sync_all()
    }

    fn append(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        use io::Write;
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        f.write_all(data)?;
        f.sync_all()
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)?;
        Self::sync_parent(to)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        std::fs::create_dir_all(path)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    fn remove_dir_all(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_dir_all(path)
    }

    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        match std::fs::File::open(path).and_then(|d| d.sync_all()) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == io::ErrorKind::Unsupported => Ok(()),
            Err(e) => Err(e),
        }
    }

    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }

    fn read_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
        let mut out = Vec::new();
        for e in std::fs::read_dir(path)? {
            out.push(e?.path());
        }
        Ok(out)
    }
}

/// How the injected fault manifests at the scheduled operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultMode {
    /// The operation fails cleanly: nothing reaches the disk.
    FailWrite,
    /// A torn write: a deterministic *prefix* of the data reaches the
    /// disk, then the operation errors (power loss mid-`write(2)`).
    ShortWrite,
    /// The operation completes, then the process "dies": every later
    /// operation through this shim fails.
    CrashAfter,
}

impl FaultMode {
    /// All modes, for matrix-style tests.
    pub const ALL: [FaultMode; 3] = [
        FaultMode::FailWrite,
        FaultMode::ShortWrite,
        FaultMode::CrashAfter,
    ];
}

/// A deterministic, seeded fault-injection [`Fs`] shim.
///
/// Mutating operations (`write`, `append`, `rename`) are numbered from 0
/// in call order. When operation `fail_op` is reached the configured
/// [`FaultMode`] fires and the shim enters the *crashed* state: every
/// subsequent call fails with [`io::ErrorKind::Other`], exactly as if the
/// process had died. Torn-write prefix lengths are derived from `seed`
/// and the operation index, so with a single-threaded writer a given
/// `(seed, fail_op, mode)` schedule replays byte-identically forever.
/// When several threads write through one shim (the shards of a
/// warehouse do), which of their operations gets number `fail_op`
/// depends on scheduling, so [`fired`](FailpointFs::fired) names the
/// operation the fault actually hit.
pub struct FailpointFs {
    inner: Arc<dyn Fs>,
    seed: u64,
    fail_op: u64,
    mode: FaultMode,
    ops: AtomicU64,
    crashed: AtomicBool,
    fired: OnceLock<String>,
}

impl FailpointFs {
    /// A shim over `inner` that fires `mode` at mutating op `fail_op`.
    pub fn new(inner: Arc<dyn Fs>, seed: u64, fail_op: u64, mode: FaultMode) -> Arc<FailpointFs> {
        Arc::new(FailpointFs {
            inner,
            seed,
            fail_op,
            mode,
            ops: AtomicU64::new(0),
            crashed: AtomicBool::new(false),
            fired: OnceLock::new(),
        })
    }

    /// A shim that never fires — used to count the mutating operations
    /// of a clean run before enumerating crash points.
    pub fn counting(inner: Arc<dyn Fs>) -> Arc<FailpointFs> {
        Self::new(inner, 0, u64::MAX, FaultMode::FailWrite)
    }

    /// Mutating operations observed so far.
    pub fn ops(&self) -> u64 {
        self.ops.load(Ordering::SeqCst)
    }

    /// True when the injected fault has fired.
    pub fn crashed(&self) -> bool {
        self.crashed.load(Ordering::SeqCst)
    }

    /// The operation the fault hit (`"append <path>"`, …), once fired.
    pub fn fired(&self) -> Option<&str> {
        self.fired.get().map(String::as_str)
    }

    fn dead() -> io::Error {
        io::Error::other("failpoint: process crashed")
    }

    fn check_alive(&self) -> io::Result<()> {
        if self.crashed() {
            Err(Self::dead())
        } else {
            Ok(())
        }
    }

    /// SplitMix64 over (seed, op): the deterministic torn-prefix source.
    fn mix(&self, op: u64) -> u64 {
        let mut z = self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(op)
            .wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Runs one mutating operation (`kind` on `path`) through the
    /// failpoint schedule. `partial` applies a torn prefix for
    /// [`FaultMode::ShortWrite`].
    fn mutate(
        &self,
        (kind, path): (&str, &Path),
        full: impl FnOnce() -> io::Result<()>,
        partial: Option<Box<dyn FnOnce(usize) -> io::Result<()> + '_>>,
        data_len: usize,
    ) -> io::Result<()> {
        self.check_alive()?;
        let op = self.ops.fetch_add(1, Ordering::SeqCst);
        if op > self.fail_op {
            // Numbered after the fault while racing it on another thread:
            // the process is already dead, so it lands nowhere.
            return Err(Self::dead());
        }
        if op != self.fail_op {
            return full();
        }
        let _ = self.fired.set(format!("{kind} {}", path.display()));
        self.crashed.store(true, Ordering::SeqCst);
        match self.mode {
            FaultMode::FailWrite => Err(io::Error::other("failpoint: write failed")),
            FaultMode::ShortWrite => {
                if let Some(p) = partial {
                    // Keep a deterministic strict prefix (possibly empty).
                    let keep = if data_len == 0 {
                        0
                    } else {
                        (self.mix(op) as usize) % data_len
                    };
                    p(keep)?;
                }
                Err(io::Error::other("failpoint: torn write"))
            }
            FaultMode::CrashAfter => {
                full()?;
                Err(Self::dead())
            }
        }
    }
}

impl Fs for FailpointFs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.check_alive()?;
        self.inner.read(path)
    }

    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        self.mutate(
            ("write", path),
            || self.inner.write(path, data),
            Some(Box::new(move |keep| self.inner.write(path, &data[..keep]))),
            data.len(),
        )
    }

    fn append(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        self.mutate(
            ("append", path),
            || self.inner.append(path, data),
            Some(Box::new(move |keep| self.inner.append(path, &data[..keep]))),
            data.len(),
        )
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        // A rename is all-or-nothing on a journaling filesystem; there is
        // no torn variant — ShortWrite degrades to FailWrite here.
        self.mutate(("rename", from), || self.inner.rename(from, to), None, 0)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.check_alive()?;
        self.inner.create_dir_all(path)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.check_alive()?;
        self.inner.remove_file(path)
    }

    fn remove_dir_all(&self, path: &Path) -> io::Result<()> {
        self.check_alive()?;
        self.inner.remove_dir_all(path)
    }

    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        self.check_alive()?;
        self.inner.sync_dir(path)
    }

    fn exists(&self, path: &Path) -> bool {
        !self.crashed() && self.inner.exists(path)
    }

    fn read_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
        self.check_alive()?;
        self.inner.read_dir(path)
    }
}

/// A purely in-memory [`Fs`]: a path→bytes map plus a directory set,
/// behind one internal mutex. Durability calls are free and hermetic, so
/// model-checked harnesses (`sdr-check`) can create and mutate whole
/// warehouses thousands of times per second with no disk I/O and no
/// cross-run state. Semantics mirror [`RealFs`] where the warehouse
/// depends on them: writes require the parent directory, reads of
/// missing paths fail with `NotFound`, `rename` is atomic.
#[derive(Default)]
pub struct MemFs {
    state: std::sync::Mutex<MemState>,
}

#[derive(Default)]
struct MemState {
    files: std::collections::HashMap<PathBuf, Vec<u8>>,
    dirs: std::collections::HashSet<PathBuf>,
}

impl MemFs {
    /// A fresh, empty in-memory filesystem.
    pub fn shared() -> Arc<MemFs> {
        Arc::new(MemFs::default())
    }

    fn not_found(path: &Path) -> io::Error {
        io::Error::new(
            io::ErrorKind::NotFound,
            format!("{}: not found", path.display()),
        )
    }

    fn require_parent(st: &MemState, path: &Path) -> io::Result<()> {
        match path.parent() {
            Some(p) if !p.as_os_str().is_empty() && !st.dirs.contains(p) => {
                Err(MemFs::not_found(p))
            }
            _ => Ok(()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, MemState> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

impl Fs for MemFs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let st = self.lock();
        st.files
            .get(path)
            .cloned()
            .ok_or_else(|| Self::not_found(path))
    }

    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        let mut st = self.lock();
        Self::require_parent(&st, path)?;
        st.files.insert(path.to_path_buf(), data.to_vec());
        Ok(())
    }

    fn append(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        let mut st = self.lock();
        Self::require_parent(&st, path)?;
        st.files
            .entry(path.to_path_buf())
            .or_default()
            .extend_from_slice(data);
        Ok(())
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let mut st = self.lock();
        Self::require_parent(&st, to)?;
        if let Some(data) = st.files.remove(from) {
            st.files.insert(to.to_path_buf(), data);
            return Ok(());
        }
        // Directory rename (checkpoints land as `ckpt.tmp` -> `ckpt`):
        // rewrite the prefix of every entry under `from`.
        if !st.dirs.contains(from) {
            return Err(Self::not_found(from));
        }
        let rebase = |p: &Path| to.join(p.strip_prefix(from).expect("prefix checked"));
        let moved_dirs: Vec<PathBuf> = st
            .dirs
            .iter()
            .filter(|d| d.starts_with(from))
            .cloned()
            .collect();
        for d in moved_dirs {
            st.dirs.remove(&d);
            let nd = rebase(&d);
            st.dirs.insert(nd);
        }
        let moved_files: Vec<PathBuf> = st
            .files
            .keys()
            .filter(|f| f.starts_with(from))
            .cloned()
            .collect();
        for f in moved_files {
            let data = st.files.remove(&f).expect("key just listed");
            st.files.insert(rebase(&f), data);
        }
        Ok(())
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        let mut st = self.lock();
        let mut p = path.to_path_buf();
        loop {
            st.dirs.insert(p.clone());
            match p.parent() {
                Some(parent) if !parent.as_os_str().is_empty() => p = parent.to_path_buf(),
                _ => return Ok(()),
            }
        }
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        let mut st = self.lock();
        st.files
            .remove(path)
            .map(|_| ())
            .ok_or_else(|| Self::not_found(path))
    }

    fn remove_dir_all(&self, path: &Path) -> io::Result<()> {
        let mut st = self.lock();
        if !st.dirs.contains(path) {
            return Err(Self::not_found(path));
        }
        st.dirs.retain(|d| !d.starts_with(path));
        st.files.retain(|f, _| !f.starts_with(path));
        Ok(())
    }

    fn sync_dir(&self, _path: &Path) -> io::Result<()> {
        Ok(())
    }

    fn exists(&self, path: &Path) -> bool {
        let st = self.lock();
        st.files.contains_key(path) || st.dirs.contains(path)
    }

    fn read_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
        let st = self.lock();
        if !st.dirs.contains(path) {
            return Err(Self::not_found(path));
        }
        let mut out: Vec<PathBuf> = st
            .files
            .keys()
            .chain(st.dirs.iter())
            .filter(|p| p.parent() == Some(path))
            .cloned()
            .collect();
        out.sort();
        out.dedup();
        Ok(out)
    }
}

/// Writes `data` to `path` atomically: temp file + fsync + rename + parent
/// directory fsync. Readers see either the old content or the new,
/// never a torn mixture.
pub fn atomic_write(fs: &dyn Fs, path: &Path, data: &[u8]) -> io::Result<()> {
    let tmp = match path.file_name() {
        Some(name) => {
            let mut n = name.to_os_string();
            n.push(".tmp");
            path.with_file_name(n)
        }
        None => return Err(io::Error::new(io::ErrorKind::InvalidInput, "no file name")),
    };
    fs.write(&tmp, data)?;
    fs.rename(&tmp, path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("sdr-fs-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn realfs_roundtrip_and_append() {
        let d = tmpdir("real");
        let fs = RealFs;
        let p = d.join("a.bin");
        fs.write(&p, b"hello").unwrap();
        fs.append(&p, b" world").unwrap();
        assert_eq!(fs.read(&p).unwrap(), b"hello world");
        assert!(fs.exists(&p));
        let q = d.join("b.bin");
        fs.rename(&p, &q).unwrap();
        assert!(!fs.exists(&p) && fs.exists(&q));
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn failpoint_fires_once_then_everything_dies() {
        let d = tmpdir("fail");
        let fs = FailpointFs::new(RealFs::shared(), 7, 1, FaultMode::FailWrite);
        let p = d.join("x.bin");
        fs.write(&p, b"first").unwrap(); // op 0: fine
        assert!(fs.write(&p, b"second").is_err()); // op 1: fires
        assert!(fs.crashed());
        assert!(fs.read(&p).is_err()); // dead process reads nothing
        assert!(fs.append(&p, b"z").is_err());
        // The clean write survived untouched on the real disk.
        assert_eq!(std::fs::read(&p).unwrap(), b"first");
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn short_write_keeps_deterministic_prefix() {
        let d = tmpdir("torn");
        let payload = vec![0xABu8; 1000];
        let mut lens = Vec::new();
        for _ in 0..2 {
            let p = d.join("t.bin");
            std::fs::remove_file(&p).ok();
            let fs = FailpointFs::new(RealFs::shared(), 42, 0, FaultMode::ShortWrite);
            assert!(fs.append(&p, &payload).is_err());
            lens.push(std::fs::read(&p).unwrap().len());
        }
        assert_eq!(lens[0], lens[1], "torn prefix must be deterministic");
        assert!(lens[0] < 1000);
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn crash_after_persists_the_write() {
        let d = tmpdir("after");
        let p = d.join("c.bin");
        let fs = FailpointFs::new(RealFs::shared(), 1, 0, FaultMode::CrashAfter);
        assert!(fs.write(&p, b"durable").is_err());
        assert_eq!(std::fs::read(&p).unwrap(), b"durable");
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn counting_shim_never_fires() {
        let d = tmpdir("count");
        let fs = FailpointFs::counting(RealFs::shared());
        for i in 0..10 {
            fs.write(&d.join(format!("f{i}")), b"x").unwrap();
        }
        assert_eq!(fs.ops(), 10);
        assert!(!fs.crashed());
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn atomic_write_replaces_whole_file() {
        let d = tmpdir("atomic");
        let p = d.join("CURRENT");
        atomic_write(&RealFs, &p, b"one").unwrap();
        atomic_write(&RealFs, &p, b"two").unwrap();
        assert_eq!(std::fs::read(&p).unwrap(), b"two");
        // A clean failure before the rename leaves the old content.
        let fs = FailpointFs::new(RealFs::shared(), 3, 0, FaultMode::FailWrite);
        assert!(atomic_write(fs.as_ref(), &p, b"three").is_err());
        assert_eq!(std::fs::read(&p).unwrap(), b"two");
        std::fs::remove_dir_all(&d).ok();
    }
}
