//! # The warehouse: one router over N ≥ 1 shards
//!
//! [`ShardRouter`] is the one warehouse type: every caller builds,
//! changes and reads a warehouse through it, on disk or — over an
//! in-memory filesystem — [in memory](ShardRouter::in_memory), and it is
//! the only way into a warehouse directory, whatever its shard count. It
//! hash-partitions the facts over N shards — each a
//! private per-shard log (`durable.rs`) with its own subcube
//! set, checkpoint chain and WAL — and preserves every single-shard
//! guarantee:
//!
//! * **One shard is the single-directory layout.** With N = 1 the root
//!   *is* the shard: no `SHARDS` file, nothing routed, no logs to align
//!   on recovery and no top-level manifest to rewrite on checkpoint.
//! * **Routing invariant.** A fact lives on the shard selected by a
//!   finalized hash of its packed bottom key (`KeyPacker`), so the
//!   same cell always routes to the same shard and per-shard reduction
//!   is exactly the source paper's per-subcube reduction restricted to
//!   a disjoint fact partition. A schema too wide to pack cannot be
//!   split: N ≥ 2 over it is refused ([`SubcubeError::Unroutable`]).
//! * **Shards write at once.** Every write — a load, an aging step, a
//!   specification change, a batch, a checkpoint — is one scatter: each
//!   shard applies and logs its part on a worker of its own (the shards
//!   of a query or a recovery fan out the same way), and the call
//!   returns when all have. A load is routed from its columns — each
//!   row's packed bottom key picks its shard — and each shard's rows are
//!   copied once, on the calling thread, into the chunks that shard
//!   appends and logs as they are.
//! * **Atomic cross-shard publish.** Every logical operation is applied
//!   to all shards under one writer lock and then published as a single
//!   pointer swap of an [`Arc<ShardViewSet>`] — readers always observe
//!   all shards at the same logical operation count, never a torn mix.
//! * **Uniform WAL position.** Each logical operation appends exactly
//!   one record to *every* shard's WAL (a bulk load ships each shard
//!   its — possibly empty — partition), so record `j` on any shard is
//!   logical operation `j`. A shard's load record is byte for byte the
//!   `BulkLoad` record of the rows routed to it. After a crash, [`ShardRouter::recover`]
//!   aligns all WALs to the longest common prefix: a record missing
//!   from any shard was never acknowledged, so dropping it from the
//!   shards that hold it restores exactly the acknowledged state.
//! * **Uniform decisions.** Specification evolution is checked once,
//!   globally, before it fans out: `spec_delete`'s Definition 4
//!   responsibility check is evaluated against the *union* of all
//!   shards' facts (per-fact, so global acceptance implies acceptance
//!   on every fact subset — i.e. on every shard), and `spec_insert`'s
//!   Growing/NonCrossing checks are instance-independent. A rejection
//!   therefore touches no shard.
//! * **One wedge, one way out.** Any failure after memory moved ahead of
//!   the log — an append that failed, a scatter some shards
//!   acknowledged, a checkpoint some shards finished — wedges the
//!   warehouse: every mutator and
//!   [`checkpoint`](ShardRouter::checkpoint) return the
//!   wedge error while readers keep the last published set, and only
//!   [`ShardRouter::recover`], which rebuilds memory from the logs, lets
//!   writes in again. An `Err` therefore always means "as if never
//!   issued".
//!
//! Queries scatter to the per-shard planners, and every shard folds the
//! chunks it scans into the query's one accumulator — the unsharded
//! evaluator's own scan loop — which is finished once, however many
//! shards the query spans. `parallel` runs the shards concurrently, each
//! into an accumulator of its own (each scans its cubes in sequence; a
//! single shard fans out over its cubes), and the set absorbs them by
//! packed key before the finish. An un-synchronized query ages each
//! shard inside that scatter, and the answer is row-for-row the
//! unsharded one — `tests/sharding.rs` proves it differentially for
//! N ∈ {1, 2, 4, 7}.
//!
//! On disk (see [`crate::layout`]):
//!
//! ```text
//! <root>/CURRENT, ckpt-*, wal-*   N = 1: the root is the one shard
//! <root>/SHARDS                   N ≥ 2: shard count + top-level epoch + CRC
//! <root>/shard-<i:03>/            N ≥ 2: one complete single-shard layout each
//! ```

use std::path::{Path, PathBuf};
use std::sync::Arc;

use sdr_sync::{fail, Mutex, Swap};

use sdr_mdm::{DayNum, DimValue, KeyPacker, Mo, Schema};
use sdr_plan::QueryPlan;
use sdr_query::ScanAcc;
use sdr_reduce::{DataReductionSpec, ReduceError};
use sdr_spec::{ActionId, ActionSpec};
use sdr_storage::fs::{atomic_write, Fs, MemFs, RealFs};
use sdr_storage::wal::{crc32, truncate_wal_records};

use crate::durable::{Part, Shard};
use crate::error::SubcubeError;
use crate::layout::WarehouseLayout;
use crate::manager::{union, AgeStats, Chunk, WarehouseView};
use crate::op::{OpOutcome, WarehouseOp};
use crate::persist::{read_current, spec_fingerprint};
use crate::query::{fan_out, fold_each, CompiledQuery, CubeQuery};

/// `SHARDS` manifest magic: `"SDRSHD01"`.
const SHARDS_MAGIC: u64 = 0x5344_5253_4844_3031;
/// `SHARDS` manifest format version.
const SHARDS_FORMAT: u32 = 1;

/// The decoded top-level manifest of a warehouse of N ≥ 2 shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ShardManifest {
    shards: u32,
    epoch: u64,
}

impl ShardManifest {
    fn encode(&self) -> Vec<u8> {
        let mut b = Vec::with_capacity(28);
        b.extend_from_slice(&SHARDS_MAGIC.to_le_bytes());
        b.extend_from_slice(&SHARDS_FORMAT.to_le_bytes());
        b.extend_from_slice(&self.shards.to_le_bytes());
        b.extend_from_slice(&self.epoch.to_le_bytes());
        b.extend_from_slice(&crc32(&b[..24]).to_le_bytes());
        b
    }

    fn write(&self, fs: &dyn Fs, layout: &WarehouseLayout) -> Result<(), SubcubeError> {
        atomic_write(fs, &layout.shards_manifest(), &self.encode())
            .map_err(|e| SubcubeError::Storage(format!("publishing SHARDS: {e}")))
    }

    fn read(fs: &dyn Fs, layout: &WarehouseLayout) -> Result<ShardManifest, SubcubeError> {
        let path = layout.shards_manifest();
        let bad = |what: &str| SubcubeError::Storage(format!("{}: {what}", path.display()));
        let bytes = fs
            .read(&path)
            .map_err(|e| SubcubeError::Storage(format!("{}: {e}", path.display())))?;
        if bytes.len() != 28 {
            return Err(bad("corrupt shard manifest"));
        }
        if crc32(&bytes[..24]) != u32::from_le_bytes(bytes[24..28].try_into().unwrap()) {
            return Err(bad("shard manifest checksum mismatch"));
        }
        if u64::from_le_bytes(bytes[..8].try_into().unwrap()) != SHARDS_MAGIC {
            return Err(bad("bad shard manifest magic"));
        }
        let format = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
        if format != SHARDS_FORMAT {
            return Err(bad(&format!("unsupported shard manifest format {format}")));
        }
        let shards = u32::from_le_bytes(bytes[12..16].try_into().unwrap());
        if shards == 0 {
            return Err(bad("shard manifest declares zero shards"));
        }
        Ok(ShardManifest {
            shards,
            epoch: u64::from_le_bytes(bytes[16..24].try_into().unwrap()),
        })
    }
}

/// What [`ShardRouter::recover`] found and did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Number of shards (1 for a root without `SHARDS`).
    pub shards: usize,
    /// The checkpoint epoch the warehouse is at after recovery.
    pub epoch: u64,
    /// Operations replayed on top of the checkpoints, summed over the
    /// shards (a group-committed batch record counts once per operation
    /// it carries).
    pub replayed: usize,
    /// Bytes of torn/corrupt log tail detected by CRC and dropped,
    /// summed over the shards.
    pub dropped_bytes: usize,
    /// Whole records dropped by cross-shard WAL alignment: they reached
    /// some shards but not all, so the operation was never acknowledged.
    pub dropped_records: usize,
    /// True when recovery finished a checkpoint that a crash had left
    /// applied to only some shards.
    pub resumed_checkpoint: bool,
    /// Acknowledged operations now reflected in the warehouse
    /// (checkpoint high-water mark + replayed operations; the same on
    /// every shard).
    pub ops_durable: u64,
    /// The recovered `last_sync`.
    pub last_sync: Option<DayNum>,
    /// Persisted cube-statistics blocks verified bit-identical to a
    /// recomputation from the checkpoints' cube files, summed over the
    /// shards (0 for legacy format-1 manifests, which carry none).
    pub stats_verified: usize,
}

/// One immutable, internally consistent set of per-shard views — the
/// unit of the cross-shard atomic publish. Readers obtain it with
/// [`ShardRouter::view_set`] and can keep querying it for as long as
/// they like; the writer only ever swaps in a *new* set.
pub struct ShardViewSet {
    epoch: u64,
    views: Vec<WarehouseView>,
}

impl ShardViewSet {
    /// The publish sequence number of this set (monotone per router).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.views.len()
    }

    /// The pinned per-shard views.
    pub fn views(&self) -> &[WarehouseView] {
        &self.views
    }

    /// Total number of physical facts across all shards.
    pub fn len(&self) -> usize {
        self.views.iter().map(|v| v.len()).sum()
    }

    /// True when no shard holds any fact.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The synchronization watermark (identical on every shard — the
    /// router only ever syncs all shards together).
    pub fn last_sync(&self) -> Option<DayNum> {
        self.views[0].last_sync()
    }

    /// Scatter-gather query over the synchronized state: each shard
    /// plans and scans its own cubes into the query's one accumulator,
    /// finished once — so the result is bit-identical to the unsharded
    /// path.
    pub fn query(&self, q: &CubeQuery, now: DayNum, parallel: bool) -> Result<Mo, SubcubeError> {
        let _span = sdr_obs::span("shard.query");
        self.scatter(q, now, parallel, false)
    }

    /// Scatter-gather query over the *un*-synchronized state: each shard
    /// is [virtually aged](WarehouseView::virtual_age) to `now` (memoized
    /// on its pinned version) inside the scatter — a memo miss ages the
    /// shards concurrently — and scanned through its planner into the
    /// same one accumulator.
    pub fn query_unsync(
        &self,
        q: &CubeQuery,
        now: DayNum,
        parallel: bool,
    ) -> Result<Mo, SubcubeError> {
        let _span = sdr_obs::span("shard.query_unsync");
        self.scatter(q, now, parallel, true)
    }

    /// The per-shard query plans (for `explain` over the wire).
    pub fn plans(&self, q: &CubeQuery, now: DayNum) -> Vec<QueryPlan> {
        self.views.iter().map(|v| v.plan(q, now)).collect()
    }

    /// The set [`query_unsync`](ShardViewSet::query_unsync) evaluates at
    /// `now` — every shard's view virtually aged — and, per shard,
    /// whether it came from the memo (for `explain`: its
    /// [`plans`](ShardViewSet::plans) are the verdicts of the aged
    /// versions).
    pub fn virtual_age(&self, now: DayNum) -> Result<(ShardViewSet, Vec<bool>), SubcubeError> {
        let aged: Result<Vec<_>, _> = self.views.iter().map(|v| v.virtual_age(now)).collect();
        let (views, hits): (Vec<_>, Vec<_>) = aged?.into_iter().unzip();
        let epoch = self.epoch;
        Ok((ShardViewSet { epoch, views }, hits))
    }

    /// The union of all shards' logical MOs (Definition 2 view of the
    /// whole warehouse).
    pub fn to_mo(&self) -> Result<Mo, SubcubeError> {
        union_mo(&self.views)
    }

    /// Every shard's scanned chunks into one accumulator, finished once:
    /// the shards across threads when `parallel` and there are several,
    /// each into an accumulator of its own (absorbed in shard order) and
    /// scanning its cubes sequentially; a single shard fans out over its
    /// cubes instead.
    fn scatter(
        &self,
        q: &CubeQuery,
        now: DayNum,
        parallel: bool,
        unsync: bool,
    ) -> Result<Mo, SubcubeError> {
        let across = parallel && self.views.len() > 1;
        let cq = CompiledQuery::new(self.views[0].schema(), q, now)?;
        let scan = |v: &WarehouseView, acc: &mut ScanAcc<'_>| {
            let aged = unsync.then(|| v.virtual_age(now)).transpose()?;
            let v = aged.as_ref().map_or(v, |(aged, _hit)| aged);
            v.scan_into(&cq, parallel && !across, true, acc)
        };
        let mut acc = cq.scan.start();
        fold_each(&cq, &self.views, across, &mut acc, scan)?;
        cq.finish(acc)
    }
}

/// The union of the views' logical MOs (at least one view).
fn union_mo(views: &[WarehouseView]) -> Result<Mo, SubcubeError> {
    let chunks = views
        .iter()
        .flat_map(|v| v.cubes())
        .flat_map(|c| c.chunks());
    let rows = views.iter().map(|v| v.len()).sum();
    union(views[0].schema(), rows, chunks.map(|c| c.mo()))
}

/// Folds two shards' outcomes of one scatter into the logical outcome:
/// counts and statistics add up, except `ticks` — every shard applies
/// the same tick sequence — and the ids of a spec insert, which are the
/// same on every shard.
fn fold(a: OpOutcome, b: OpOutcome) -> OpOutcome {
    match (a, b) {
        (OpOutcome::Loaded(x), OpOutcome::Loaded(y)) => OpOutcome::Loaded(x + y),
        (OpOutcome::Aged(mut a), OpOutcome::Aged(s)) => {
            // Every shard applies the same tick sequence; the rest adds up.
            let ticks = a.ticks.max(s.ticks);
            a.absorb(s);
            a.ticks = ticks;
            OpOutcome::Aged(a)
        }
        (first, _) => first,
    }
}

/// The writer-side state: the shards and the publish counter.
struct RouterInner {
    shards: Vec<Shard>,
    /// Monotone publish counter for view sets.
    set_epoch: u64,
    /// Set by any failure after memory moved ahead of the log: every
    /// further mutation and checkpoint is refused until
    /// [`ShardRouter::recover`] rebuilds the shards from their logs.
    broken: bool,
}

/// The durable warehouse: N ≥ 1 hash-partitioned shards, one private
/// per-shard log each, atomic cross-shard publish, aligned crash
/// recovery and one wedge. See the module docs for the invariants.
pub struct ShardRouter {
    schema: Arc<Schema>,
    /// The bottom-key packer routing hashes and the shard count it
    /// routes over; `None` for one shard, which routes nothing.
    routing: Option<(KeyPacker, usize)>,
    fs: Arc<dyn Fs>,
    layout: WarehouseLayout,
    writer: Mutex<RouterInner>,
    /// The published cross-shard view set: one atomic pointer cell,
    /// swapped wholesale under the writer lock (`sdr-check` model-checks
    /// epoch monotonicity and publish atomicity through this).
    published: Swap<ShardViewSet>,
}

/// SplitMix64 finalizer — decorrelates the packed key's low bits before
/// the modulo picks a shard.
#[inline]
fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The shard of `shards` a packed bottom key routes to.
#[inline]
fn shard_of(key: u128, shards: usize) -> usize {
    (mix64((key as u64) ^ ((key >> 64) as u64)) % shards as u64) as usize
}

/// The routing over `shards` shards: none for one shard; a schema too
/// wide to pack cannot be split.
fn routing(schema: &Schema, shards: usize) -> Result<Option<(KeyPacker, usize)>, SubcubeError> {
    if shards == 1 {
        return Ok(None);
    }
    let packer = KeyPacker::new(schema).ok_or(SubcubeError::Unroutable { shards })?;
    Ok(Some((packer, shards)))
}

/// The directory of shard `i` of `n`: the root itself for one shard,
/// `<root>/shard-<i:03>` otherwise.
fn shard_dir(layout: &WarehouseLayout, i: usize, n: usize) -> PathBuf {
    match n {
        1 => layout.root().to_path_buf(),
        _ => layout.shard(i).root().to_path_buf(),
    }
}

/// True when `layout`'s root holds a committed warehouse: its `SHARDS`
/// (N ≥ 2) or its own `CURRENT` (one shard) — the last file `create`
/// writes.
fn is_warehouse(fs: &dyn Fs, layout: &WarehouseLayout) -> bool {
    fs.exists(&layout.shards_manifest()) || fs.exists(&layout.current())
}

impl ShardRouter {
    /// Creates a fresh warehouse with `shards` shards in `dir`.
    pub fn create(
        spec: DataReductionSpec,
        dir: impl AsRef<Path>,
        shards: usize,
    ) -> Result<ShardRouter, SubcubeError> {
        Self::create_with_fs(spec, dir.as_ref(), shards, RealFs::shared())
    }

    /// [`ShardRouter::create`] through an explicit [`Fs`]. One shard
    /// writes the single-directory layout at `dir`; N ≥ 2 write
    /// `shard-NNN/` below it and then `SHARDS`. The last file written is
    /// the commit point, so a crash before it leaves a directory that
    /// holds nothing acknowledged — `create` overwrites such leftovers,
    /// and `open` creates again.
    pub fn create_with_fs(
        spec: DataReductionSpec,
        dir: &Path,
        shards: usize,
        fs: Arc<dyn Fs>,
    ) -> Result<ShardRouter, SubcubeError> {
        if shards == 0 {
            return Err(SubcubeError::Storage(
                "a warehouse needs at least one shard".into(),
            ));
        }
        let layout = WarehouseLayout::at(dir);
        if is_warehouse(fs.as_ref(), &layout) {
            return Err(SubcubeError::Storage(format!(
                "{}: already a warehouse directory (use open/recover)",
                dir.display()
            )));
        }
        let routing = routing(spec.schema(), shards)?;
        let mut vec = Vec::with_capacity(shards);
        for i in 0..shards {
            let root = shard_dir(&layout, i, shards);
            vec.push(Shard::create(spec.clone(), &root, Arc::clone(&fs))?);
        }
        if shards > 1 {
            ShardManifest {
                shards: shards as u32,
                epoch: 0,
            }
            .write(fs.as_ref(), &layout)?;
        }
        Ok(Self::assemble(&spec, routing, fs, layout, vec))
    }

    /// A fresh one-shard warehouse held in memory:
    /// [`ShardRouter::create_with_fs`] over a new [`MemFs`], so every
    /// operation takes the durable path — logged, checkpointable,
    /// wedged on failure — without touching a disk.
    pub fn in_memory(spec: DataReductionSpec) -> Result<ShardRouter, SubcubeError> {
        Self::create_with_fs(spec, Path::new("/warehouse"), 1, MemFs::shared())
    }

    /// Opens `dir`: recovers the warehouse it holds (whatever its shard
    /// count) or creates a fresh one with `shards` shards.
    pub fn open(
        spec: DataReductionSpec,
        dir: impl AsRef<Path>,
        shards: usize,
    ) -> Result<ShardRouter, SubcubeError> {
        Self::open_with_fs(spec, dir.as_ref(), shards, RealFs::shared())
    }

    /// [`ShardRouter::open`] through an explicit [`Fs`].
    pub fn open_with_fs(
        spec: DataReductionSpec,
        dir: &Path,
        shards: usize,
        fs: Arc<dyn Fs>,
    ) -> Result<ShardRouter, SubcubeError> {
        if is_warehouse(fs.as_ref(), &WarehouseLayout::at(dir)) {
            Ok(Self::recover_with_fs(spec, dir, fs)?.0)
        } else {
            Self::create_with_fs(spec, dir, shards, fs)
        }
    }

    /// Recovers a warehouse to one consistent state. A root without
    /// `SHARDS` is one shard rooted there — every single-directory
    /// warehouse ever written — and simply replays its log. With N ≥ 2,
    /// every shard first has its WAL aligned to the longest prefix
    /// present on *all* shards (a record missing anywhere was never
    /// acknowledged), then the shards recover concurrently, each
    /// independently of the others; a crash that left a
    /// cross-shard checkpoint half-applied (some shards already at the
    /// next epoch) is finished here: the remaining shards are
    /// checkpointed and the top-level manifest republished.
    pub fn recover(
        spec: DataReductionSpec,
        dir: impl AsRef<Path>,
    ) -> Result<(ShardRouter, RecoveryReport), SubcubeError> {
        Self::recover_with_fs(spec, dir.as_ref(), RealFs::shared())
    }

    /// [`ShardRouter::recover`] through an explicit [`Fs`].
    pub fn recover_with_fs(
        spec: DataReductionSpec,
        dir: &Path,
        fs: Arc<dyn Fs>,
    ) -> Result<(ShardRouter, RecoveryReport), SubcubeError> {
        let _span = sdr_obs::span("shard.recover");
        let layout = WarehouseLayout::at(dir);
        let man = if fs.exists(&layout.shards_manifest()) {
            Some(ShardManifest::read(fs.as_ref(), &layout)?)
        } else {
            None
        };
        let n = man.map_or(1, |m| m.shards as usize);
        let routing = routing(spec.schema(), n)?;
        let mut report = RecoveryReport {
            shards: n,
            ..RecoveryReport::default()
        };
        if let Some(man) = man {
            Self::align(fs.as_ref(), &layout, man, &mut report)?;
        }
        // The shards recover concurrently (one shard inline, on this
        // thread); their reports fold, and the first failure wins, in
        // shard order.
        let roots: Vec<PathBuf> = (0..n).map(|i| shard_dir(&layout, i, n)).collect();
        let recovered = fan_out(&roots, |root| Shard::recover(&spec, root, Arc::clone(&fs)));
        let mut shards = Vec::with_capacity(n);
        for r in recovered {
            let (shard, part) = r?;
            report.replayed += part.replayed;
            report.dropped_bytes += part.dropped_bytes;
            report.stats_verified += part.stats_verified;
            shards.push(shard);
        }

        // Finish an interrupted cross-shard checkpoint: the shards still
        // behind checkpoint concurrently, then `SHARDS` moves.
        if let Some(man) = man.filter(|_| report.resumed_checkpoint) {
            let behind = shards.iter_mut().filter(|w| w.epoch() == man.epoch);
            for r in fan_out(behind, Shard::checkpoint) {
                r?;
            }
            let epoch = man.epoch + 1;
            ShardManifest { epoch, ..man }.write(fs.as_ref(), &layout)?;
        }

        // The recovered shards must agree on the evolved specification
        // and the sync watermark — anything else is corruption.
        let fp0 = spec_fingerprint(&shards[0].manager().spec());
        let sync0 = shards[0].manager().last_sync();
        for w in &shards[1..] {
            if spec_fingerprint(&w.manager().spec()) != fp0 || w.manager().last_sync() != sync0 {
                return Err(SubcubeError::Storage(format!(
                    "{}: shards recovered to divergent states",
                    dir.display()
                )));
            }
        }
        report.epoch = shards[0].epoch();
        report.ops_durable = shards[0].ops_durable();
        report.last_sync = sync0;
        Ok((Self::assemble(&spec, routing, fs, layout, shards), report))
    }

    /// Cross-shard WAL alignment before N ≥ 2 shards recover. Each shard
    /// is classified by its own `CURRENT` epoch: at the manifest epoch
    /// (normal), or one ahead (a crash interrupted the cross-shard
    /// checkpoint after this shard completed its part — recorded as
    /// `resumed_checkpoint`). A checkpoint only runs quiesced, so when
    /// one was interrupted every behind shard holds a complete,
    /// identical log and no alignment is needed (unequal counts there
    /// are corruption, not a torn scatter); otherwise every log is cut to
    /// the shortest one (`dropped_records`).
    fn align(
        fs: &dyn Fs,
        layout: &WarehouseLayout,
        man: ShardManifest,
        report: &mut RecoveryReport,
    ) -> Result<(), SubcubeError> {
        let n = man.shards as usize;
        let mut shard_epochs = Vec::with_capacity(n);
        for i in 0..n {
            let e = read_current(fs, layout.shard(i).root())?;
            if e != man.epoch && e != man.epoch + 1 {
                return Err(SubcubeError::Storage(format!(
                    "{}: shard epoch {e} inconsistent with top-level epoch {}",
                    layout.shard(i).root().display(),
                    man.epoch
                )));
            }
            shard_epochs.push(e);
        }
        report.resumed_checkpoint = shard_epochs.iter().any(|&e| e == man.epoch + 1);
        let mut counts = Vec::with_capacity(n);
        for (i, &e) in shard_epochs.iter().enumerate() {
            let path = layout.shard(i).wal(e);
            counts.push(if fs.exists(&path) {
                sdr_storage::scan_wal(fs, &path)
                    .map_err(|e| SubcubeError::Storage(e.to_string()))?
                    .records
                    .len()
            } else {
                0
            });
        }
        if report.resumed_checkpoint {
            let behind: Vec<usize> = (0..n).filter(|&i| shard_epochs[i] == man.epoch).collect();
            if behind.iter().any(|&i| counts[i] != counts[behind[0]]) {
                return Err(SubcubeError::Storage(format!(
                    "{}: shards disagree mid-checkpoint — log counts {counts:?}",
                    layout.root().display()
                )));
            }
            return Ok(());
        }
        let keep = *counts.iter().min().expect("at least one shard");
        for (i, &c) in counts.iter().enumerate() {
            if c > keep {
                let path = layout.shard(i).wal(shard_epochs[i]);
                report.dropped_records += truncate_wal_records(fs, &path, keep)
                    .map_err(|e| SubcubeError::Storage(e.to_string()))?;
            }
        }
        Ok(())
    }

    fn assemble(
        spec: &DataReductionSpec,
        routing: Option<(KeyPacker, usize)>,
        fs: Arc<dyn Fs>,
        layout: WarehouseLayout,
        shards: Vec<Shard>,
    ) -> ShardRouter {
        let mut inner = RouterInner {
            shards,
            set_epoch: 0,
            broken: false,
        };
        let set = Self::snapshot(&mut inner);
        ShardRouter {
            schema: Arc::clone(spec.schema()),
            routing,
            fs,
            layout,
            writer: Mutex::new(inner),
            published: Swap::new(set),
        }
    }

    // ---- read side -----------------------------------------------------

    /// The currently published cross-shard view set — one atomic
    /// pointer read; the set stays valid for as long as the caller
    /// holds it.
    pub fn view_set(&self) -> Arc<ShardViewSet> {
        self.published.load()
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.view_set().shards()
    }

    /// The checkpoint epoch (the same on every shard).
    pub fn epoch(&self) -> u64 {
        self.writer.lock().shards[0].epoch()
    }

    /// Total facts across all shards (current published set).
    pub fn len(&self) -> usize {
        self.view_set().len()
    }

    /// True when no shard holds any fact.
    pub fn is_empty(&self) -> bool {
        self.view_set().is_empty()
    }

    /// The synchronization watermark.
    pub fn last_sync(&self) -> Option<DayNum> {
        self.view_set().last_sync()
    }

    /// The schema the warehouse is defined over.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// The current (possibly evolved) specification.
    pub fn spec(&self) -> Arc<DataReductionSpec> {
        self.writer.lock().shards[0].manager().spec()
    }

    /// Acknowledged durable operations (identical on every shard by the
    /// uniform-WAL-position invariant).
    pub fn ops_durable(&self) -> u64 {
        self.writer.lock().shards[0].ops_durable()
    }

    /// True when a failure wedged the warehouse (recover to fix).
    pub fn is_broken(&self) -> bool {
        self.writer.lock().broken
    }

    // ---- routing -------------------------------------------------------

    /// The shard a cell routes to: SplitMix64-finalized hash of the
    /// packed key, modulo the router's shard count — 0 on a one-shard
    /// warehouse, which routes nothing.
    pub fn route(&self, coords: &[DimValue]) -> usize {
        self.routing
            .as_ref()
            .map_or(0, |(p, n)| shard_of(p.pack_coords(coords), *n))
    }

    /// The shard count, as routing sees it.
    fn n_shards(&self) -> usize {
        self.routing.as_ref().map_or(1, |(_, n)| *n)
    }

    /// One part per shard of a load of `facts`: the rows that
    /// [route](ShardRouter::route) there — packed straight from the
    /// columns — copied once, in row order, into that shard's chunks. A
    /// load over another schema is refused here, before any shard is
    /// touched.
    fn load_parts(&self, facts: &Mo) -> Result<Vec<Part<'static>>, SubcubeError> {
        sdr_mdm::check_same_schema(&self.schema, facts.schema()).map_err(ReduceError::Model)?;
        let Some((p, n)) = &self.routing else {
            let all = Chunk::cut(&self.schema, facts, 0..facts.len())?;
            return Ok(vec![Part::Load(all)]);
        };
        let mut rows = vec![Vec::new(); *n];
        for f in facts.facts() {
            rows[shard_of(p.pack_row(facts.store(), f), *n)].push(f.0);
        }
        let cut = |rows: &Vec<u32>| Chunk::cut_rows(&self.schema, facts, rows).map(Part::Load);
        rows.iter().map(cut).collect()
    }

    /// One part per shard of `op`: a load's routed rows, anything else
    /// whole.
    fn split<'a>(&self, op: &'a WarehouseOp) -> Result<Vec<Part<'a>>, SubcubeError> {
        match op {
            WarehouseOp::BulkLoad(facts) => self.load_parts(facts),
            other => Ok((0..self.n_shards()).map(|_| Part::Op(other)).collect()),
        }
    }

    // ---- write side ----------------------------------------------------

    fn guard(inner: &RouterInner) -> Result<(), SubcubeError> {
        if inner.broken {
            return Err(SubcubeError::Storage(
                "warehouse wedged by a failed write; \
                 drop it and ShardRouter::recover the directory"
                    .into(),
            ));
        }
        Ok(())
    }

    fn snapshot(inner: &mut RouterInner) -> Arc<ShardViewSet> {
        inner.set_epoch += 1;
        Arc::new(ShardViewSet {
            epoch: inner.set_epoch,
            views: inner.shards.iter().map(|s| s.manager().view()).collect(),
        })
    }

    /// The atomic cross-shard publish: builds a fresh view set from all
    /// shards (under the writer lock, so no shard can move) and swaps
    /// the published pointer.
    fn publish(&self, inner: &mut RouterInner) {
        let set = Self::snapshot(inner);
        self.published.store(set);
    }

    /// Folds per-shard results into one outcome. All-`Ok` commits; a
    /// uniform rejection (every shard refused, none after logging)
    /// propagates the error with no state change; anything else — some
    /// shard acknowledged, or some shard's memory is ahead of its log —
    /// wedges the warehouse until recovery.
    fn settle<T>(
        inner: &mut RouterInner,
        results: Vec<Result<T, SubcubeError>>,
    ) -> Result<Vec<T>, SubcubeError> {
        if results.iter().all(|r| r.is_ok()) {
            return Ok(results.into_iter().map(|r| r.unwrap()).collect());
        }
        let any_ok = results.iter().any(|r| r.is_ok());
        let any_broken = inner.shards.iter().any(|s| s.is_broken());
        let first = results
            .into_iter()
            .find_map(|r| r.err())
            .expect("at least one error");
        if any_ok || any_broken {
            // `shard.skip-wedge` is a model-only mutation: leaving the
            // router unwedged after a divergent scatter is exactly the
            // bug `specdr check shard` must catch.
            if !fail::point("shard.skip-wedge") {
                inner.broken = true;
            }
            return Err(SubcubeError::Storage(format!(
                "warehouse wedged by a failed write ({first}); recovery required"
            )));
        }
        Err(first)
    }

    /// Decides a specification change once, globally, so a rejection
    /// touches no shard and acceptance is uniform across shards — the
    /// exact behavior of one shard on the same facts (which decides for
    /// itself, so one shard needs no pre-check). An insert is validated
    /// against a clone of the current spec (Growing/NonCrossing are
    /// instance-independent); a delete against the **union** of all
    /// shards' facts (Definition 4's responsibility check is per-fact, so
    /// acceptance on the union implies acceptance on every shard's
    /// subset).
    fn precheck(inner: &RouterInner, op: &WarehouseOp) -> Result<(), SubcubeError> {
        if inner.shards.len() == 1 {
            return Ok(());
        }
        let probe = || (*inner.shards[0].manager().spec()).clone();
        match op {
            WarehouseOp::SpecInsert(new) => {
                probe().insert(new.clone())?;
            }
            WarehouseOp::SpecDelete(ids, now) => {
                let views: Vec<WarehouseView> =
                    inner.shards.iter().map(|s| s.manager().view()).collect();
                probe().delete(ids, &union_mo(&views)?, *now)?;
            }
            _ => {}
        }
        Ok(())
    }

    /// The one write path: writer lock → wedge guard → `plan` (one part
    /// per shard, after any global pre-check) → every shard applies and
    /// logs its part at once, on a [`fan_out`] worker of its own → settle
    /// → one atomic publish → [`fold`].
    fn scatter<'a>(
        &self,
        name: &str,
        plan: impl FnOnce(&RouterInner) -> Result<Vec<Part<'a>>, SubcubeError>,
    ) -> Result<OpOutcome, SubcubeError> {
        let mut inner = self.writer.lock();
        Self::guard(&inner)?;
        let _span = sdr_obs::span(&format!("shard.{name}"));
        let parts = plan(&inner)?;
        let shards = inner.shards.iter_mut().zip(&parts);
        let results = fan_out(shards, |(sh, part)| sh.apply(part));
        let outcomes = Self::settle(&mut inner, results)?;
        self.publish(&mut inner);
        let folded = outcomes.into_iter().reduce(fold);
        Ok(folded.expect("at least one shard"))
    }

    /// Durably applies one operation to the whole warehouse: every shard
    /// applies its part — a load's routed rows, or the operation whole —
    /// concurrently, and one publish exposes all of them.
    pub fn apply(&self, op: &WarehouseOp) -> Result<OpOutcome, SubcubeError> {
        self.scatter(op.name(), |inner| {
            Self::precheck(inner, op)?;
            self.split(op)
        })
    }

    /// Durable, routed bulk load straight from the borrowed facts: each
    /// shard copies the rows routed to it once, into its own chunks.
    pub fn bulk_load(&self, facts: &Mo) -> Result<usize, SubcubeError> {
        let plan = |_: &RouterInner| self.load_parts(facts);
        Ok(self.scatter("bulk_load", plan)?.loaded())
    }

    /// Durable parallel synchronization: every shard syncs to `now`
    /// concurrently, then one atomic publish exposes all of them.
    pub fn sync(&self, now: DayNum) -> Result<AgeStats, SubcubeError> {
        Ok(self.apply(&WarehouseOp::Sync(now))?.aged())
    }

    /// Durable parallel aging to `until`.
    pub fn age(&self, until: DayNum) -> Result<AgeStats, SubcubeError> {
        Ok(self.apply(&WarehouseOp::Age(until))?.aged())
    }

    /// Durable specification insert, decided once globally.
    pub fn spec_insert(&self, new: Vec<ActionSpec>) -> Result<Vec<ActionId>, SubcubeError> {
        Ok(self.apply(&WarehouseOp::SpecInsert(new))?.inserted())
    }

    /// Durable specification delete, decided once globally.
    pub fn spec_delete(&self, ids: &[ActionId], now: DayNum) -> Result<(), SubcubeError> {
        self.apply(&WarehouseOp::SpecDelete(ids.to_vec(), now))?;
        Ok(())
    }

    /// Durable whole-batch application: each shard receives the same
    /// operation sequence (bulk loads routed) as **one** group record,
    /// keeping WAL positions uniform and whole-batch atomicity per shard;
    /// the shards commit concurrently. A uniform rejection rolls every
    /// shard back (the group-commit contract); anything else wedges the
    /// warehouse for recovery.
    pub fn apply_batch(&self, ops: Vec<WarehouseOp>) -> Result<usize, SubcubeError> {
        let mut inner = self.writer.lock();
        Self::guard(&inner)?;
        if ops.is_empty() {
            return Ok(0);
        }
        let _span = sdr_obs::span("shard.apply_batch");
        let n = inner.shards.len();
        let mut batches: Vec<Vec<Part<'_>>> = (0..n).map(|_| Vec::new()).collect();
        for op in &ops {
            for (b, part) in batches.iter_mut().zip(self.split(op)?) {
                b.push(part);
            }
        }
        let shards = inner.shards.iter_mut().zip(&batches);
        let results = fan_out(shards, |(s, b)| s.apply_batch(b));
        let counts = Self::settle(&mut inner, results)?;
        self.publish(&mut inner);
        Ok(counts.into_iter().max().unwrap_or(0))
    }

    /// Folds every shard's log into a fresh checkpoint and returns the
    /// new epoch. With N ≥ 2 the top-level `SHARDS` manifest is written
    /// only after every shard completed; a crash anywhere in between is
    /// finished by [`ShardRouter::recover`]. A failure wedges the
    /// warehouse, like any write failure.
    pub fn checkpoint(&self) -> Result<u64, SubcubeError> {
        let mut inner = self.writer.lock();
        Self::guard(&inner)?;
        let _span = sdr_obs::span("shard.checkpoint");
        let res = self.checkpoint_shards(&mut inner.shards);
        inner.broken |= res.is_err();
        res
    }

    /// Checkpoints every shard concurrently, then — N ≥ 2, and only once
    /// every shard finished — publishes their new epoch in `SHARDS`.
    fn checkpoint_shards(&self, shards: &mut [Shard]) -> Result<u64, SubcubeError> {
        for r in fan_out(shards.iter_mut(), Shard::checkpoint) {
            r?;
        }
        let epoch = shards[0].epoch();
        if shards.len() > 1 {
            let man = ShardManifest {
                shards: shards.len() as u32,
                epoch,
            };
            man.write(self.fs.as_ref(), &self.layout)?;
        }
        Ok(epoch)
    }

    /// The warehouse root directory.
    pub fn dir(&self) -> &Path {
        self.layout.root()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::SubcubeManager;
    use sdr_mdm::{MdmError, ORIGIN_USER};
    use sdr_query::{AggApproach, SelectMode};
    use sdr_reduce::ReduceError;
    use sdr_workload::paper_mo;

    /// Cubes over another schema are one failure, so they are one error
    /// — `Reduce(Model(SchemaMismatch))` — whether a view's scan loop
    /// meets them under a query compiled for the other schema, or a shard
    /// set does between its shards, and whether the read is a query or
    /// `to_mo`'s union.
    #[test]
    fn a_foreign_schema_is_the_same_error_between_cubes_and_between_shards() {
        let (paper, _) = paper_mo();
        // The paper's facts under another fact type: every per-cube scan
        // works, only the union can tell the schemas apart.
        let s = paper.schema();
        let other = Schema::new("Visit", s.dims.clone(), s.measures.clone()).unwrap();
        let mut foreign = Mo::new(Arc::clone(&other));
        for f in paper.facts() {
            let (coords, measures) = (paper.coords(f), paper.measures_of(f));
            foreign
                .insert_fact_at(&coords, &measures, ORIGIN_USER)
                .unwrap();
        }
        let mismatch = |r: Result<Mo, SubcubeError>| {
            use {MdmError::SchemaMismatch, ReduceError::Model};
            let e = r.expect_err("schemas differ");
            assert!(
                matches!(e, SubcubeError::Reduce(Model(SchemaMismatch(_)))),
                "{e:?}"
            );
        };
        let q = CubeQuery {
            pred: None,
            mode: SelectMode::Conservative,
            levels: s.bottom_granularity().0,
            approach: AggApproach::Availability,
        };
        let view = |mo: &Mo| {
            let m = SubcubeManager::new(DataReductionSpec::empty(Arc::clone(mo.schema())));
            m.bulk_load(mo).unwrap();
            m.view()
        };
        let (ours, theirs) = (view(&paper), view(&foreign));
        // One view: the scan loop of a query compiled for our schema,
        // over their cubes, sequential and fanned out.
        let cq = CompiledQuery::new(s, &q, 0).unwrap();
        for (parallel, planned) in [(false, true), (true, true), (false, false)] {
            let mut acc = cq.scan.start();
            let scanned = theirs.scan_into(&cq, parallel, planned, &mut acc);
            mismatch(scanned.and_then(|()| cq.finish(acc)));
        }
        // Between shards: a set whose second shard is foreign.
        let set = ShardViewSet {
            epoch: 1,
            views: vec![ours, theirs],
        };
        for parallel in [false, true] {
            mismatch(set.query(&q, 0, parallel));
            mismatch(set.query_unsync(&q, 0, parallel));
        }
        mismatch(set.to_mo());
    }
}
