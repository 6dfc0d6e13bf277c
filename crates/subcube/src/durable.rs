//! The crash-safe warehouse: a [`SubcubeManager`] behind a per-warehouse
//! write-ahead log and atomic checkpoints.
//!
//! Irreversible reduction makes durability *more* critical than in an
//! ordinary warehouse — an aggregate lost to a torn write cannot be
//! recomputed from detail that was already purged. [`DurableWarehouse`]
//! therefore journals every state-changing operation (a
//! [`WarehouseOp`], see [`crate::op`]) as a CRC-checksummed
//! record *before* acknowledging it, and periodically folds the log into
//! an atomic checkpoint (see [`crate::persist`]). Recovery loads the
//! live checkpoint and deterministically replays the log tail; torn or
//! corrupt tail records are detected by checksum and dropped — they were
//! never acknowledged, so dropping them restores exactly the committed
//! state.
//!
//! The contract, proven by the fault-injection matrix in
//! `tests/durability.rs`: an operation that returned `Ok` survives any
//! subsequent crash; an operation that returned `Err` (or never
//! returned) leaves the recovered warehouse as if it was never issued.
//!
//! # Group commit
//!
//! [`DurableWarehouse::apply_batch`] journals a whole batch of
//! operations as **one** WAL record (one write, one fsync) packed with
//! [`sdr_storage::pack_group`]. Because the batch travels inside a single
//! CRC frame, the crash contract extends naturally: an acknowledged batch
//! survives in full, and a crash mid-append drops the batch in full — a
//! *partially* recovered batch is structurally impossible. A batch that
//! fails in memory is rolled back by re-publishing the pre-batch
//! snapshot, so `Err` still means "as if never issued".

use std::path::{Path, PathBuf};
use std::sync::Arc;

use sdr_mdm::{DayNum, Mo};
use sdr_reduce::DataReductionSpec;
use sdr_spec::{ActionId, ActionSpec};
use sdr_storage::fs::{Fs, RealFs};
use sdr_storage::Wal;
use sdr_sync::fail;

use crate::error::SubcubeError;
use crate::layout::WarehouseLayout;
use crate::manager::{AgeStats, SubcubeManager};
use crate::op::{OpOutcome, WarehouseOp};
use crate::persist::{
    load_checkpoint, read_current, read_manifest_at, spec_from_manifest, sweep_garbage,
    write_checkpoint, write_current,
};

/// What [`SubcubeManager::recover`] found and did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// The checkpoint epoch the recovery started from.
    pub epoch: u64,
    /// Operations replayed on top of the checkpoint (a group-committed
    /// batch record counts once per operation it carries).
    pub replayed: usize,
    /// Bytes of torn/corrupt log tail detected by CRC and dropped.
    pub dropped_bytes: usize,
    /// Total acknowledged operations now reflected in the warehouse
    /// (checkpoint high-water mark + replayed records).
    pub ops_durable: u64,
    /// The recovered `last_sync`.
    pub last_sync: Option<DayNum>,
    /// Cubes whose persisted statistics were verified bit-identical to a
    /// recomputation from the checkpoint's cube files (0 for legacy
    /// format-1 manifests, which carry no stats).
    pub stats_verified: usize,
}

/// A [`SubcubeManager`] whose every state change is write-ahead logged
/// and whose checkpoints are atomic. See the module docs for the crash
/// contract.
pub struct DurableWarehouse {
    mgr: Arc<SubcubeManager>,
    fs: Arc<dyn Fs>,
    dir: PathBuf,
    epoch: u64,
    wal: Wal,
    /// Operations folded into the live checkpoint (cumulative).
    hwm: u64,
    /// Operations carried by the live log (a group-committed batch record
    /// counts once per operation — [`Wal::records`] counts frames).
    ops_in_log: u64,
    /// Set when a log append failed: the in-memory state may be ahead of
    /// the log, so further mutations are refused until a checkpoint
    /// re-establishes the invariant.
    broken: bool,
}

impl DurableWarehouse {
    /// Creates a fresh durable warehouse at `dir` (epoch 0 checkpoint of
    /// the empty manager plus an empty log). Fails if `dir` already
    /// holds a warehouse.
    pub fn create(
        spec: DataReductionSpec,
        dir: impl AsRef<Path>,
    ) -> Result<DurableWarehouse, SubcubeError> {
        Self::create_with_fs(spec, dir.as_ref(), RealFs::shared())
    }

    /// [`DurableWarehouse::create`] through an explicit [`Fs`].
    pub fn create_with_fs(
        spec: DataReductionSpec,
        dir: &Path,
        fs: Arc<dyn Fs>,
    ) -> Result<DurableWarehouse, SubcubeError> {
        let lay = WarehouseLayout::at(dir);
        if fs.exists(&lay.current()) {
            return Err(SubcubeError::Storage(format!(
                "{}: already a warehouse directory (use open/recover)",
                dir.display()
            )));
        }
        let mgr = Arc::new(SubcubeManager::new(spec));
        write_checkpoint(&mgr.view(), fs.as_ref(), dir, 0, 0)?;
        let wal = Wal::create(Arc::clone(&fs), lay.wal(0), 0)
            .map_err(|e| SubcubeError::Storage(e.to_string()))?;
        write_current(fs.as_ref(), dir, 0)?;
        Ok(DurableWarehouse {
            mgr,
            fs,
            dir: dir.to_path_buf(),
            epoch: 0,
            wal,
            hwm: 0,
            ops_in_log: 0,
            broken: false,
        })
    }

    /// Opens `dir`: recovers an existing warehouse (replaying the log
    /// tail) or creates a fresh one when the directory is empty.
    pub fn open(
        spec: DataReductionSpec,
        dir: impl AsRef<Path>,
    ) -> Result<DurableWarehouse, SubcubeError> {
        Self::open_with_fs(spec, dir.as_ref(), RealFs::shared())
    }

    /// [`DurableWarehouse::open`] through an explicit [`Fs`].
    pub fn open_with_fs(
        spec: DataReductionSpec,
        dir: &Path,
        fs: Arc<dyn Fs>,
    ) -> Result<DurableWarehouse, SubcubeError> {
        if fs.exists(&WarehouseLayout::at(dir).current()) {
            Ok(Self::recover_with_fs(spec, dir, fs)?.0)
        } else {
            Self::create_with_fs(spec, dir, fs)
        }
    }

    /// Recovers a warehouse: loads the live checkpoint, truncates any
    /// torn log tail, and replays the surviving records.
    pub fn recover_with_fs(
        spec: DataReductionSpec,
        dir: &Path,
        fs: Arc<dyn Fs>,
    ) -> Result<(DurableWarehouse, RecoveryReport), SubcubeError> {
        let _span = sdr_obs::span("durable.recover");
        let epoch = read_current(fs.as_ref(), dir)?;
        // The specification is durable state: journaled `insert`/`delete`
        // operations may have evolved it past what the caller configured,
        // so the checkpoint's own spec (exact action ids + insert counter,
        // from the manifest) is authoritative. The caller's spec supplies
        // the schema to parse it against.
        let manifest = read_manifest_at(fs.as_ref(), dir, epoch)?;
        let ckpt_spec = spec_from_manifest(spec.schema(), &manifest)?;
        let (mgr, manifest) = load_checkpoint(ckpt_spec, fs.as_ref(), dir, epoch)?;
        let mgr = Arc::new(mgr);
        let wal_path = WarehouseLayout::at(dir).wal(epoch);
        let (wal, records, dropped_bytes) = if fs.exists(&wal_path) {
            let (wal, scan) = Wal::open(Arc::clone(&fs), wal_path)
                .map_err(|e| SubcubeError::Storage(e.to_string()))?;
            if scan.epoch != epoch {
                return Err(SubcubeError::Storage(format!(
                    "{}: log epoch {} does not match checkpoint epoch {epoch}",
                    wal.path().display(),
                    scan.epoch
                )));
            }
            (wal, scan.records, scan.dropped_bytes)
        } else {
            // A checkpoint published without its log (crash in the
            // narrow window between the two) has nothing to replay.
            let wal = Wal::create(Arc::clone(&fs), wal_path, epoch)
                .map_err(|e| SubcubeError::Storage(e.to_string()))?;
            (wal, Vec::new(), 0)
        };
        let replay_span = sdr_obs::span("durable.recover.replay");
        let mut replayed = 0usize;
        for payload in &records {
            // A group-committed batch: the frame's CRC already proved it
            // complete, so every packed operation replays (or none of the
            // record survived the torn-tail scan).
            let group;
            let parts = if sdr_storage::is_group(payload) {
                group = sdr_storage::unpack_group(payload)
                    .map_err(|e| SubcubeError::Storage(e.to_string()))?;
                group.as_slice()
            } else {
                std::slice::from_ref(payload)
            };
            for part in parts {
                let _op_span = sdr_obs::span("durable.recover.replay_op");
                mgr.apply(&WarehouseOp::decode(mgr.schema(), part)?)?;
                replayed += 1;
            }
        }
        drop(replay_span);
        // Replay drives the ordinary mutators, which maintain per-cube
        // stats as they go; re-assert the no-drift invariant on the final
        // recovered state (the persisted copy was already verified
        // against the checkpoint files in `load_checkpoint`).
        mgr.verify_stats()?;
        if sdr_obs::enabled() {
            sdr_obs::inc("durable.recover.runs");
            sdr_obs::add("durable.recover.records_replayed", replayed as u64);
            sdr_obs::add("durable.recover.dropped_bytes", dropped_bytes as u64);
            sdr_obs::add(
                "durable.recover.stats_verified",
                manifest.cube_stats.len() as u64,
            );
        }
        let report = RecoveryReport {
            epoch,
            replayed,
            dropped_bytes,
            ops_durable: manifest.wal_hwm + replayed as u64,
            last_sync: mgr.last_sync(),
            stats_verified: manifest.cube_stats.len(),
        };
        let w = DurableWarehouse {
            mgr,
            fs,
            dir: dir.to_path_buf(),
            epoch,
            wal,
            hwm: manifest.wal_hwm,
            ops_in_log: replayed as u64,
            broken: false,
        };
        Ok((w, report))
    }

    /// The recovered/managed warehouse (queries go through here).
    pub fn manager(&self) -> &SubcubeManager {
        &self.mgr
    }

    /// A shared handle to the underlying manager, so readers on other
    /// threads can acquire views while this warehouse mutates (the
    /// group-commit model harness observes rollback through this).
    pub fn manager_handle(&self) -> Arc<SubcubeManager> {
        Arc::clone(&self.mgr)
    }

    /// The warehouse directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The live checkpoint epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Total acknowledged (durable) operations: every operation with an
    /// index below this value survives any crash; operations issued
    /// after it were never acknowledged.
    pub fn ops_durable(&self) -> u64 {
        self.hwm + self.ops_in_log
    }

    /// True when a log append failed and mutations are refused until the
    /// next successful [`checkpoint`](DurableWarehouse::checkpoint).
    pub fn is_broken(&self) -> bool {
        self.broken
    }

    fn guard(&self) -> Result<(), SubcubeError> {
        if self.broken {
            return Err(SubcubeError::Storage(
                "warehouse log is broken after a failed append; checkpoint to repair".into(),
            ));
        }
        Ok(())
    }

    /// Appends already-applied operations (`n` of them, in one record);
    /// a failure poisons the warehouse (memory is ahead of the log)
    /// until a checkpoint.
    fn append(
        &mut self,
        what: &str,
        n: usize,
        write: impl FnOnce(&mut Wal) -> Result<(), sdr_storage::StorageError>,
    ) -> Result<(), SubcubeError> {
        // `durable.wal-fail` injects an append failure so the checker
        // can drive the broken-log path deterministically.
        let res = if fail::point("durable.wal-fail") {
            Err("injected fault".to_string())
        } else {
            write(&mut self.wal).map_err(|e| e.to_string())
        };
        if let Err(e) = res {
            self.broken = true;
            return Err(SubcubeError::Storage(format!("{what} failed: {e}")));
        }
        self.ops_in_log += n as u64;
        Ok(())
    }

    /// Encodes `op` and applies it to the manager. Encoding comes first:
    /// an operation that cannot be replayed from its bytes must not
    /// change memory.
    fn stage(&self, op: &WarehouseOp) -> Result<(Vec<u8>, OpOutcome), SubcubeError> {
        let payload = op.encode(self.mgr.schema())?;
        Ok((payload, self.mgr.apply(op)?))
    }

    /// Applies one operation and journals it as one WAL record; on `Ok`
    /// it survives any subsequent crash. The record is appended only
    /// after the operation succeeded in memory, so a crash mid-call
    /// recovers to the state before the call.
    pub fn apply(&mut self, op: &WarehouseOp) -> Result<OpOutcome, SubcubeError> {
        self.guard()?;
        let (payload, outcome) = self.stage(op)?;
        self.append("wal append", 1, |wal| wal.append(&payload))?;
        Ok(outcome)
    }

    /// Group commit: applies a batch of operations and journals them as
    /// **one** WAL record — one write, one fsync — so durability cost is
    /// paid per batch, not per operation. On `Ok`, every operation of the
    /// batch is durable. On `Err` nothing is: a batch that fails in
    /// memory is rolled back by re-publishing the pre-batch snapshot
    /// (concurrent readers may have glimpsed the intermediate published
    /// versions, which are each internally consistent), and a batch whose
    /// append tears recovers to nothing of the batch — the record's CRC
    /// frame makes a partial batch structurally impossible. Returns the
    /// number of operations committed.
    pub fn apply_batch(&mut self, ops: Vec<WarehouseOp>) -> Result<usize, SubcubeError> {
        self.guard()?;
        if ops.is_empty() {
            return Ok(0);
        }
        let _span = sdr_obs::span("durable.apply_batch");
        let before = self.mgr.view();
        let mut encoded = Vec::with_capacity(ops.len());
        for op in &ops {
            match self.stage(op) {
                Ok((payload, _)) => encoded.push(payload),
                Err(e) => {
                    // Undo the partially applied batch: nothing was
                    // logged, so restoring the pre-batch version makes
                    // the failure "as if never issued".
                    // `durable.skip-rollback` is a model-only mutation:
                    // leaving the half-applied batch published is exactly
                    // the bug `specdr check group-commit` must catch.
                    if !fail::point("durable.skip-rollback") {
                        self.mgr.rollback_to(&before);
                    }
                    return Err(e);
                }
            }
        }
        let n = encoded.len();
        self.append("wal group append", n, |wal| wal.append_group(&encoded))?;
        if sdr_obs::enabled() {
            sdr_obs::inc("durable.group_commit.batches");
            sdr_obs::add("durable.group_commit.ops", n as u64);
        }
        Ok(n)
    }

    /// Durable [`SubcubeManager::bulk_load`]: on `Ok`, the facts survive
    /// any subsequent crash. Copies `facts` into the op; a caller that
    /// owns them can hand [`apply`](Self::apply) a
    /// [`WarehouseOp::BulkLoad`] instead.
    pub fn bulk_load(&mut self, facts: &Mo) -> Result<usize, SubcubeError> {
        Ok(self.apply(&WarehouseOp::BulkLoad(facts.clone()))?.loaded())
    }

    /// Durable [`SubcubeManager::sync`].
    pub fn sync(&mut self, now: DayNum) -> Result<AgeStats, SubcubeError> {
        Ok(self.apply(&WarehouseOp::Sync(now))?.aged())
    }

    /// Durable [`SubcubeManager::age`]: one WAL record per call, however
    /// many ticks it applies.
    pub fn age(&mut self, until: DayNum) -> Result<AgeStats, SubcubeError> {
        Ok(self.apply(&WarehouseOp::Age(until))?.aged())
    }

    /// Durable specification insert ([`SubcubeManager::evolve_insert`]).
    pub fn spec_insert(&mut self, new: Vec<ActionSpec>) -> Result<Vec<ActionId>, SubcubeError> {
        Ok(self.apply(&WarehouseOp::SpecInsert(new))?.inserted())
    }

    /// Durable specification delete ([`SubcubeManager::evolve_delete`]).
    pub fn spec_delete(&mut self, ids: &[ActionId], now: DayNum) -> Result<(), SubcubeError> {
        self.apply(&WarehouseOp::SpecDelete(ids.to_vec(), now))?;
        Ok(())
    }

    /// Folds the log into a new atomic checkpoint, rotates to a fresh
    /// log, and sweeps the superseded epoch. Also the repair path after
    /// a failed append. Returns the new epoch.
    pub fn checkpoint(&mut self) -> Result<u64, SubcubeError> {
        let next = self.epoch + 1;
        let hwm = self.hwm + self.ops_in_log;
        write_checkpoint(&self.mgr.view(), self.fs.as_ref(), &self.dir, next, hwm)?;
        let wal = Wal::create(
            Arc::clone(&self.fs),
            WarehouseLayout::at(&self.dir).wal(next),
            next,
        )
        .map_err(|e| SubcubeError::Storage(e.to_string()))?;
        write_current(self.fs.as_ref(), &self.dir, next)?;
        self.wal = wal;
        self.epoch = next;
        self.hwm = hwm;
        self.ops_in_log = 0;
        self.broken = false;
        sweep_garbage(self.fs.as_ref(), &self.dir, next);
        Ok(next)
    }
}

impl SubcubeManager {
    /// Recovers a warehouse from `dir`: loads the latest valid
    /// checkpoint (see [`crate::persist`]) and replays the write-ahead
    /// log tail on top of it, dropping any torn/corrupt tail records
    /// detected by CRC. Returns the manager plus a [`RecoveryReport`].
    pub fn recover(
        spec: DataReductionSpec,
        dir: impl AsRef<Path>,
    ) -> Result<(SubcubeManager, RecoveryReport), SubcubeError> {
        let (w, report) = DurableWarehouse::recover_with_fs(spec, dir.as_ref(), RealFs::shared())?;
        let mgr = Arc::into_inner(w.mgr).expect("recovery holds the only manager handle");
        Ok((mgr, report))
    }
}

/// Convenience re-export target: the manifest type callers see through
/// recovery tooling.
pub use crate::persist::Manifest;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::wal_name;
    use sdr_mdm::calendar::days_from_civil;
    use sdr_spec::parse_action;
    use sdr_workload::{paper_mo, ACTION_A1, ACTION_A2};

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "sdr-durable-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&d).ok();
        d
    }

    fn paper_spec() -> (Mo, DataReductionSpec) {
        let (mo, _) = paper_mo();
        let schema = Arc::clone(mo.schema());
        let a1 = parse_action(&schema, ACTION_A1).unwrap();
        let a2 = parse_action(&schema, ACTION_A2).unwrap();
        (mo, DataReductionSpec::new(schema, vec![a1, a2]).unwrap())
    }

    fn rows(mo: &Mo) -> Vec<String> {
        let mut v: Vec<String> = mo.facts().map(|f| mo.render_fact(f)).collect();
        v.sort();
        v
    }

    #[test]
    fn create_log_recover_equals_live() {
        let dir = tmpdir("clr");
        let (mo, spec) = paper_spec();
        let mut w = DurableWarehouse::create(spec.clone(), &dir).unwrap();
        w.bulk_load(&mo).unwrap();
        w.sync(days_from_civil(2000, 6, 5)).unwrap();
        w.sync(days_from_civil(2000, 11, 5)).unwrap();
        assert_eq!(w.ops_durable(), 3);
        let live = rows(&w.manager().to_mo().unwrap());
        // Recover without any checkpoint beyond epoch 0: pure replay.
        let (rec, report) =
            DurableWarehouse::recover_with_fs(spec, &dir, RealFs::shared()).unwrap();
        assert_eq!(report.epoch, 0);
        assert_eq!(report.replayed, 3);
        assert_eq!(report.dropped_bytes, 0);
        assert_eq!(rows(&rec.manager().to_mo().unwrap()), live);
        assert_eq!(rec.manager().last_sync(), w.manager().last_sync());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_rotates_and_recover_uses_it() {
        let dir = tmpdir("ckpt");
        let (mo, spec) = paper_spec();
        let mut w = DurableWarehouse::create(spec.clone(), &dir).unwrap();
        w.bulk_load(&mo).unwrap();
        w.sync(days_from_civil(2000, 6, 5)).unwrap();
        assert_eq!(w.checkpoint().unwrap(), 1);
        // Post-checkpoint operations land in the fresh log.
        w.sync(days_from_civil(2000, 11, 5)).unwrap();
        let live = rows(&w.manager().to_mo().unwrap());
        let (rec, report) =
            DurableWarehouse::recover_with_fs(spec, &dir, RealFs::shared()).unwrap();
        assert_eq!(report.epoch, 1);
        assert_eq!(report.replayed, 1);
        assert_eq!(report.ops_durable, 3);
        assert_eq!(rows(&rec.manager().to_mo().unwrap()), live);
        // The superseded epoch was swept.
        assert!(!dir.join(crate::persist::ckpt_name(0)).exists());
        assert!(!dir.join(wal_name(0)).exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn spec_evolution_is_journaled() {
        let dir = tmpdir("evo");
        let (mo, _) = paper_mo();
        let schema = Arc::clone(mo.schema());
        let a1 = parse_action(&schema, ACTION_A1).unwrap();
        let a2 = parse_action(&schema, ACTION_A2).unwrap();
        let spec =
            DataReductionSpec::new(Arc::clone(&schema), vec![a1.clone(), a2.clone()]).unwrap();
        // Start from an *empty* spec; insert both actions through the log.
        let empty = DataReductionSpec::new(Arc::clone(&schema), vec![]).unwrap();
        let mut w = DurableWarehouse::create(empty.clone(), &dir).unwrap();
        w.bulk_load(&mo).unwrap();
        let ids = w.spec_insert(vec![a1, a2]).unwrap();
        assert_eq!(ids.len(), 2);
        assert_eq!(w.manager().n_cubes(), 3);
        w.sync(days_from_civil(2000, 11, 5)).unwrap();
        let live = rows(&w.manager().to_mo().unwrap());
        // Recovery replays the evolution from the initial (empty) spec.
        let (rec, report) =
            DurableWarehouse::recover_with_fs(empty, &dir, RealFs::shared()).unwrap();
        assert_eq!(report.replayed, 3);
        assert_eq!(rec.manager().n_cubes(), 3);
        assert_eq!(rows(&rec.manager().to_mo().unwrap()), live);
        assert_eq!(
            crate::persist::spec_fingerprint(&rec.manager().spec()),
            crate::persist::spec_fingerprint(&spec)
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_dropped_on_recovery() {
        let dir = tmpdir("torn");
        let (mo, spec) = paper_spec();
        let mut w = DurableWarehouse::create(spec.clone(), &dir).unwrap();
        w.bulk_load(&mo).unwrap();
        w.sync(days_from_civil(2000, 6, 5)).unwrap();
        let committed = rows(&w.manager().to_mo().unwrap());
        let wal_path = dir.join(wal_name(0));
        // A later sync's record is torn to a garbage prefix on "crash".
        w.sync(days_from_civil(2000, 11, 5)).unwrap();
        let full = std::fs::read(&wal_path).unwrap();
        std::fs::write(&wal_path, &full[..full.len() - 5]).unwrap();
        let (rec, report) =
            DurableWarehouse::recover_with_fs(spec, &dir, RealFs::shared()).unwrap();
        assert_eq!(report.replayed, 2);
        assert!(report.dropped_bytes > 0);
        assert_eq!(rows(&rec.manager().to_mo().unwrap()), committed);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn group_commit_batch_is_one_record_and_replays() {
        let dir = tmpdir("batch");
        let (mo, spec) = paper_spec();
        let mut w = DurableWarehouse::create(spec.clone(), &dir).unwrap();
        let n = w
            .apply_batch(vec![
                WarehouseOp::BulkLoad(mo.clone()),
                WarehouseOp::Sync(days_from_civil(2000, 6, 5)),
                WarehouseOp::Sync(days_from_civil(2000, 11, 5)),
            ])
            .unwrap();
        assert_eq!(n, 3);
        assert_eq!(w.ops_durable(), 3, "every batched op counts");
        let live = rows(&w.manager().to_mo().unwrap());
        // On disk the batch is one frame.
        let scan = sdr_storage::scan_wal(&RealFs, &dir.join(wal_name(0))).unwrap();
        assert_eq!(scan.records.len(), 1);
        assert!(sdr_storage::is_group(&scan.records[0]));
        let (rec, report) =
            DurableWarehouse::recover_with_fs(spec, &dir, RealFs::shared()).unwrap();
        assert_eq!(report.replayed, 3);
        assert_eq!(report.ops_durable, 3);
        assert_eq!(rows(&rec.manager().to_mo().unwrap()), live);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_batch_rolls_back_and_leaves_no_trace() {
        let dir = tmpdir("batchfail");
        let (mo, spec) = paper_spec();
        let mut w = DurableWarehouse::create(spec.clone(), &dir).unwrap();
        w.bulk_load(&mo).unwrap();
        let before = rows(&w.manager().to_mo().unwrap());
        // Second op fails in memory (deleting an unknown action id).
        let err = w.apply_batch(vec![
            WarehouseOp::Sync(days_from_civil(2000, 6, 5)),
            WarehouseOp::SpecDelete(vec![ActionId(999)], days_from_civil(2000, 6, 5)),
        ]);
        assert!(err.is_err());
        assert!(!w.is_broken(), "a rolled-back batch does not poison");
        assert_eq!(w.ops_durable(), 1, "only the bulk load is durable");
        assert_eq!(
            rows(&w.manager().to_mo().unwrap()),
            before,
            "memory state rolled back to the pre-batch snapshot"
        );
        assert_eq!(w.manager().last_sync(), None, "the sync was undone");
        // Recovery agrees: the batch never happened.
        let (rec, report) =
            DurableWarehouse::recover_with_fs(spec, &dir, RealFs::shared()).unwrap();
        assert_eq!(report.replayed, 1);
        assert_eq!(rows(&rec.manager().to_mo().unwrap()), before);
        // The repaired warehouse still accepts work.
        w.sync(days_from_civil(2000, 6, 5)).unwrap();
        assert_eq!(w.ops_durable(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn create_refuses_existing_warehouse() {
        let dir = tmpdir("dup");
        let (_, spec) = paper_spec();
        let _w = DurableWarehouse::create(spec.clone(), &dir).unwrap();
        assert!(DurableWarehouse::create(spec.clone(), &dir).is_err());
        // open() takes the recovery path instead.
        assert!(DurableWarehouse::open(spec, &dir).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }
}
