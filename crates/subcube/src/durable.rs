//! One shard's durability: a [`SubcubeManager`] behind a write-ahead log
//! and atomic checkpoints in one directory. This is the private per-shard
//! log of [`ShardRouter`](crate::ShardRouter), which is the only way into
//! a warehouse directory, for any shard count.
//!
//! Irreversible reduction makes durability *more* critical than in an
//! ordinary warehouse — an aggregate lost to a torn write cannot be
//! recomputed from detail that was already purged. A [`Shard`]
//! therefore journals every state-changing operation (a
//! [`WarehouseOp`], see [`crate::op`]) as a CRC-checksummed record
//! *before* it is acknowledged, and folds the log into an atomic
//! checkpoint (see [`crate::persist`]) on request. Recovery loads the
//! live checkpoint and deterministically replays the log tail; torn or
//! corrupt tail records are detected by checksum and dropped — they were
//! never acknowledged, so dropping them restores exactly the committed
//! state.
//!
//! The contract, proven by the fault-injection matrix in
//! `tests/durability.rs`: an operation that returned `Ok` survives any
//! subsequent crash; an operation that returned `Err` (or never
//! returned) leaves the recovered warehouse as if it was never issued.
//! Operations are applied in memory first, so a failed append leaves
//! memory ahead of the log: the shard is then [broken](Shard::is_broken),
//! the router wedges, and only recovery — which rebuilds memory from the
//! log — lets writes in again.
//!
//! # Group commit
//!
//! [`Shard::apply_batch`] journals a whole batch of operations as
//! **one** WAL record (one write, one fsync) packed with
//! [`sdr_storage::pack_group`]. Because the batch travels inside a single
//! CRC frame, the crash contract extends naturally: an acknowledged batch
//! survives in full, and a crash mid-append drops the batch in full — a
//! *partially* recovered batch is structurally impossible. A batch that
//! fails in memory is rolled back by re-publishing the pre-batch
//! snapshot, so `Err` still means "as if never issued".

use std::path::{Path, PathBuf};
use std::sync::Arc;

use sdr_reduce::DataReductionSpec;
use sdr_storage::fs::Fs;
use sdr_storage::Wal;
use sdr_sync::fail;

use crate::error::SubcubeError;
use crate::layout::WarehouseLayout;
use crate::manager::{Chunk, SubcubeManager};
use crate::op::{OpOutcome, WarehouseOp};
use crate::persist::{
    load_checkpoint, read_current, read_manifest_at, spec_from_manifest, sweep_garbage,
    write_checkpoint, write_current,
};
use crate::shard::RecoveryReport;

/// One shard's part of a logical operation: the chunks of the rows of a
/// load that route to it (possibly none), or any other operation whole.
pub(crate) enum Part<'a> {
    Load(Vec<Arc<Chunk>>),
    Op(&'a WarehouseOp),
}

/// One shard: a [`SubcubeManager`] whose every state change is
/// write-ahead logged and whose checkpoints are atomic. See the module
/// docs for the crash contract.
pub(crate) struct Shard {
    mgr: SubcubeManager,
    fs: Arc<dyn Fs>,
    dir: PathBuf,
    epoch: u64,
    wal: Wal,
    /// Operations folded into the live checkpoint (cumulative).
    hwm: u64,
    /// Operations carried by the live log (a group-committed batch record
    /// counts once per operation — [`Wal::records`] counts frames).
    ops_in_log: u64,
    /// Set when a log append failed: memory is ahead of the log.
    broken: bool,
}

impl Shard {
    /// Writes a fresh shard at `dir`: the epoch-0 checkpoint of the empty
    /// manager, an empty log, and last the `CURRENT` pointer — the commit
    /// point; an earlier crash leaves only staged files this clears.
    pub(crate) fn create(
        spec: DataReductionSpec,
        dir: &Path,
        fs: Arc<dyn Fs>,
    ) -> Result<Shard, SubcubeError> {
        let mgr = SubcubeManager::new(spec);
        write_checkpoint(&mgr.view(), fs.as_ref(), dir, 0, 0)?;
        let wal = Wal::create(Arc::clone(&fs), WarehouseLayout::at(dir).wal(0), 0)
            .map_err(|e| SubcubeError::Storage(e.to_string()))?;
        write_current(fs.as_ref(), dir, 0)?;
        Ok(Shard {
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

    /// Recovers the shard at `dir`: loads the live checkpoint, truncates
    /// any torn log tail, and replays the surviving records. Returns the
    /// shard with its part of the report: what it replayed, dropped and
    /// verified.
    pub(crate) fn recover(
        spec: &DataReductionSpec,
        dir: &Path,
        fs: Arc<dyn Fs>,
    ) -> Result<(Shard, RecoveryReport), SubcubeError> {
        let _span = sdr_obs::span("durable.recover");
        let epoch = read_current(fs.as_ref(), dir)?;
        // The specification is durable state: journaled `insert`/`delete`
        // operations may have evolved it past what the caller configured,
        // so the checkpoint's own spec (exact action ids + insert counter,
        // from the manifest) is authoritative. When it is the caller's —
        // same actions under the same ids, same insert counter — the
        // caller's already-analyzed value is used; otherwise it is rebuilt
        // from the manifest against the caller's schema.
        let manifest = read_manifest_at(fs.as_ref(), dir, epoch)?;
        let unchanged =
            manifest.spec_text == spec.render() && manifest.next_action_id == spec.next_action_id();
        let ckpt_spec = if unchanged {
            spec.clone()
        } else {
            spec_from_manifest(spec.schema(), &manifest)?
        };
        let ckpt_span = sdr_obs::span("durable.recover.checkpoint");
        let mgr = load_checkpoint(ckpt_spec, &manifest, fs.as_ref(), dir, epoch)?;
        drop(ckpt_span);
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
        // against the checkpoint's chunks in `load_checkpoint`).
        let verify_span = sdr_obs::span("durable.recover.verify");
        mgr.view().verify_stats()?;
        drop(verify_span);
        if sdr_obs::enabled() {
            sdr_obs::inc("durable.recover.runs");
            sdr_obs::add("durable.recover.records_replayed", replayed as u64);
            sdr_obs::add("durable.recover.dropped_bytes", dropped_bytes as u64);
            sdr_obs::add(
                "durable.recover.stats_verified",
                manifest.cube_stats.len() as u64,
            );
        }
        let part = RecoveryReport {
            replayed,
            dropped_bytes,
            stats_verified: manifest.cube_stats.len(),
            ..RecoveryReport::default()
        };
        let shard = Shard {
            mgr,
            fs,
            dir: dir.to_path_buf(),
            epoch,
            wal,
            hwm: manifest.wal_hwm,
            ops_in_log: replayed as u64,
            broken: false,
        };
        Ok((shard, part))
    }

    /// The shard's manager (views are taken through here).
    pub(crate) fn manager(&self) -> &SubcubeManager {
        &self.mgr
    }

    /// The live checkpoint epoch.
    pub(crate) fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Total acknowledged (durable) operations: every operation with an
    /// index below this value survives any crash; operations issued
    /// after it were never acknowledged.
    pub(crate) fn ops_durable(&self) -> u64 {
        self.hwm + self.ops_in_log
    }

    /// True when a log append failed, leaving memory ahead of the log.
    pub(crate) fn is_broken(&self) -> bool {
        self.broken
    }

    /// Appends already-applied operations (`n` of them, in one record);
    /// a failure marks the shard broken.
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

    /// Encodes `part` and applies it to the manager. Encoding comes
    /// first: an operation that cannot be replayed from its bytes must not
    /// change memory. A load's chunks are encoded as they are — the
    /// record a plain `BulkLoad` of their rows carries, byte for byte —
    /// and appended by pointer.
    fn stage(&self, part: &Part<'_>) -> Result<(Vec<u8>, OpOutcome), SubcubeError> {
        match part {
            Part::Load(chunks) => {
                let parts = chunks.iter().map(|c| c.mo());
                let payload = WarehouseOp::encode_load(self.mgr.schema(), parts);
                Ok((payload, OpOutcome::Loaded(self.mgr.append_load(chunks))))
            }
            Part::Op(op) => {
                let payload = op.encode(self.mgr.schema())?;
                Ok((payload, self.mgr.apply(op)?))
            }
        }
    }

    /// Applies one operation and journals it as one WAL record. The
    /// record is appended only after the operation succeeded in memory,
    /// so a crash mid-call recovers to the state before the call.
    pub(crate) fn apply(&mut self, part: &Part<'_>) -> Result<OpOutcome, SubcubeError> {
        let (payload, outcome) = self.stage(part)?;
        self.append("wal append", 1, |wal| wal.append(&payload))?;
        Ok(outcome)
    }

    /// Group commit: applies a (non-empty) batch of operations and
    /// journals them as **one** WAL record — one write, one fsync. On
    /// `Ok`, every operation of the batch is durable. A batch that fails
    /// in memory is rolled back by re-publishing the pre-batch snapshot
    /// and logs nothing; a batch whose append tears recovers to nothing
    /// of the batch — the record's CRC frame makes a partial batch
    /// structurally impossible. Returns the number of operations
    /// committed.
    pub(crate) fn apply_batch(&mut self, parts: &[Part<'_>]) -> Result<usize, SubcubeError> {
        let _span = sdr_obs::span("durable.apply_batch");
        let before = self.mgr.view();
        let mut encoded = Vec::with_capacity(parts.len());
        for part in parts {
            match self.stage(part) {
                Ok((payload, _)) => encoded.push(payload),
                Err(e) => {
                    // Undo the partially applied batch: nothing was
                    // logged, so restoring the pre-batch version makes
                    // the failure "as if never issued".
                    // `durable.skip-rollback` is a model-only mutation:
                    // leaving the half-applied batch in place is exactly
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

    /// Folds the log into a new atomic checkpoint, rotates to a fresh
    /// log, and sweeps the superseded epoch. Returns the new epoch.
    pub(crate) fn checkpoint(&mut self) -> Result<u64, SubcubeError> {
        let next = self.epoch + 1;
        let hwm = self.ops_durable();
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
        sweep_garbage(self.fs.as_ref(), &self.dir, next);
        Ok(next)
    }
}

#[cfg(test)]
mod tests {
    //! A shard is only reached through the router: these drive the log
    //! through a one-shard warehouse, whose root is the shard directory.
    use std::path::PathBuf;
    use std::sync::Arc;

    use sdr_mdm::calendar::days_from_civil;
    use sdr_mdm::Mo;
    use sdr_reduce::DataReductionSpec;
    use sdr_spec::{parse_action, ActionId};
    use sdr_storage::fs::RealFs;
    use sdr_workload::{paper_mo, ACTION_A1, ACTION_A2};

    use crate::layout::{ckpt_name, wal_name};
    use crate::persist::spec_fingerprint;
    use crate::{ShardRouter, WarehouseOp};

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

    fn rows(w: &ShardRouter) -> Vec<String> {
        let mo = w.view_set().to_mo().unwrap();
        let mut v: Vec<String> = mo.facts().map(|f| mo.render_fact(f)).collect();
        v.sort();
        v
    }

    #[test]
    fn create_log_recover_equals_live() {
        let dir = tmpdir("clr");
        let (mo, spec) = paper_spec();
        let w = ShardRouter::create(spec.clone(), &dir, 1).unwrap();
        w.bulk_load(&mo).unwrap();
        w.sync(days_from_civil(2000, 6, 5)).unwrap();
        w.sync(days_from_civil(2000, 11, 5)).unwrap();
        assert_eq!(w.ops_durable(), 3);
        // One shard is the single-directory layout: no SHARDS, no shard-000.
        assert!(dir.join("CURRENT").exists());
        assert!(!dir.join("SHARDS").exists() && !dir.join("shard-000").exists());
        // Recover without any checkpoint beyond epoch 0: pure replay.
        let (rec, report) = ShardRouter::recover(spec, &dir).unwrap();
        assert_eq!((report.shards, report.epoch, report.replayed), (1, 0, 3));
        assert_eq!(report.dropped_bytes, 0);
        assert_eq!(rows(&rec), rows(&w));
        assert_eq!(rec.last_sync(), w.last_sync());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_rotates_and_recover_uses_it() {
        let dir = tmpdir("ckpt");
        let (mo, spec) = paper_spec();
        let w = ShardRouter::create(spec.clone(), &dir, 1).unwrap();
        w.bulk_load(&mo).unwrap();
        w.sync(days_from_civil(2000, 6, 5)).unwrap();
        assert_eq!(w.checkpoint().unwrap(), 1);
        // Post-checkpoint operations land in the fresh log.
        w.sync(days_from_civil(2000, 11, 5)).unwrap();
        let (rec, report) = ShardRouter::recover(spec, &dir).unwrap();
        assert_eq!((report.epoch, report.replayed), (1, 1));
        assert_eq!(report.ops_durable, 3);
        assert_eq!(rows(&rec), rows(&w));
        // The superseded epoch was swept.
        assert!(!dir.join(ckpt_name(0)).exists());
        assert!(!dir.join(wal_name(0)).exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn spec_evolution_is_journaled() {
        let dir = tmpdir("evo");
        let (mo, spec) = paper_spec();
        let actions: Vec<_> = spec.actions().iter().map(|(_, a)| a.clone()).collect();
        // Start from an *empty* spec; insert both actions through the log.
        let empty = DataReductionSpec::new(Arc::clone(mo.schema()), vec![]).unwrap();
        let w = ShardRouter::create(empty.clone(), &dir, 1).unwrap();
        w.bulk_load(&mo).unwrap();
        assert_eq!(w.spec_insert(actions).unwrap().len(), 2);
        w.sync(days_from_civil(2000, 11, 5)).unwrap();
        // Recovery replays the evolution from the initial (empty) spec.
        let (rec, report) = ShardRouter::recover(empty, &dir).unwrap();
        assert_eq!(report.replayed, 3);
        assert_eq!(rec.view_set().views()[0].cubes().len(), 3);
        assert_eq!(rows(&rec), rows(&w));
        assert_eq!(spec_fingerprint(&rec.spec()), spec_fingerprint(&spec));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_dropped_on_recovery() {
        let dir = tmpdir("torn");
        let (mo, spec) = paper_spec();
        let w = ShardRouter::create(spec.clone(), &dir, 1).unwrap();
        w.bulk_load(&mo).unwrap();
        w.sync(days_from_civil(2000, 6, 5)).unwrap();
        let committed = rows(&w);
        // A later sync's record is torn to a garbage prefix on "crash".
        w.sync(days_from_civil(2000, 11, 5)).unwrap();
        let wal_path = dir.join(wal_name(0));
        let full = std::fs::read(&wal_path).unwrap();
        std::fs::write(&wal_path, &full[..full.len() - 5]).unwrap();
        let (rec, report) = ShardRouter::recover(spec, &dir).unwrap();
        assert_eq!(report.replayed, 2);
        assert!(report.dropped_bytes > 0);
        assert_eq!(rows(&rec), committed);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn group_commit_batch_is_one_record_and_replays() {
        let dir = tmpdir("batch");
        let (mo, spec) = paper_spec();
        let w = ShardRouter::create(spec.clone(), &dir, 1).unwrap();
        let n = w
            .apply_batch(vec![
                WarehouseOp::BulkLoad(mo.clone()),
                WarehouseOp::Sync(days_from_civil(2000, 6, 5)),
                WarehouseOp::Sync(days_from_civil(2000, 11, 5)),
            ])
            .unwrap();
        assert_eq!(n, 3);
        assert_eq!(w.ops_durable(), 3, "every batched op counts");
        // On disk the batch is one frame.
        let scan = sdr_storage::scan_wal(&RealFs, &dir.join(wal_name(0))).unwrap();
        assert_eq!(scan.records.len(), 1);
        assert!(sdr_storage::is_group(&scan.records[0]));
        let (rec, report) = ShardRouter::recover(spec, &dir).unwrap();
        assert_eq!((report.replayed, report.ops_durable), (3, 3));
        assert_eq!(rows(&rec), rows(&w));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_batch_rolls_back_and_leaves_no_trace() {
        let dir = tmpdir("batchfail");
        let (mo, spec) = paper_spec();
        let w = ShardRouter::create(spec.clone(), &dir, 1).unwrap();
        w.bulk_load(&mo).unwrap();
        let before = rows(&w);
        // Second op fails in memory (deleting an unknown action id).
        let err = w.apply_batch(vec![
            WarehouseOp::Sync(days_from_civil(2000, 6, 5)),
            WarehouseOp::SpecDelete(vec![ActionId(999)], days_from_civil(2000, 6, 5)),
        ]);
        assert!(err.is_err());
        assert!(!w.is_broken(), "a rolled-back batch does not wedge");
        assert_eq!(w.ops_durable(), 1, "only the bulk load is durable");
        assert_eq!(
            rows(&w),
            before,
            "memory rolled back to the pre-batch state"
        );
        assert_eq!(w.last_sync(), None, "the sync was undone");
        // Recovery agrees: the batch never happened.
        let (rec, report) = ShardRouter::recover(spec, &dir).unwrap();
        assert_eq!(report.replayed, 1);
        assert_eq!(rows(&rec), before);
        // The warehouse still accepts work.
        w.sync(days_from_civil(2000, 6, 5)).unwrap();
        assert_eq!(w.ops_durable(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn create_refuses_existing_warehouse() {
        let dir = tmpdir("dup");
        let (_, spec) = paper_spec();
        let _w = ShardRouter::create(spec.clone(), &dir, 1).unwrap();
        for shards in [1, 2] {
            assert!(ShardRouter::create(spec.clone(), &dir, shards).is_err());
        }
        // open() takes the recovery path instead, whatever count it asks.
        assert_eq!(ShardRouter::open(spec, &dir, 2).unwrap().shards(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }
}
