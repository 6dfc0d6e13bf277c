//! Subcube persistence: atomic, manifest-described checkpoints.
//!
//! A warehouse directory is either the old checkpoint or the new one —
//! never a torn mixture. The layout is
//!
//! ```text
//! dir/
//!   CURRENT            framed pointer to the live checkpoint directory
//!   ckpt-<epoch>/      one complete checkpoint
//!     MANIFEST         cube count, spec hash, WAL high-water mark, CRC
//!     cube-<i>.sdr     one subcube's facts (sdr_storage::encode_facts)
//!   wal-<epoch>.log    operations since that checkpoint (sdr-storage WAL)
//! ```
//!
//! A checkpoint is staged in a temp directory, fsynced, renamed into
//! place, and only then published by an atomic rewrite of `CURRENT`. A
//! crash at any point leaves `CURRENT` pointing at a complete, fully
//! synced checkpoint. The cube *layout* is still a pure function of the
//! (validated) specification, which callers keep in their configuration,
//! exactly as Section 7 assumes the action set is metadata of the
//! warehouse; the manifest's specification hash cross-checks the two.

use std::path::Path;
use std::sync::Arc;

use sdr_mdm::DayNum;
use sdr_reduce::DataReductionSpec;
use sdr_storage::fs::{atomic_write, Fs, RealFs};
use sdr_storage::wal::crc32;
use sdr_storage::{decode_facts, encode_facts, raw_bytes};

use crate::error::SubcubeError;
use crate::manager::{SubcubeManager, WarehouseView};
use crate::stats::SubcubeStats;

/// Manifest file magic: `"SDRMAN01"`.
const MANIFEST_MAGIC: u64 = 0x5344_524d_414e_3031;

/// The newest checkpoint/manifest format this build reads. Format 2
/// appended the per-cube [`SubcubeStats`] block; format 3 extends each
/// stats block with bottom-footprint hulls + origin sets and appends a
/// per-cube on-disk byte table (raw vs. encoded); format 4 is format 3
/// plus one trailing `u64`, the bottom cube's un-homed row count, and is
/// written only when that count is non-zero — a checkpoint of a fully
/// homed warehouse stays byte-for-byte format 3. Older manifests (1 and
/// 2) still decode — recovery verifies their stats against the matching
/// legacy projection and the next checkpoint rewrites them.
const MANIFEST_FORMAT: u32 = 4;

use crate::layout::WarehouseLayout;
pub use crate::layout::{ckpt_name, wal_name};

/// A 64-bit FNV-1a hash of the rendered specification — the manifest's
/// cross-check that a directory is opened with the spec it was written
/// with.
pub fn spec_fingerprint(spec: &DataReductionSpec) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in spec.render().bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// The decoded contents of a checkpoint `MANIFEST`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// The manifest format this checkpoint was written under. Writers
    /// use format 3, or 4 when `unhomed_rows` is non-zero; formats 1 and
    /// 2 are only ever decoded.
    pub format: u32,
    /// The checkpoint's epoch (matches its directory and WAL file names).
    pub epoch: u64,
    /// Number of cube files in the checkpoint.
    pub cube_count: u32,
    /// The cumulative operation high-water mark: how many logged
    /// operations (across all epochs) are already folded into this
    /// checkpoint's cube files.
    pub wal_hwm: u64,
    /// The manager's `last_sync` at checkpoint time.
    pub last_sync: Option<DayNum>,
    /// [`spec_fingerprint`] of the specification the cubes were written
    /// under.
    pub spec_hash: u64,
    /// The next [`sdr_spec::ActionId`] the specification would allocate —
    /// persisted so replayed spec evolution allocates the same ids.
    pub next_action_id: u32,
    /// The rendered specification (`aN = p(...)` lines) — recovery
    /// rebuilds the checkpoint's evolved spec from it.
    pub spec_text: String,
    /// Per-cube statistics at checkpoint time (format ≥ 2; empty for
    /// legacy format-1 manifests). Recovery recomputes stats from the
    /// loaded cube files and verifies they match this copy exactly
    /// (format ≤ 2: against the legacy projection).
    pub cube_stats: Vec<SubcubeStats>,
    /// Per-cube on-disk sizes at checkpoint time, `(raw, encoded)` bytes
    /// (format ≥ 3; empty for older manifests): `raw` is the
    /// uncompressed row footprint, `encoded` the serialized cube file
    /// length after dictionary/bit-packed column encoding — what
    /// `specdr stats --bytes` reports.
    pub cube_bytes: Vec<(u64, u64)>,
    /// How many rows of the bottom cube — its last, in row order — were
    /// bulk-loaded but not yet homed when the checkpoint was taken
    /// (format ≥ 4; zero for older manifests). Recovery restores them as
    /// un-homed, so the next `age` or un-synchronized read homes them.
    pub unhomed_rows: u64,
}

impl Manifest {
    /// Serializes the manifest in the format-3 layout — plus the format-4
    /// trailer when `format` says so — with a trailing CRC-32.
    pub fn encode(&self) -> Vec<u8> {
        let mut b = Vec::new();
        b.extend_from_slice(&MANIFEST_MAGIC.to_le_bytes());
        b.extend_from_slice(&self.format.to_le_bytes());
        b.extend_from_slice(&self.epoch.to_le_bytes());
        b.extend_from_slice(&self.cube_count.to_le_bytes());
        b.extend_from_slice(&self.wal_hwm.to_le_bytes());
        b.extend_from_slice(&self.last_sync.map_or(i64::MIN, i64::from).to_le_bytes());
        b.extend_from_slice(&self.spec_hash.to_le_bytes());
        b.extend_from_slice(&self.next_action_id.to_le_bytes());
        b.extend_from_slice(&(self.spec_text.len() as u32).to_le_bytes());
        b.extend_from_slice(self.spec_text.as_bytes());
        // The stats block has its own count, independent of `cube_count`,
        // so a forged count check still fires at load.
        b.extend_from_slice(&(self.cube_stats.len() as u32).to_le_bytes());
        for s in &self.cube_stats {
            s.encode_into(&mut b);
        }
        // The byte table: per-cube (raw, encoded) on-disk sizes.
        b.extend_from_slice(&(self.cube_bytes.len() as u32).to_le_bytes());
        for (raw, enc) in &self.cube_bytes {
            b.extend_from_slice(&raw.to_le_bytes());
            b.extend_from_slice(&enc.to_le_bytes());
        }
        if self.format >= 4 {
            b.extend_from_slice(&self.unhomed_rows.to_le_bytes());
        }
        let crc = crc32(&b);
        b.extend_from_slice(&crc.to_le_bytes());
        b
    }

    /// Decodes and CRC-verifies a manifest.
    pub fn decode(path: &Path, bytes: &[u8]) -> Result<Manifest, SubcubeError> {
        let bad = |what: &str| SubcubeError::Storage(format!("{}: {what}", path.display()));
        if bytes.len() < 48 + 4 {
            return Err(bad("manifest truncated"));
        }
        let (body, tail) = bytes.split_at(bytes.len() - 4);
        let want = u32::from_le_bytes(tail.try_into().unwrap());
        if crc32(body) != want {
            return Err(bad("manifest checksum mismatch"));
        }
        let mut pos = 0usize;
        let mut take = |n: usize| -> Result<&[u8], SubcubeError> {
            let s = body
                .get(pos..pos + n)
                .ok_or_else(|| bad("manifest truncated"))?;
            pos += n;
            Ok(s)
        };
        let magic = u64::from_le_bytes(take(8)?.try_into().unwrap());
        if magic != MANIFEST_MAGIC {
            return Err(bad("bad manifest magic"));
        }
        let format = u32::from_le_bytes(take(4)?.try_into().unwrap());
        if format == 0 || format > MANIFEST_FORMAT {
            return Err(bad(&format!("unsupported manifest format {format}")));
        }
        let epoch = u64::from_le_bytes(take(8)?.try_into().unwrap());
        let cube_count = u32::from_le_bytes(take(4)?.try_into().unwrap());
        let wal_hwm = u64::from_le_bytes(take(8)?.try_into().unwrap());
        let last_sync_raw = i64::from_le_bytes(take(8)?.try_into().unwrap());
        let spec_hash = u64::from_le_bytes(take(8)?.try_into().unwrap());
        let next_action_id = u32::from_le_bytes(take(4)?.try_into().unwrap());
        let text_len = u32::from_le_bytes(take(4)?.try_into().unwrap()) as usize;
        let spec_text = String::from_utf8(take(text_len)?.to_vec())
            .map_err(|_| bad("manifest spec text is not UTF-8"))?;
        let cube_stats = if format >= 2 {
            let n = u32::from_le_bytes(take(4)?.try_into().unwrap()) as usize;
            let mut take_vec = |n: usize| take(n).map(|s| s.to_vec());
            let mut stats = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                stats.push(SubcubeStats::decode_from(&mut take_vec, format >= 3)?);
            }
            stats
        } else {
            Vec::new()
        };
        let cube_bytes = if format >= 3 {
            let n = u32::from_le_bytes(take(4)?.try_into().unwrap()) as usize;
            let mut v = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                let raw = u64::from_le_bytes(take(8)?.try_into().unwrap());
                let enc = u64::from_le_bytes(take(8)?.try_into().unwrap());
                v.push((raw, enc));
            }
            v
        } else {
            Vec::new()
        };
        let unhomed_rows = if format >= 4 {
            u64::from_le_bytes(take(8)?.try_into().unwrap())
        } else {
            0
        };
        let last_sync = if last_sync_raw == i64::MIN {
            None
        } else {
            DayNum::try_from(last_sync_raw)
                .map(Some)
                .map_err(|_| bad("manifest last_sync out of range"))?
        };
        Ok(Manifest {
            format,
            epoch,
            cube_count,
            wal_hwm,
            last_sync,
            spec_hash,
            next_action_id,
            spec_text,
            cube_stats,
            cube_bytes,
            unhomed_rows,
        })
    }
}

/// Rebuilds the checkpoint's specification from the manifest's rendered
/// `aN = p(...)` lines, preserving action ids and the insert counter so
/// that replayed spec evolution behaves exactly as the original run. The
/// NonCrossing/Growing checks re-run during reconstruction.
pub fn spec_from_manifest(
    schema: &Arc<sdr_mdm::Schema>,
    manifest: &Manifest,
) -> Result<DataReductionSpec, SubcubeError> {
    let mut actions = Vec::new();
    for line in manifest.spec_text.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let parsed = line
            .strip_prefix('a')
            .and_then(|r| r.split_once(" = "))
            .and_then(|(id, src)| id.parse::<u32>().ok().map(|id| (id, src)));
        let Some((id, src)) = parsed else {
            return Err(SubcubeError::Storage(format!(
                "manifest spec line unparseable: {line}"
            )));
        };
        let a = sdr_spec::parse_action(schema, src).map_err(|e| {
            SubcubeError::Storage(format!("manifest action a{id} does not parse: {e}"))
        })?;
        actions.push((sdr_spec::ActionId(id), a));
    }
    DataReductionSpec::from_parts(Arc::clone(schema), actions, manifest.next_action_id)
        .map_err(|e| SubcubeError::Storage(format!("manifest specification invalid: {e}")))
}

/// Reads the manifest of checkpoint `epoch` in `dir`.
pub(crate) fn read_manifest_at(
    fs: &dyn Fs,
    dir: &Path,
    epoch: u64,
) -> Result<Manifest, SubcubeError> {
    let path = WarehouseLayout::at(dir).manifest(epoch);
    let bytes = fs
        .read(&path)
        .map_err(|e| SubcubeError::Storage(format!("{}: {e}", path.display())))?;
    Manifest::decode(&path, &bytes)
}

/// Reads `dir/CURRENT` and returns the live epoch.
pub(crate) fn read_current(fs: &dyn Fs, dir: &Path) -> Result<u64, SubcubeError> {
    let path = WarehouseLayout::at(dir).current();
    let bytes = fs
        .read(&path)
        .map_err(|e| SubcubeError::Storage(format!("{}: {e}", path.display())))?;
    let bad = || SubcubeError::Storage(format!("{}: corrupt checkpoint pointer", path.display()));
    if bytes.len() != 12 {
        return Err(bad());
    }
    let epoch = u64::from_le_bytes(bytes[..8].try_into().unwrap());
    let want = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    if crc32(&bytes[..8]) != want {
        return Err(bad());
    }
    Ok(epoch)
}

/// Reads the live checkpoint's manifest of a one-shard warehouse or of
/// one shard's directory (the `CURRENT` pointer decides which epoch is
/// live). Inspection only — use
/// [`ShardRouter::recover`](crate::ShardRouter::recover) to actually
/// open the warehouse.
pub fn read_manifest(dir: impl AsRef<Path>) -> Result<Manifest, SubcubeError> {
    let fs = RealFs;
    let dir = dir.as_ref();
    let epoch = read_current(&fs, dir)?;
    read_manifest_at(&fs, dir, epoch)
}

/// Atomically publishes `epoch` as the live checkpoint.
pub(crate) fn write_current(fs: &dyn Fs, dir: &Path, epoch: u64) -> Result<(), SubcubeError> {
    let mut bytes = Vec::with_capacity(12);
    bytes.extend_from_slice(&epoch.to_le_bytes());
    bytes.extend_from_slice(&crc32(&epoch.to_le_bytes()).to_le_bytes());
    atomic_write(fs, &WarehouseLayout::at(dir).current(), &bytes)
        .map_err(|e| SubcubeError::Storage(format!("publishing CURRENT: {e}")))
}

/// Writes one complete checkpoint (cubes + manifest) for `epoch` into
/// `dir`, staged in a temp directory and atomically renamed into place.
/// The checkpoint is *not* live until [`write_current`] publishes it.
/// Taking a [`WarehouseView`] pins one published version for the whole
/// write — concurrent reductions cannot tear the checkpoint.
pub(crate) fn write_checkpoint(
    view: &WarehouseView,
    fs: &dyn Fs,
    dir: &Path,
    epoch: u64,
    wal_hwm: u64,
) -> Result<(), SubcubeError> {
    let _span = sdr_obs::span("durable.checkpoint");
    let err = |e: &dyn std::fmt::Display| SubcubeError::Storage(e.to_string());
    fs.create_dir_all(dir).map_err(|e| err(&e))?;
    let lay = WarehouseLayout::at(dir);
    let tmp = lay.ckpt_tmp(epoch);
    let fin = lay.ckpt_dir(epoch);
    // Clear wreckage from an earlier crashed attempt at this epoch.
    if fs.exists(&tmp) {
        fs.remove_dir_all(&tmp).map_err(|e| err(&e))?;
    }
    if fs.exists(&fin) {
        fs.remove_dir_all(&fin).map_err(|e| err(&e))?;
    }
    fs.create_dir_all(&tmp).map_err(|e| err(&e))?;
    let mut bytes_written = 0u64;
    let mut cube_bytes = Vec::with_capacity(view.cubes().len());
    for (i, cube) in view.cubes().iter().enumerate() {
        // Straight from the chunks: the bytes are those of the cube's
        // contiguous view, which a checkpoint has no need to build.
        let bytes = encode_facts(view.schema(), cube.chunks().iter().map(|c| c.mo()));
        let raw = raw_bytes(view.schema(), cube.rows()) as u64;
        bytes_written += bytes.len() as u64;
        cube_bytes.push((raw, bytes.len() as u64));
        fs.write(&WarehouseLayout::cube_file_in(&tmp, i), &bytes)
            .map_err(|e| err(&e))?;
    }
    let unhomed_rows = view.unhomed_rows() as u64;
    let manifest = Manifest {
        format: if unhomed_rows == 0 { 3 } else { 4 },
        epoch,
        cube_count: view.cubes().len() as u32,
        wal_hwm,
        last_sync: view.last_sync(),
        spec_hash: spec_fingerprint(view.spec()),
        next_action_id: view.spec().next_action_id(),
        spec_text: view.spec().render(),
        cube_stats: view.cubes().iter().map(|c| c.stats().clone()).collect(),
        cube_bytes,
        unhomed_rows,
    };
    fs.write(&WarehouseLayout::manifest_in(&tmp), &manifest.encode())
        .map_err(|e| err(&e))?;
    fs.sync_dir(&tmp).map_err(|e| err(&e))?;
    fs.rename(&tmp, &fin).map_err(|e| err(&e))?;
    if sdr_obs::enabled() {
        sdr_obs::inc("durable.checkpoint.count");
        sdr_obs::add("durable.checkpoint.bytes", bytes_written);
        sdr_obs::add("durable.checkpoint.cubes", view.cubes().len() as u64);
    }
    Ok(())
}

/// Loads the cubes of checkpoint `epoch`, whose decoded `manifest` the
/// caller has read, into a fresh manager for `spec`, verifying the spec
/// hash, the per-cube files, the cube granularities and the persisted
/// statistics.
pub(crate) fn load_checkpoint(
    spec: DataReductionSpec,
    manifest: &Manifest,
    fs: &dyn Fs,
    dir: &Path,
    epoch: u64,
) -> Result<SubcubeManager, SubcubeError> {
    let ckpt = WarehouseLayout::at(dir).ckpt_dir(epoch);
    let man_path = WarehouseLayout::manifest_in(&ckpt);
    let m = SubcubeManager::new(spec);
    let layout = m.view();
    if manifest.spec_hash != spec_fingerprint(&m.spec()) {
        return Err(SubcubeError::Storage(format!(
            "{}: specification hash mismatch — was the directory written \
             with a different specification?\n  on disk: {}",
            man_path.display(),
            manifest.spec_text
        )));
    }
    if (manifest.cube_count as usize) > layout.cubes().len() {
        let extra = WarehouseLayout::cube_file_in(&ckpt, layout.cubes().len());
        return Err(SubcubeError::Storage(format!(
            "{}: more cubes on disk than the specification defines",
            extra.display()
        )));
    }
    if manifest.cube_stats.len() > layout.cubes().len() {
        let extra = WarehouseLayout::cube_file_in(&ckpt, layout.cubes().len());
        return Err(SubcubeError::Storage(format!(
            "{}: manifest carries statistics for a cube that has no file",
            extra.display()
        )));
    }
    let mut mos = Vec::with_capacity(layout.cubes().len());
    for i in 0..layout.cubes().len() {
        let path = WarehouseLayout::cube_file_in(&ckpt, i);
        let bad =
            |e: &dyn std::fmt::Display| SubcubeError::Storage(format!("{}: {e}", path.display()));
        let bytes = fs.read(&path).map_err(|e| bad(&e))?;
        let mo = decode_facts(m.schema(), &bytes).map_err(|e| bad(&e))?;
        // A persisted non-bottom cube must hold facts of its own
        // granularity; reject mismatched layouts early. (The bottom
        // cube may legitimately hold ⊤-coordinate facts and fallback
        // rows, so it is exempt.)
        if i != 0 {
            for f in mo.facts() {
                if mo.gran(f) != layout.cubes()[i].grain {
                    return Err(SubcubeError::Storage(format!(
                        "{}: fact at foreign granularity — was the directory written \
                         with a different specification?",
                        path.display()
                    )));
                }
            }
        }
        mos.push(mo);
    }
    if manifest.unhomed_rows > mos[0].len() as u64 {
        return Err(SubcubeError::Storage(format!(
            "{}: manifest declares {} un-homed rows, the bottom cube holds {}",
            man_path.display(),
            manifest.unhomed_rows,
            mos[0].len()
        )));
    }
    m.install_checkpoint(mos, manifest.last_sync, manifest.unhomed_rows as usize)?;
    // Persisted stats (format ≥ 2) must be bit-identical to the fold of
    // the installed chunks' summaries — each chunk was summarized once,
    // when it was built, and the fold is exact (it equals a recomputation
    // over the whole cube). Stale or forged stats are a corruption
    // signal, not something to silently repair. A format-≤2 checkpoint
    // never stored hulls/origins, so its stats are checked against the
    // legacy projection.
    let view = m.view();
    for (i, (persisted, cube)) in manifest.cube_stats.iter().zip(view.cubes()).enumerate() {
        let folded = SubcubeStats {
            last_epoch: persisted.last_epoch,
            ..cube.stats().clone()
        };
        let matches = if manifest.format >= 3 {
            folded == *persisted
        } else {
            folded.legacy_projection() == *persisted
        };
        if !matches {
            return Err(SubcubeError::Storage(format!(
                "{}: persisted cube statistics diverge from recomputation",
                WarehouseLayout::cube_file_in(&ckpt, i).display()
            )));
        }
    }
    Ok(m)
}

/// Removes superseded checkpoint directories and log files (best
/// effort; failures are ignored — garbage never affects recovery).
pub(crate) fn sweep_garbage(fs: &dyn Fs, dir: &Path, live_epoch: u64) {
    let Ok(entries) = fs.read_dir(dir) else {
        return;
    };
    let live_ckpt = ckpt_name(live_epoch);
    let live_wal = wal_name(live_epoch);
    for p in entries {
        let Some(name) = p.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if name == "CURRENT" || name == live_ckpt || name == live_wal {
            continue;
        }
        if name.starts_with("ckpt-") {
            fs.remove_dir_all(&p).ok();
        } else if name.starts_with("wal-") {
            fs.remove_file(&p).ok();
        }
    }
}
