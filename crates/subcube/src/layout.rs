//! # On-disk warehouse layout
//!
//! One audited implementation of every path a durable warehouse touches.
//! Before this module existed, `persist.rs` and `durable.rs` each
//! string-formatted checkpoint/WAL/pointer paths independently; the
//! sharded layout (PR 9) would have added a third copy. All directory
//! naming now flows through [`WarehouseLayout`]:
//!
//! ```text
//! <root>/                      one-shard warehouse, or one shard of N ≥ 2
//!   CURRENT                    framed pointer to the live epoch
//!   ckpt-<e:06>/               checkpoint directory for epoch e
//!     MANIFEST                 cube count, spec hash, WAL high-water mark
//!     cube-<i>.sdr             one fact table per subcube
//!   ckpt-<e:06>.tmp/           staging dir (renamed into place)
//!   wal-<e:06>.log             write-ahead log for epoch e
//!
//! <root>/                      warehouse of N ≥ 2 shards
//!   SHARDS                     framed top-level shard manifest
//!   shard-<i:03>/              one complete single-shard layout each
//! ```
//!
//! The same struct describes both cases: a shard's directory is itself a
//! full single-shard layout, obtained via [`WarehouseLayout::shard`]; a
//! one-shard warehouse is that layout at the root.

use std::path::{Path, PathBuf};

/// The checkpoint directory name for an epoch.
pub fn ckpt_name(epoch: u64) -> String {
    format!("ckpt-{epoch:06}")
}

/// The write-ahead-log file name for an epoch.
pub fn wal_name(epoch: u64) -> String {
    format!("wal-{epoch:06}.log")
}

/// The directory name of shard `i` under a sharded warehouse root.
pub fn shard_name(i: usize) -> String {
    format!("shard-{i:03}")
}

/// Path helper owning the directory-naming scheme of a durable
/// warehouse root (single-shard or one shard of a sharded root).
#[derive(Debug, Clone)]
pub struct WarehouseLayout {
    root: PathBuf,
}

impl WarehouseLayout {
    /// A layout rooted at `root`.
    pub fn at(root: impl Into<PathBuf>) -> Self {
        WarehouseLayout { root: root.into() }
    }

    /// The warehouse root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// `<root>/CURRENT` — the framed live-epoch pointer.
    pub fn current(&self) -> PathBuf {
        self.root.join("CURRENT")
    }

    /// `<root>/ckpt-<e:06>` — the checkpoint directory for `epoch`.
    pub fn ckpt_dir(&self, epoch: u64) -> PathBuf {
        self.root.join(ckpt_name(epoch))
    }

    /// `<root>/ckpt-<e:06>.tmp` — the staging directory a checkpoint is
    /// written into before the atomic rename.
    pub fn ckpt_tmp(&self, epoch: u64) -> PathBuf {
        self.root.join(format!("{}.tmp", ckpt_name(epoch)))
    }

    /// `<root>/ckpt-<e:06>/MANIFEST` for `epoch`.
    pub fn manifest(&self, epoch: u64) -> PathBuf {
        self.ckpt_dir(epoch).join("MANIFEST")
    }

    /// `<root>/wal-<e:06>.log` — the WAL for `epoch`.
    pub fn wal(&self, epoch: u64) -> PathBuf {
        self.root.join(wal_name(epoch))
    }

    /// `<root>/SHARDS` — the top-level manifest of a sharded warehouse.
    pub fn shards_manifest(&self) -> PathBuf {
        self.root.join("SHARDS")
    }

    /// The layout of shard `i`: a complete single-shard layout rooted at
    /// `<root>/shard-<i:03>`.
    pub fn shard(&self, i: usize) -> WarehouseLayout {
        WarehouseLayout::at(self.root.join(shard_name(i)))
    }

    /// `MANIFEST` inside an explicit checkpoint (or staging) directory.
    pub fn manifest_in(dir: &Path) -> PathBuf {
        dir.join("MANIFEST")
    }

    /// `cube-<i>.sdr` inside an explicit checkpoint (or staging)
    /// directory.
    pub fn cube_file_in(dir: &Path, i: usize) -> PathBuf {
        dir.join(format!("cube-{i}.sdr"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn naming_is_stable() {
        // These names are the on-disk format: changing them breaks every
        // existing warehouse directory.
        assert_eq!(ckpt_name(0), "ckpt-000000");
        assert_eq!(ckpt_name(1234567), "ckpt-1234567");
        assert_eq!(wal_name(7), "wal-000007.log");
        assert_eq!(shard_name(3), "shard-003");
        let lay = WarehouseLayout::at("/w");
        assert_eq!(lay.current(), Path::new("/w/CURRENT"));
        assert_eq!(lay.ckpt_dir(2), Path::new("/w/ckpt-000002"));
        assert_eq!(lay.ckpt_tmp(2), Path::new("/w/ckpt-000002.tmp"));
        assert_eq!(lay.manifest(2), Path::new("/w/ckpt-000002/MANIFEST"));
        assert_eq!(lay.wal(2), Path::new("/w/wal-000002.log"));
        assert_eq!(lay.shards_manifest(), Path::new("/w/SHARDS"));
        assert_eq!(lay.shard(1).root(), Path::new("/w/shard-001"));
        assert_eq!(lay.shard(1).current(), Path::new("/w/shard-001/CURRENT"));
        assert_eq!(
            WarehouseLayout::cube_file_in(Path::new("/w/ckpt-000002"), 4),
            Path::new("/w/ckpt-000002/cube-4.sdr")
        );
    }
}
