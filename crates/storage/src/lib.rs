//! # sdr-storage — the byte form of the star schema's fact side
//!
//! The physical layer beneath the subcube implementation strategy of
//! Section 7. Dimension tables live in `sdr-mdm` (interned values with
//! roll-up arrays — exactly a star schema's dimension tables), and so
//! does the one in-memory fact table, the columnar [`sdr_mdm::Mo`]; this
//! crate is the codec that takes an `Mo`'s columns to bytes and back,
//! with byte-accurate size accounting, and the filesystem and log
//! framing those bytes travel through.
//!
//! * [`encode`] — per-column plain/RLE/delta/bit-packed/dictionary
//!   encoding;
//! * [`csv`] — human-readable fact interchange (export with rendered
//!   values, import of bottom-granularity facts);
//! * [`table`] — the fact-table codec: [`encode_facts`] (an ordered list
//!   of `Mo` parts to `SDRFACT2` bytes), [`decode_facts`] (bytes to an
//!   `Mo`) and the [`TableStats`] of an `Mo`, used by the storage-gain
//!   experiment (E1 in `DESIGN.md`);
//! * [`fs`] — the [`Fs`] filesystem trait with a durable [`RealFs`]
//!   (fsync discipline) and the deterministic fault-injection
//!   [`FailpointFs`] shim behind it;
//! * [`wal`] — length-prefixed, CRC-checksummed write-ahead-log framing
//!   with torn-tail detection and repair.

#![warn(missing_docs)]

pub mod csv;
pub mod encode;
pub mod error;
pub mod fs;
pub mod table;
pub mod wal;

pub use csv::{export_csv, import_csv};
pub use encode::ColumnEnc;
pub use error::StorageError;
pub use fs::{atomic_write, FailpointFs, FaultMode, Fs, MemFs, RealFs};
pub use table::{
    decode_facts, encode_facts, raw_bytes, table_stats, TableStats, DEFAULT_SEGMENT_ROWS,
};
pub use wal::{
    crc32, is_group, pack_group, scan_wal, truncate_wal_records, unpack_group, Wal, WalScan,
    WAL_GROUP_TAG, WAL_MAGIC,
};
