//! The warehouse mutation: what it is, how it is encoded, how it is
//! applied.
//!
//! The paper gives the warehouse exactly five mutations — bulk-load into
//! the bottom cube and synchronize/age (Section 7.2), specification
//! `insert` and `delete` (Definitions 3–4). [`WarehouseOp`] is that set as
//! one value with one byte encoding ([`WarehouseOp::encode`] /
//! [`WarehouseOp::decode`], the WAL record payload) and one way to run it
//! on a shard's core (`SubcubeManager::apply`). The live path
//! ([`ShardRouter::apply`](crate::ShardRouter::apply), one logged apply
//! per shard), group commit and crash-recovery replay all go through
//! these three functions, so a replayed record does what the acknowledged
//! call did by construction.
//!
//! # Record payload
//!
//! ```text
//! tag 1  BulkLoad    fact segments (sdr_storage::encode_facts)
//! tag 2  Sync        day:i64le
//! tag 3  SpecInsert  n:u32le (len:u32le utf8-action-source)*
//! tag 4  SpecDelete  n:u32le (action-id:u32le)* day:i64le
//! tag 5  Age         day:i64le
//! ```

use std::sync::Arc;

use sdr_mdm::{DayNum, Mo, Schema};
use sdr_reduce::ReduceError;
use sdr_spec::{parse_action, ActionId, ActionSpec};
use sdr_storage::{decode_facts, encode_facts};

use crate::error::SubcubeError;
use crate::manager::{AgeStats, SubcubeManager};

/// One warehouse mutation — the unit of logging, replay, group commit
/// and shard scatter.
#[derive(Debug, Clone)]
pub enum WarehouseOp {
    /// Bulk-load bottom-granularity facts.
    BulkLoad(Mo),
    /// Synchronize the cubes to a day (a day before the watermark means
    /// the watermark). The steps are derived from the spec's transition
    /// schedule, so the day is enough to replay every one.
    Sync(DayNum),
    /// Age the cubes to a day: [`Sync`](WarehouseOp::Sync), except that
    /// a day before the watermark is refused.
    Age(DayNum),
    /// Insert actions into the specification (encoded in source form).
    SpecInsert(Vec<ActionSpec>),
    /// Delete actions from the specification at a day.
    SpecDelete(Vec<ActionId>, DayNum),
}

const TAG_BULK_LOAD: u8 = 1;
const TAG_SYNC: u8 = 2;
const TAG_SPEC_INSERT: u8 = 3;
const TAG_SPEC_DELETE: u8 = 4;
const TAG_AGE: u8 = 5;

fn storage(e: impl std::fmt::Display) -> SubcubeError {
    SubcubeError::Storage(e.to_string())
}

fn put_len(b: &mut Vec<u8>, n: usize) {
    b.extend_from_slice(&(n as u32).to_le_bytes());
}

fn put_day(b: &mut Vec<u8>, day: DayNum) {
    b.extend_from_slice(&i64::from(day).to_le_bytes());
}

/// Cursor over a record payload; every read is bounds-checked.
struct Reader<'a> {
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    fn bad(what: &str) -> SubcubeError {
        SubcubeError::Storage(format!("wal record: {what}"))
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SubcubeError> {
        if n > self.rest.len() {
            return Err(Self::bad("truncated record"));
        }
        let (head, rest) = self.rest.split_at(n);
        self.rest = rest;
        Ok(head)
    }

    fn u32(&mut self) -> Result<u32, SubcubeError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("take returned 4 bytes"),
        ))
    }

    fn day(&mut self) -> Result<DayNum, SubcubeError> {
        let raw = i64::from_le_bytes(self.take(8)?.try_into().expect("take returned 8 bytes"));
        DayNum::try_from(raw).map_err(|_| Self::bad("day out of range"))
    }
}

impl WarehouseOp {
    /// The operation's short name (`bulk_load`, `sync`, …), the suffix of
    /// its span names.
    pub fn name(&self) -> &'static str {
        match self {
            WarehouseOp::BulkLoad(_) => "bulk_load",
            WarehouseOp::Sync(_) => "sync",
            WarehouseOp::Age(_) => "age",
            WarehouseOp::SpecInsert(_) => "spec_insert",
            WarehouseOp::SpecDelete(..) => "spec_delete",
        }
    }

    /// Serializes the operation into a WAL record payload. Fails when the
    /// operation cannot be replayed from its bytes: an action whose
    /// rendering does not parse back to itself (none known).
    pub fn encode(&self, schema: &Schema) -> Result<Vec<u8>, SubcubeError> {
        let mut b = Vec::new();
        match self {
            WarehouseOp::BulkLoad(mo) => b = Self::encode_load(mo.schema(), [mo]),
            WarehouseOp::Sync(now) => {
                b.push(TAG_SYNC);
                put_day(&mut b, *now);
            }
            WarehouseOp::Age(until) => {
                b.push(TAG_AGE);
                put_day(&mut b, *until);
            }
            WarehouseOp::SpecInsert(actions) => {
                b.push(TAG_SPEC_INSERT);
                put_len(&mut b, actions.len());
                for a in actions {
                    let src = a.render(schema);
                    if parse_action(schema, &src).map_err(ReduceError::Spec)? != *a {
                        return Err(SubcubeError::Storage(format!(
                            "action does not round-trip through its rendering: {src}"
                        )));
                    }
                    put_len(&mut b, src.len());
                    b.extend_from_slice(src.as_bytes());
                }
            }
            WarehouseOp::SpecDelete(ids, now) => {
                b.push(TAG_SPEC_DELETE);
                put_len(&mut b, ids.len());
                for id in ids {
                    b.extend_from_slice(&id.0.to_le_bytes());
                }
                put_day(&mut b, *now);
            }
        }
        Ok(b)
    }

    /// The payload of a [`BulkLoad`](WarehouseOp::BulkLoad) of the facts
    /// of `parts`, read as one table in the order given: the bytes depend
    /// on the concatenated rows only, so a shard logs the chunks it
    /// appended without joining them first.
    pub(crate) fn encode_load<'a>(
        schema: &Schema,
        parts: impl IntoIterator<Item = &'a Mo>,
    ) -> Vec<u8> {
        let mut b = vec![TAG_BULK_LOAD];
        b.append(&mut encode_facts(schema, parts));
        b
    }

    /// Decodes a WAL record payload against the warehouse schema.
    pub fn decode(schema: &Arc<Schema>, payload: &[u8]) -> Result<WarehouseOp, SubcubeError> {
        let (&tag, rest) = payload
            .split_first()
            .ok_or_else(|| Reader::bad("empty record"))?;
        let mut r = Reader { rest };
        Ok(match tag {
            TAG_BULK_LOAD => WarehouseOp::BulkLoad(decode_facts(schema, rest).map_err(storage)?),
            TAG_SYNC => WarehouseOp::Sync(r.day()?),
            TAG_AGE => WarehouseOp::Age(r.day()?),
            TAG_SPEC_INSERT => {
                let n = r.u32()? as usize;
                let mut actions = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    let len = r.u32()? as usize;
                    let src = std::str::from_utf8(r.take(len)?)
                        .map_err(|_| Reader::bad("action source is not UTF-8"))?;
                    actions.push(parse_action(schema, src).map_err(ReduceError::Spec)?);
                }
                WarehouseOp::SpecInsert(actions)
            }
            TAG_SPEC_DELETE => {
                let n = r.u32()? as usize;
                let mut ids = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    ids.push(ActionId(r.u32()?));
                }
                WarehouseOp::SpecDelete(ids, r.day()?)
            }
            other => return Err(Reader::bad(&format!("unknown op tag {other}"))),
        })
    }
}

/// What a successfully applied [`WarehouseOp`] returned: the value the
/// corresponding mutation returns.
#[derive(Debug, Clone)]
pub enum OpOutcome {
    /// Facts absorbed by a bulk load.
    Loaded(usize),
    /// Statistics of a reduction (sync or age).
    Aged(AgeStats),
    /// The ids assigned to inserted actions.
    Inserted(Vec<ActionId>),
    /// A specification delete went through.
    Deleted,
}

impl OpOutcome {
    fn mismatch(&self, want: &str) -> ! {
        panic!("apply returned {self:?} for a {want} operation")
    }

    /// The fact count of a [`WarehouseOp::BulkLoad`]. Panics on any other
    /// outcome, as the two accessors below do: a shard's apply pairs
    /// each op variant with its outcome variant.
    pub fn loaded(self) -> usize {
        match self {
            OpOutcome::Loaded(n) => n,
            o => o.mismatch("bulk-load"),
        }
    }

    /// The statistics of a [`WarehouseOp::Sync`] or [`WarehouseOp::Age`].
    pub fn aged(self) -> AgeStats {
        match self {
            OpOutcome::Aged(s) => s,
            o => o.mismatch("sync or age"),
        }
    }

    /// The action ids of a [`WarehouseOp::SpecInsert`].
    pub fn inserted(self) -> Vec<ActionId> {
        match self {
            OpOutcome::Inserted(ids) => ids,
            o => o.mismatch("spec-insert"),
        }
    }
}

impl SubcubeManager {
    /// Applies one mutation — the only place an op variant is dispatched
    /// to its mutator, whether the op came from a caller, a batch, a
    /// replayed log record or a shard scatter.
    pub(crate) fn apply(&self, op: &WarehouseOp) -> Result<OpOutcome, SubcubeError> {
        Ok(match op {
            WarehouseOp::BulkLoad(mo) => OpOutcome::Loaded(self.bulk_load(mo)?),
            WarehouseOp::Sync(now) => OpOutcome::Aged(self.sync(*now)?),
            WarehouseOp::Age(until) => OpOutcome::Aged(self.age(*until)?),
            WarehouseOp::SpecInsert(new) => OpOutcome::Inserted(self.evolve_insert(new.clone())?),
            WarehouseOp::SpecDelete(ids, now) => {
                self.evolve_delete(ids, *now)?;
                OpOutcome::Deleted
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdr_mdm::calendar::days_from_civil;
    use sdr_workload::{churn_script, paper_mo, ChurnOp, ACTION_A1, ACTION_A2};

    fn hex(b: &[u8]) -> String {
        b.iter().map(|x| format!("{x:02x}")).collect()
    }

    fn rows(mo: &Mo) -> Vec<String> {
        mo.facts().map(|f| mo.render_fact(f)).collect()
    }

    /// Structural equality (`Mo` has no `PartialEq`; facts compare by
    /// rendering, in order).
    fn same(a: &WarehouseOp, b: &WarehouseOp) -> bool {
        use WarehouseOp as W;
        match (a, b) {
            (W::BulkLoad(x), W::BulkLoad(y)) => rows(x) == rows(y),
            (W::Sync(x), W::Sync(y)) | (W::Age(x), W::Age(y)) => x == y,
            (W::SpecInsert(x), W::SpecInsert(y)) => x == y,
            (W::SpecDelete(x, s), W::SpecDelete(y, t)) => x == y && s == t,
            _ => false,
        }
    }

    /// One fixture per variant, in tag order.
    fn fixtures() -> (Arc<Schema>, Vec<WarehouseOp>) {
        let (mo, _) = paper_mo();
        let schema = Arc::clone(mo.schema());
        let actions = [ACTION_A1, ACTION_A2]
            .iter()
            .map(|s| parse_action(&schema, s).unwrap())
            .collect();
        let ops = vec![
            WarehouseOp::BulkLoad(mo.gather(&[0, 1])),
            WarehouseOp::Sync(days_from_civil(2000, 6, 5)),
            WarehouseOp::SpecInsert(actions),
            WarehouseOp::SpecDelete(vec![ActionId(0), ActionId(3)], days_from_civil(2001, 1, 1)),
            WarehouseOp::Age(days_from_civil(2002, 3, 1)),
        ];
        (schema, ops)
    }

    /// The bytes the separate log-record enum produced for these
    /// fixtures at the last commit that had one (797be60): a warehouse
    /// directory written by any earlier build must still recover.
    #[test]
    fn encoding_matches_golden_bytes() {
        let golden = [
            concat!(
                "01325443414652445302000000040000000100000002000000000000000163aa",
                "020000100000000000000000000012ab02000010000000000000000000000302",
                "0000000000000000000000000000000003020000000000000000000000000000",
                "0000000200000000000000a62a000000010000b12a0000000100000002000000",
                "0000000003000000000000000200000000000000030200000000000000010000",
                "000000000000000200000000000000a5020000000000001f0900000000000000",
                "0200000000000000020000000000000005000000000000000002000000000000",
                "00d08400000000000020cb000000000000030200000000000000ffffffff0000",
                "000000",
            ),
            "02692b000000000000",
            concat!(
                "03020000007c0000007028615b54696d652e6d6f6e74682c2055524c2e646f6d",
                "61696e5d206f5b55524c2e646f6d61696e5f677270203d202e636f6d20414e44",
                "202854696d652e6d6f6e7468203e204e4f57202d203132206d6f6e7468732041",
                "4e442054696d652e6d6f6e7468203c3d204e4f57202d2036206d6f6e74687329",
                "5d284f29295f0000007028615b54696d652e717561727465722c2055524c2e64",
                "6f6d61696e5d206f5b55524c2e646f6d61696e5f677270203d202e636f6d2041",
                "4e442054696d652e71756172746572203c3d204e4f57202d2034207175617274",
                "6572735d284f2929",
            ),
            "040200000000000000030000003b2c000000000000",
            "05e32d000000000000",
        ];
        let (schema, ops) = fixtures();
        let encoded: Vec<Vec<u8>> = ops.iter().map(|op| op.encode(&schema).unwrap()).collect();
        for ((op, bytes), want) in ops.iter().zip(&encoded).zip(golden) {
            assert_eq!(hex(bytes), want, "{}", op.name());
        }
        // A group-committed batch: sync + age in one record.
        let group = sdr_storage::pack_group(&[encoded[1].clone(), encoded[4].clone()]);
        assert_eq!(
            hex(&group),
            "b7020000000900000002692b0000000000000900000005e32d000000000000"
        );
    }

    #[test]
    fn decode_inverts_encode_over_generated_ops() {
        let (schema, mut ops) = fixtures();
        for seed in 1..=8 {
            ops.extend(
                churn_script(&schema, seed, 16)
                    .into_iter()
                    .map(|c| match c {
                        ChurnOp::Load(mo) => WarehouseOp::BulkLoad(mo),
                        ChurnOp::Sync(t) if seed % 2 == 0 => WarehouseOp::Age(t),
                        ChurnOp::Sync(t) => WarehouseOp::Sync(t),
                        ChurnOp::SpecInsert(a) => WarehouseOp::SpecInsert(vec![a]),
                        ChurnOp::SpecDelete(id, t) => WarehouseOp::SpecDelete(vec![id], t),
                    }),
            );
        }
        assert!(ops.len() > 100);
        for op in &ops {
            let bytes = op.encode(&schema).unwrap();
            let back = WarehouseOp::decode(&schema, &bytes).unwrap();
            assert!(same(&back, op), "{op:?} decoded as {back:?}");
            assert_eq!(back.encode(&schema).unwrap(), bytes);
        }
    }

    #[test]
    fn decode_rejects_malformed_records() {
        let (schema, ops) = fixtures();
        let too_far = (i64::from(DayNum::MAX) + 1).to_le_bytes();
        let mut bad_utf8 = vec![TAG_SPEC_INSERT];
        bad_utf8.extend_from_slice(&[1, 0, 0, 0, 2, 0, 0, 0, 0xff, 0xfe]);
        let insert = ops[2].encode(&schema).unwrap();
        let delete = ops[3].encode(&schema).unwrap();
        let cases: Vec<(Vec<u8>, &str)> = vec![
            (vec![], "empty record"),
            (vec![99], "unknown op tag 99"),
            (vec![TAG_SYNC, 1, 2], "truncated record"),
            (vec![TAG_AGE, 7], "truncated record"),
            (insert[..insert.len() - 1].to_vec(), "truncated record"),
            (delete[..delete.len() - 1].to_vec(), "truncated record"),
            ([&[TAG_SYNC][..], &too_far].concat(), "day out of range"),
            ([&[TAG_AGE][..], &too_far].concat(), "day out of range"),
            (bad_utf8, "action source is not UTF-8"),
        ];
        for (bytes, want) in cases {
            let err = WarehouseOp::decode(&schema, &bytes)
                .unwrap_err()
                .to_string();
            assert!(err.contains(want), "{}: got {err}", hex(&bytes));
        }
        // A bulk-load record whose table bytes are cut short is refused
        // by the storage layer.
        let load = ops[0].encode(&schema).unwrap();
        assert!(WarehouseOp::decode(&schema, &load[..load.len() / 2]).is_err());
    }
}
