//! Chunk invariants of the published version shape.
//!
//! A cube's facts are a list of immutable chunks; readers see their
//! concatenation and the fold of their summaries. After **any** sequence
//! of loads, agings, syncs and specification changes:
//!
//! * every cube's chunks concatenate to `data()`, none is empty and none
//!   exceeds [`CHUNK_ROWS`];
//! * the folded statistics equal `SubcubeStats::compute` over `data()`;
//! * a chunk an operation did not touch is the *same allocation* in the
//!   successor version (`Arc::ptr_eq`), which is what makes a day's write
//!   cost what the day changed.

mod common;

use std::sync::Arc;

use proptest::prelude::*;

use sdr_mdm::calendar::days_from_civil;
use sdr_mdm::{DayNum, Mo};
use sdr_reduce::DataReductionSpec;
use sdr_spec::{parse_action, ActionId};
use sdr_subcube::{
    Chunk, ShardRouter, SubcubeError, SubcubeManager, SubcubeStats, WarehouseOp, WarehouseView,
    CHUNK_ROWS,
};
use sdr_workload::{generate, retention_policy, Clickstream, ClickstreamConfig};

const DAYS: usize = 460;
const START: (i32, u32, u32) = (1999, 1, 1);

/// 460 days of ~40 clicks: a 103-day load is more than one chunk.
fn clicks() -> (Clickstream, Vec<Vec<u32>>) {
    let start = days_from_civil(START.0, START.1, START.2);
    let cs = generate(&ClickstreamConfig {
        seed: 0x5EED_C4A2,
        clicks_per_day: 40,
        start: START,
        end: sdr_mdm::calendar::civil_from_days(start + DAYS as DayNum - 1),
        ..Default::default()
    });
    let day_rows = cs.rows_by_day(start, DAYS);
    (cs, day_rows)
}

/// The quarter-tier action alone (sound by itself), and the month-tier
/// action the specification-change steps insert and delete beside it —
/// together they are `retention_policy(2, 12)`.
fn specs(cs: &Clickstream) -> (DataReductionSpec, sdr_spec::ActionSpec) {
    let mut actions: Vec<_> = retention_policy(2, 12)
        .iter()
        .map(|src| parse_action(&cs.schema, src).unwrap())
        .collect();
    let month = actions.remove(0);
    let spec = DataReductionSpec::new(Arc::clone(&cs.schema), actions).unwrap();
    (spec, month)
}

fn all_chunks(v: &WarehouseView) -> Vec<Arc<Chunk>> {
    v.cubes()
        .iter()
        .flat_map(|c| c.chunks().iter().cloned())
        .collect()
}

/// How many of `after`'s chunks are allocations `before` already held.
fn shared(before: &WarehouseView, after: &WarehouseView) -> usize {
    let old = all_chunks(before);
    all_chunks(after)
        .iter()
        .filter(|c| old.iter().any(|o| Arc::ptr_eq(o, c)))
        .count()
}

/// The invariants that hold of every published version.
fn check_version(v: &WarehouseView, ctx: &str) -> Result<(), TestCaseError> {
    for (i, cube) in v.cubes().iter().enumerate() {
        let mut concat = Mo::new(Arc::clone(v.schema()));
        for chunk in cube.chunks() {
            let n = chunk.mo().len();
            prop_assert!(
                (1..=CHUNK_ROWS).contains(&n),
                "{ctx}: K{i} holds a chunk of {n} rows"
            );
            prop_assert_eq!(chunk.summary().rows(), n as u64);
            concat.absorb(chunk.mo()).unwrap();
        }
        let data = cube.data();
        let (whole, got) = (data.store(), concat.store());
        prop_assert_eq!(cube.rows(), whole.len());
        prop_assert!(
            whole.cats == got.cats
                && whole.codes == got.codes
                && whole.measures == got.measures
                && whole.origin == got.origin,
            "{ctx}: K{i} chunks do not concatenate to data()"
        );
        prop_assert_eq!(
            cube.stats(),
            &SubcubeStats::compute(&concat, cube.epoch()),
            "{}: K{} folded statistics",
            ctx,
            i
        );
    }
    v.verify_stats().unwrap();
    Ok(())
}

/// Cubes whose version-vector entry did not move share every chunk.
fn check_unmoved_cubes(
    before: &WarehouseView,
    after: &WarehouseView,
    ctx: &str,
) -> Result<(), TestCaseError> {
    if before.cubes().len() != after.cubes().len() {
        return Ok(());
    }
    for (i, (b, a)) in before.cubes().iter().zip(after.cubes()).enumerate() {
        if b.epoch() == a.epoch() {
            prop_assert!(
                b.chunks().len() == a.chunks().len()
                    && b.chunks()
                        .iter()
                        .zip(a.chunks())
                        .all(|(x, y)| Arc::ptr_eq(x, y)),
                "{ctx}: K{i} kept its epoch but not its chunks"
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn chunk_invariants_hold_after_any_op_sequence(
        ops in proptest::collection::vec((0u8..7, 1usize..120), 5..14)
    ) {
        let (cs, day_rows) = clicks();
        let (spec, month) = specs(&cs);
        // One in-memory shard: the specification changes take the
        // warehouse's own apply path.
        let w = ShardRouter::in_memory(spec).unwrap();
        let view = || w.view_set().views()[0].clone();
        let start = days_from_civil(START.0, START.1, START.2);
        let mut loaded = 0usize; // days loaded so far
        let mut clock = start;   // never moves backwards
        let mut month_id: Option<ActionId> = None;
        for (step, &(kind, mag)) in ops.iter().enumerate() {
            let before = view();
            let ctx = format!("step {step} of {ops:?}");
            match kind {
                0..=2 => {
                    // Load the next `mag` days: up to ~4 700 rows, so some
                    // loads span two chunks.
                    let upto = (loaded + mag).min(DAYS);
                    let rows: Vec<u32> = day_rows[loaded..upto].concat();
                    loaded = upto;
                    let n = w.bulk_load(&cs.mo.gather(&rows)).unwrap();
                    let after = view();
                    prop_assert_eq!(after.is_dirty(), before.is_dirty() || n > 0);
                    // Everything that was there crosses by pointer; the
                    // load's rows are appended behind it.
                    prop_assert_eq!(shared(&before, &after), all_chunks(&before).len());
                    let (old, new) = (before.cubes()[0].chunks(), after.cubes()[0].chunks());
                    prop_assert_eq!(new.len(), old.len() + n.div_ceil(CHUNK_ROWS));
                    prop_assert!(old.iter().zip(new).all(|(x, y)| Arc::ptr_eq(x, y)));
                }
                3 | 4 => {
                    clock = clock.max(start + loaded as DayNum + (mag % 45) as DayNum);
                    let stats = w.age(clock).unwrap();
                    let after = view();
                    prop_assert!(!after.is_dirty());
                    // Steps applied: one per transition day, or one
                    // homing-only step when none was in range.
                    let steps = stats.ticks.max(usize::from(stats.rows_homed > 0));
                    if steps == 1 {
                        // Exactly one publication changed contents: what it
                        // reports as carried is what is shared.
                        prop_assert_eq!(shared(&before, &after), stats.chunks_carried, "{}", ctx);
                        prop_assert_eq!(
                            all_chunks(&after).len(),
                            stats.chunks_carried + stats.chunks_rewritten,
                            "{}", ctx
                        );
                    }
                    check_unmoved_cubes(&before, &after, &ctx)?;
                }
                5 => {
                    clock = clock.max(start + loaded as DayNum + (mag % 20) as DayNum);
                    w.sync(clock).unwrap();
                    prop_assert!(!view().is_dirty());
                    check_unmoved_cubes(&before, &view(), &ctx)?;
                }
                _ => {
                    // Specification change through the one apply path: a
                    // legal rejection publishes nothing; an accepted one
                    // stages every chunk, by pointer, in the bottom cube.
                    let op = match month_id {
                        None => WarehouseOp::SpecInsert(vec![month.clone()]),
                        Some(id) => WarehouseOp::SpecDelete(vec![id], clock),
                    };
                    match w.apply(&op) {
                        Ok(outcome) => {
                            month_id = match op {
                                WarehouseOp::SpecInsert(_) => Some(outcome.inserted()[0]),
                                _ => None,
                            };
                            let after = view();
                            let staged = after.cubes()[0].chunks();
                            let old = all_chunks(&before);
                            prop_assert_eq!(staged.len(), old.len());
                            prop_assert!(old.iter().zip(staged).all(|(x, y)| Arc::ptr_eq(x, y)));
                            prop_assert_eq!(after.is_dirty(), !old.is_empty());
                        }
                        Err(SubcubeError::Reduce(_)) => {
                            // The router publishes nothing on an error,
                            // so make the shard publish: an empty load
                            // is the only version since `before`, with
                            // every chunk crossing by pointer.
                            w.bulk_load(&Mo::new(Arc::clone(&cs.schema))).unwrap();
                            let after = view();
                            prop_assert_eq!(after.epoch(), before.epoch() + 1, "{}", ctx);
                            let old = all_chunks(&before);
                            prop_assert_eq!(shared(&before, &after), old.len(), "{}", ctx);
                            prop_assert_eq!(all_chunks(&after).len(), old.len(), "{}", ctx);
                        }
                        Err(e) => panic!("{ctx}: {e}"),
                    }
                }
            }
            check_version(&view(), &ctx)?;
        }
    }
}

/// One month-boundary tick on a bottom cube of several chunks: the cube
/// is rebuilt (its epoch moves), yet only the chunks holding the month
/// that left are rewritten — the recent ones cross by pointer.
#[test]
fn a_tick_rewrites_only_the_chunks_it_touches() {
    let (cs, day_rows) = clicks();
    let actions = retention_policy(6, 12)
        .iter()
        .map(|src| parse_action(&cs.schema, src).unwrap())
        .collect();
    let m = SubcubeManager::new(DataReductionSpec::new(Arc::clone(&cs.schema), actions).unwrap());
    let rows: Vec<u32> = day_rows[..300].concat();
    m.bulk_load(&cs.mo.gather(&rows)).unwrap();
    let start = days_from_civil(START.0, START.1, START.2);
    m.sync(start + 299).unwrap();
    // Ten more days, one load + age each: the daily path appends to the
    // tail chunk and leaves every other chunk alone.
    for (d, today) in day_rows.iter().enumerate().take(310).skip(300) {
        let before = m.view();
        m.bulk_load(&cs.mo.gather(today)).unwrap();
        let s = m.age(start + d as DayNum).unwrap();
        assert_eq!(s.rows_homed, today.len());
        let (old, new) = (
            before.cubes()[0].chunks(),
            m.view().cubes()[0].chunks().to_vec(),
        );
        if s.ticks == 0 {
            assert!(old.len() >= 2, "bottom cube spans chunks: {}", old.len());
            assert_eq!(
                new.len(),
                old.len(),
                "the day coalesced into the tail chunk"
            );
            let carried = old
                .iter()
                .zip(&new)
                .filter(|(x, y)| Arc::ptr_eq(x, y))
                .count();
            assert_eq!(carried, old.len() - 1, "only the tail chunk was rewritten");
            assert_eq!((s.chunks_rewritten, s.cubes_rebuilt), (1, 1));
        }
    }
    // The next month boundary moves the oldest raw month out.
    let before = m.view();
    let s = m.age(start + 340).unwrap();
    assert!(s.ticks >= 1 && s.cells_delta > 0, "{s:?}");
    let after = m.view();
    let (old, new) = (before.cubes()[0].chunks(), after.cubes()[0].chunks());
    assert_ne!(before.cubes()[0].epoch(), after.cubes()[0].epoch());
    assert!(
        !Arc::ptr_eq(&old[0], &new[0]),
        "the oldest chunk lost its month"
    );
    assert!(
        Arc::ptr_eq(old.last().unwrap(), new.last().unwrap()),
        "the newest chunk is untouched by a tick on old rows"
    );
    after.verify_stats().unwrap();
    // Shared chunks and all, the cubes are Definition 2's reduction of
    // the 310 days loaded.
    let raw = cs.mo.gather(&day_rows[..310].concat());
    let want = sdr_reduce::reduce_naive(&raw, after.spec(), start + 340).unwrap();
    common::assert_holds(&[after], &want, "after the month boundary");
}
