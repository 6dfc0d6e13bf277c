//! The reference the differential suites hold a warehouse against:
//! Definition 2 over the raw facts (`sdr_reduce::reduce_naive`, which
//! interprets every predicate per fact), placed the way the cube layout
//! places it — no cubes, no epochs, no code shared with the reduction
//! step under test (which resolves cells through `CellMemo`, as
//! `sdr_reduce::reduce` does).
//! The root crate's suites include this file by `#[path]`.

use std::collections::btree_map::{BTreeMap, Entry};

use sdr_mdm::{DimValue, Mo};
use sdr_subcube::WarehouseView;

/// The facts of one cube by cell: measures and provenance.
pub type Cells = BTreeMap<Vec<DimValue>, (Vec<i64>, u32)>;

/// Per cube, what `views` hold — one view, or the shards of one
/// warehouse. A cell twice in one view's cube is a failure (the step
/// merges duplicates); the same cell on two shards is one cell of the
/// logical warehouse, measures combined, and must agree on provenance.
pub fn placed(views: &[WarehouseView]) -> Vec<Cells> {
    let schema = views[0].schema();
    let mut out = vec![Cells::new(); views[0].cubes().len()];
    for view in views {
        for (i, cube) in view.cubes().iter().enumerate() {
            let mut cells = Cells::new();
            for mo in cube.chunks().iter().map(|c| c.data()) {
                for f in mo.facts() {
                    let row = (mo.measures_of(f), mo.store().origin[f.index()]);
                    let dup = cells.insert(mo.coords(f), row);
                    assert!(dup.is_none(), "K{i} holds {} twice", mo.render_fact(f));
                }
            }
            for (cell, (measures, origin)) in cells {
                match out[i].entry(cell) {
                    Entry::Vacant(v) => {
                        v.insert((measures, origin));
                    }
                    Entry::Occupied(mut o) => {
                        let (acc, seen) = o.get_mut();
                        assert_eq!(*seen, origin, "shards disagree on a cell's provenance");
                        for (j, a) in acc.iter_mut().enumerate() {
                            *a = schema.measures[j].agg.combine(*a, measures[j]);
                        }
                    }
                }
            }
        }
    }
    out
}

/// Per cube of `layout`, where the facts of `reduced` belong: each in the
/// cube of exactly its granularity, else the bottom cube.
pub fn placement(layout: &WarehouseView, reduced: &Mo) -> Vec<Cells> {
    let mut out = vec![Cells::new(); layout.cubes().len()];
    for f in reduced.facts() {
        let grain = reduced.gran(f);
        let home = layout.cubes().iter().position(|c| c.grain == grain);
        let row = (reduced.measures_of(f), reduced.store().origin[f.index()]);
        let dup = out[home.unwrap_or(0)].insert(reduced.coords(f), row);
        assert!(dup.is_none(), "the reference holds a cell twice");
    }
    out
}

/// Asserts that `views` hold exactly `reduced` — Definition 2's reduction
/// of every fact loaded so far — content, placement and provenance.
pub fn assert_holds(views: &[WarehouseView], reduced: &Mo, ctx: &str) {
    let (got, want) = (placed(views), placement(&views[0], reduced));
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        assert_eq!(g, w, "{ctx}: K{i} is not the reduction's");
    }
}
