//! The subcube implementation strategy of Section 7 (Figures 6–9): cube
//! layout, synchronization as time passes, and querying in both the
//! synchronized and un-synchronized states.
//!
//! ```text
//! cargo run --example subcube_demo
//! ```

use std::sync::Arc;

use specdr::mdm::calendar::{civil_from_days, days_from_civil};
use specdr::mdm::time_cat;
use specdr::query::{AggApproach, SelectMode};
use specdr::reduce::DataReductionSpec;
use specdr::spec::{parse_action, parse_pexp};
use specdr::subcube::{CubeQuery, ShardRouter};
use specdr::workload::{paper_mo, ACTION_A1, ACTION_A2};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (mo, cats) = paper_mo();
    let schema = Arc::clone(mo.schema());
    let a1 = parse_action(&schema, ACTION_A1)?;
    let a2 = parse_action(&schema, ACTION_A2)?;
    let spec = DataReductionSpec::new(Arc::clone(&schema), vec![a1, a2])?;

    // Figure 6: the physical architecture — one subcube per distinct
    // action granularity plus the bottom cube all new data enters, here
    // in a one-shard warehouse held in memory.
    let m = ShardRouter::in_memory(spec)?;
    let describe = || m.view_set().views()[0].describe();
    m.bulk_load(&mo)?;
    println!("Figure 6 — subcube architecture after bulk load:");
    print!("{}", describe());

    // Figure 7: synchronization migrates facts along the cube DAG as NOW
    // advances (bottom → month cube → quarter cube).
    for now in specdr::workload::snapshot_days() {
        let stats = m.sync(now)?;
        let (y, mm, d) = civil_from_days(now);
        println!(
            "\nsync at {y}/{mm}/{d}: ticks={}, cells_delta={}, merged={}",
            stats.ticks, stats.cells_delta, stats.merged
        );
        print!("{}", describe());
    }

    // Figure 8: a query evaluated per cube in parallel, sub-results
    // combined by one final (distributive) aggregation.
    let now = days_from_civil(2000, 11, 5);
    let q = CubeQuery {
        pred: Some(parse_pexp(
            &schema,
            "1999/6 < Time.month AND Time.month <= 2000/5",
        )?),
        mode: SelectMode::Liberal,
        levels: vec![time_cat::MONTH, cats.domain_grp],
        approach: AggApproach::Availability,
    };
    let r = m.view_set().query(&q, now, true)?;
    println!(
        "\nFigure 8 — Q = α[month, domain_grp](σ[1999/6 < month ≤ 2000/5]) over synced cubes:"
    );
    let mut rows: Vec<String> = r.facts().map(|f| r.render_fact(f)).collect();
    rows.sort();
    for row in rows {
        println!("   {row}");
    }

    // Figure 9: the same warehouse two months later, *without* syncing —
    // sub-queries pull not-yet-migrated facts from ancestor cubes, so the
    // answer matches what a fully synchronized warehouse would give.
    let later = days_from_civil(2001, 1, 20);
    let r_unsync = m.view_set().query_unsync(&q, later, true)?;
    m.sync(later)?;
    let r_synced = m.view_set().query(&q, later, true)?;
    let mut a: Vec<String> = r_unsync.facts().map(|f| r_unsync.render_fact(f)).collect();
    let mut b: Vec<String> = r_synced.facts().map(|f| r_synced.render_fact(f)).collect();
    a.sort();
    b.sort();
    println!("\nFigure 9 — querying the un-synchronized state at 2001/1/20:");
    for row in &a {
        println!("   {row}");
    }
    println!(
        "   …equals the answer after synchronization: {}",
        if a == b { "yes" } else { "NO!" }
    );
    Ok(())
}
