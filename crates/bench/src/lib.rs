//! # sdr-bench — shared fixtures for the benchmark harness
//!
//! One Criterion bench target per experiment of `DESIGN.md`'s index
//! (E1–E8 plus the A1/A2 ablations); this library crate holds the shared
//! workload construction so every bench measures the same data shapes.

#![warn(missing_docs)]

use std::sync::Arc;

use sdr_mdm::{calendar::days_from_civil, DayNum, Mo, Schema};
use sdr_reduce::DataReductionSpec;
use sdr_workload::{generate, retention_policy, Clickstream, ClickstreamConfig};

/// A standard bench warehouse: `months` months of clicks at
/// `clicks_per_day`, with the 6/36-month retention policy of experiment
/// E1 and a `NOW` three years past the last click.
pub struct BenchWarehouse {
    /// The generated click-stream.
    pub cs: Clickstream,
    /// The validated retention policy.
    pub spec: DataReductionSpec,
    /// A late evaluation day (3 years past the stream): everything has
    /// reached the deepest tier.
    pub now: DayNum,
    /// A mid-life evaluation day (18 months into the stream): raw,
    /// month-tier, and quarter-tier data coexist — the representative
    /// state for query/sync measurements.
    pub mid: DayNum,
}

/// Builds the standard bench warehouse.
pub fn bench_warehouse(months: u32, clicks_per_day: usize) -> BenchWarehouse {
    let end_year = 1999 + (months / 12) as i32;
    let end_month = months % 12;
    let (ey, em) = if end_month == 0 {
        (end_year - 1, 12)
    } else {
        (end_year, end_month)
    };
    let cs = generate(&ClickstreamConfig {
        clicks_per_day,
        start: (1999, 1, 1),
        end: (ey, em, 28),
        ..Default::default()
    });
    let spec = policy_spec(&cs.schema);
    BenchWarehouse {
        spec,
        cs,
        now: days_from_civil(ey + 3, em, 28),
        mid: days_from_civil(2000, 6, 15),
    }
}

/// The 6/36-month retention policy parsed against `schema`.
pub fn policy_spec(schema: &Arc<Schema>) -> DataReductionSpec {
    let actions: Vec<_> = retention_policy(6, 36)
        .iter()
        .map(|s| sdr_spec::parse_action(schema, s).expect("policy parses"))
        .collect();
    DataReductionSpec::new(Arc::clone(schema), actions).expect("policy is sound")
}

/// An order-sensitive FNV-1a digest of an MO's full observable content
/// (rendered rows plus provenance). Kernel and naive operator outputs
/// must produce identical digests — the CI perf smoke compares them.
pub fn mo_digest(mo: &Mo) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for f in mo.facts() {
        eat(mo.render_fact(f).as_bytes());
        eat(&mo.store().origin[f.index()].to_le_bytes());
    }
    h
}

/// A digest over a sequence of MOs (cube contents in cube order) so a
/// whole warehouse state can be compared in one number.
pub fn mos_digest<'a>(mos: impl IntoIterator<Item = &'a Mo>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for mo in mos {
        h ^= mo_digest(mo);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The digest of a subcube manager's full state (every cube, in order).
pub fn manager_digest(m: &sdr_subcube::SubcubeManager) -> u64 {
    mos_digest(m.view().cubes().iter().map(|c| c.data()))
}

/// Replays the pre-kernel synchronization scan: two independent cell
/// resolutions per fact (`home_cube` for placement, `cell_for` for
/// provenance), grouped into per-cube `BTreeMap`s and rebuilt into fresh
/// MOs. The manager itself is not mutated — the result models what its
/// cubes would hold after a sync at `now`, computed the naive way. Used
/// by the CI perf smoke as the correctness baseline for the memoized
/// kernel scan.
pub fn sync_naive_replay(
    m: &sdr_subcube::SubcubeManager,
    spec: &DataReductionSpec,
    now: DayNum,
) -> Result<Vec<Mo>, Box<dyn std::error::Error>> {
    use std::collections::BTreeMap;
    /// Accumulator per target cell: folded measures plus the provenance id.
    type CellAcc = (Vec<i64>, u32);
    let schema = Arc::clone(m.schema());
    let view = m.view();
    let n = view.cubes().len();
    let mut groups: Vec<BTreeMap<Vec<sdr_mdm::DimValue>, CellAcc>> =
        (0..n).map(|_| BTreeMap::new()).collect();
    for cube in view.cubes() {
        let mo = cube.data();
        for f in mo.facts() {
            let coords = mo.coords(f);
            let (home, target) = view.home_cube(&coords, now)?;
            let cell = sdr_reduce::cell_for(spec, &coords, now)?;
            let origin = match cell.responsible {
                Some(id) => id.0,
                None => mo.store().origin[f.index()],
            };
            let entry = groups[home.0].entry(target).or_insert_with(|| {
                (
                    schema.measures.iter().map(|m| m.agg.identity()).collect(),
                    origin,
                )
            });
            for j in 0..schema.n_measures() {
                entry.0[j] = schema.measures[j]
                    .agg
                    .combine(entry.0[j], mo.measure(f, sdr_mdm::MeasureId(j as u16)));
            }
            if origin != sdr_mdm::ORIGIN_USER {
                entry.1 = origin;
            }
        }
    }
    let mut out = Vec::with_capacity(n);
    for g in groups {
        let mut mo = Mo::new(Arc::clone(&schema));
        for (coords, (ms, origin)) in g {
            mo.insert_fact_at(&coords, &ms, origin)?;
        }
        out.push(mo);
    }
    Ok(out)
}

/// Turns metric recording on for a benchmark run and clears anything a
/// previous target left behind. Call once at the top of a bench `main`.
pub fn obs_begin() {
    sdr_obs::set_enabled(true);
    sdr_obs::reset();
}

/// Writes the accumulated metric snapshot of a bench target to
/// `target/obs/<label>.jsonl` (JSON-lines, same schema as
/// `specdr --metrics=json`) so criterion timings and the operation-level
/// counters/percentiles land side by side. Failures to write are reported
/// to stderr but never fail the bench.
pub fn obs_record(label: &str) {
    let snap = sdr_obs::snapshot();
    if snap.is_empty() {
        return;
    }
    let dir = std::path::Path::new("target").join("obs");
    let path = dir.join(format!("{label}.jsonl"));
    let write = || -> std::io::Result<()> {
        std::fs::create_dir_all(&dir)?;
        std::fs::write(&path, snap.to_jsonl())
    };
    match write() {
        Ok(()) => eprintln!("obs: wrote metric snapshot to {}", path.display()),
        Err(e) => eprintln!("obs: could not write {}: {e}", path.display()),
    }
}
