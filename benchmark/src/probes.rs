//! Per-layer probes of the traced runs.
//!
//! The window spans wrap the calls the workload makes (a wire request, a
//! `bulk_load`, a `recover`). What happens *inside* such a call cannot be
//! wrapped from outside, so the probes here call the inner layers'
//! public functions directly, on the same warehouse state and the same
//! inputs, and the share computation moves that time from the enclosing
//! layer to the inner one. What no probe reaches stays `unattributed`.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sdr_mdm::{KeyPacker, Mo};
use sdr_query::{aggregate_ids, select_snapshot};
use sdr_reduce::ReductionSchedule;
use sdr_subcube::{
    layout::WarehouseLayout, read_manifest, ShardRouter, ShardViewSet, SubcubeManager,
};
use specdr::driver::result_digest;
use specdr::serve::QuerySpec;

use crate::data::{Dataset, Warehouse, SHARDS};
use crate::mix::{Mix, CLASSES};
use crate::stats::{median, percentile_of};
use crate::trace::Recorder;
use crate::Outcome;

/// Mean in-process cost of one class's request, piece by piece (ns).
#[derive(Debug, Clone, Copy, Default)]
pub struct ClassCost {
    /// `QuerySpec::decode` + `QuerySpec::build`.
    pub decode_build: f64,
    /// `parse_pexp` of the class's predicate (inside `build`).
    pub parse: f64,
    /// `ShardViewSet::plans` (inside `query`).
    pub plan: f64,
    /// `ShardViewSet::query` / `query_unsync`.
    pub query: f64,
    /// `select_snapshot` + `aggregate_ids` over every scanned cube
    /// (inside `query`).
    pub kernels: f64,
    /// Response assembly from public pieces: render + sort the rows,
    /// `result_digest`, the first 500 rows into the body.
    pub render: f64,
    /// Median of decode_build + query + render per replayed request.
    pub inproc_p50: f64,
}

/// Rows the daemon includes verbatim in a response (`serve::ROWS_CAP`).
const ROWS_CAP: usize = 500;
/// Replays per class: at most this many, and at most [`REPLAY_BUDGET`].
const REPLAYS: usize = 40;
const REPLAY_BUDGET: Duration = Duration::from_millis(400);

/// Evaluates `spec` on `set` exactly as the daemon does.
pub fn eval(set: &ShardViewSet, spec: &QuerySpec) -> Result<Mo, String> {
    let q = spec.build(set.views()[0].schema())?;
    if spec.unsync {
        set.query_unsync(&q, spec.now, true)
    } else {
        set.query(&q, spec.now, true)
    }
    .map_err(|e| e.to_string())
}

/// Digest of every query class of `mix` evaluated on `set`, by class index.
pub fn class_digests(set: &ShardViewSet, mix: &Mix) -> Vec<(usize, u64)> {
    mix.queries()
        .map(|(c, spec)| {
            let mo = eval(set, spec).expect("mix query evaluates");
            (c, result_digest(&mo))
        })
        .collect()
}

/// Digest of `spec` evaluated on the unsharded reference manager
/// (sequentially); `None` when the evaluation fails.
pub fn reference_digest(reference: &SubcubeManager, spec: &QuerySpec) -> Option<u64> {
    let q = spec.build(reference.schema()).ok()?;
    let res = if spec.unsync {
        reference.query_unsync(&q, spec.now, false)
    } else {
        reference.query(&q, spec.now, false)
    };
    res.ok().map(|mo| result_digest(&mo))
}

/// The response body the daemon would assemble for `res`.
fn render_body(set: &ShardViewSet, res: &Mo) -> String {
    let mut rows: Vec<String> = res.facts().map(|f| res.render_fact(f)).collect();
    rows.sort();
    let mut body = format!(
        "epoch={}\ndigest=0x{:016x}\nrows={}\n",
        set.epoch(),
        result_digest(res),
        rows.len()
    );
    for row in rows.iter().take(ROWS_CAP) {
        body.push_str("row=");
        body.push_str(row);
        body.push('\n');
    }
    body
}

/// Replays every query class in-process, decomposed into layer calls
/// (spans `loadgen.replay` → `serve.decode_build`, `subcube.query`,
/// `serve.render`; standalone `spec.parse_pexp`, `plan.plans`,
/// `query.select`, `query.aggregate`), and fills the read-side per-layer
/// metrics that do not need the wire.
pub fn read_probe(
    rec: &Recorder,
    router: &ShardRouter,
    mix: &Mix,
    out: &mut Outcome,
) -> Vec<ClassCost> {
    let set = router.view_set();
    let schema = Arc::clone(router.schema());
    let mut costs = vec![ClassCost::default(); CLASSES.len()];
    let mut request = 1_000_000u64;
    let (mut select_ns, mut select_rows) = (0u64, 0u64);
    let (mut agg_ns, mut agg_rows) = (0u64, 0u64);
    let (mut skipped, mut cubes) = (0u64, 0u64);
    let (mut examined, mut rows_out) = (0u64, 0u64);
    let (mut resp_bytes, mut weight_sum) = (0u64, 0u64);
    let (mut decode_all, mut render_all, mut parse_all, mut plan_all) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());

    for (c, spec) in mix.queries() {
        let text = spec.encode();
        let weight = CLASSES[c].weight as u64;
        let q = spec.build(&schema).expect("mix spec builds");
        let mut sums = ClassCost::default();
        let mut totals = Vec::new();
        let started = Instant::now();
        let mut n = 0usize;
        while n < REPLAYS && (n < 3 || started.elapsed() < REPLAY_BUDGET) {
            n += 1;
            request += 1;
            let t0 = Instant::now();
            let built = {
                let _r = rec.span("loadgen.replay", request);
                let t = Instant::now();
                let built = {
                    let _s = rec.span("serve.decode_build", 0);
                    let spec = QuerySpec::decode(&text).expect("mix spec decodes");
                    spec.build(&schema).expect("mix spec builds")
                };
                sums.decode_build += t.elapsed().as_nanos() as f64;
                let t = Instant::now();
                let res = {
                    let _s = rec.span("subcube.query", 0);
                    if spec.unsync {
                        set.query_unsync(&built, spec.now, true)
                    } else {
                        set.query(&built, spec.now, true)
                    }
                    .expect("mix query evaluates")
                };
                sums.query += t.elapsed().as_nanos() as f64;
                let t = Instant::now();
                let body = {
                    let _s = rec.span("serve.render", 0);
                    render_body(&set, &res)
                };
                sums.render += t.elapsed().as_nanos() as f64;
                if n == 1 {
                    // One byte of tag precedes the body on the wire.
                    resp_bytes += weight * (body.len() as u64 + 1);
                    rows_out += weight * res.len() as u64;
                }
                black_box(body);
                built
            };
            totals.push(t0.elapsed().as_nanos() as u64);
            black_box(built);

            // Standalone inner pieces, outside the replayed request.
            if let Some(pred) = &spec.pred {
                let t = Instant::now();
                let _s = rec.span("spec.parse_pexp", request);
                black_box(sdr_spec::parse_pexp(&schema, pred).expect("mix predicate parses"));
                sums.parse += t.elapsed().as_nanos() as f64;
            }
            let plans = if spec.unsync {
                Vec::new() // the un-synchronized path is never planned
            } else {
                let t = Instant::now();
                let _s = rec.span("plan.plans", request);
                let plans = set.plans(&q, spec.now);
                sums.plan += t.elapsed().as_nanos() as f64;
                plans
            };
            for (s, view) in set.views().iter().enumerate() {
                for (i, cube) in view.cubes().iter().enumerate() {
                    if plans.get(s).is_some_and(|p| !p.scans(i)) {
                        continue;
                    }
                    let input = cube.snapshot();
                    let t = Instant::now();
                    let selected = {
                        let _s = rec.span("query.select", request);
                        select_snapshot(&input, q.pred.as_ref(), spec.now, q.mode)
                            .expect("select evaluates")
                    };
                    let t_sel = t.elapsed().as_nanos() as u64;
                    let t = Instant::now();
                    {
                        let _s = rec.span("query.aggregate", request);
                        black_box(
                            aggregate_ids(&selected, &q.levels, q.approach)
                                .expect("aggregate evaluates"),
                        );
                    }
                    let t_agg = t.elapsed().as_nanos() as u64;
                    sums.kernels += (t_sel + t_agg) as f64;
                    // Per-row kernel cost on the raw cube only.
                    if s == 0 && i == 0 {
                        if q.pred.is_some() {
                            select_ns += t_sel;
                            select_rows += input.len() as u64;
                        }
                        agg_ns += t_agg;
                        agg_rows += selected.len() as u64;
                    }
                }
            }
            if n == 1 {
                for (s, view) in set.views().iter().enumerate() {
                    for (i, cube) in view.cubes().iter().enumerate() {
                        cubes += weight;
                        if plans.get(s).is_some_and(|p| !p.scans(i)) {
                            skipped += weight;
                        } else {
                            examined += weight * cube.data().len() as u64;
                        }
                    }
                }
                weight_sum += weight;
            }
        }
        let n = n as f64;
        let cost = ClassCost {
            decode_build: sums.decode_build / n,
            parse: sums.parse / n,
            plan: sums.plan / n,
            query: sums.query / n,
            kernels: sums.kernels / n,
            render: sums.render / n,
            inproc_p50: percentile_of(&mut totals, 0.5) as f64,
        };
        out.layer(
            &format!("subcube.query_inproc_p50_us.{}", CLASSES[c].name),
            cost.inproc_p50 / 1e3,
        );
        decode_all.push(cost.decode_build / 1e3);
        render_all.push(cost.render / 1e3);
        if spec.pred.is_some() {
            parse_all.push(cost.parse / 1e3);
        }
        if !spec.unsync {
            plan_all.push(cost.plan / 1e3);
        }
        costs[c] = cost;
    }

    out.layer("serve.decode_build_us", median(&decode_all));
    out.layer("serve.render_us", median(&render_all));
    out.layer("spec.parse_pexp_us", median(&parse_all));
    out.layer("plan.plan_us", median(&plan_all));
    out.layer("plan.cubes_skipped_ratio", skipped as f64 / cubes as f64);
    out.layer(
        "plan.rows_examined_per_row_out",
        examined as f64 / rows_out.max(1) as f64,
    );
    out.layer(
        "serve.resp_bytes_per_query",
        resp_bytes as f64 / weight_sum as f64,
    );
    out.layer(
        "query.select_ns_per_row",
        select_ns as f64 / select_rows.max(1) as f64,
    );
    out.layer(
        "query.aggregate_ns_per_row",
        agg_ns as f64 / agg_rows.max(1) as f64,
    );

    // One atomic pointer load + Arc clone.
    const ACQUIRES: u32 = 200_000;
    let t = Instant::now();
    for _ in 0..ACQUIRES {
        black_box(router.view_set());
    }
    out.layer(
        "subcube.view_set_acquire_ns",
        t.elapsed().as_nanos() as f64 / ACQUIRES as f64,
    );
    costs
}

/// Reduction probes on the pre-load: the schedule, the synchronization
/// pass and the pure reduction, and key packing.
pub fn reduce_probe(rec: &Recorder, ds: &Dataset, out: &mut Outcome) {
    let facts = ds.pre.len() as f64;

    let t = Instant::now();
    {
        let _s = rec.span("reduce.schedule_build", 1);
        black_box(ReductionSchedule::build(&ds.spec).expect("schedule builds"));
    }
    out.layer("reduce.schedule_build_ms", t.elapsed().as_secs_f64() * 1e3);

    let manager = SubcubeManager::new(ds.spec.clone());
    manager.bulk_load(&ds.pre).expect("probe load");
    let t = Instant::now();
    {
        let _s = rec.span("reduce.sync", 2);
        manager.sync(ds.cut).expect("probe sync");
    }
    out.layer("reduce.sync_facts_per_s", facts / t.elapsed().as_secs_f64());
    drop(manager);

    let t = Instant::now();
    {
        let _s = rec.span("reduce.reduce", 3);
        black_box(sdr_reduce::reduce(&ds.pre, &ds.spec, ds.cut).expect("probe reduce"));
    }
    out.layer(
        "reduce.reduce_facts_per_s",
        facts / t.elapsed().as_secs_f64(),
    );

    if let Some(packer) = KeyPacker::new(&ds.schema) {
        let store = ds.pre.store();
        let t = Instant::now();
        let mut acc = 0u128;
        {
            let _s = rec.span("mdm.pack", 4);
            for f in ds.pre.facts() {
                acc ^= packer.pack_row(store, f);
            }
        }
        black_box(acc);
        out.layer(
            "mdm.pack_ns_per_fact",
            t.elapsed().as_nanos() as f64 / facts,
        );
    }
}

/// The stored-over-raw ratio of the live checkpoint (its manifest's byte
/// table) and how evenly the stored rows spread over the shards.
pub fn storage_probe(wh: &Warehouse, router: &ShardRouter, out: &mut Outcome) {
    let (mut raw, mut encoded) = (0u64, 0u64);
    let layout = WarehouseLayout::at(&wh.dir);
    for i in 0..SHARDS {
        let manifest = read_manifest(layout.shard(i).root()).expect("live manifest reads");
        for (r, e) in manifest.cube_bytes {
            raw += r;
            encoded += e;
        }
    }
    if raw > 0 {
        out.layer("storage.encoded_over_raw", encoded as f64 / raw as f64);
    }

    let lens: Vec<f64> = router
        .view_set()
        .views()
        .iter()
        .map(|v| v.len() as f64)
        .collect();
    let mean = lens.iter().sum::<f64>() / lens.len() as f64;
    if mean > 0.0 {
        out.layer(
            "subcube.shard_imbalance",
            lens.iter().fold(0.0f64, |a, &b| a.max(b)) / mean,
        );
    }
}

/// The program's own counters (the `sdr-obs` registry, switched on for
/// the traced part only), per operation of the traced part.
pub fn obs_counters(ops: u64, out: &mut Outcome) {
    let snap = sdr_obs::snapshot();
    let per_op = |name: &str| snap.counter(name).unwrap_or(0) as f64 / ops.max(1) as f64;
    out.layer(
        "obs.plan_cubes_skipped_per_op",
        per_op("plan.cubes_skipped"),
    );
    out.layer(
        "obs.select_cells_visited_per_op",
        per_op("query.select.cells_visited"),
    );
    out.layer(
        "obs.reduce_facts_scanned_per_op",
        per_op("reduce.facts_scanned"),
    );
    out.layer(
        "obs.wal_bytes_appended_per_op",
        per_op("wal.bytes_appended"),
    );
    out.layer("obs.age_cells_delta_per_op", per_op("age.cells_delta"));
}
