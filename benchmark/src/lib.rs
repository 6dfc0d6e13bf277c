//! # sdr-benchmark — the repository's benchmark
//!
//! Four workloads over one living warehouse (see `README.md`):
//! `read_static`, `ingest_age`, `read_churn`, `restart_scan`. Every run
//! is one workload in its own process; it sets the warehouse up from the
//! seed, measures for the requested time, checks the program's outputs,
//! and prints one JSON result line. Untraced runs report the end-to-end
//! metrics; traced runs (`--trace 1`) wrap every call into a layer in the
//! benchmark's own spans and report the per-layer metrics.
//!
//! Everything is measured from outside the program, through its public
//! functions; no file of the program is edited.

pub mod compare;
pub mod data;
pub mod ingest;
pub mod json;
pub mod metered_fs;
pub mod mix;
pub mod probes;
pub mod read;
pub mod restart;
pub mod stats;
pub mod suite;
pub mod trace;
pub mod writer;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;

use json::Json;
use trace::Recorder;

/// The workloads, by their fixed names.
pub const WORKLOADS: [&str; 4] = ["read_static", "ingest_age", "read_churn", "restart_scan"];

/// End-to-end metrics `(name, unit)`: what a user of the warehouse sees.
/// Every workload reports every one; "op" is the workload's foreground
/// operation (see `README.md`).
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("bytes_per_fact", "B"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics `(name, unit)`, reported by traced runs. A workload
/// reports 0 for a layer it leaves idle.
pub const PER_LAYER: &[(&str, &str)] = &[
    // serve — wire protocol, request decode, response assembly
    ("serve.query_p50_ms", "ms"),
    ("serve.query_p99_ms", "ms"),
    ("serve.ping_p50_us", "us"),
    ("serve.connect_us", "us"),
    ("serve.decode_build_us", "us"),
    ("serve.render_us", "us"),
    ("serve.wire_overhead_p50_us.full_month_domain", "us"),
    ("serve.wire_overhead_p50_us.grp_quarter", "us"),
    ("serve.wire_overhead_p50_us.old_year_lub", "us"),
    ("serve.wire_overhead_p50_us.recent_days", "us"),
    ("serve.wire_overhead_p50_us.weighted_mixed", "us"),
    ("serve.wire_overhead_p50_us.unsync_month", "us"),
    ("serve.resp_bytes_per_query", "B"),
    ("serve.errors", "count"),
    // spec — predicate parsing
    ("spec.parse_pexp_us", "us"),
    // plan — cube pruning
    ("plan.plan_us", "us"),
    ("plan.cubes_skipped_ratio", "ratio"),
    ("plan.rows_examined_per_row_out", "ratio"),
    // query — selection and aggregation kernels
    ("query.select_ns_per_row", "ns"),
    ("query.aggregate_ns_per_row", "ns"),
    // subcube — manager, shard scatter/gather, publish, recovery
    ("subcube.query_inproc_p50_us.full_month_domain", "us"),
    ("subcube.query_inproc_p50_us.grp_quarter", "us"),
    ("subcube.query_inproc_p50_us.old_year_lub", "us"),
    ("subcube.query_inproc_p50_us.recent_days", "us"),
    ("subcube.query_inproc_p50_us.weighted_mixed", "us"),
    ("subcube.query_inproc_p50_us.unsync_month", "us"),
    ("subcube.view_set_acquire_ns", "ns"),
    ("subcube.epochs_published", "count"),
    ("subcube.write_day_p50_ms", "ms"),
    ("subcube.bulk_load_p50_ms", "ms"),
    ("subcube.age_p50_ms", "ms"),
    ("subcube.age_p99_ms", "ms"),
    ("subcube.age_ticks", "count"),
    ("subcube.age_cells_delta", "count"),
    ("subcube.age_cubes_skipped_ratio", "ratio"),
    ("subcube.shard_imbalance", "ratio"),
    ("subcube.recover_p50_ms", "ms"),
    ("subcube.first_query_p50_ms", "ms"),
    ("subcube.recover_replayed_records", "count"),
    ("subcube.recover_replay_ms", "ms"),
    // reduce — the reduction itself
    ("reduce.sync_facts_per_s", "1/s"),
    ("reduce.reduce_facts_per_s", "1/s"),
    ("reduce.schedule_build_ms", "ms"),
    // storage — WAL, checkpoint encode/decode, filesystem
    ("storage.fs_appends", "count"),
    ("storage.fs_writes", "count"),
    ("storage.fs_renames", "count"),
    ("storage.fs_bytes_written", "B"),
    ("storage.fs_bytes_read", "B"),
    ("storage.fs_busy_ms", "ms"),
    ("storage.wal_bytes_per_fact", "B"),
    ("storage.write_amp", "ratio"),
    ("storage.encoded_over_raw", "ratio"),
    ("storage.checkpoint_p50_ms", "ms"),
    ("storage.encode_ms", "ms"),
    ("storage.decode_ms", "ms"),
    // mdm — key packing (shard routing, merge keys)
    ("mdm.pack_ns_per_fact", "ns"),
    // obs — tracing cost, and the program's own counters per operation
    ("obs.trace_overhead_ratio", "ratio"),
    ("obs.plan_cubes_skipped_per_op", "count"),
    ("obs.select_cells_visited_per_op", "count"),
    ("obs.reduce_facts_scanned_per_op", "count"),
    ("obs.wal_bytes_appended_per_op", "B"),
    ("obs.age_cells_delta_per_op", "count"),
    // loadgen — the benchmark itself
    ("loadgen.samples", "count"),
    ("loadgen.client_busy_ratio", "ratio"),
    ("loadgen.writer_late_p99_ms", "ms"),
    ("loadgen.failed_ops_ratio", "ratio"),
    // share — self time by layer as a share of the measured
    // end-to-end time; what cannot be attributed from outside is explicit
    ("share.serve", "ratio"),
    ("share.spec", "ratio"),
    ("share.plan", "ratio"),
    ("share.query", "ratio"),
    ("share.subcube", "ratio"),
    ("share.storage", "ratio"),
    ("share.loadgen", "ratio"),
    ("share.unattributed", "ratio"),
];

/// What one run was asked to do.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    pub traced: bool,
    /// Where this run builds its warehouses (inside the checkout).
    pub scratch: PathBuf,
    /// Enabled only inside the traced part of a traced run.
    pub rec: Arc<Recorder>,
}

impl Ctx {
    /// The recorder, when this is a traced run.
    pub fn rec_if_traced(&self) -> Option<&Arc<Recorder>> {
        self.traced.then_some(&self.rec)
    }
}

/// Operations attempted and failed, with the named correctness gates.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// `(gate, passed)`, for the human-readable report.
    pub gates: Vec<(String, bool)>,
}

impl Tally {
    /// Counts `n` operations of which `failed` failed.
    pub fn ops(&mut self, n: u64, failed: u64) {
        self.attempted += n;
        self.failed += failed;
    }

    /// Records one correctness gate; a failed gate is a failed operation.
    pub fn gate(&mut self, name: impl Into<String>, passed: bool) {
        self.ops(1, u64::from(!passed));
        self.gates.push((name.into(), passed));
    }
}

/// The result of one run.
#[derive(Debug, Default)]
pub struct Outcome {
    pub tally: Tally,
    /// End-to-end values by name (all of [`END_TO_END`]).
    pub e2e: BTreeMap<&'static str, f64>,
    /// Per-layer values by name (subset of [`PER_LAYER`]; the rest are 0).
    pub layers: BTreeMap<String, f64>,
    /// Free-form lines for the human-readable report (sample counts,
    /// sizes, which percentile the tail is).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Sets the six end-to-end metrics.
    pub fn end_to_end(
        &mut self,
        setup: data::SetupCosts,
        op_p50_ms: f64,
        op_tail_ms: f64,
        throughput_per_s: f64,
        peak_rss_mb: f64,
    ) {
        self.e2e = BTreeMap::from([
            ("setup_s", setup.setup_s),
            ("op_p50_ms", op_p50_ms),
            ("op_tail_ms", op_tail_ms),
            ("throughput_per_s", throughput_per_s),
            ("bytes_per_fact", setup.bytes_per_fact),
            ("peak_rss_mb", peak_rss_mb),
        ]);
    }

    pub fn layer(&mut self, name: &str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "unknown per-layer metric {name}"
        );
        self.layers.insert(name.to_string(), value);
    }

    /// Fills the `share.*` metrics from a traced window's spans: each
    /// layer's self time as a share of `total_ns` of measured end-to-end
    /// time, and what the spans do not cover as `share.unattributed`.
    pub fn shares(&mut self, spans: &[trace::Span], total_ns: f64) {
        let mut attributed = 0.0;
        for (layer, self_ns) in trace::by_layer(spans) {
            let name = format!("share.{layer}");
            if PER_LAYER.iter().any(|(n, _)| *n == name) {
                self.layer(&name, self_ns as f64 / total_ns);
                attributed += self_ns as f64;
            }
        }
        self.layer("share.unattributed", (1.0 - attributed / total_ns).max(0.0));
    }

    /// The result line: exactly `correct`, `attempted`, `failed`,
    /// `metrics` — end-to-end metrics untraced, per-layer metrics traced.
    pub fn result_json(&self, traced: bool) -> Json {
        let metric = |value: f64, unit: &str| {
            Json::Obj(vec![
                ("value".into(), Json::Num(value)),
                ("unit".into(), Json::Str(unit.into())),
            ])
        };
        let metrics = if traced {
            PER_LAYER
                .iter()
                .map(|(n, u)| {
                    let v = self.layers.get(*n).copied().unwrap_or(0.0);
                    (n.to_string(), metric(v, u))
                })
                .collect()
        } else {
            END_TO_END
                .iter()
                .map(|(n, u)| (n.to_string(), metric(self.e2e[n], u)))
                .collect()
        };
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.tally.failed == 0)),
            ("attempted".into(), Json::Num(self.tally.attempted as f64)),
            ("failed".into(), Json::Num(self.tally.failed as f64)),
            ("metrics".into(), Json::Obj(metrics)),
        ])
    }
}

/// Runs the workload `ctx` names.
pub fn run_workload(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = match ctx.workload.as_str() {
        "read_static" => read::run(ctx, false),
        "read_churn" => read::run(ctx, true),
        "ingest_age" => ingest::run(ctx),
        "restart_scan" => restart::run(ctx),
        other => {
            return Err(format!(
                "unknown workload `{other}` (one of: {})",
                WORKLOADS.join(", ")
            ))
        }
    };
    if ctx.traced {
        out.layer(
            "loadgen.failed_ops_ratio",
            out.tally.failed as f64 / out.tally.attempted.max(1) as f64,
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` and the code must name the same workloads and
    /// metrics with the same units.
    #[test]
    fn benchmark_json_matches_the_code() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let names = |key: &str, field: &str| -> Vec<String> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| m.get(field).and_then(Json::as_str).unwrap().to_string())
                .collect()
        };
        assert_eq!(names("workloads", "name"), WORKLOADS);
        let pairs = |key: &str| -> Vec<(String, String)> {
            names(key, "name")
                .into_iter()
                .zip(names(key, "unit"))
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(pairs("end_to_end"), own(&END_TO_END));
        assert_eq!(pairs("per_layer"), own(PER_LAYER));
        assert!(PER_LAYER.len() <= 128);
    }
}
