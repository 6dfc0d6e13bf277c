//! `specdr` — command-line driver for the specification-based data
//! reduction library.
//!
//! ```text
//! specdr demo
//!     Run the paper's ISP example end to end (Figures 1, 3, 4, 5).
//!
//! specdr explain [--spec-file FILE]
//!     Parse a reduction specification (one action per line or
//!     semicolon-separated; `--` starts a comment), check NonCrossing and
//!     Growing, and print a plain-language explanation of every action.
//!     Without a file, explains the built-in 6/36-month retention policy.
//!
//! specdr explain --query [--where PRED] [--roll-up LEVELS] [--mode MODE]
//!                [--months N] [--clicks K] [--now Y/M/D]
//!                [--format json|table|trace]
//! specdr explain --reduce [--months N] [--clicks K] [--now Y/M/D]
//!                [--format json|table|trace]
//!     Warehouse introspection: run the query (or the reduction pass,
//!     with --reduce) against a synthetic subcube warehouse with tracing
//!     on, and render the subcube DAG annotated with each cube's exact
//!     statistics (rows, bytes, distinct values per dimension, epoch),
//!     which cubes were scanned vs. skippable, memoization hits, and a
//!     per-phase time/row breakdown. `--format=trace` emits the span
//!     tree as a chrome `trace_event` document (load in chrome://tracing
//!     or Perfetto).
//!
//! specdr explain --age [--until Y/M/D] [--months N] [--clicks K]
//!                [--spec-file FILE] [--format json|table|trace]
//!     Introspect one incremental aging pass: the transition schedule
//!     build, every per-tick span with its delta row counts, and the
//!     subcube DAG after aging. The explainer is `--reduce`'s; the
//!     warehouse it starts from is synchronized to the end of its data,
//!     where `--reduce` starts from the warehouse as loaded.
//!
//! specdr age --until Y/M/D [--months N] [--clicks K] [--spec-file FILE]
//!            [--follow [--tick N]]
//!     Incrementally age a synthetic warehouse along the specification's
//!     transition-day schedule: the baseline is a synchronization to
//!     the end of the loaded data, then each scheduled tick re-evaluates
//!     only the facts whose cell changed between consecutive transition
//!     days (untouched subcubes are carried forward by reference).
//!     `--until` earlier than the baseline is rejected — aging is
//!     monotone. `--follow` keeps aging through the next `--tick` N
//!     scheduled transition days, printing per-tick statistics.
//!
//! specdr profile [--months N] [--clicks K] [--now Y/M/D]
//!                [--format json|table|trace]
//!     Profile one round trip — synchronize the warehouse, then answer a
//!     parallel monthly roll-up — under a single trace recording, and
//!     render the combined introspection report (same formats as
//!     `explain --query`).
//!
//! specdr simulate [--months N] [--clicks K] [--raw-months A]
//!                 [--month-months B] [--sessions]
//!     Generate a synthetic click-stream, validate the retention policy,
//!     and print the storage-gain series as NOW sweeps forward.
//!
//! specdr query --where PRED [--roll-up LEVELS] [--mode MODE]
//!              [--months N] [--clicks K] [--now Y/M/D]
//!     Generate + reduce a synthetic warehouse and run a query against it
//!     (e.g. --where "URL.domain_grp = .com" --roll-up Time.quarter,URL.domain
//!     --mode liberal).
//!
//! specdr stats [--months N] [--clicks K] [--format json|table] [--bytes]
//!     Run the full pipeline (generate → reduce → subcube load/sync/query
//!     → storage) with metric recording on and print the snapshot.
//!
//! specdr checkpoint --dir DIR [--months N] [--clicks K]
//!                   [--raw-months A] [--month-months B]
//!     Build a synthetic warehouse durably (every load and sync
//!     write-ahead logged into DIR), publish an atomic checkpoint, and
//!     print the resulting manifest.
//!
//! specdr recover --dir DIR [--raw-months A] [--month-months B]
//!     Recover the warehouse in DIR: load the live checkpoint, replay
//!     the WAL tail (dropping any torn records), and print the recovery
//!     report plus a warehouse summary.
//!
//! specdr lint [--spec-file FILE] [--schema clickstream|paper] [--now Y/M/D]
//!             [--format text|json] [--allow CODE] [--warn CODE]
//!             [--deny CODE|warnings]
//!     Statically analyze a reduction specification with `sdr-lint`:
//!     unsatisfiable/dead/redundant predicates, NonCrossing and Growing
//!     violations with concrete counterexamples, expired windows
//!     (relative to --now), and granularity mismatches. Findings are
//!     rendered rustc-style with caret-underlined spans (or as one JSON
//!     object with `--format=json`); the exit code is non-zero exactly
//!     when a denied finding is present. Without a file, lints the
//!     built-in 6/36-month retention policy.
//!
//! specdr concurrent [--seed S] [--readers N] [--steps M] [--queries Q]
//!     Closed-loop snapshot-isolation driver: N reader threads issue the
//!     Figure 5-9 query mix against published snapshots while a seeded
//!     writer churns the warehouse with loads, syncs, and specification
//!     evolution; every observation is audited against the exact epoch
//!     it read (torn reads fail the run) and the deterministic
//!     (epoch, digest) schedule is printed for cross-run comparison.
//! ```
//!
//! `demo`, `simulate`, and `query` also accept `--metrics[=json|table]`,
//! which enables the `sdr-obs` registry for the run and prints the metric
//! snapshot after the normal output (JSON-lines with `--metrics=json`).
//! Unknown flags are rejected with a non-zero exit.
//!
//! All data is synthetic/deterministic; the CLI exists to exercise every
//! public API from the outside, exactly like a downstream user would.

use std::process::ExitCode;
use std::sync::Arc;

use specdr::mdm::calendar::{civil_from_days, days_from_civil};
use specdr::mdm::{render_table, MeasureId, Mo, Span, TableOptions, TimeUnit};
use specdr::query::{aggregate_ids, select_view};
use specdr::reduce::{reduce, DataReductionSpec};
use specdr::serve::QuerySpec;
use specdr::spec::{explain_action, parse_actions};
use specdr::storage::table_stats;
use specdr::subcube::{AgeStats, ShardRouter, SubcubeManager};
use specdr::workload::{
    generate, generate_sessions, paper_mo, retention_policy, snapshot_days, Clickstream,
    ClickstreamConfig, SessionConfig, ACTION_A1, ACTION_A2,
};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str).unwrap_or("help");
    let rest = &args[1.min(args.len())..];
    let result = run_command(cmd, rest);
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("specdr: {e}");
            ExitCode::FAILURE
        }
    }
}

/// One subcommand: the flags it declares and the function that runs it.
struct Command {
    name: &'static str,
    /// `--flag VALUE` / `--flag=VALUE` flags.
    values: &'static [&'static str],
    /// Boolean switches (`--sessions`; a value is an error).
    switches: &'static [&'static str],
    /// Takes `--metrics[=json|table]`: record the run in the `sdr-obs`
    /// registry and print the snapshot after the normal output.
    metrics: bool,
    run: fn(&Opts) -> Result<(), AnyError>,
}

#[rustfmt::skip]
static COMMANDS: &[Command] = &[
    Command { name: "demo", values: &[], switches: &[], metrics: true, run: cmd_demo },
    Command { name: "explain", metrics: false, run: cmd_explain,
        values: &["--spec-file", "--where", "--roll-up", "--mode", "--months", "--clicks", "--now",
                  "--until", "--format"],
        switches: &["--query", "--reduce", "--age", "--unsync"] },
    Command { name: "age", metrics: true, run: cmd_age,
        values: &["--until", "--months", "--clicks", "--spec-file", "--tick"],
        switches: &["--follow"] },
    Command { name: "profile", metrics: false, run: cmd_profile,
        values: &["--months", "--clicks", "--now", "--format"], switches: &[] },
    Command { name: "simulate", metrics: true, run: cmd_simulate,
        values: &["--months", "--clicks", "--raw-months", "--month-months"],
        switches: &["--sessions"] },
    Command { name: "query", metrics: true, run: cmd_query,
        values: &["--where", "--roll-up", "--mode", "--months", "--clicks", "--now"],
        switches: &[] },
    Command { name: "stats", metrics: false, run: cmd_stats,
        values: &["--months", "--clicks", "--format"], switches: &["--bytes"] },
    Command { name: "checkpoint", metrics: true, run: cmd_checkpoint,
        values: &["--dir", "--months", "--clicks", "--raw-months", "--month-months"],
        switches: &[] },
    Command { name: "recover", metrics: true, run: cmd_recover,
        values: &["--dir", "--raw-months", "--month-months"], switches: &[] },
    Command { name: "lint", metrics: false, run: cmd_lint,
        values: &["--spec-file", "--schema", "--now", "--format", "--allow", "--warn", "--deny"],
        switches: &[] },
    Command { name: "concurrent", metrics: true, run: cmd_concurrent,
        values: &["--seed", "--readers", "--steps", "--queries"], switches: &[] },
    Command { name: "serve", metrics: true, run: cmd_serve,
        values: &["--addr", "--shards", "--months", "--clicks", "--cap", "--dir"],
        switches: &[] },
    Command { name: "client", metrics: false, run: cmd_client,
        values: &["--addr", "--where", "--mode", "--roll-up", "--approach", "--now"],
        switches: &["--stats", "--explain", "--ping", "--unsync"] },
    Command { name: "loadgen", metrics: true, run: cmd_loadgen,
        values: &["--seed", "--clients", "--steps", "--queries", "--shards"], switches: &[] },
    Command { name: "check", metrics: true, run: cmd_check,
        values: &["--protocol", "--budget", "--preemptions", "--mutate"], switches: &[] },
];

fn run_command(cmd: &str, rest: &[String]) -> Result<(), AnyError> {
    // `--help`/`-h` is accepted by every subcommand, before strict flag
    // validation, and always succeeds — `specdr check --help` must not
    // be an "unknown flag" error.
    let help = |a: &str| a == "--help" || a == "-h";
    if help(cmd) || cmd == "help" || rest.iter().any(|a| help(a)) {
        print!("{}", USAGE);
        return Ok(());
    }
    let command = COMMANDS
        .iter()
        .find(|c| c.name == cmd)
        .ok_or_else(|| format!("unknown command `{cmd}`; try `specdr help`"))?;
    let opts = Opts::parse(rest, command)?;
    let format = match opts.metrics {
        None => None,
        Some(None) => Some(MetricsFormat::Table),
        Some(Some(v)) => Some(MetricsFormat::parse(v)?),
    };
    if format.is_some() {
        specdr::obs::set_enabled(true);
        specdr::obs::reset();
    }
    (command.run)(&opts)?;
    if let Some(format) = format {
        print_snapshot(format);
    }
    Ok(())
}

const USAGE: &str =
    "usage: specdr <demo|explain|age|profile|lint|check|simulate|query|stats|checkpoint|recover|concurrent|serve|client|loadgen|help> [options]\n\
  demo                        run the paper's ISP example\n\
  explain [--spec-file FILE]  check + explain a reduction specification\n\
  explain --query [--where PRED] [--roll-up LEVELS] [--mode MODE] [--months N]\n\
          [--clicks K] [--now Y/M/D] [--unsync] [--format json|table|trace]\n\
  explain --reduce [--months N] [--clicks K] [--now Y/M/D] [--format json|table|trace]\n\
                              introspect a query / reduction pass: subcube DAG\n\
                              with exact per-cube statistics, scanned vs.\n\
                              skippable cubes, memo hits, per-phase breakdown;\n\
                              --unsync leaves the warehouse at the last loaded\n\
                              day and explains the un-synchronized query: the\n\
                              virtually aged cubes and the memo line\n\
  explain --age [--until Y/M/D] [--months N] [--clicks K] [--spec-file FILE]\n\
          [--format json|table|trace]\n\
                              introspect one incremental aging pass: scheduler,\n\
                              per-tick spans, and the cube DAG after aging\n\
  age --until Y/M/D [--months N] [--clicks K] [--spec-file FILE]\n\
      [--follow [--tick N]]   incrementally age the warehouse along the spec's\n\
                              transition-day schedule (only facts whose cell\n\
                              changed between consecutive transitions are\n\
                              re-evaluated); --follow keeps aging through the\n\
                              next N scheduled transitions\n\
  profile [--months N] [--clicks K] [--now Y/M/D] [--format json|table|trace]\n\
                              trace one sync + parallel roll-up pass and render\n\
                              the combined introspection report\n\
  simulate [--months N] [--clicks K] [--raw-months A] [--month-months B] [--sessions]\n\
                              storage-gain simulation under a retention policy\n\
  query --where PRED [--roll-up LEVELS] [--mode conservative|liberal|weighted:T]\n\
        [--months N] [--clicks K] [--now Y/M/D]\n\
  stats [--months N] [--clicks K] [--format json|table] [--bytes]\n\
                              (--bytes: per-subcube on-disk raw vs. encoded sizes)\n\
                              run the pipeline with metrics on, print the snapshot\n\
  checkpoint --dir DIR [--months N] [--clicks K] [--raw-months A] [--month-months B]\n\
                              load a synthetic warehouse durably (WAL) and publish\n\
                              an atomic checkpoint; print the manifest\n\
  recover --dir DIR [--raw-months A] [--month-months B]\n\
                              recover a warehouse directory: load the live\n\
                              checkpoint, replay the WAL tail, print the report\n\
  lint [--spec-file FILE] [--schema clickstream|paper] [--now Y/M/D]\n\
       [--format text|json] [--allow CODE] [--warn CODE] [--deny CODE|warnings]\n\
                              statically analyze a reduction specification;\n\
                              non-zero exit iff a denied finding is present\n\
  check [--protocol all|epoch|group-commit|shard|serve|memo] [--budget N]\n\
        [--preemptions P] [--mutate NAME]\n\
                              model-check the warehouse concurrency protocols:\n\
                              exhaustively enumerate thread interleavings (up to\n\
                              P preemptions, at most N schedules per protocol)\n\
                              and fail with a minimal counterexample schedule on\n\
                              any contract violation; --mutate arms a seeded\n\
                              protocol bug that the harness must catch\n\
  concurrent [--seed S] [--readers N] [--steps M] [--queries Q]\n\
                              closed-loop snapshot-isolation driver: N readers\n\
                              query while a seeded writer churns loads, syncs,\n\
                              and spec evolution; audits for torn reads and\n\
                              prints the deterministic schedule digest\n\
  serve [--addr H:P] [--shards N] [--months N] [--clicks K] [--cap C] [--dir DIR]\n\
                              build a sharded click-stream warehouse and serve\n\
                              the CRC-framed wire protocol (query/stats/explain)\n\
                              until SIGTERM/SIGINT; port 0 picks an ephemeral\n\
                              port and prints the bound address\n\
  client --addr H:P [--where PRED] [--roll-up LEVELS] [--mode MODE]\n\
         [--approach availability|strict|lub|disaggregated] [--now Y/M/D]\n\
         [--unsync] [--stats] [--explain] [--ping]\n\
                              one wire round-trip against a running daemon;\n\
                              default issues the baseline query and prints its\n\
                              digest for comparison with the serve banner\n\
  loadgen [--seed S] [--clients N] [--steps M] [--queries Q] [--shards K]\n\
                              multi-client socket load generator: in-process\n\
                              daemon over a sharded warehouse, N TCP clients\n\
                              churned by a seeded writer; audits every wire\n\
                              response for torn reads, prints p50/p99 latency\n\
  demo/age/simulate/query/checkpoint/recover/concurrent/serve/loadgen also take --metrics[=json|table]\n";

type AnyError = Box<dyn std::error::Error>;

/// Parsed command-line options with strict validation: anything not in
/// the command's declared flag set is an error (exit code ≠ 0) with a
/// usage hint, instead of being silently ignored.
struct Opts<'a> {
    /// `--flag VALUE` / `--flag=VALUE` pairs.
    values: Vec<(&'a str, &'a str)>,
    /// Present boolean switches.
    switches: Vec<&'a str>,
    /// `--metrics` (`Some(None)`) or `--metrics=FORMAT`; never consumes
    /// the next argument.
    metrics: Option<Option<&'a str>>,
}

impl<'a> Opts<'a> {
    fn parse(rest: &'a [String], command: &Command) -> Result<Opts<'a>, AnyError> {
        let cmd = command.name;
        let mut out = Opts {
            values: Vec::new(),
            switches: Vec::new(),
            metrics: None,
        };
        let mut args = rest.iter();
        while let Some(arg) = args.next() {
            if !arg.starts_with("--") {
                return Err(format!(
                    "unexpected argument `{arg}` for `specdr {cmd}`; try `specdr help`"
                )
                .into());
            }
            let (name, inline) = match arg.split_once('=') {
                Some((n, v)) => (n, Some(v)),
                None => (arg.as_str(), None),
            };
            if command.values.contains(&name) {
                let value = match inline {
                    Some(v) => v,
                    None => args
                        .next()
                        .ok_or_else(|| format!("flag `{name}` expects a value"))?,
                };
                out.values.push((name, value));
            } else if command.switches.contains(&name) {
                if inline.is_some() {
                    return Err(format!("flag `{name}` takes no value").into());
                }
                out.switches.push(name);
            } else if command.metrics && name == "--metrics" {
                out.metrics = Some(inline);
            } else {
                return Err(
                    format!("unknown flag `{name}` for `specdr {cmd}`; try `specdr help`").into(),
                );
            }
        }
        Ok(out)
    }

    /// The value of `--flag`, if given.
    fn value(&self, flag: &str) -> Option<&'a str> {
        self.values
            .iter()
            .find(|(n, _)| *n == flag)
            .map(|(_, v)| *v)
    }

    /// True when the switch is present.
    fn switch(&self, flag: &str) -> bool {
        self.switches.contains(&flag)
    }
}

/// Snapshot output format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MetricsFormat {
    Json,
    Table,
}

impl MetricsFormat {
    fn parse(s: &str) -> Result<MetricsFormat, AnyError> {
        match s {
            "json" => Ok(MetricsFormat::Json),
            "table" => Ok(MetricsFormat::Table),
            other => Err(format!("unknown metrics format `{other}` (json|table)").into()),
        }
    }
}

fn print_snapshot(format: MetricsFormat) {
    let snap = specdr::obs::snapshot();
    match format {
        MetricsFormat::Json => print!("{}", snap.to_jsonl()),
        MetricsFormat::Table => {
            println!("\nmetrics:");
            print!("{}", snap.to_table());
        }
    }
}

fn parse_date(s: &str) -> Result<i32, AnyError> {
    let parts: Vec<&str> = s.split('/').collect();
    if parts.len() != 3 {
        return Err(format!("bad date `{s}` (expected Y/M/D)").into());
    }
    Ok(days_from_civil(
        parts[0].parse()?,
        parts[1].parse()?,
        parts[2].parse()?,
    ))
}

/// The paper's specification `{a1, a2}` (Figure 3) against its schema.
fn paper_spec(schema: &Arc<specdr::mdm::Schema>) -> Result<DataReductionSpec, AnyError> {
    let a1 = specdr::spec::parse_action(schema, ACTION_A1)?;
    let a2 = specdr::spec::parse_action(schema, ACTION_A2)?;
    Ok(DataReductionSpec::new(Arc::clone(schema), vec![a1, a2])?)
}

fn cmd_demo(_opts: &Opts) -> Result<(), AnyError> {
    let (mo, _) = paper_mo();
    println!("The paper's example MO (Table 2 / Figure 1):\n");
    println!("{}", render_table(&mo, TableOptions::default()));
    let spec = paper_spec(mo.schema())?;
    println!("Actions:");
    for (id, a) in spec.actions() {
        println!("  a{} {}", id.0 + 1, explain_action(a, mo.schema()));
    }
    for now in snapshot_days() {
        let (y, m, d) = civil_from_days(now);
        let red = reduce(&mo, &spec, now)?;
        println!("\nReduced MO at {y}/{m}/{d} (Figure 3):\n");
        println!(
            "{}",
            render_table(
                &red,
                TableOptions {
                    show_origin: true,
                    ..Default::default()
                }
            )
        );
    }
    Ok(())
}

fn cmd_explain(opts: &Opts) -> Result<(), AnyError> {
    let picked = [
        opts.switch("--query"),
        opts.switch("--reduce"),
        opts.switch("--age"),
    ];
    if picked.iter().filter(|b| **b).count() > 1 {
        return Err("pass at most one of --query, --reduce, --age".into());
    }
    if opts.switch("--unsync") && !opts.switch("--query") {
        return Err("--unsync explains a query: pass it with --query".into());
    }
    if opts.switch("--query") {
        cmd_explain_warehouse(opts, false)
    } else if opts.switch("--reduce") {
        cmd_explain_warehouse(opts, true)
    } else if opts.switch("--age") {
        cmd_explain_age(opts)
    } else {
        cmd_explain_spec(opts)
    }
}

/// The synthetic click-stream warehouse the data commands build:
/// `--months` × `--clicks`/day from 1999/1/1 (or the session-structured
/// variant under `--sessions`) with its [`retention_spec`].
struct Synthetic {
    months: u32,
    clicks: usize,
    /// Year and month of the last loaded month; data ends on its 28th.
    end: (i32, u32),
    cs: Clickstream,
    spec: DataReductionSpec,
}

impl Synthetic {
    /// The last loaded day, `years` later.
    fn end_day_plus(&self, years: i32) -> i32 {
        days_from_civil(self.end.0 + years, self.end.1, 28)
    }
}

/// Builds the [`Synthetic`] warehouse inputs; `months`/`clicks` are the
/// calling command's defaults.
fn synthetic(opts: &Opts, months: &str, clicks: &str) -> Result<Synthetic, AnyError> {
    let months: u32 = opts.value("--months").unwrap_or(months).parse()?;
    let clicks: usize = opts.value("--clicks").unwrap_or(clicks).parse()?;
    let end_total = 12 * 1999 + months as i32 - 1;
    let end = (end_total / 12, (end_total % 12 + 1) as u32);
    let base = ClickstreamConfig {
        clicks_per_day: clicks,
        start: (1999, 1, 1),
        end: (end.0, end.1, 28),
        ..Default::default()
    };
    let cs = if opts.switch("--sessions") {
        generate_sessions(&SessionConfig {
            base: ClickstreamConfig {
                clicks_per_day: 0,
                ..base
            },
            sessions_per_day: clicks / 5,
            ..Default::default()
        })
    } else {
        generate(&base)
    };
    let spec = retention_spec(opts, &cs.schema)?;
    Ok(Synthetic {
        months,
        clicks,
        end,
        cs,
        spec,
    })
}

/// The `--raw-months`/`--month-months` retention policy (6/36 where a
/// command has no such flags) against the click-stream schema.
fn retention_spec(
    opts: &Opts,
    schema: &Arc<specdr::mdm::Schema>,
) -> Result<DataReductionSpec, AnyError> {
    let raw_months: u32 = opts.value("--raw-months").unwrap_or("6").parse()?;
    let month_months: u32 = opts.value("--month-months").unwrap_or("36").parse()?;
    let actions: Result<Vec<_>, _> = retention_policy(raw_months, month_months)
        .iter()
        .map(|s| specdr::spec::parse_action(schema, s))
        .collect();
    Ok(DataReductionSpec::new(Arc::clone(schema), actions?)?)
}

/// The click-stream schema alone (no facts) — what the commands that
/// only parse or recover against it need.
fn clickstream_schema() -> Arc<specdr::mdm::Schema> {
    let cs = generate(&ClickstreamConfig {
        clicks_per_day: 0,
        ..Default::default()
    });
    cs.schema
}

/// Builds the synthetic warehouse every introspection command runs
/// against: `months` × `clicks`/day of click-stream facts bulk-loaded
/// into a subcube manager under the 6/36-month retention policy.
/// Returns the manager, the schema, `NOW` and the last loaded day.
fn introspection_warehouse(
    opts: &Opts,
) -> Result<(SubcubeManager, Arc<specdr::mdm::Schema>, i32, i32), AnyError> {
    let syn = synthetic(opts, "24", "100")?;
    let now = match opts.value("--now") {
        Some(s) => parse_date(s)?,
        None => syn.end_day_plus(2),
    };
    let loaded_until = syn.end_day_plus(0);
    let mgr = SubcubeManager::new(syn.spec);
    mgr.bulk_load(&syn.cs.mo)?;
    Ok((mgr, syn.cs.schema, now, loaded_until))
}

/// The query the flags spell — `--where`, `--mode`, `--approach`,
/// `--roll-up` (default `levels`), `--unsync` — evaluated at `now`.
/// Conservative selection and availability aggregation when unspecified.
fn query_spec(opts: &Opts, now: i32, levels: &str) -> QuerySpec {
    QuerySpec {
        pred: opts.value("--where").map(Into::into),
        mode: opts.value("--mode").unwrap_or("conservative").into(),
        levels: opts.value("--roll-up").unwrap_or(levels).into(),
        approach: opts.value("--approach").unwrap_or("availability").into(),
        now,
        unsync: opts.switch("--unsync"),
    }
}

fn print_introspection(r: &specdr::introspect::Introspection, opts: &Opts) -> Result<(), AnyError> {
    match opts.value("--format").unwrap_or("table") {
        "table" => print!("{}", r.to_table()),
        "json" => println!("{}", r.to_json()),
        "trace" => println!("{}", r.to_chrome_trace()),
        other => return Err(format!("unknown format `{other}` (json|table|trace)").into()),
    }
    Ok(())
}

/// `specdr explain --query` / `specdr explain --reduce`.
fn cmd_explain_warehouse(opts: &Opts, reduce_pass: bool) -> Result<(), AnyError> {
    let (mgr, schema, now, loaded_until) = introspection_warehouse(opts)?;
    let report = if reduce_pass {
        // The one explainer, on the warehouse as loaded: never
        // synchronized, so the reduction homes every row in one step.
        let (stats, report) = specdr::introspect::explain_age(&mgr, now)?;
        if opts.value("--format").unwrap_or("table") == "table" {
            println!(
                "reduction pass at NOW = {}: {}\n",
                render_date(now),
                age_line(&stats)
            );
        }
        report
    } else {
        let spec = query_spec(opts, now, "Time.month");
        let q = spec.build(&schema)?;
        // Queries are explained against a synchronized warehouse, so the
        // DAG shows where the retention policy actually put the facts;
        // with `--unsync` the warehouse stays where the loader left it
        // and the query ages its pinned view to `now` without publishing
        // anything.
        mgr.sync(if spec.unsync { loaded_until } else { now }.min(now))?;
        let (answer, report) = specdr::introspect::explain_query(&mgr, &q, now, true, spec.unsync)?;
        if opts.value("--format").unwrap_or("table") == "table" {
            println!(
                "query at NOW = {}: {} result rows\n",
                render_date(now),
                answer.len()
            );
        }
        report
    };
    print_introspection(&report, opts)
}

/// Builds the warehouse `specdr age` operates on: click-stream facts
/// under the retention policy (or `--spec-file`), baseline-synchronized
/// to the end of the loaded data so the aging below is genuinely
/// incremental. Returns the manager, the baseline day, and the default
/// `--until` (two years past the data).
fn aging_warehouse(opts: &Opts) -> Result<(SubcubeManager, i32, i32), AnyError> {
    let syn = synthetic(opts, "24", "50")?;
    let (baseline, default_until) = (syn.end_day_plus(0), syn.end_day_plus(2));
    let spec = match opts.value("--spec-file") {
        Some(path) => {
            let src = std::fs::read_to_string(path)?;
            let actions = parse_actions(&syn.cs.schema, &src)?;
            DataReductionSpec::new(Arc::clone(&syn.cs.schema), actions)?
        }
        None => syn.spec,
    };
    let mgr = SubcubeManager::new(spec);
    mgr.bulk_load(&syn.cs.mo)?;
    mgr.sync(baseline)?;
    Ok((mgr, baseline, default_until))
}

/// What a reduction did, as every command prints it.
fn age_line(s: &AgeStats) -> String {
    format!(
        "ticks={} cells_delta={} merged={} cubes_rebuilt={} cubes_skipped={}",
        s.ticks, s.cells_delta, s.merged, s.cubes_rebuilt, s.cubes_skipped
    )
}

fn print_age_stats(t: i32, s: &AgeStats, mgr: &SubcubeManager) {
    println!(
        "aged to {}: {}; {} facts remain",
        render_date(t),
        age_line(s),
        mgr.len()
    );
}

/// `specdr age`: incremental continuous aging driven by the spec's
/// transition-day schedule.
fn cmd_age(opts: &Opts) -> Result<(), AnyError> {
    let (mgr, baseline, _) = aging_warehouse(opts)?;
    let until = match opts.value("--until") {
        Some(s) => parse_date(s)?,
        None => return Err("`specdr age` requires --until Y/M/D".into()),
    };
    println!(
        "warehouse: {} facts across {} cubes, synchronized to {}",
        mgr.len(),
        mgr.n_cubes(),
        render_date(baseline)
    );
    let stats = mgr.age(until)?;
    print_age_stats(until, &stats, &mgr);
    if opts.switch("--follow") {
        let ticks: u32 = opts.value("--tick").unwrap_or("4").parse()?;
        let mut cur = until;
        for i in 1..=ticks {
            match mgr.next_sync_due(cur) {
                Some(t) => {
                    let s = mgr.age(t)?;
                    print!("tick {i}: ");
                    print_age_stats(t, &s, &mgr);
                    cur = t;
                }
                None => {
                    println!("tick {i}: schedule exhausted (past the spec's horizon)");
                    break;
                }
            }
        }
    }
    Ok(())
}

/// `specdr explain --age`: introspect one incremental aging pass.
fn cmd_explain_age(opts: &Opts) -> Result<(), AnyError> {
    let (mgr, baseline, default_until) = aging_warehouse(opts)?;
    let until = match opts.value("--until") {
        Some(s) => parse_date(s)?,
        None => default_until,
    };
    let (stats, report) = specdr::introspect::explain_age(&mgr, until)?;
    if opts.value("--format").unwrap_or("table") == "table" {
        println!(
            "aging pass {} → {}: {}\n",
            render_date(baseline),
            render_date(until),
            age_line(&stats)
        );
    }
    print_introspection(&report, opts)
}

/// `specdr profile`: one sync + parallel roll-up under a single trace
/// recording.
fn cmd_profile(opts: &Opts) -> Result<(), AnyError> {
    let (mgr, schema, now, _) = introspection_warehouse(opts)?;
    let q = query_spec(opts, now, "Time.month").build(&schema)?;
    let (stats, answer, report) = specdr::introspect::profile(&mgr, &q, now, true)?;
    if opts.value("--format").unwrap_or("table") == "table" {
        println!(
            "profiled sync + query at NOW = {}: {}, {} result rows\n",
            render_date(now),
            age_line(&stats),
            answer.len()
        );
    }
    print_introspection(&report, opts)
}

fn render_date(now: i32) -> String {
    let (y, m, d) = civil_from_days(now);
    format!("{y}/{m}/{d}")
}

fn cmd_explain_spec(opts: &Opts) -> Result<(), AnyError> {
    let schema = clickstream_schema();
    let src = match opts.value("--spec-file") {
        Some(path) => std::fs::read_to_string(path)?,
        None => retention_policy(6, 36).join(";\n"),
    };
    let actions = parse_actions(&schema, &src)?;
    println!(
        "{} action(s) parsed against the click-stream schema:\n",
        actions.len()
    );
    for (i, a) in actions.iter().enumerate() {
        println!("  a{i} {}", explain_action(a, &schema));
    }
    match DataReductionSpec::new(schema, actions) {
        Ok(_) => println!("\nspecification is sound: NonCrossing ✓ Growing ✓"),
        Err(e) => {
            println!("\nspecification is UNSOUND:\n  {e}");
            return Err("specification rejected".into());
        }
    }
    Ok(())
}

fn cmd_lint(opts: &Opts) -> Result<(), AnyError> {
    use specdr::lint::{lint_source, Code, Level, LintConfig, Severity};

    let (schema, schema_name) = match opts.value("--schema").unwrap_or("clickstream") {
        "clickstream" => (clickstream_schema(), "click-stream"),
        "paper" => (specdr::workload::paper_schema().0, "paper"),
        other => return Err(format!("unknown schema `{other}` (clickstream|paper)").into()),
    };
    let (src, file) = match opts.value("--spec-file") {
        Some(path) => (std::fs::read_to_string(path)?, path.to_string()),
        None => (
            retention_policy(6, 36).join(";\n"),
            "<retention-policy>".to_string(),
        ),
    };

    let mut cfg = LintConfig::default();
    if let Some(s) = opts.value("--now") {
        cfg.now = Some(parse_date(s)?);
    }
    // Walk the raw flag list so later --allow/--warn/--deny override
    // earlier ones, exactly like rustc's -A/-W/-D.
    for &(flag, value) in &opts.values {
        let level = match flag {
            "--allow" => Level::Allow,
            "--warn" => Level::Warn,
            "--deny" => Level::Deny,
            _ => continue,
        };
        if flag == "--deny" && value == "warnings" {
            cfg.deny_warnings = true;
            continue;
        }
        let code = Code::parse(value)
            .ok_or_else(|| format!("unknown lint code `{value}` (L001..L007)"))?;
        cfg.set_level(code, level);
    }

    let diags = lint_source(&schema, &src, &cfg);
    match opts.value("--format").unwrap_or("text") {
        "text" => {
            print!("{}", specdr::lint::render_text(&src, &file, &diags));
            let summary = specdr::lint::render_summary(&diags);
            if summary.is_empty() {
                println!(
                    "lint: {} action(s) clean against the {schema_name} schema",
                    src.split(';').filter(|s| !s.trim().is_empty()).count()
                );
            } else {
                println!("{summary}");
            }
        }
        "json" => println!("{}", specdr::lint::render_json(&src, &file, &diags)),
        other => return Err(format!("unknown format `{other}` (text|json)").into()),
    }
    let errors = diags
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .count();
    if errors > 0 {
        return Err(format!("{errors} denied finding(s)").into());
    }
    Ok(())
}

fn cmd_simulate(opts: &Opts) -> Result<(), AnyError> {
    let Synthetic {
        months, cs, spec, ..
    } = synthetic(opts, "24", "200")?;
    let raw_months: u32 = opts.value("--raw-months").unwrap_or("6").parse()?;
    let raw = table_stats(&cs.mo);
    println!(
        "{} months of clicks: {} facts, {} bytes raw ({} encoded)\n",
        months, raw.rows, raw.raw_bytes, raw.encoded_bytes
    );
    println!(
        "{:>10} {:>10} {:>13} {:>13} {:>9}",
        "NOW", "facts", "raw bytes", "enc bytes", "factor"
    );
    let mut now = days_from_civil(1999, 1 + raw_months.min(11), 1);
    for _ in 0..(months / 6 + 6) {
        let red = reduce(&cs.mo, &spec, now)?;
        let st = table_stats(&red);
        let (y, m, _) = civil_from_days(now);
        println!(
            "{:>7}/{:<2} {:>10} {:>13} {:>13} {:>8.1}x",
            y,
            m,
            st.rows,
            st.raw_bytes,
            st.encoded_bytes,
            raw.raw_bytes as f64 / st.encoded_bytes.max(1) as f64
        );
        now = specdr::mdm::time::shift_day(now, Span::new(6, TimeUnit::Month), 1);
    }

    // Exercise the physical layer too (Section 7): load the stream into
    // the subcube warehouse, synchronize to the final NOW, and answer one
    // representative roll-up in parallel — so a `--metrics` run shows
    // reduce, subcube, query, and storage numbers side by side.
    let mgr = SubcubeManager::new(spec);
    mgr.bulk_load(&cs.mo)?;
    let stats = mgr.sync(now)?;
    println!(
        "\nsubcube sync at final NOW: {} across {} cubes",
        age_line(&stats),
        mgr.n_cubes()
    );
    let q = query_spec(opts, now, "Time.month").build(&cs.schema)?;
    let answer = mgr.query(&q, now, true)?;
    println!(
        "parallel monthly roll-up over the warehouse: {} result cells",
        answer.len()
    );
    Ok(())
}

fn cmd_query(opts: &Opts) -> Result<(), AnyError> {
    let syn = synthetic(opts, "24", "100")?;
    let now = match opts.value("--now") {
        Some(s) => parse_date(s)?,
        None => syn.end_day_plus(2),
    };
    let (cs, spec) = (syn.cs, syn.spec);
    let red = reduce(&cs.mo, &spec, now)?;
    println!(
        "warehouse: {} facts raw → {} facts reduced at NOW = {}",
        cs.mo.len(),
        red.len(),
        render_date(now)
    );

    // σ, then α only when a roll-up was asked for: without one the
    // selected facts print as stored.
    let q = query_spec(opts, now, "").build(&cs.schema)?;
    let selected = select_view(&red, q.pred.as_ref(), now, q.mode)?;
    let result = match opts.value("--roll-up") {
        Some(_) => aggregate_ids(&selected, &q.levels, q.approach)?,
        None => selected.into_owned(),
    };
    println!("\n{}", render_table(&result, TableOptions::default()));
    let total: i64 = result
        .facts()
        .map(|f| result.measure(f, MeasureId(0)))
        .sum();
    println!("{} rows, total Number_of = {total}", result.len());
    Ok(())
}

fn render_last_sync(day: Option<i32>) -> String {
    day.map_or("never".into(), render_date)
}

fn cmd_checkpoint(opts: &Opts) -> Result<(), AnyError> {
    let dir = opts
        .value("--dir")
        .ok_or("`specdr checkpoint` requires --dir DIR")?
        .to_string();
    let syn = synthetic(opts, "12", "50")?;
    let now = syn.end_day_plus(1);
    // Whatever the directory holds (one shard or `specdr serve`'s N);
    // an empty one becomes a one-shard warehouse.
    let router = ShardRouter::open(syn.spec, &dir, 1)?;
    let loaded = router.bulk_load(&syn.cs.mo)?;
    let stats = router.sync(now)?;
    let epoch = router.checkpoint()?;
    println!(
        "loaded {loaded} facts, synced at NOW = {}: {}",
        render_date(now),
        age_line(&stats)
    );
    println!("checkpoint published: {dir}");
    println!("  shards     = {}", router.shards());
    println!("  epoch      = {epoch}");
    println!("  wal hwm    = {} ops", router.ops_durable());
    println!("  last sync  = {}", render_last_sync(router.last_sync()));
    Ok(())
}

fn cmd_recover(opts: &Opts) -> Result<(), AnyError> {
    let dir = opts
        .value("--dir")
        .ok_or("`specdr recover` requires --dir DIR")?
        .to_string();
    // The schema is warehouse metadata, rebuilt here exactly as
    // `checkpoint` built it; the actions come from the manifest.
    let spec = retention_spec(opts, &clickstream_schema())?;
    let (router, report) = ShardRouter::recover(spec, &dir)?;
    println!("recovered {dir}:");
    println!("  shards          = {}", report.shards);
    println!("  epoch           = {}", report.epoch);
    println!("  replayed        = {} WAL records", report.replayed);
    println!("  dropped (torn)  = {} bytes", report.dropped_bytes);
    println!("  dropped (unacked) = {} records", report.dropped_records);
    println!("  resumed ckpt    = {}", report.resumed_checkpoint);
    println!("  ops durable     = {}", report.ops_durable);
    println!("  last sync       = {}", render_last_sync(report.last_sync));
    println!("  warehouse       = {} facts", router.len());
    Ok(())
}

fn cmd_stats(opts: &Opts) -> Result<(), AnyError> {
    let format = match opts.value("--format") {
        Some(f) => MetricsFormat::parse(f)?,
        None => MetricsFormat::Table,
    };
    specdr::obs::set_enabled(true);
    specdr::obs::reset();

    let syn = synthetic(opts, "12", "100")?;
    let now = syn.end_day_plus(2);
    let (cs, spec) = (syn.cs, syn.spec);

    // One pass through every instrumented layer: logical reduction,
    // storage encoding, subcube load + sync, and a parallel query.
    let red = reduce(&cs.mo, &spec, now)?;
    let _ = table_stats(&red);
    let mgr = SubcubeManager::new(spec.clone());
    mgr.bulk_load(&cs.mo)?;
    mgr.sync(now)?;
    let q = query_spec(opts, now, "Time.month").build(&cs.schema)?;
    let _ = mgr.query(&q, now, true)?;

    eprintln!(
        "pipeline over {} months × {} clicks/day ({} facts):",
        syn.months,
        syn.clicks,
        cs.mo.len()
    );
    let view = mgr.view();
    for (i, c) in view.cubes().iter().enumerate() {
        eprintln!(
            "  K{i} {}: rows={} chunks={}",
            cs.schema.render_granularity(&c.grain),
            c.rows(),
            c.chunks().len()
        );
    }
    if opts.switch("--bytes") {
        print_cube_bytes(spec, &cs.mo, now, format)?;
    }
    print_snapshot(format);
    Ok(())
}

/// `specdr stats --bytes`: load and sync `facts` into a one-shard
/// warehouse in a temporary directory, checkpoint it, and report each
/// subcube's on-disk footprint from the manifest's byte table — `raw` is
/// the uncompressed row footprint, `encoded` the cube file length after
/// dictionary/bit-packed column encoding.
fn print_cube_bytes(
    spec: DataReductionSpec,
    facts: &Mo,
    now: i32,
    format: MetricsFormat,
) -> Result<(), AnyError> {
    let dir = std::env::temp_dir().join(format!("specdr-stats-bytes-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let result = (|| -> Result<(), AnyError> {
        let router = ShardRouter::create(spec, &dir, 1)?;
        router.bulk_load(facts)?;
        router.sync(now)?;
        router.checkpoint()?;
        let man = specdr::subcube::read_manifest(&dir)?;
        let set = router.view_set();
        let view = &set.views()[0];
        let schema = view.schema();
        match format {
            MetricsFormat::Json => {
                let mut out = String::from("{\"cube_bytes\":[");
                for (i, c) in view.cubes().iter().enumerate() {
                    let (raw, enc) = man.cube_bytes.get(i).copied().unwrap_or((0, 0));
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&format!(
                        "{{\"id\":{i},\"grain\":\"{}\",\"rows\":{},\"raw\":{raw},\"encoded\":{enc}}}",
                        schema.render_granularity(&c.grain),
                        c.stats().rows,
                    ));
                }
                out.push_str("]}");
                println!("{out}");
            }
            MetricsFormat::Table => {
                println!(
                    "\non-disk bytes per subcube (checkpoint format {}):",
                    man.format
                );
                println!(
                    "  {:<5} {:<38} {:>10} {:>12} {:>12} {:>7}",
                    "cube", "grain", "rows", "raw", "encoded", "ratio"
                );
                let (mut traw, mut tenc) = (0u64, 0u64);
                for (i, c) in view.cubes().iter().enumerate() {
                    let (raw, enc) = man.cube_bytes.get(i).copied().unwrap_or((0, 0));
                    traw += raw;
                    tenc += enc;
                    let ratio = if enc > 0 && raw > 0 {
                        format!("{:.2}x", raw as f64 / enc as f64)
                    } else {
                        "-".to_string()
                    };
                    println!(
                        "  K{:<4} {:<38} {:>10} {:>12} {:>12} {:>7}",
                        i,
                        schema.render_granularity(&c.grain),
                        c.stats().rows,
                        raw,
                        enc,
                        ratio
                    );
                }
                let ratio = if tenc > 0 {
                    format!("{:.2}x", traw as f64 / tenc as f64)
                } else {
                    "-".to_string()
                };
                println!(
                    "  {:<5} {:<38} {:>10} {:>12} {:>12} {:>7}",
                    "total",
                    "",
                    view.len(),
                    traw,
                    tenc,
                    ratio
                );
            }
        }
        Ok(())
    })();
    let _ = std::fs::remove_dir_all(&dir);
    result
}

/// The report lines both closed-loop drivers print: what the writer
/// applied and published, and what the `readers` observed in `secs`.
fn print_drive_lines(
    applied: usize,
    rejected: usize,
    published: &[(u64, u64)],
    observations: usize,
    readers: &str,
    secs: f64,
) {
    println!(
        "  mutations       = {applied} applied, {rejected} rejected (legal spec-evolution refusals)"
    );
    println!(
        "  published       = {} versions, epochs {}..{}",
        published.len(),
        published.first().map_or(0, |p| p.0),
        published.last().map_or(0, |p| p.0)
    );
    println!(
        "  observations    = {observations} {readers} ({:.0} queries/s)",
        observations as f64 / secs.max(1e-9)
    );
}

fn cmd_concurrent(opts: &Opts) -> Result<(), AnyError> {
    use specdr::driver::{drive, DriveConfig};
    let cfg = DriveConfig {
        seed: opts.value("--seed").unwrap_or("42").parse()?,
        readers: opts.value("--readers").unwrap_or("4").parse()?,
        steps: opts.value("--steps").unwrap_or("30").parse()?,
        min_queries_per_reader: opts.value("--queries").unwrap_or("40").parse()?,
    };
    let spec = paper_spec(&specdr::workload::paper_schema().0)?;
    let t = std::time::Instant::now();
    let report = drive(spec, &cfg)?;
    let secs = t.elapsed().as_secs_f64();
    println!(
        "concurrent: {} readers x {} churn steps (seed {})",
        cfg.readers, cfg.steps, cfg.seed
    );
    print_drive_lines(
        report.mutations_ok,
        report.mutations_rejected,
        &report.published,
        report.observations,
        &format!("queries across {} readers", cfg.readers),
        secs,
    );
    println!("  torn reads      = {}", report.torn_reads);
    println!(
        "concurrency seed={} epochs={} digest={:016x}",
        cfg.seed,
        report.published.len(),
        report.schedule_digest
    );
    if report.torn_reads > 0 {
        return Err(format!("{} torn reads observed", report.torn_reads).into());
    }
    Ok(())
}

/// SIGTERM/SIGINT flag for `specdr serve` — set from the signal handler,
/// polled by the accept-loop supervisor.
static SERVE_STOP: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

extern "C" fn serve_stop_handler(_sig: i32) {
    // Release: pairs with the serve loop's Acquire poll below.
    SERVE_STOP.store(true, std::sync::atomic::Ordering::Release);
}

/// Installs `serve_stop_handler` for SIGINT (2) and SIGTERM (15) via
/// libc's `signal(2)` — the only unsafe in the CLI; storing to an atomic
/// is async-signal-safe.
fn install_stop_signals() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    unsafe {
        signal(2, serve_stop_handler as *const () as usize);
        signal(15, serve_stop_handler as *const () as usize);
    }
}

/// Builds the sharded click-stream warehouse `serve` publishes: `months`
/// × `clicks`/day under the 6/36-month retention policy, synced once at
/// the derived `NOW`. Returns the router and the baseline `NOW` day.
fn serve_warehouse(
    opts: &Opts,
    dir: &std::path::Path,
    shards: usize,
) -> Result<(Arc<ShardRouter>, i32), AnyError> {
    let syn = synthetic(opts, "24", "100")?;
    let now = syn.end_day_plus(2);
    let router = Arc::new(ShardRouter::open(syn.spec, dir, shards)?);
    if router.is_empty() {
        router.bulk_load(&syn.cs.mo)?;
        router.sync(now)?;
    }
    Ok((router, now))
}

/// `specdr check`: model-check the concurrency protocols, rendering any
/// counterexample as a rustc-style `C001` diagnostic over the failing
/// schedule.
#[cfg(feature = "check")]
fn cmd_check(opts: &Opts) -> Result<(), AnyError> {
    use sdr_check::{mutation, run, CheckOptions, Protocol};

    let mutate = match opts.value("--mutate") {
        Some(name) => Some(*mutation(name).ok_or_else(|| {
            let known: Vec<&str> = sdr_check::MUTATIONS.iter().map(|m| m.name).collect();
            format!(
                "unknown mutation `{name}`; expected one of {}",
                known.join("|")
            )
        })?),
        None => None,
    };
    let protocols: Vec<Protocol> = match (mutate, opts.value("--protocol").unwrap_or("all")) {
        // A mutation targets exactly one harness.
        (Some(m), _) => vec![m.protocol],
        (None, "all") => Protocol::ALL.to_vec(),
        (None, name) => vec![Protocol::parse(name).ok_or_else(|| {
            format!("unknown protocol `{name}`; expected all|epoch|group-commit|shard|serve|memo")
        })?],
    };
    let co = CheckOptions {
        budget: opts.value("--budget").unwrap_or("50000").parse()?,
        preemptions: opts.value("--preemptions").map(str::parse).transpose()?,
        mutation: mutate.map(|m| m.failpoint),
    };

    let mut counterexamples = 0usize;
    for p in protocols {
        let t = std::time::Instant::now();
        let r = run(p, &co);
        let coverage = if r.counterexample.is_some() {
            "stopped at counterexample"
        } else if r.complete {
            "exhaustive"
        } else if r.exhausted {
            "exhaustive up to preemption bound"
        } else {
            "budget exhausted"
        };
        println!(
            "check {p}: {} schedules explored, {} pruned, preemption bound {} ({coverage}) in {:.1?}",
            r.schedules,
            r.prunes,
            r.bound_used,
            t.elapsed()
        );
        if let Some(n) = &r.nondeterminism {
            return Err(format!("check {p}: harness is nondeterministic: {n}").into());
        }
        if let Some(ce) = &r.counterexample {
            println!("{}", render_counterexample(p, ce));
            counterexamples += 1;
        }
    }
    if counterexamples > 0 {
        return Err(format!(
            "{counterexamples} protocol counterexample{} found",
            if counterexamples == 1 { "" } else { "s" }
        )
        .into());
    }
    Ok(())
}

/// Renders a counterexample schedule like a lint finding: the schedule
/// is the "source", the failing step carries the primary span.
#[cfg(feature = "check")]
fn render_counterexample(p: sdr_check::Protocol, ce: &sdr_check::Counterexample) -> String {
    use sdr_lint::{render_text, Code, Diagnostic, Severity};
    use specdr::spec::SrcSpan;

    let src = ce.schedule.join("\n");
    let step = ce
        .failing_step
        .unwrap_or(ce.schedule.len().saturating_sub(1));
    // Byte range of the failing step's line within the joined schedule.
    let start: usize = ce.schedule[..step].iter().map(|l| l.len() + 1).sum();
    let end = start + ce.schedule.get(step).map_or(0, |l| l.len());
    let headline = ce.message.lines().next().unwrap_or("protocol violation");
    let mut d = Diagnostic::new(
        Code::C001,
        Severity::Error,
        format!("protocol `{p}` violated: {headline}"),
    )
    .with_primary(
        SrcSpan { start, end },
        "the invariant fails after this step",
    )
    .with_note(format!("invariant: {}", p.invariant()))
    .with_note(format!(
        "minimal schedule: {} step{}, {} preemption{}",
        ce.schedule.len(),
        if ce.schedule.len() == 1 { "" } else { "s" },
        ce.preemptions,
        if ce.preemptions == 1 { "" } else { "s" },
    ));
    for line in ce.message.lines().skip(1) {
        d = d.with_note(line.trim().to_string());
    }
    render_text(&src, "<schedule>", &[d])
}

/// Without the `check` feature there is no model backend in the binary;
/// point the user at the dev build instead of failing cryptically.
#[cfg(not(feature = "check"))]
fn cmd_check(_opts: &Opts) -> Result<(), AnyError> {
    Err("this binary was built without the model checker \
         (feature `check`); rebuild with default features to run \
         `specdr check`"
        .into())
}

fn cmd_serve(opts: &Opts) -> Result<(), AnyError> {
    let shards: usize = opts.value("--shards").unwrap_or("2").parse()?;
    let cap: usize = opts.value("--cap").unwrap_or("64").parse()?;
    let tmp;
    let dir = match opts.value("--dir") {
        Some(d) => std::path::PathBuf::from(d),
        None => {
            tmp = std::env::temp_dir().join(format!("specdr-serve-{}", std::process::id()));
            tmp.clone()
        }
    };
    let (router, now) = serve_warehouse(opts, &dir, shards)?;
    let (ny, nm, nd) = civil_from_days(now);

    // In-process baseline digest, printed so a wire client's answer can
    // be compared against it (the ci smoke test does exactly that).
    let baseline = specdr::serve::baseline_spec(now);
    let q = baseline.build(router.schema())?;
    let answer = baseline.eval(&q, &router.view_set(), true)?;
    let digest = specdr::driver::result_digest(&answer);

    let cfg = specdr::serve::ServeConfig {
        addr: opts.value("--addr").unwrap_or("127.0.0.1:0").to_string(),
        max_conns: cap,
        ..Default::default()
    };
    install_stop_signals();
    let handle = specdr::serve::serve(Arc::clone(&router), &cfg)?;
    println!("serve: listening on {}", handle.addr());
    println!(
        "serve: shards={} facts={} epoch={} cap={}",
        router.shards(),
        router.len(),
        router.epoch(),
        cap
    );
    println!("serve: baseline now={ny}/{nm}/{nd} digest=0x{digest:016x}");
    // Acquire: pairs with the signal handler's Release store.
    while !SERVE_STOP.load(std::sync::atomic::Ordering::Acquire) {
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    handle.shutdown();
    println!("serve: shutdown");
    Ok(())
}

fn cmd_client(opts: &Opts) -> Result<(), AnyError> {
    use specdr::serve;
    let addr: std::net::SocketAddr = opts
        .value("--addr")
        .ok_or("client needs --addr HOST:PORT")?
        .parse()?;
    let timeout = std::time::Duration::from_secs(10);
    let payload = if opts.switch("--ping") {
        vec![serve::REQ_PING]
    } else if opts.switch("--stats") {
        vec![serve::REQ_STATS]
    } else {
        let now = match opts.value("--now") {
            Some(s) => parse_date(s)?,
            None => days_from_civil(2002, 12, 28),
        };
        // No flags: the baseline query the serve banner digests.
        let spec = query_spec(opts, now, &serve::baseline_spec(now).levels);
        if opts.switch("--explain") {
            serve::explain_payload(&spec)
        } else {
            serve::query_payload(&spec)
        }
    };
    let resp = serve::request(&addr, &payload, timeout).map_err(|e| e.to_string())?;
    let (tag, body) = serve::split_response(&resp).map_err(|e| -> AnyError { e.into() })?;
    match tag {
        serve::RESP_OK => {
            print!("{}", String::from_utf8_lossy(body));
            Ok(())
        }
        serve::RESP_ERR => {
            let code = body.first().copied().unwrap_or(0);
            let msg = String::from_utf8_lossy(body.get(1..).unwrap_or(&[]));
            Err(format!("server error {code}: {msg}").into())
        }
        other => Err(format!("unexpected response tag 0x{other:02x}").into()),
    }
}

fn cmd_loadgen(opts: &Opts) -> Result<(), AnyError> {
    use specdr::driver::{drive_socket, percentile, SocketDriveConfig};
    let cfg = SocketDriveConfig {
        seed: opts.value("--seed").unwrap_or("42").parse()?,
        clients: opts.value("--clients").unwrap_or("4").parse()?,
        steps: opts.value("--steps").unwrap_or("30").parse()?,
        min_queries_per_client: opts.value("--queries").unwrap_or("40").parse()?,
        ..Default::default()
    };
    let shards: usize = opts.value("--shards").unwrap_or("2").parse()?;
    let spec = paper_spec(&specdr::workload::paper_schema().0)?;
    let dir = std::env::temp_dir().join(format!(
        "specdr-loadgen-{}-{}",
        std::process::id(),
        cfg.seed
    ));
    let router = Arc::new(ShardRouter::create(spec, &dir, shards)?);
    let handle = specdr::serve::serve(Arc::clone(&router), &specdr::serve::ServeConfig::default())?;
    let t = std::time::Instant::now();
    let report = drive_socket(Arc::clone(&router), handle.addr(), &cfg)?;
    let secs = t.elapsed().as_secs_f64();
    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
    println!(
        "loadgen: {} clients x {} churn steps over {} shards (seed {})",
        cfg.clients, cfg.steps, shards, cfg.seed
    );
    print_drive_lines(
        report.mutations_ok,
        report.mutations_rejected,
        &report.published,
        report.observations,
        &format!("wire queries across {} clients", cfg.clients),
        secs,
    );
    println!(
        "  latency         = p50 {:.1}us p99 {:.1}us",
        percentile(&report.latency_ns, 0.50) as f64 / 1e3,
        percentile(&report.latency_ns, 0.99) as f64 / 1e3
    );
    println!(
        "  errors          = {} protocol, {} transport",
        report.proto_errors, report.transport_errors
    );
    println!("  torn reads      = {}", report.torn_reads);
    if report.torn_reads > 0 {
        return Err(format!("{} torn reads observed over the wire", report.torn_reads).into());
    }
    if report.proto_errors > 0 || report.transport_errors > 0 {
        return Err("protocol or transport errors during load generation".into());
    }
    Ok(())
}
