//! `specdr` — command-line driver for the specification-based data
//! reduction library. `specdr help` lists every command and its flags;
//! that text (`USAGE` below, headed by the command table) is the one
//! description of the commands.
//!
//! All data is synthetic/deterministic; the CLI exists to exercise every
//! public API from the outside, exactly like a downstream user would.

use std::process::ExitCode;
use std::sync::Arc;

use specdr::mdm::calendar::{civil_from_days, days_from_civil, days_in_month};
use specdr::mdm::{render_table, MeasureId, TableOptions};
use specdr::reduce::DataReductionSpec;
use specdr::serve::QuerySpec;
use specdr::spec::{explain_action, parse_actions};
use specdr::subcube::{read_manifest, AgeStats, Manifest, ShardRouter, WarehouseView};
use specdr::workload::{
    generate, retention_policy, Clickstream, ClickstreamConfig, ACTION_A1, ACTION_A2,
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
    /// Boolean switches (`--follow`; a value is an error).
    switches: &'static [&'static str],
    /// Takes `--metrics[=json|table]`: record the run in the `sdr-obs`
    /// registry and print the snapshot after the normal output.
    metrics: bool,
    run: fn(&Opts) -> Result<(), AnyError>,
}

#[rustfmt::skip]
static COMMANDS: &[Command] = &[
    Command { name: "explain", metrics: false, run: cmd_explain,
        values: &["--spec-file", "--where", "--roll-up", "--mode", "--months", "--clicks", "--now",
                  "--until", "--format"],
        switches: &["--query", "--reduce", "--age", "--unsync"] },
    Command { name: "age", metrics: true, run: cmd_age,
        values: &["--until", "--months", "--clicks", "--spec-file", "--tick"],
        switches: &["--follow"] },
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
    Command { name: "check", metrics: true, run: cmd_check,
        values: &["--protocol", "--budget", "--preemptions", "--mutate"], switches: &[] },
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
];

fn run_command(cmd: &str, rest: &[String]) -> Result<(), AnyError> {
    // `--help`/`-h` is accepted by every subcommand, before strict flag
    // validation, and always succeeds — `specdr check --help` must not
    // be an "unknown flag" error.
    let help = |a: &str| a == "--help" || a == "-h";
    if help(cmd) || cmd == "help" || rest.iter().any(|a| help(a)) {
        print_usage();
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

/// `specdr help`: the command list and the `--metrics` line come from
/// [`COMMANDS`], the entries in between from [`USAGE`].
fn print_usage() {
    let names: Vec<&str> = COMMANDS.iter().map(|c| c.name).collect();
    let metered: Vec<&str> = COMMANDS
        .iter()
        .filter(|c| c.metrics)
        .map(|c| c.name)
        .collect();
    print!(
        "usage: specdr <{}|help> [options]\n{USAGE}  {} also take --metrics[=json|table]\n",
        names.join("|"),
        metered.join("/")
    );
}

/// One entry per command, in [`COMMANDS`] order.
const USAGE: &str = "  explain [--spec-file FILE]  check + explain a reduction specification
  explain --query [--where PRED] [--roll-up LEVELS] [--mode MODE] [--months N]
          [--clicks K] [--now Y/M/D] [--unsync] [--format json|table|trace]
  explain --reduce [--months N] [--clicks K] [--now Y/M/D] [--format json|table|trace]
                              introspect a query / reduction pass: subcube DAG
                              with exact per-cube statistics, scanned vs.
                              skippable cubes, memo hits, per-phase breakdown;
                              --unsync leaves the warehouse at the last loaded
                              day and explains the un-synchronized query: the
                              virtually aged cubes and the memo line
  explain --age [--until Y/M/D] [--months N] [--clicks K] [--spec-file FILE]
          [--format json|table|trace]
                              introspect one incremental aging pass: scheduler,
                              per-tick spans, and the cube DAG after aging
  age --until Y/M/D [--months N] [--clicks K] [--spec-file FILE]
      [--follow [--tick N]]   incrementally age the warehouse along the spec's
                              transition-day schedule (only facts whose cell
                              changed between consecutive transitions are
                              re-evaluated); --follow keeps aging through the
                              next N scheduled transitions
  query [--where PRED] [--roll-up LEVELS] [--mode conservative|liberal|weighted:T]
        [--months N] [--clicks K] [--now Y/M/D]
                              synchronize the `explain --query` warehouse to
                              NOW and print the query's rows and Number_of total
  stats [--months N] [--clicks K] [--format json|table] [--bytes]
                              load, sync, checkpoint and query one durable
                              warehouse with metrics on; print the snapshot
                              (--bytes: the checkpoint's per-subcube raw vs.
                              encoded bytes)
  checkpoint --dir DIR [--months N] [--clicks K] [--raw-months A] [--month-months B]
                              load a synthetic warehouse durably (WAL) and publish
                              an atomic checkpoint; print the manifest
  recover --dir DIR [--raw-months A] [--month-months B]
                              recover a warehouse directory: load the live
                              checkpoint, replay the WAL tail, print the report
  lint [--spec-file FILE] [--schema clickstream|paper] [--now Y/M/D]
       [--format text|json] [--allow CODE] [--warn CODE] [--deny CODE|warnings]
                              statically analyze a reduction specification;
                              non-zero exit iff a denied finding is present
  check [--protocol all|epoch|group-commit|shard|serve|memo] [--budget N]
        [--preemptions P] [--mutate NAME]
                              model-check the warehouse concurrency protocols:
                              exhaustively enumerate thread interleavings (up to
                              P preemptions, at most N schedules per protocol)
                              and fail with a minimal counterexample schedule on
                              any contract violation; --mutate arms a seeded
                              protocol bug that the harness must catch
  concurrent [--seed S] [--readers N] [--steps M] [--queries Q]
                              closed-loop snapshot-isolation driver: N readers
                              query while a seeded writer churns loads, syncs,
                              and spec evolution; audits for torn reads and
                              prints the deterministic schedule digest
  serve [--addr H:P] [--shards N] [--months N] [--clicks K] [--cap C] [--dir DIR]
                              build a sharded click-stream warehouse and serve
                              the CRC-framed wire protocol (query/stats/explain)
                              until SIGTERM/SIGINT; port 0 picks an ephemeral
                              port and prints the bound address
  client --addr H:P [--where PRED] [--roll-up LEVELS] [--mode MODE]
         [--approach availability|strict|lub|disaggregated] [--now Y/M/D]
         [--unsync] [--stats] [--explain] [--ping]
                              one wire round-trip against a running daemon;
                              default issues the baseline query and prints its
                              digest for comparison with the serve banner
  loadgen [--seed S] [--clients N] [--steps M] [--queries Q] [--shards K]
                              multi-client socket load generator: in-process
                              daemon over a sharded warehouse, N TCP clients
                              churned by a seeded writer; audits every wire
                              response for torn reads, prints p50/p99 latency
";

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

/// A `Y/M/D` day; a month outside 1–12 or a day past the month's end
/// is a `bad date` error, not some other day.
fn parse_date(s: &str) -> Result<i32, AnyError> {
    let bad = || -> AnyError { format!("bad date `{s}` (expected Y/M/D)").into() };
    let [y, m, d] = s.split('/').collect::<Vec<_>>()[..] else {
        return Err(bad());
    };
    let (Ok(y), Ok(m), Ok(d)) = (y.parse::<i32>(), m.parse::<u32>(), d.parse::<u32>()) else {
        return Err(bad());
    };
    if !(1..=12).contains(&m) || !(1..=days_in_month(y, m)).contains(&d) {
        return Err(bad());
    }
    Ok(days_from_civil(y, m, d))
}

/// The paper's specification `{a1, a2}` (Figure 3) against its schema.
fn paper_spec(schema: &Arc<specdr::mdm::Schema>) -> Result<DataReductionSpec, AnyError> {
    let a1 = specdr::spec::parse_action(schema, ACTION_A1)?;
    let a2 = specdr::spec::parse_action(schema, ACTION_A2)?;
    Ok(DataReductionSpec::new(Arc::clone(schema), vec![a1, a2])?)
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
/// `--months` × `--clicks`/day from 1999/1/1 with its [`retention_spec`].
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
    let cs = generate(&ClickstreamConfig {
        clicks_per_day: clicks,
        start: (1999, 1, 1),
        end: (end.0, end.1, 28),
        ..Default::default()
    });
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

/// Builds the synthetic warehouse `query` and `explain --query/--reduce`
/// run against: `months` × `clicks`/day of click-stream facts
/// bulk-loaded into a one-shard in-memory warehouse under the
/// 6/36-month retention policy.
/// Returns the warehouse, the schema, `NOW` and the last loaded day.
fn query_warehouse(
    opts: &Opts,
) -> Result<(ShardRouter, Arc<specdr::mdm::Schema>, i32, i32), AnyError> {
    let syn = synthetic(opts, "24", "100")?;
    let now = match opts.value("--now") {
        Some(s) => parse_date(s)?,
        None => syn.end_day_plus(2),
    };
    let loaded_until = syn.end_day_plus(0);
    let router = ShardRouter::in_memory(syn.spec)?;
    router.bulk_load(&syn.cs.mo)?;
    Ok((router, syn.cs.schema, now, loaded_until))
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
    let (router, schema, now, loaded_until) = query_warehouse(opts)?;
    let report = if reduce_pass {
        // The one explainer, on the warehouse as loaded: never
        // synchronized, so the reduction homes every row in one step.
        let (stats, report) = specdr::introspect::explain_age(&router, now)?;
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
        router.sync(if spec.unsync { loaded_until } else { now }.min(now))?;
        let (answer, report) =
            specdr::introspect::explain_query(&router, &q, now, true, spec.unsync)?;
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
/// incremental. Returns the one-shard in-memory warehouse, the baseline
/// day, and the default `--until` (two years past the data).
fn aging_warehouse(opts: &Opts) -> Result<(ShardRouter, i32, i32), AnyError> {
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
    let router = ShardRouter::in_memory(spec)?;
    router.bulk_load(&syn.cs.mo)?;
    router.sync(baseline)?;
    Ok((router, baseline, default_until))
}

/// What a reduction did, as every command prints it.
fn age_line(s: &AgeStats) -> String {
    format!(
        "ticks={} cells_delta={} merged={} cubes_rebuilt={} cubes_skipped={}",
        s.ticks, s.cells_delta, s.merged, s.cubes_rebuilt, s.cubes_skipped
    )
}

fn print_age_stats(t: i32, s: &AgeStats, router: &ShardRouter) {
    println!(
        "aged to {}: {}; {} facts remain",
        render_date(t),
        age_line(s),
        router.len()
    );
}

/// `specdr age`: incremental continuous aging driven by the spec's
/// transition-day schedule.
fn cmd_age(opts: &Opts) -> Result<(), AnyError> {
    let (router, baseline, _) = aging_warehouse(opts)?;
    let until = match opts.value("--until") {
        Some(s) => parse_date(s)?,
        None => return Err("`specdr age` requires --until Y/M/D".into()),
    };
    let set = router.view_set();
    println!(
        "warehouse: {} facts across {} cubes, synchronized to {}",
        set.len(),
        set.views()[0].cubes().len(),
        render_date(baseline)
    );
    let stats = router.age(until)?;
    print_age_stats(until, &stats, &router);
    if opts.switch("--follow") {
        let ticks: u32 = opts.value("--tick").unwrap_or("4").parse()?;
        let spec = router.spec();
        let mut cur = until;
        for i in 1..=ticks {
            match spec.schedule().next_transition(cur) {
                Some(t) => {
                    let s = router.age(t)?;
                    print!("tick {i}: ");
                    print_age_stats(t, &s, &router);
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
    let (router, baseline, default_until) = aging_warehouse(opts)?;
    let until = match opts.value("--until") {
        Some(s) => parse_date(s)?,
        None => default_until,
    };
    let (stats, report) = specdr::introspect::explain_age(&router, until)?;
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

/// `specdr query`: the `explain --query` warehouse, synchronized to
/// NOW, answers the query the flags spell; without `--roll-up` it stays
/// at bottom granularity, so the selected facts print as stored.
fn cmd_query(opts: &Opts) -> Result<(), AnyError> {
    let (router, schema, now, _) = query_warehouse(opts)?;
    let loaded = router.len();
    router.sync(now)?;
    println!(
        "warehouse: {loaded} facts loaded → {} facts at NOW = {}",
        router.len(),
        render_date(now)
    );
    let q = query_spec(opts, now, "").build(&schema)?;
    let result = router.view_set().query(&q, now, true)?;
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

/// A directory a command makes for itself under the system temp dir
/// (`specdr-<tag>-<pid>`), removed when dropped — on every exit path of
/// that command, error returns included.
struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!("specdr-{tag}-{}", std::process::id()));
        // A leftover of an earlier process with this pid is ours too.
        let _ = std::fs::remove_dir_all(&dir);
        TempDir(dir)
    }

    fn path(&self) -> &std::path::Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// `specdr stats`: one durable warehouse in a directory of its own —
/// load → sync → checkpoint → query — with metric recording on; the
/// snapshot goes to stdout, a summary of the cubes to stderr.
fn cmd_stats(opts: &Opts) -> Result<(), AnyError> {
    let format = match opts.value("--format") {
        Some(f) => MetricsFormat::parse(f)?,
        None => MetricsFormat::Table,
    };
    specdr::obs::set_enabled(true);
    specdr::obs::reset();

    let syn = synthetic(opts, "12", "100")?;
    let now = syn.end_day_plus(2);
    let dir = TempDir::new("stats");
    let router = ShardRouter::create(syn.spec, dir.path(), 1)?;
    router.bulk_load(&syn.cs.mo)?;
    router.sync(now)?;
    router.checkpoint()?;
    let q = query_spec(opts, now, "Time.month").build(&syn.cs.schema)?;
    let set = router.view_set();
    set.query(&q, now, true)?;

    eprintln!(
        "pipeline over {} months × {} clicks/day ({} facts):",
        syn.months,
        syn.clicks,
        syn.cs.mo.len()
    );
    let view = &set.views()[0];
    for (i, c) in view.cubes().iter().enumerate() {
        eprintln!(
            "  K{i} {}: rows={} chunks={}",
            syn.cs.schema.render_granularity(&c.grain),
            c.rows(),
            c.chunks().len()
        );
    }
    if opts.switch("--bytes") {
        print_cube_bytes(&read_manifest(dir.path())?, view, format);
    }
    print_snapshot(format);
    Ok(())
}

/// `specdr stats --bytes`: each subcube's on-disk footprint from the
/// checkpoint manifest's byte table — `raw` is the uncompressed row
/// footprint, `encoded` the cube file length after dictionary/bit-packed
/// column encoding.
fn print_cube_bytes(man: &Manifest, view: &WarehouseView, format: MetricsFormat) {
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
    // Installed first, so a signal during the build still ends in the
    // clean shutdown below (and the temp dir's removal).
    install_stop_signals();
    // A user's `--dir` is kept; the one made here is removed on exit.
    let tmp;
    let dir = match opts.value("--dir") {
        Some(d) => std::path::Path::new(d),
        None => {
            tmp = TempDir::new("serve");
            tmp.path()
        }
    };
    let (router, now) = serve_warehouse(opts, dir, shards)?;
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
    let dir = TempDir::new("loadgen");
    let router = Arc::new(ShardRouter::create(spec, dir.path(), shards)?);
    let handle = specdr::serve::serve(Arc::clone(&router), &specdr::serve::ServeConfig::default())?;
    let t = std::time::Instant::now();
    let report = drive_socket(Arc::clone(&router), handle.addr(), &cfg);
    let secs = t.elapsed().as_secs_f64();
    handle.shutdown();
    let report = report?;
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
