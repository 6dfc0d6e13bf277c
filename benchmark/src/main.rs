//! Command line of the benchmark (see `README.md`).
//!
//! * `--workload W --seed S --seconds N --trace 0|1` — one run; the last
//!   line of standard output is the JSON result.
//! * no `--workload` — the whole suite, one process per run.
//! * `--compare A.json B.json` — judge B against A by the bounds in
//!   `BENCHMARK.json`.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;

use sdr_benchmark::json::Json;
use sdr_benchmark::suite::{self, SuiteArgs};
use sdr_benchmark::trace::{self, Recorder};
use sdr_benchmark::{compare, run_workload, Ctx, Outcome, END_TO_END, PER_LAYER};

const USAGE: &str = "\
usage: run.sh [--workload NAME] [--seed S] [--seconds N] [--trace [0|1]] [--runs R] [--out FILE]
       run.sh --compare A.json B.json

  --workload NAME  run one workload (read_static | ingest_age | read_churn | restart_scan)
                   and print its JSON result as the last line; without it, run the whole
                   suite (every workload in its own process) and print every metric
  --seed S         workload seed (default 1)
  --seconds N      length of the measured window (default: run_seconds of BENCHMARK.json)
  --trace [0|1]    single run: 1 = traced run, per-layer metrics; 0 = end-to-end metrics.
                   suite: 0 skips the traced runs (default 1)
  --runs R         suite: untraced runs per workload (default 1)
  --out FILE       suite: result file (default benchmark/out/results-seed<S>.json)
  --compare A B    compare two result files; exit 1 if B regressed";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<u64>,
    trace: Option<bool>,
    runs: usize,
    out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: None,
        runs: 1,
        out: None,
        compare: None,
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        let number = |text: String| {
            text.parse::<u64>()
                .map_err(|_| format!("{flag}: `{text}` is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => args.seed = number(value("a seed")?)?,
            "--seconds" => match number(value("a number of seconds")?)? {
                0 => return Err("--seconds must be at least 1".into()),
                n => args.seconds = Some(n),
            },
            "--runs" => match number(value("a count")?)? {
                0 => return Err("--runs must be at least 1".into()),
                n => args.runs = n as usize,
            },
            "--out" => args.out = Some(value("a file")?.into()),
            "--compare" => {
                let a = value("two result files")?;
                args.compare = Some((a.into(), value("two result files")?.into()));
            }
            "--trace" => {
                // The value is optional: a bare `--trace` means 1.
                args.trace = Some(match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                });
            }
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

/// The benchmark's directory: `SDR_BENCH_DIR` (set by `run.sh`), else
/// where the package was built.
fn bench_dir() -> PathBuf {
    std::env::var_os("SDR_BENCH_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from)
}

fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// The human-readable report of one run, on standard error.
fn report(ctx: &Ctx, out: &Outcome) {
    eprintln!(
        "== {} (seed {}, {} s window, {}) on {} core(s)",
        ctx.workload,
        ctx.seed,
        ctx.seconds,
        if ctx.traced { "traced" } else { "untraced" },
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    for note in &out.notes {
        eprintln!("   {note}");
    }
    for (gate, passed) in &out.tally.gates {
        eprintln!("   [{}] {gate}", if *passed { "ok" } else { "FAILED" });
    }
    eprintln!(
        "   {} operations and checks attempted, {} failed",
        out.tally.attempted, out.tally.failed
    );
    if ctx.traced {
        for (name, unit) in PER_LAYER {
            if let Some(v) = out.layers.get(*name) {
                eprintln!("   {name:<46} {v:>16.4} {unit}");
            }
        }
    } else {
        for (name, unit) in END_TO_END {
            eprintln!("   {name:<18} {:>16.4} {unit}", out.e2e[name]);
        }
    }
}

fn single_run(args: &Args, workload: &str, seconds: u64) -> Result<bool, String> {
    let dir = bench_dir();
    let out_dir = dir.join("out");
    let scratch = out_dir.join(format!("tmp-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let ctx = Ctx {
        workload: workload.to_string(),
        seed: args.seed,
        seconds: seconds as f64,
        traced: args.trace.unwrap_or(false),
        scratch: scratch.clone(),
        rec: Arc::new(Recorder::default()),
    };
    sdr_obs::set_enabled(false);
    let result = run_workload(&ctx);
    let _ = std::fs::remove_dir_all(&scratch);
    let out = result?;
    report(&ctx, &out);
    if ctx.traced {
        let spans = ctx.rec.spans();
        let trace_path = out_dir.join(format!("trace-{workload}.json"));
        let table_path = out_dir.join(format!("layers-{workload}.txt"));
        std::fs::write(&trace_path, trace::chrome_trace(&spans))
            .and_then(|()| std::fs::write(&table_path, trace::render_table(&spans)))
            .map_err(|e| format!("writing the trace: {e}"))?;
        eprintln!(
            "   {} spans -> {} (self-time table: {})",
            spans.len(),
            trace_path.display(),
            table_path.display()
        );
    }
    println!("{}", out.result_json(ctx.traced).render());
    Ok(true)
}

fn run(argv: &[String]) -> Result<bool, String> {
    let args = parse_args(argv)?;
    let benchmark_json = || {
        // BENCHMARK.json sits beside the benchmark's directory.
        read_json(&bench_dir().join("..").join("BENCHMARK.json"))
    };
    if let Some((a, b)) = &args.compare {
        let (text, regressed) =
            compare::compare(&benchmark_json()?, &read_json(a)?, &read_json(b)?)?;
        print!("{text}");
        return Ok(!regressed);
    }
    let seconds = match args.seconds {
        Some(n) => n,
        None => benchmark_json()?
            .get("run_seconds")
            .and_then(Json::as_f64)
            .ok_or("BENCHMARK.json: no run_seconds")? as u64,
    };
    match &args.workload {
        Some(workload) => single_run(&args, workload, seconds),
        None => {
            let out = args.out.clone().unwrap_or_else(|| {
                bench_dir()
                    .join("out")
                    .join(format!("results-seed{}.json", args.seed))
            });
            suite::run(
                &SuiteArgs {
                    seed: args.seed,
                    seconds,
                    runs: args.runs,
                    traced: args.trace.unwrap_or(true),
                },
                &out,
            )
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(msg) if msg.is_empty() => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("error: {msg}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
