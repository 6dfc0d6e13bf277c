//! The whole suite: every workload in its own process, untraced runs for
//! the end-to-end metrics and one traced run for the per-layer metrics,
//! a table of every metric by name with its unit, and a result file that
//! `--compare` reads.

use std::path::Path;
use std::process::{Command, Stdio};

use crate::json::Json;
use crate::stats::{median, spread};
use crate::{END_TO_END, PER_LAYER, WORKLOADS};

/// What the suite was asked to run.
pub struct SuiteArgs {
    pub seed: u64,
    pub seconds: u64,
    /// Untraced runs per workload (their spread is reported from 2 up).
    pub runs: usize,
    /// Also make the traced run of each workload.
    pub traced: bool,
}

/// Runs one workload in a child process of this executable and returns
/// its result line, tagged with what was run.
fn run_child(workload: &str, seed: u64, seconds: u64, trace: u8) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", &trace.to_string()])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning {workload}: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "{workload} (trace {trace}) exited with {}",
            output.status
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{workload}: no result line"))?;
    let Json::Obj(mut fields) = Json::parse(last)? else {
        return Err(format!("{workload}: result line is not an object"));
    };
    fields.insert(0, ("workload".into(), Json::Str(workload.into())));
    fields.insert(1, ("trace".into(), Json::Num(trace as f64)));
    fields.insert(2, ("seed".into(), Json::Num(seed as f64)));
    Ok(Json::Obj(fields))
}

/// Runs the suite, prints the tables, writes `out_path`. `Ok(true)` when
/// every run was correct.
pub fn run(args: &SuiteArgs, out_path: &Path) -> Result<bool, String> {
    let mut runs = Vec::new();
    for workload in WORKLOADS {
        for _ in 0..args.runs {
            runs.push(run_child(workload, args.seed, args.seconds, 0)?);
        }
        if args.traced {
            runs.push(run_child(workload, args.seed, args.seconds, 1)?);
        }
    }
    let doc = Json::Obj(vec![
        ("seed".into(), Json::Num(args.seed as f64)),
        ("seconds".into(), Json::Num(args.seconds as f64)),
        ("runs".into(), Json::Arr(runs)),
    ]);
    if let Some(dir) = out_path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    }
    // One run per line keeps the file diffable.
    let body = doc.render().replace("{\"workload\"", "\n  {\"workload\"");
    std::fs::write(out_path, body + "\n").map_err(|e| e.to_string())?;

    let values = |trace: u8| crate::compare::values_of(&doc, trace);
    let e2e = values(0);
    println!(
        "end-to-end (seed {}, {} s window, median of {} run(s); spread = IQR / median)",
        args.seed, args.seconds, args.runs
    );
    print!("{:<18} {:>5}", "metric", "unit");
    for w in WORKLOADS {
        print!(" {w:>24}");
    }
    println!();
    for (name, unit) in END_TO_END {
        print!("{name:<18} {unit:>5}");
        for w in WORKLOADS {
            match e2e.get(&(w.to_string(), name.to_string())) {
                Some(v) if v.len() > 1 => {
                    print!(" {:>15.4} ±{:>5.1}%", median(v), spread(v) * 100.0)
                }
                Some(v) => print!(" {:>24.4}", median(v)),
                None => print!(" {:>24}", "-"),
            }
        }
        println!();
    }
    let layers = values(1);
    if !layers.is_empty() {
        println!("\nper-layer (traced run; 0 = layer idle on that workload)");
        print!("{:<46} {:>5}", "metric", "unit");
        for w in WORKLOADS {
            print!(" {w:>14}");
        }
        println!();
        for (name, unit) in PER_LAYER {
            print!("{name:<46} {unit:>5}");
            for w in WORKLOADS {
                match layers.get(&(w.to_string(), name.to_string())) {
                    Some(v) => print!(" {:>14.4}", median(v)),
                    None => print!(" {:>14}", "-"),
                }
            }
            println!();
        }
    }
    let all_runs = doc.get("runs").and_then(Json::as_arr).unwrap_or(&[]);
    let (mut attempted, mut failed) = (0.0, 0.0);
    for r in all_runs {
        attempted += r.get("attempted").and_then(Json::as_f64).unwrap_or(0.0);
        failed += r.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
    }
    println!(
        "\n{} runs, {attempted} operations and checks attempted, {failed} failed; results in {}",
        all_runs.len(),
        out_path.display()
    );
    Ok(failed == 0.0)
}
