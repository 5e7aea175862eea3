//! Command line of the benchmark.
//!
//! ```text
//! apebench [run] --workload <name> --seed <n> [--seconds <s>] [--trace 0|1]
//!                [--trace-file <path>] [--smoke]
//! apebench [run] --all [--seed <n>] [--seconds <s>] [--trace 0|1] [--smoke]
//! apebench list
//! ```
//!
//! A run prints one summary line and then, as its last line, the result
//! object: `correct`, `attempted`, `failed` and `metrics` (every
//! end-to-end metric, or with `--trace 1` every per-layer metric).
//! `--all` runs each workload in its own child process. `--smoke`
//! shortens the window to two seconds. `list` prints `BENCHMARK.json`.

use apebench::run::{run, RunOpts};
use apebench::table::{benchmark_json, workload, RUN_SECONDS, WORKLOADS};
use std::path::PathBuf;
use std::process::{Command, ExitCode};

const SMOKE_SECONDS: f64 = 2.0;

#[derive(Debug, Default)]
struct Args {
    list: bool,
    all: bool,
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    smoke: bool,
    trace: bool,
    trace_file: Option<PathBuf>,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        seed: 1,
        ..Args::default()
    };
    while let Some(arg) = argv.next() {
        let mut value = |flag: &str| argv.next().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "run" => {}
            "list" => a.list = true,
            "--all" => a.all = true,
            "--smoke" => a.smoke = true,
            "--workload" => a.workload = Some(value("--workload")?),
            "--seed" => {
                a.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds {s} is out of range"));
                }
                a.seconds = Some(s);
            }
            "--trace" => {
                a.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
            }
            "--trace-file" => a.trace_file = Some(PathBuf::from(value("--trace-file")?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(a)
}

fn seconds(a: &Args) -> f64 {
    match (a.seconds, a.smoke) {
        (Some(s), _) => s,
        (None, true) => SMOKE_SECONDS,
        (None, false) => RUN_SECONDS as f64,
    }
}

/// Runs every workload in a child process of this executable, one after
/// the other, and prints each child's result line after its name.
fn run_all(a: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut all_ok = true;
    for w in &WORKLOADS {
        let out = Command::new(&exe)
            .args(["--workload", w.name])
            .args(["--seed", &a.seed.to_string()])
            .args(["--seconds", &seconds(a).to_string()])
            .args(["--trace", if a.trace { "1" } else { "0" }])
            .output()
            .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let last = stdout.lines().last().unwrap_or("");
        eprint!("{}", String::from_utf8_lossy(&out.stderr));
        println!("{} {last}", w.name);
        all_ok &= out.status.success();
    }
    Ok(all_ok)
}

fn main() -> ExitCode {
    let a = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("apebench: {e}");
            return ExitCode::from(2);
        }
    };
    if a.list {
        print!("{}", benchmark_json());
        return ExitCode::SUCCESS;
    }
    if a.all {
        return match run_all(&a) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("apebench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let Some(w) = a.workload.as_deref().and_then(workload) else {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!("apebench: --workload must be one of {}", names.join(", "));
        return ExitCode::from(2);
    };
    let opts = RunOpts {
        workload: w,
        seed: a.seed,
        seconds: seconds(&a),
        trace: a.trace,
        trace_file: a.trace_file.clone().unwrap_or_else(|| {
            PathBuf::from(format!("target/apebench/trace-{}-{}.json", w.name, a.seed))
        }),
    };
    match run(&opts) {
        Ok(report) => {
            println!("{}", report.summary);
            println!("{}", report.json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("apebench: {} failed: {e}", w.name);
            ExitCode::FAILURE
        }
    }
}
