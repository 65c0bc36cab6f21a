//! `perf`: the wall-clock benchmark of the correlation-map engine.
//!
//! ```text
//! perf --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//!      [--json-out <file>] [--spans-out <file>] [--dir <scratch dir>]
//! perf --workload all [--seed <n>] [--seconds <s>] [--smoke] [--json-out <file>]
//! perf diff <a.json> <b.json>
//! perf manifest
//! ```
//!
//! The last line of standard output of a single-workload run is one JSON
//! object: `correct`, `attempted`, `failed`, `metrics`. With `--trace 0`
//! the metrics are the end-to-end ones, with `--trace 1` the per-layer
//! ones. See the README beside the manifest.

mod bench;
mod data;
mod diff;
mod exec;
mod json;
mod metrics;
mod ops;
mod replay;
mod report;
mod rng;
mod stats;
mod sut;
mod trace;

use bench::{RunArgs, RunReport};
use data::Scale;
use json::Json;
use metrics::Workload;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// The seed of the committed results.
const DEFAULT_SEED: u64 = 2009;

struct Cli {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    json_out: Option<PathBuf>,
    spans_out: Option<PathBuf>,
    dir: PathBuf,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 0.0,
        trace: false,
        smoke: false,
        json_out: None,
        spans_out: None,
        // Relative to the checkout root the benchmark is run from.
        dir: PathBuf::from("perfbench/.work"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => cli.workload = value()?.clone(),
            "--seed" => {
                cli.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?
            }
            "--seconds" => {
                cli.seconds = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(cli.seconds > 0.0 && cli.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                cli.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--smoke" => cli.smoke = true,
            "--json-out" => cli.json_out = Some(PathBuf::from(value()?)),
            "--spans-out" => cli.spans_out = Some(PathBuf::from(value()?)),
            "--dir" => cli.dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if cli.workload.is_empty() {
        return Err("--workload <name> is required".into());
    }
    if cli.seconds == 0.0 {
        // Not given: the manifest's length, or a glance at smoke scale.
        cli.seconds = if cli.smoke {
            0.5
        } else {
            metrics::RUN_SECONDS as f64
        };
    }
    Ok(cli)
}

/// `correct`, `attempted`, `failed`: what the driver reads first.
fn verdict(report: &RunReport) -> Vec<(String, Json)> {
    vec![
        ("correct".into(), Json::Bool(report.failed == 0)),
        ("attempted".into(), Json::count(report.attempted)),
        ("failed".into(), Json::count(report.failed)),
    ]
}

fn result_line(report: &RunReport) -> Json {
    let metrics = report.metrics.iter().map(|(name, unit, value)| {
        let v = Json::obj([("value", Json::Num(*value)), ("unit", Json::str(*unit))]);
        (name.to_string(), v)
    });
    let mut line = verdict(report);
    line.push(("metrics".into(), Json::Obj(metrics.collect())));
    Json::Obj(line)
}

/// The run's full document: the detail plus what the result line says.
fn document(report: &RunReport) -> Json {
    let mut doc = report.detail.clone();
    if let Json::Obj(pairs) = &mut doc {
        pairs.push(("result".into(), Json::Obj(verdict(report))));
    }
    doc
}

fn print_table(report: &RunReport) {
    let detail = &report.detail;
    let text = |k| detail.get(k).and_then(Json::as_str).unwrap_or("?");
    println!(
        "# {} seed {} trace {} scale {} input {}",
        text("workload"),
        detail.get("seed").map_or("?".into(), Json::render),
        detail.get("trace").map_or("?".into(), Json::render),
        text("scale"),
        text("input_digest"),
    );
    if let Some(slots) = detail.get("slots").and_then(Json::as_obj) {
        let named: Vec<String> = slots
            .iter()
            .map(|(k, v)| format!("{k}={}", v.as_str().unwrap_or("?")))
            .collect();
        println!("# {}", named.join(" "));
    }
    println!(
        "{:<34} {:>16} {:<6} {:>14} {:>14} {:>4}",
        "metric", "median", "unit", "q1", "q3", "n"
    );
    for (name, unit, value) in &report.metrics {
        let s = detail.get("metrics").and_then(|m| m.get(name));
        let num = |k| {
            s.and_then(|s| s.get(k))
                .and_then(Json::as_f64)
                .unwrap_or(f64::NAN)
        };
        println!(
            "{name:<34} {value:>16.4} {unit:<6} {:>14.4} {:>14.4} {:>4}",
            num("q1"),
            num("q3"),
            num("n")
        );
    }
}

fn run_one(cli: &Cli, workload: Workload) -> Result<ExitCode, String> {
    let args = RunArgs {
        workload,
        seed: cli.seed,
        seconds: cli.seconds,
        trace: cli.trace,
        scale: Scale { smoke: cli.smoke },
        work_base: cli.dir.clone(),
        spans_out: cli.spans_out.clone(),
    };
    let report = bench::run(&args)?;
    if let Some(path) = &cli.json_out {
        std::fs::write(path, document(&report).pretty())
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    print_table(&report);
    println!("{}", result_line(&report).render());
    Ok(if report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    })
}

/// Every workload, untraced then traced, each in a process of its own
/// (peak RSS is per process), gathered into one document.
fn run_all(cli: &Cli) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    // The children's result files; removed with the directory on return.
    let scratch = sut::WorkDir::create(&cli.dir, "all")?;
    let mut runs = Vec::new();
    let mut ok = true;
    for w in Workload::ALL {
        for trace in ["0", "1"] {
            let out = scratch.sub(&format!("{}-{trace}.json", w.name()));
            let mut cmd = std::process::Command::new(&exe);
            cmd.args(["--workload", w.name(), "--trace", trace])
                .args([
                    "--seed",
                    &cli.seed.to_string(),
                    "--seconds",
                    &cli.seconds.to_string(),
                ])
                .arg("--json-out")
                .arg(&out)
                .arg("--dir")
                .arg(&cli.dir);
            if cli.smoke {
                cmd.arg("--smoke");
            }
            // `status` waits for the child; its output goes where ours does.
            let status = cmd
                .status()
                .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
            ok &= status.success();
            let text =
                std::fs::read_to_string(&out).map_err(|e| format!("{}: {e}", out.display()))?;
            runs.push(Json::parse(&text)?);
        }
    }
    // The traced pass must have touched exactly what the untraced did.
    for w in Workload::ALL
        .into_iter()
        .filter(|w| *w != Workload::Mixed2s)
    {
        let counts: Vec<Option<&Json>> = runs
            .iter()
            .filter(|r| r.get("workload").and_then(Json::as_str) == Some(w.name()))
            .map(|r| r.get("exact_round1"))
            .collect();
        let same = counts.windows(2).all(|p| p[0] == p[1]);
        println!(
            "# {}: traced and untraced exact counts {}",
            w.name(),
            if same { "agree" } else { "DIFFER" }
        );
        ok &= same;
    }
    if let Some(path) = &cli.json_out {
        let doc = Json::obj([("runs", Json::Arr(runs))]);
        std::fs::write(path, doc.pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    })
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(Path::new(path)).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn real_main() -> Result<ExitCode, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("manifest") if args.len() == 1 => {
            print!("{}", metrics::manifest().pretty());
            Ok(ExitCode::SUCCESS)
        }
        Some("diff") => match &args[1..] {
            [a, b] => {
                let acceptable = diff::diff(&load(a)?, &load(b)?);
                Ok(if acceptable {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::from(2)
                })
            }
            _ => Err("usage: perf diff <a.json> <b.json>".into()),
        },
        _ => {
            let cli = parse(&args)?;
            if cli.workload == "all" {
                return run_all(&cli);
            }
            let workload = Workload::from_name(&cli.workload).ok_or_else(|| {
                let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                format!(
                    "unknown workload {:?}; one of {} or all",
                    cli.workload,
                    names.join(", ")
                )
            })?;
            run_one(&cli, workload)
        }
    }
}

fn main() -> ExitCode {
    real_main().unwrap_or_else(|why| {
        eprintln!("perf: {why}");
        ExitCode::from(1)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let cli = parse(&args(&[
            "--workload",
            "scan_warm",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(
            (cli.workload.as_str(), cli.seed, cli.seconds, cli.trace),
            ("scan_warm", 7, 10.0, true)
        );
        assert!(!cli.smoke);
    }

    #[test]
    fn unknown_and_malformed_arguments_are_errors() {
        for bad in [
            &["--workload", "scan_warm", "--fast"][..],
            &["--workload"],
            &["--workload", "scan_warm", "--trace", "yes"],
            &["--workload", "scan_warm", "--seed", "x"],
            &["--workload", "scan_warm", "--seconds", "0"],
            &["--seed", "3"],
        ] {
            assert!(parse(&args(bad)).is_err(), "{bad:?} must be refused");
        }
    }

    /// Every workload, traced and untraced, at smoke scale: every metric
    /// of the catalogue is produced and no operation fails.
    #[test]
    fn smoke_runs_end_with_no_failed_operation() {
        for (i, w) in Workload::ALL.into_iter().enumerate() {
            for trace in [false, true] {
                let report = bench::run(&RunArgs {
                    workload: w,
                    seed: 5,
                    seconds: 0.05,
                    trace,
                    scale: Scale { smoke: true },
                    // Inside the package (and ignored by git), like a real run.
                    work_base: Path::new(env!("CARGO_MANIFEST_DIR"))
                        .join(".work")
                        .join(format!("test-{i}-{trace}")),
                    spans_out: None,
                })
                .unwrap_or_else(|e| panic!("{} trace {trace}: {e}", w.name()));
                assert_eq!(report.failed, 0, "{} trace {trace}", w.name());
                assert!(report.attempted > 0);
                let want = if trace {
                    metrics::PER_LAYER.len()
                } else {
                    metrics::END_TO_END.len()
                };
                assert_eq!(report.metrics.len(), want);
                if !trace {
                    for (name, _, value) in &report.metrics {
                        assert!(*value > 0.0, "{} {name} must never be 0", w.name());
                    }
                }
                let line = result_line(&report).render();
                let back = Json::parse(&line).unwrap();
                assert_eq!(back.get("correct"), Some(&Json::Bool(true)));
                assert!(document(&report).get("input_digest").is_some());
            }
        }
    }
}
