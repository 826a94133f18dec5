//! Whole-stack benchmark of the RUBIC reproduction: the paper's workloads
//! through the malleable pool, a live RUBIC controller and the STM, each
//! next to a sequential no-STM twin, with per-layer numbers taken from
//! outside by timing calls into each crate's public API.
//!
//! ```text
//! rubic-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! rubic-benchmark --all    [--seed <n>] [--seconds <s>]
//! rubic-benchmark --smoke
//! rubic-benchmark --repeat <k> [--seed <n>] [--seconds <s>]
//! rubic-benchmark --emit-spec
//! ```
//!
//! Every run prints one line per metric, `workload metric value unit`;
//! the `--workload` form ends with the one-line JSON result the driver of
//! `BENCHMARK.json` reads. See `README.md` beside this crate.

mod baseline;
mod harness;
mod json;
mod procfs;
mod spec;
mod stats;
mod timed;
mod workloads;

use std::process::ExitCode;

use harness::{Outcome, RunArgs};
use json::Json;
use spec::{MetricSpec, END_TO_END, RUN_SECONDS, WORKLOADS};

/// What the command line selected.
enum Mode {
    One { workload: String, trace: bool },
    All,
    Repeat(u32),
    EmitSpec,
}

struct Cli {
    mode: Mode,
    seed: u64,
    seconds: f64,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        mode: Mode::All,
        seed: 1,
        seconds: f64::from(RUN_SECONDS),
    };
    let (mut workload, mut trace, mut picked) = (None, false, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{flag} needs {what}"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--workload" => workload = Some(value("a workload name")?.to_string()),
            "--seed" => {
                cli.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                cli.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(cli.seconds > 0.0 && cli.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".to_string());
                }
            }
            "--trace" => {
                trace = match value("0 or 1")? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                };
            }
            "--all" => picked = true,
            "--smoke" => {
                picked = true;
                // Two passes over six workloads in about ten seconds.
                cli.seconds = 0.4;
            }
            "--repeat" => {
                let k: u32 = value("a count")?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?;
                if k < 2 {
                    return Err("--repeat needs at least 2 sets".to_string());
                }
                cli.mode = Mode::Repeat(k);
                picked = true;
            }
            "--emit-spec" => {
                cli.mode = Mode::EmitSpec;
                picked = true;
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    match (workload, picked) {
        (Some(workload), false) => cli.mode = Mode::One { workload, trace },
        (Some(_), true) => return Err("--workload excludes --all/--smoke/--repeat".to_string()),
        (None, true) => {}
        (None, false) => {
            return Err("give --workload <name>, --all, --smoke or --repeat <k>".to_string())
        }
    }
    Ok(cli)
}

/// One finished run: the values by table order, and what failed.
struct Finished {
    values: Vec<(&'static MetricSpec, f64)>,
    attempted: u64,
    failed: u64,
    correct: bool,
}

/// Runs one workload, prints its metric lines, writes the trace file of
/// a traced run.
fn run_one(workload: &str, args: &RunArgs) -> Result<Finished, String> {
    let (outcome, spans) = workloads::run(workload, args)?;
    let Outcome {
        metrics,
        attempted,
        failed,
        failures,
    } = outcome;
    let values = metrics.finish().map_err(|e| format!("{workload}: {e}"))?;
    for (def, v) in &values {
        println!("{workload} {} {v} {}", def.name, def.unit);
    }
    for line in &failures {
        eprintln!("{workload}: FAILED CHECK: {line}");
    }
    if let Some(spans) = spans {
        write_trace(workload, args, &values, spans)?;
    }
    Ok(Finished {
        values,
        attempted,
        failed,
        correct: failures.is_empty() && failed == 0,
    })
}

fn metrics_json(values: &[(&MetricSpec, f64)]) -> Json {
    Json::obj(values.iter().map(|(def, v)| {
        (
            def.name,
            Json::obj([("value", Json::Num(*v)), ("unit", Json::str(def.unit))]),
        )
    }))
}

/// Writes `out/trace-<workload>.json` beside this crate's manifest.
fn write_trace(
    workload: &str,
    args: &RunArgs,
    values: &[(&MetricSpec, f64)],
    spans: Json,
) -> Result<(), String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("trace-{workload}.json"));
    let doc = Json::obj([
        ("workload", Json::str(workload)),
        ("seed", Json::Int(args.seed)),
        ("seconds", Json::Num(args.seconds)),
        ("nproc", Json::Int(u64::from(procfs::nproc()))),
        (
            "clock",
            Json::str("nanoseconds since the traced run's tracer was made"),
        ),
        ("metrics", metrics_json(values)),
        ("spans", spans),
    ]);
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, doc.pretty()))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    eprintln!("{workload}: spans written to {}", path.display());
    Ok(())
}

/// The `--workload` form: metric lines, then the driver's result line.
fn one(workload: &str, args: &RunArgs) -> Result<bool, String> {
    let done = run_one(workload, args)?;
    let result = Json::obj([
        ("correct", Json::Bool(done.correct)),
        ("attempted", Json::Int(done.attempted)),
        ("failed", Json::Int(done.failed)),
        ("metrics", metrics_json(&done.values)),
    ]);
    println!("{}", result.compact());
    Ok(done.correct)
}

/// `--all` / `--smoke`: every workload, untraced then traced.
fn all(seed: u64, seconds: f64) -> Result<bool, String> {
    let mut correct = true;
    for w in &WORKLOADS {
        for trace in [false, true] {
            let args = RunArgs {
                seed,
                seconds,
                trace,
            };
            correct &= run_one(w.name, &args)?.correct;
        }
    }
    Ok(correct)
}

/// `--repeat k`: `k` full untraced sets, each with another seed; per
/// (workload, end-to-end metric) the set-to-set spread next to the
/// metric's bound.
fn repeat(sets: u32, seed: u64, seconds: f64) -> Result<bool, String> {
    let mut ok = true;
    // values[workload][metric] = one value per set.
    let mut values = vec![vec![Vec::new(); END_TO_END.len()]; WORKLOADS.len()];
    for set in 0..sets {
        for (w, per_metric) in WORKLOADS.iter().zip(&mut values) {
            // Another seed per set, as the acceptance procedure has it.
            let args = RunArgs {
                seed: seed + u64::from(set),
                seconds,
                trace: false,
            };
            let done = run_one(w.name, &args)?;
            ok &= done.correct;
            for (sink, (_, v)) in per_metric.iter_mut().zip(&done.values) {
                sink.push(*v);
            }
        }
    }
    println!("# workload metric median spread bound verdict");
    for (w, per_metric) in WORKLOADS.iter().zip(&values) {
        for (def, v) in END_TO_END.iter().zip(per_metric) {
            // Quartile distance over median, as the acceptance rule takes it.
            let spread = stats::iqr_share(v);
            let bound = def.bound.expect("end-to-end metrics carry a bound");
            // The rule exempts set-up time from the spread check.
            let within = spread <= bound || def.name == "setup_s";
            ok &= within;
            println!(
                "{} {} {} {spread:.4} {bound} {}",
                w.name,
                def.name,
                rubic::metrics::median(v),
                if within { "ok" } else { "EXCEEDED" }
            );
        }
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("rubic-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = spec::check_tables(&WORKLOADS, &END_TO_END, &spec::PER_LAYER) {
        eprintln!("rubic-benchmark: metric tables break the contract: {e}");
        return ExitCode::from(2);
    }
    let outcome = match &cli.mode {
        Mode::EmitSpec => {
            print!("{}", spec::benchmark_json().pretty());
            Ok(true)
        }
        Mode::One { workload, trace } => one(
            workload,
            &RunArgs {
                seed: cli.seed,
                seconds: cli.seconds,
                trace: *trace,
            },
        ),
        Mode::All => all(cli.seed, cli.seconds),
        Mode::Repeat(k) => repeat(*k, cli.seed, cli.seconds),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("rubic-benchmark: an output check failed or a bound was exceeded");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("rubic-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> Result<Cli, String> {
        parse_cli(&args.iter().map(|s| (*s).to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn driver_form_is_parsed() {
        let c = cli(&[
            "--workload",
            "sim_pair",
            "--seed",
            "9",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .unwrap();
        assert!(
            matches!(c.mode, Mode::One { ref workload, trace: true } if workload == "sim_pair")
        );
        assert_eq!((c.seed, c.seconds), (9, 3.0));
    }

    #[test]
    fn bad_command_lines_are_refused() {
        assert!(cli(&[]).is_err());
        assert!(cli(&["--workload"]).is_err());
        assert!(cli(&["--workload", "x", "--all"]).is_err());
        assert!(cli(&["--all", "--seconds", "0"]).is_err());
        assert!(cli(&["--all", "--seconds", "61"]).is_err());
        assert!(cli(&["--all", "--trace", "2"]).is_err());
        assert!(cli(&["--repeat", "1"]).is_err());
        assert!(cli(&["--frobnicate"]).is_err());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let values: Vec<(&MetricSpec, f64)> = END_TO_END.iter().map(|d| (d, 1.5)).collect();
        let Json::Obj(pairs) = metrics_json(&values) else {
            panic!("metrics are an object");
        };
        assert_eq!(pairs.len(), END_TO_END.len());
        assert_eq!(pairs[0].1.compact(), r#"{"value":1.5,"unit":"1/s"}"#);
    }

    #[test]
    fn unknown_workload_is_an_error() {
        let args = RunArgs {
            seed: 1,
            seconds: 0.1,
            trace: false,
        };
        assert!(workloads::run("nope", &args).is_err());
    }
}
