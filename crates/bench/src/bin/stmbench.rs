//! `stmbench` — the STM substrate's reproducible perf harness.
//!
//! ```text
//! cargo run --release -p rubic-bench --bin stmbench             # full sweep → BENCH_stm.json
//! cargo run --release -p rubic-bench --bin stmbench -- --smoke  # ~1 s schema-validation run
//! cargo run --release -p rubic-bench --bin stmbench -- --reps 5 --duration-ms 500 --out /tmp/b.json
//! ```
//!
//! Writes the `rubic-stmbench/v5` JSON report (see the README's
//! "Benchmarking" section for the schema) after validating it; a run
//! that produces an out-of-range or structurally broken report exits
//! non-zero without touching the output file.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use rubic_bench::stmbench::{run_sweep, SweepOptions};

struct Args {
    opts: SweepOptions,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut opts = SweepOptions::full();
    let mut out = PathBuf::from("BENCH_stm.json");
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--smoke" => opts = SweepOptions::smoke(),
            "--reps" => {
                let v = it.next().ok_or("--reps needs a value")?;
                opts.reps = v.parse().map_err(|_| format!("bad --reps: {v}"))?;
                if opts.reps == 0 {
                    return Err("--reps must be >= 1".into());
                }
            }
            "--duration-ms" => {
                let v = it.next().ok_or("--duration-ms needs a value")?;
                let ms: u64 = v.parse().map_err(|_| format!("bad --duration-ms: {v}"))?;
                opts.duration = Duration::from_millis(ms.max(1));
            }
            "--threads" => {
                let v = it.next().ok_or("--threads needs a comma-separated list")?;
                let parsed: Result<Vec<u32>, _> = v.split(',').map(str::parse).collect();
                opts.threads = parsed.map_err(|_| format!("bad --threads: {v}"))?;
                if opts.threads.is_empty() || opts.threads.contains(&0) {
                    return Err("--threads needs positive thread counts".into());
                }
            }
            "--out" => out = PathBuf::from(it.next().ok_or("--out needs a path")?),
            "--help" | "-h" => {
                return Err(
                    "usage: stmbench [--smoke] [--reps N] [--duration-ms N] [--threads 1,2,4] \
                     [--out PATH]"
                        .into(),
                );
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(Args { opts, out })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "stmbench: {} threads sweep, {} reps x {} ms{}",
        args.opts
            .threads
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join(","),
        args.opts.reps,
        args.opts.duration.as_millis(),
        if args.opts.smoke { " (smoke)" } else { "" },
    );
    run_sweep(&args.opts).finish(&args.out)
}
