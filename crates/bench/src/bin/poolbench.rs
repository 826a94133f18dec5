//! `poolbench` — queue-transport cost of the malleable pool.
//!
//! ```text
//! cargo run --release -p rubic-bench --bin poolbench             # full sweep → BENCH_pool.json
//! cargo run --release -p rubic-bench --bin poolbench -- --smoke  # ~1 s schema-validation run
//! cargo run --release -p rubic-bench --bin poolbench -- --reps 7 --workers 1,4,16 --out /tmp/p.json
//! ```
//!
//! Writes the `rubic-poolbench/v2` JSON report (see the README's
//! "poolbench" section for the schema) after validating it; a run that
//! produces an out-of-range or structurally broken report exits
//! non-zero without touching the output file.

use std::path::PathBuf;
use std::process::ExitCode;

use rubic_bench::poolbench::{run_sweep, PoolSweepOptions};

struct Args {
    opts: PoolSweepOptions,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut opts = PoolSweepOptions::full();
    let mut out = PathBuf::from("BENCH_pool.json");
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--smoke" => opts = PoolSweepOptions::smoke(),
            "--reps" => {
                let v = it.next().ok_or("--reps needs a value")?;
                opts.reps = v.parse().map_err(|_| format!("bad --reps: {v}"))?;
                if opts.reps == 0 {
                    return Err("--reps must be >= 1".into());
                }
            }
            "--items" => {
                let v = it.next().ok_or("--items needs a value")?;
                opts.items_tiny = v.parse().map_err(|_| format!("bad --items: {v}"))?;
                opts.items_stm = (opts.items_tiny / 5).max(1);
                if opts.items_tiny == 0 {
                    return Err("--items must be >= 1".into());
                }
            }
            "--workers" => {
                let v = it.next().ok_or("--workers needs a comma-separated list")?;
                let parsed: Result<Vec<u32>, _> = v.split(',').map(str::parse).collect();
                opts.workers = parsed.map_err(|_| format!("bad --workers: {v}"))?;
                if opts.workers.is_empty() || opts.workers.contains(&0) {
                    return Err("--workers needs positive worker counts".into());
                }
            }
            "--out" => out = PathBuf::from(it.next().ok_or("--out needs a path")?),
            "--help" | "-h" => {
                return Err(
                    "usage: poolbench [--smoke] [--reps N] [--items N] [--workers 1,2,4] \
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
        "poolbench: workers {{{}}}, {} reps, {}/{} items (tiny/stm){}",
        args.opts
            .workers
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join(","),
        args.opts.reps,
        args.opts.items_tiny,
        args.opts.items_stm,
        if args.opts.smoke { " (smoke)" } else { "" },
    );
    run_sweep(&args.opts).finish(&args.out)
}
