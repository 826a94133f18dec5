//! `topobench` — mapping-policy sweep on the NUMA machine model.
//!
//! ```text
//! cargo run --release -p rubic-bench --bin topobench             # full sweep → BENCH_topo.json
//! cargo run --release -p rubic-bench --bin topobench -- --smoke  # sub-second schema-validation run
//! cargo run --release -p rubic-bench --bin topobench -- --reps 9 --rounds 2000 --out /tmp/t.json
//! ```
//!
//! Writes the `rubic-topobench/v1` JSON report (see the README's
//! "topobench" section for the schema) after validating it; a run
//! whose report breaks the flat-reproduction invariant or never shows
//! a placement-aware win exits non-zero without touching the output
//! file.

use std::path::PathBuf;
use std::process::ExitCode;

use rubic_bench::topobench::{run_sweep, TopoSweepOptions};

struct Args {
    opts: TopoSweepOptions,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut opts = TopoSweepOptions::full();
    let mut out = PathBuf::from("BENCH_topo.json");
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--smoke" => opts = TopoSweepOptions::smoke(),
            "--reps" => {
                let v = it.next().ok_or("--reps needs a value")?;
                opts.reps = v.parse().map_err(|_| format!("bad --reps: {v}"))?;
                if opts.reps == 0 {
                    return Err("--reps must be >= 1".into());
                }
            }
            "--rounds" => {
                let v = it.next().ok_or("--rounds needs a value")?;
                opts.rounds = v.parse().map_err(|_| format!("bad --rounds: {v}"))?;
                if opts.rounds == 0 {
                    return Err("--rounds must be >= 1".into());
                }
            }
            "--noise" => {
                let v = it.next().ok_or("--noise needs a value")?;
                opts.noise = v.parse().map_err(|_| format!("bad --noise: {v}"))?;
                if !(0.0..1.0).contains(&opts.noise) {
                    return Err("--noise must be in [0, 1)".into());
                }
            }
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                opts.seed = v.parse().map_err(|_| format!("bad --seed: {v}"))?;
            }
            "--out" => out = PathBuf::from(it.next().ok_or("--out needs a path")?),
            "--help" | "-h" => {
                return Err(
                    "usage: topobench [--smoke] [--reps N] [--rounds N] [--noise F] \
                     [--seed N] [--out PATH]"
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
        "topobench: {} reps x {} rounds, noise {}{}",
        args.opts.reps,
        args.opts.rounds,
        args.opts.noise,
        if args.opts.smoke { " (smoke)" } else { "" },
    );
    run_sweep(&args.opts).finish(&args.out)
}
