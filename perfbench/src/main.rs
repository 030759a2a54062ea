//! perfbench: the end-to-end and per-layer benchmark of `regen` and
//! `regend`.
//!
//! ```text
//! # from the repository root
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload figure3_octane --seed 1 --seconds 10 --trace 0
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --workload all
//! ```
//!
//! It builds `regen` and `regend` from the checkout, runs the workload
//! (see `workloads.rs` for the four and why each exists), checks every
//! output byte, and prints one metric per line with its unit and sample
//! count, then the result as one JSON line: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics of the traced run with `--trace
//! 1`. `--seed` permutes the serving request order; the simulations keep
//! their golden seeds. `--seconds` sizes the serving read phases.
//!
//! Exit status: 0 when every operation was correct, 1 when any failed
//! (the result line says how many), 2 on bad usage or when the
//! benchmark could not run at all (no result line).

mod calib;
mod e2e;
mod golden;
mod http;
mod layers;
mod proc;
mod report;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;

use report::{Metric, Tally};
use workloads::Workload;

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: Workload::ALL.to_vec(),
        seed: 0,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                if v != "all" {
                    let w = Workload::parse(&v).ok_or_else(|| {
                        let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                        format!("unknown workload {v:?} (one of: {}, all)", names.join(", "))
                    })?;
                    args.workloads = vec![w];
                }
            }
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "--seconds takes an integer")?;
                if args.seconds == 0 {
                    return Err("--seconds must be at least 1".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(args)
}

fn run_one(
    w: Workload,
    args: &Args,
    progs: &proc::Programs,
    golden: &golden::Golden,
) -> Result<(Tally, Vec<Metric>), String> {
    let mut tally = Tally::default();
    let metrics = if args.trace {
        layers::traced(w, progs, golden, args.seed, args.seconds, &mut tally)?
    } else {
        e2e::run(w, progs, golden, args.seed, args.seconds, &mut tally)?
    };
    Ok((tally, metrics))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <name|all> [--seed N] [--seconds N] [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    let setup = proc::build().and_then(|progs| Ok((progs, golden::Golden::load()?)));
    let (progs, golden) = match setup {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut total = Tally::default();
    let mut all_metrics = Vec::new();
    for &w in &args.workloads {
        let (tally, metrics) = match run_one(w, &args, &progs, &golden) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("perfbench: {}: {e}", w.name());
                return ExitCode::from(2);
            }
        };
        let title = format!(
            "{} (seed {}, {} s, trace {})",
            w.name(),
            args.seed,
            args.seconds,
            u8::from(args.trace)
        );
        report::print(&title, &tally, &metrics);
        if args.workloads.len() > 1 {
            let prefixed = metrics.into_iter().map(|m| Metric {
                name: format!("{}.{}", w.name(), m.name),
                ..m
            });
            all_metrics.extend(prefixed);
        }
        total.absorb(tally);
    }
    if args.workloads.len() > 1 {
        println!("{}", report::json_line(&total, &all_metrics));
    }
    if total.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
