//! `owbench` — the OmniWindow end-to-end benchmark.
//!
//! ```text
//! owbench --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! owbench [--seed N] [--seconds S] [--smoke] [--aa]      every workload
//! owbench --print-benchmark-json
//! ```
//!
//! With `--workload` it runs that workload in this process and ends its
//! standard output with the one-line JSON result. Without it, it runs every
//! workload as a process of its own, untraced and then traced.

mod alloc;
mod metrics;
mod oracle;
mod pipeline;
mod probes;
mod run;
mod spans;
mod stats;
mod suite;
mod workload;

use std::process::ExitCode;

use crate::run::RunArgs;
use crate::workload::{Workload, SMOKE_DIVISOR};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Seed used when none is given.
const DEFAULT_SEED: u64 = 1;
/// Seconds a `--smoke` run measures for unless `--seconds` says otherwise.
const SMOKE_SECONDS: f64 = 0.5;

#[derive(Debug, Default)]
struct Cli {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    traced: bool,
    smoke: bool,
    aa: bool,
    print_benchmark_json: bool,
}

fn usage() -> String {
    let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: owbench [--workload {}] [--seed N] [--seconds S] [--trace 0|1 | --traced] [--smoke] [--aa] [--print-benchmark-json]",
        names.join("|")
    )
}

fn parse(args: impl Iterator<Item = String>) -> Result<Cli, String> {
    let mut cli = Cli::default();
    let mut args = args;
    while let Some(arg) = args.next() {
        let mut value = |what: &str| {
            args.next()
                .ok_or_else(|| format!("{arg} needs {what}\n{}", usage()))
        };
        match arg.as_str() {
            "--workload" => cli.workload = Some(value("a workload name")?),
            "--seed" => {
                let v = value("a whole number")?;
                cli.seed = Some(v.parse().map_err(|_| format!("--seed: bad number {v:?}"))?);
            }
            "--seconds" => {
                let v = value("a number of seconds")?;
                let s: f64 = v
                    .parse()
                    .map_err(|_| format!("--seconds: bad number {v:?}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds: {v} is outside (0, 600]"));
                }
                cli.seconds = Some(s);
            }
            "--trace" => match value("0 or 1")?.as_str() {
                "0" => cli.traced = false,
                "1" => cli.traced = true,
                v => return Err(format!("--trace: expected 0 or 1, got {v:?}")),
            },
            "--traced" => cli.traced = true,
            "--smoke" => cli.smoke = true,
            "--aa" => cli.aa = true,
            "--print-benchmark-json" => cli.print_benchmark_json = true,
            other => return Err(format!("unknown option {other:?}\n{}", usage())),
        }
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let cli = match parse(std::env::args().skip(1)) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if cli.print_benchmark_json {
        print!("{}", metrics::render_benchmark_json());
        return ExitCode::SUCCESS;
    }
    let seed = cli.seed.unwrap_or(DEFAULT_SEED);
    let seconds = cli.seconds.unwrap_or(if cli.smoke {
        SMOKE_SECONDS
    } else {
        metrics::RUN_SECONDS as f64
    });
    let Some(name) = cli.workload else {
        return suite::run(seed, seconds, cli.smoke, cli.aa);
    };
    let Some(mut workload) = Workload::by_name(&name) else {
        eprintln!("unknown workload {name:?}\n{}", usage());
        return ExitCode::from(2);
    };
    if cli.smoke {
        workload = workload.scaled_down(SMOKE_DIVISOR);
    }
    let report = run::run(&RunArgs {
        workload,
        seed,
        seconds,
        traced: cli.traced,
    });
    if cli.traced {
        if let Err(e) = suite::write_trace(workload.name, seed, &report.spans) {
            eprintln!("could not write the trace: {e}");
            return ExitCode::FAILURE;
        }
    }
    for note in &report.notes {
        println!("{note}");
    }
    for m in &report.metrics {
        println!("{}", metrics::render_line(m));
    }
    println!(
        "fail_share ratio {}",
        report.failed as f64 / report.attempted.max(1) as f64
    );
    println!(
        "{}",
        metrics::render_result(
            report.correct(),
            report.attempted,
            report.failed,
            &report.metrics
        )
    );
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
