//! Every workload, each in a process of its own (so `VmHWM` is per
//! workload), and the `--aa` self-check that runs each of them twice.

use std::collections::HashMap;
use std::io;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

use crate::metrics::{Better, END_TO_END};
use crate::spans::{self, Span};
use crate::workload::WORKLOADS;

/// `benchmark/out/`, beside the manifest this binary was built from.
fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

/// Write the traced run's spans to `out/trace_<workload>.json`.
pub fn write_trace(workload: &str, seed: u64, spans: &[Span]) -> io::Result<()> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir)?;
    std::fs::write(
        dir.join(format!("trace_{workload}.json")),
        spans::to_json(workload, seed, spans),
    )
}

/// Run one workload in a child process, echo its report, and return its
/// end-to-end values by name; `None` when it failed.
fn run_child(
    workload: &str,
    seed: u64,
    seconds: f64,
    smoke: bool,
    traced: bool,
) -> io::Result<Option<HashMap<String, f64>>> {
    let mut cmd = Command::new(std::env::current_exe()?);
    cmd.args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }]);
    if smoke {
        cmd.arg("--smoke");
    }
    let output = cmd.stderr(std::process::Stdio::inherit()).output()?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    if !output.status.success() {
        eprintln!("{workload}: run failed ({})", output.status);
        return Ok(None);
    }
    let values = stdout
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let name = fields.next()?;
            END_TO_END.iter().find(|m| m.name == name)?;
            let value = fields.nth(1)?.parse().ok()?;
            Some((name.to_string(), value))
        })
        .collect();
    Ok(Some(values))
}

/// Print each end-to-end metric's difference between two runs of one
/// workload on the same build beside its bound; `false` if any exceeds it.
fn compare(workload: &str, first: &HashMap<String, f64>, second: &HashMap<String, f64>) -> bool {
    let mut within = true;
    for m in END_TO_END {
        let (Some(&a), Some(&b)) = (first.get(m.name), second.get(m.name)) else {
            continue;
        };
        // Positive when the second run reads worse than the first.
        let worse_by = match m.better {
            Better::Higher => (a - b) / a,
            Better::Lower => (b - a) / a,
        };
        let ok = worse_by.abs() <= m.bound;
        within &= ok;
        println!(
            "aa {workload} {} first {a} second {b} worse_by {worse_by:+.4} bound {} {}",
            m.name,
            m.bound,
            if ok { "ok" } else { "EXCEEDED" }
        );
    }
    within
}

/// Every workload: untraced then traced, or with `aa` untraced twice, the
/// two runs back to back so that the box drifts as little as possible
/// between them.
pub fn run(seed: u64, seconds: f64, smoke: bool, aa: bool) -> ExitCode {
    let result = (|| -> io::Result<bool> {
        let mut ok = true;
        for w in WORKLOADS {
            let first = run_child(w.name, seed, seconds, smoke, false)?;
            let second = run_child(w.name, seed, seconds, smoke, !aa)?;
            ok &= match (first, second) {
                (Some(a), Some(b)) => !aa || compare(w.name, &a, &b),
                _ => false,
            };
        }
        Ok(ok)
    })();
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("could not run the workloads: {e}");
            ExitCode::FAILURE
        }
    }
}
