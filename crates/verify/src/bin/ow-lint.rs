//! `ow-lint` — verify every pipeline configuration this repo deploys.
//!
//! Runs the static verifier over the full [`ow_verify::catalog`] (the
//! paper's Table-2 resource configurations plus every switch
//! configuration the examples, tests, benchmarks, and simulator use)
//! and exits non-zero if any program is rejected.
//!
//! Placement runs the dependency-aware branch-and-bound search, which
//! stops after a fixed node count, so every emitted report (the
//! packing-density columns included) is byte-deterministic — the
//! committed `results/verify_table2.json` baseline is exactly
//! `ow-lint --json`, and `tests/lint_baseline.rs` holds it there.
//!
//! ```text
//! ow-lint             # human-readable, one line per program + diagnostics
//! ow-lint --json      # machine-readable report array
//! ow-lint --only X    # restrict to catalog entries whose name contains X
//! ```

use std::process::ExitCode;

use ow_verify::catalog::repo_programs;
use ow_verify::{verify, PipelineProgram};

const USAGE: &str = "usage: ow-lint [--json] [--only SUBSTR]";

/// What the command line asked for; `programs` is the catalog
/// narrowed by `--only`.
struct Options {
    json: bool,
    programs: Vec<(String, PipelineProgram)>,
}

/// Parse `args` over the catalog; `Ok(None)` is `--help`. An unknown
/// flag, a flag missing its value, and an `--only` filter that selects
/// nothing are errors: a run that verified no program must not exit 0.
fn parse_args(
    args: &[String],
    mut programs: Vec<(String, PipelineProgram)>,
) -> Result<Option<Options>, String> {
    let mut json = false;
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--help" | "-h" => return Ok(None),
            "--json" => json = true,
            "--only" => {
                let filter = args.next().ok_or(format!("{arg} expects a value"))?;
                programs.retain(|(name, _)| name.contains(filter.as_str()));
                if programs.is_empty() {
                    return Err(format!("--only '{filter}' matches no catalog program"));
                }
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(Some(Options { json, programs }))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args, repo_programs()) {
        Ok(Some(opts)) => opts,
        Ok(None) => {
            eprintln!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("ow-lint: {e}");
            return ExitCode::FAILURE;
        }
    };

    let mut failures = 0usize;
    let mut reports: Vec<String> = Vec::new();
    for (name, program) in opts.programs {
        let report = match verify(&program) {
            Ok(witness) => witness.report().clone(),
            Err(report) => {
                failures += 1;
                *report
            }
        };
        if opts.json {
            reports.push(report.to_json());
        } else {
            print!("[{name}] {report}");
        }
    }
    if opts.json {
        println!("[{}]", reports.join(",\n"));
    }
    if failures > 0 {
        eprintln!("ow-lint: {failures} configuration(s) rejected");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Option<Options>, String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        parse_args(&args, repo_programs())
    }

    #[test]
    fn bad_command_lines_are_errors() {
        let err = |args| parse(args).err().expect("rejected");
        assert!(err(&["--jsno"]).contains("--jsno"));
        assert!(err(&["--json", "--only"]).contains("expects a value"));
        assert!(err(&["--budget", "200000"]).contains("--budget"));
        assert!(err(&["--only", "no_such_program"]).contains("matches no"));
    }

    #[test]
    fn good_command_lines_select_programs() {
        let all = parse(&[]).unwrap().expect("not --help");
        assert!(!all.json);
        assert_eq!(all.programs.len(), repo_programs().len());
        let table2 = parse(&["--only", "table2"]).unwrap().expect("not --help");
        assert!(!table2.programs.is_empty() && table2.programs.len() < all.programs.len());
    }
}
