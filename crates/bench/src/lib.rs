//! Shared helpers for the experiment binaries (`exp1`–`exp10`).
//!
//! Each binary regenerates one table or figure of the paper: it runs the
//! corresponding driver from `omniwindow::experiments`, prints the rows
//! the paper reports, and (with `--json <path>`) dumps machine-readable
//! results.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use omniwindow::experiments::Scale;
use ow_obs::{Event, Obs};

/// Parsed common CLI flags for experiment binaries.
#[derive(Debug, Clone)]
pub struct Cli {
    /// Workload scale (`--small` for a quick run; default is paper scale).
    pub scale: Scale,
    /// Optional JSON dump path (`--json <path>`).
    pub json: Option<String>,
    /// RNG seed (`--seed <n>`).
    pub seed: u64,
    /// Process-wide observability handle. The journal's console sink is
    /// enabled, so progress and warning events render on stderr while
    /// stdout stays clean for `--json` pipelines.
    pub obs: Obs,
}

impl Cli {
    /// Parse from `std::env::args`.
    ///
    /// An unknown flag, or a flag whose value is missing or does not
    /// parse, is a hard error: a structured `cli_error` warning goes
    /// through the journal (rendering on stderr via its console sink)
    /// and the process exits with status 2 — experiments never run
    /// under a silently misread configuration.
    pub fn parse() -> Cli {
        match Cli::try_parse_from(std::env::args().skip(1)) {
            Ok(cli) => cli,
            Err(_) => std::process::exit(2),
        }
    }

    /// [`Cli::parse`] over explicit arguments (program name excluded).
    /// `Err` carries the partially parsed `Cli` whose journal holds the
    /// `cli_error` warning — `parse` exits 2 with it.
    pub fn try_parse_from(mut args: impl Iterator<Item = String>) -> Result<Cli, Cli> {
        let obs = Obs::new();
        obs.journal().enable_console();
        let mut cli = Cli {
            scale: Scale::Paper,
            json: None,
            seed: 0xCA1DA,
            obs,
        };
        while let Some(flag) = args.next() {
            let parsed = match flag.as_str() {
                "--small" => {
                    cli.scale = Scale::Small;
                    Ok(())
                }
                "--json" => args
                    .next()
                    .filter(|path| !path.starts_with("--"))
                    .map(|path| cli.json = Some(path))
                    .ok_or("--json needs a path".to_string()),
                "--seed" => args
                    .next()
                    .and_then(|n| n.parse().ok())
                    .map(|n| cli.seed = n)
                    .ok_or("--seed needs an unsigned integer".to_string()),
                other => Err(format!("unknown flag '{other}'")),
            };
            if let Err(problem) = parsed {
                cli.obs.event(
                    Event::new(
                        "cli_error",
                        format!("{problem} (known: --small --json <path> --seed <n>)"),
                    )
                    .warn(),
                );
                return Err(cli);
            }
        }
        Ok(cli)
    }

    /// Record a progress line through the journal's console sink (the
    /// replacement for the binaries' former bare `eprintln!` calls).
    pub fn progress(&self, message: impl Into<String>) {
        self.obs.journal().progress(message);
    }

    /// Write `value` as pretty JSON if `--json` was given. A dump that
    /// cannot be serialised or written is a failed run: the journal
    /// gets a `dump_error` warning and the process exits with status 1.
    pub fn dump<T: serde::Serialize>(&self, value: &T) {
        if let Err(problem) = self.try_dump(value) {
            self.obs.event(Event::new("dump_error", problem).warn());
            std::process::exit(1);
        }
    }

    /// [`Cli::dump`] returning the problem instead of exiting.
    pub fn try_dump<T: serde::Serialize>(&self, value: &T) -> Result<(), String> {
        let Some(path) = &self.json else {
            return Ok(());
        };
        let json = serde_json::to_string_pretty(value)
            .map_err(|e| format!("failed to serialise results: {e}"))?;
        std::fs::write(path, json).map_err(|e| format!("failed to write {path}: {e}"))?;
        self.progress(format!("results written to {path}"));
        Ok(())
    }
}

/// Format a ratio as a percentage with one decimal.
pub fn pct(v: f64) -> String {
    format!("{:5.1}%", v * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> impl Iterator<Item = String> {
        args.iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>()
            .into_iter()
    }

    #[test]
    fn known_flags_parse() {
        let cli = Cli::try_parse_from(argv(&["--small", "--seed", "42", "--json", "out.json"]))
            .expect("known flags parse");
        assert_eq!(cli.scale, Scale::Small);
        assert_eq!(cli.seed, 42);
        assert_eq!(cli.json.as_deref(), Some("out.json"));
    }

    #[test]
    fn unknown_flag_is_a_hard_error_with_a_journal_record() {
        // An unknown flag, an unparseable value and a missing value are
        // all the same hard error — none falls back to a default.
        for (args, named) in [
            (&["--small", "--frobnicate"][..], "--frobnicate"),
            (&["--seed", "abc"], "--seed"),
            (&["--small", "--seed"], "--seed"),
            (&["--json"], "--json"),
            (&["--json", "--small"], "--json"),
        ] {
            let cli = Cli::try_parse_from(argv(args)).expect_err("must be rejected");
            let events = cli.obs.journal().events();
            assert_eq!(events.len(), 1, "{args:?}");
            assert_eq!(events[0].kind, "cli_error");
            assert_eq!(events[0].level, ow_obs::Level::Warn);
            assert!(events[0].message.contains(named), "{args:?}");
        }
    }

    #[test]
    fn a_dump_that_cannot_be_written_is_an_error() {
        let dir = std::env::temp_dir().join(format!("ow-bench-dump-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let good = dir.join("rows.json");
        let bad = dir.join("no-such-dir").join("rows.json");
        for (path, written) in [(&good, true), (&bad, false)] {
            let path = path.to_str().unwrap();
            let cli = Cli::try_parse_from(argv(&["--json", path])).expect("flags parse");
            let outcome = cli.try_dump(&vec![1u64, 2]);
            assert_eq!(outcome.is_ok(), written, "{path}: {outcome:?}");
            assert_eq!(std::path::Path::new(path).exists(), written);
            if let Err(problem) = outcome {
                assert!(problem.contains("failed to write"), "{problem}");
                assert!(problem.contains(path), "{problem}");
            }
        }
        // Without --json there is nothing to write and nothing to fail.
        let cli = Cli::try_parse_from(argv(&[])).expect("empty argv parses");
        assert_eq!(cli.try_dump(&vec![1u64]), Ok(()));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn progress_routes_through_the_journal() {
        let cli = Cli::try_parse_from(argv(&[])).expect("empty argv parses");
        cli.progress("running…");
        let events = cli.obs.journal().events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, "progress");
    }
}
