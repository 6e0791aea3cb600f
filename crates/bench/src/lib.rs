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
    /// Optional span-trace report path (`--trace-json <path>`), for
    /// binaries that capture an `ow_obs::TraceReport`.
    pub trace_json: Option<String>,
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
    /// An unknown flag is a hard error: a structured `cli_error`
    /// warning goes through the journal (rendering on stderr via its
    /// console sink) and the process exits with status 2 — experiments
    /// never run under a silently misread configuration.
    pub fn parse() -> Cli {
        match Cli::try_parse_from(std::env::args().skip(1)) {
            Ok(cli) => cli,
            Err(_) => std::process::exit(2),
        }
    }

    /// [`Cli::parse`] over explicit arguments (program name excluded).
    /// `Err` carries the partially parsed `Cli` whose journal holds the
    /// `cli_error` warning — `parse` exits 2 with it.
    pub fn try_parse_from(args: impl Iterator<Item = String>) -> Result<Cli, Cli> {
        let args: Vec<String> = args.collect();
        let obs = Obs::new();
        obs.journal().enable_console();
        let mut cli = Cli {
            scale: Scale::Paper,
            json: None,
            trace_json: None,
            seed: 0xCA1DA,
            obs,
        };
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--small" => cli.scale = Scale::Small,
                "--json" => {
                    i += 1;
                    cli.json = args.get(i).cloned();
                }
                "--trace-json" => {
                    i += 1;
                    cli.trace_json = args.get(i).cloned();
                }
                "--seed" => {
                    i += 1;
                    cli.seed = args.get(i).and_then(|s| s.parse().ok()).unwrap_or(cli.seed);
                }
                other => {
                    cli.obs.event(
                        Event::new(
                            "cli_error",
                            format!(
                                "unknown flag '{other}' (known: --small --json <path> \
                                 --seed <n> --trace-json <path>)"
                            ),
                        )
                        .warn(),
                    );
                    return Err(cli);
                }
            }
            i += 1;
        }
        Ok(cli)
    }

    /// Record a progress line through the journal's console sink (the
    /// replacement for the binaries' former bare `eprintln!` calls).
    pub fn progress(&self, message: impl Into<String>) {
        self.obs.journal().progress(message);
    }

    /// Write `value` as pretty JSON if `--json` was given.
    pub fn dump<T: serde::Serialize>(&self, value: &T) {
        if let Some(path) = &self.json {
            match serde_json::to_string_pretty(value) {
                Ok(s) => {
                    if let Err(e) = std::fs::write(path, s) {
                        self.obs.event(
                            Event::new("dump_error", format!("failed to write {path}: {e}")).warn(),
                        );
                    } else {
                        self.progress(format!("results written to {path}"));
                    }
                }
                Err(e) => {
                    self.obs.event(
                        Event::new("dump_error", format!("failed to serialise results: {e}"))
                            .warn(),
                    );
                }
            }
        }
    }
}

/// Format a ratio as a percentage with one decimal.
pub fn pct(v: f64) -> String {
    format!("{:5.1}%", v * 100.0)
}

/// `bench_snapshot`'s deterministic C&R merge workload: `subwindows` batches of `records` sequenced AFRs
/// over a `population`-key space, values mixed so every shard count and
/// every run replays exactly the same records.
pub fn cr_workload(
    subwindows: u32,
    records: u32,
    population: u32,
    seed: u64,
) -> Vec<Vec<ow_common::afr::FlowRecord>> {
    use ow_common::afr::FlowRecord;
    use ow_common::flowkey::FlowKey;
    (0..subwindows)
        .map(|sw| {
            (0..records)
                .map(|i| {
                    let mix = (u64::from(i))
                        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        .wrapping_add(u64::from(sw).wrapping_mul(seed | 1));
                    let key = (mix >> 16) as u32 % population;
                    let mut r = FlowRecord::frequency(FlowKey::src_ip(key), (mix & 0x3FF) + 1, sw);
                    r.seq = i;
                    r
                })
                .collect()
        })
        .collect()
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
        let cli = Cli::try_parse_from(argv(&[
            "--small",
            "--seed",
            "42",
            "--json",
            "out.json",
            "--trace-json",
            "trace.json",
        ]))
        .expect("known flags parse");
        assert_eq!(cli.scale, Scale::Small);
        assert_eq!(cli.seed, 42);
        assert_eq!(cli.json.as_deref(), Some("out.json"));
        assert_eq!(cli.trace_json.as_deref(), Some("trace.json"));
    }

    #[test]
    fn unknown_flag_is_a_hard_error_with_a_journal_record() {
        let cli = Cli::try_parse_from(argv(&["--small", "--frobnicate"]))
            .expect_err("unknown flag must be rejected");
        let events = cli.obs.journal().events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, "cli_error");
        assert_eq!(events[0].level, ow_obs::Level::Warn);
        assert!(events[0].message.contains("--frobnicate"));
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
