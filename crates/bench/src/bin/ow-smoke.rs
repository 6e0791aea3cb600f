//! `ow-smoke [--seed N] [--out DIR]` — run every observability smoke
//! scenario once and write its artifacts. Every snapshot and
//! post-mortem is written with its rendered text beside it
//! (`<stem>.txt` for `<stem>.json`).
//!
//! | file (under `--out`, default `results/`) | scenario |
//! | --- | --- |
//! | `obs_smoke.json` | the instrumented lossy C&R run: metrics snapshot and journal |
//! | `health_smoke.json`, `health_smoke.obs.json`, `flightrec_health_smoke.json` | the chaos fleet under the fleet + controller catalogs (plus the C&R run judged by the switch + controller catalogs): health reports, metrics snapshot, flight-recorder post-mortem |
//! | `accuracy_smoke.json`, `accuracy_smoke.obs.json`, `flightrec_accuracy_smoke.json` | the accuracy fleet on an exact feed and on an undersized 4-bucket sketch: scorer summaries with the offline re-evaluation beside the live one, metrics snapshot, post-mortem |
//!
//! This binary writes; it does not judge. Every acceptance check on
//! these scenarios lives in `tests/{obs,health,accuracy}_e2e.rs`,
//! which run the same `omniwindow::experiments` functions. Same seed ⇒
//! byte-identical files, so CI `cmp`s two runs. The exit status is
//! nonzero only for a bad flag (2) or an IO / serialization failure (1).

use std::error::Error;
use std::path::{Path, PathBuf};

use omniwindow::experiments::fleet_smoke::{
    accuracy_config, chaos_config, fired_pairs, judge_obs_smoke, offline_inputs, offline_permille,
    run_with_accuracy, run_with_health,
};
use omniwindow::experiments::obs_smoke::{self, ObsSmokeConfig};
use ow_obs::{AccuracySummary, HealthEngine, HealthReport};
use serde::Serialize;

/// `health_smoke.json`.
#[derive(Serialize)]
struct HealthDoc {
    run: &'static str,
    seed: u64,
    forced_critical: HealthReport,
    fleet_chaos: HealthReport,
    fired: Vec<(String, String)>,
}

/// `accuracy_smoke.json`.
#[derive(Serialize)]
struct AccuracyDoc {
    run: &'static str,
    seed: u64,
    exact: AccuracySummary,
    degraded: AccuracySummary,
    /// `[precision, recall, AARE]` permille of the degraded run from
    /// the offline `evaluate::` path, to read against `degraded`.
    degraded_offline_permille: [u64; 3],
    degraded_health: HealthReport,
    fired: Vec<(String, String)>,
}

fn write(dir: &Path, name: &str, json: String) -> std::io::Result<()> {
    std::fs::write(dir.join(name), json + "\n")
}

/// The post-mortem, when a critical alert froze the recorder.
fn write_dump(dir: &Path, name: &str, engine: &HealthEngine) -> std::io::Result<()> {
    match engine.flight_dump(name.trim_end_matches(".json")) {
        Some(dump) => dump.write(&dir.join(name)),
        None => Ok(()),
    }
}

fn parse_args() -> Result<(u64, PathBuf), String> {
    let (mut seed, mut out) = (0xCA1DA, PathBuf::from("results"));
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match (flag.as_str(), args.next()) {
            ("--seed", Some(n)) => seed = n.parse().map_err(|e| format!("--seed {n}: {e}"))?,
            ("--out", Some(dir)) => out = PathBuf::from(dir),
            ("--seed" | "--out", None) => return Err(format!("{flag} needs a value")),
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    Ok((seed, out))
}

fn main() -> Result<(), Box<dyn Error>> {
    let (seed, out) = parse_args().unwrap_or_else(|problem| {
        eprintln!("ow-smoke: {problem}\nusage: ow-smoke [--seed N] [--out DIR]");
        std::process::exit(2);
    });
    std::fs::create_dir_all(&out)?;

    // The instrumented lossy C&R run. The health judgement installs an
    // engine (and its `ow_health_*` series) into the same registry, so
    // it runs after the snapshot is taken.
    let cr = obs_smoke::run(&ObsSmokeConfig {
        seed,
        ..ObsSmokeConfig::default()
    });
    cr.obs
        .report("obs_smoke")
        .write(&out.join("obs_smoke.json"))?;
    let forced = judge_obs_smoke(&cr.obs);

    let (chaos, chaos_obs) = run_with_health(&chaos_config(seed));
    let doc = HealthDoc {
        run: "health_smoke",
        seed,
        forced_critical: forced.report("health_smoke_forced"),
        fleet_chaos: chaos.report("health_smoke_chaos"),
        fired: fired_pairs(&chaos).into_iter().collect(),
    };
    write(
        &out,
        "health_smoke.json",
        serde_json::to_string_pretty(&doc)?,
    )?;
    chaos_obs
        .report("health_smoke")
        .write(&out.join("health_smoke.obs.json"))?;
    write_dump(&out, "flightrec_health_smoke.json", &chaos)?;

    let (exact, _, _) = run_with_accuracy(&accuracy_config(seed, None));
    let (degraded, engine, degraded_obs) = run_with_accuracy(&accuracy_config(seed, Some((1, 4))));
    let (mech, refr) = offline_inputs(&degraded);
    let doc = AccuracyDoc {
        run: "accuracy_smoke",
        seed,
        exact: exact.summary(),
        degraded: degraded.summary(),
        degraded_offline_permille: offline_permille(&mech, &refr),
        degraded_health: engine.report("accuracy_smoke_degraded"),
        fired: fired_pairs(&engine).into_iter().collect(),
    };
    write(
        &out,
        "accuracy_smoke.json",
        serde_json::to_string_pretty(&doc)?,
    )?;
    degraded_obs
        .report("accuracy_smoke")
        .write(&out.join("accuracy_smoke.obs.json"))?;
    write_dump(&out, "flightrec_accuracy_smoke.json", &engine)?;

    println!("ow-smoke: seed {seed}, artifacts in {}", out.display());
    Ok(())
}
