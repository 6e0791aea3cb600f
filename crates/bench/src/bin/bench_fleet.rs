//! `bench_fleet` — the chaos fleet's seed-deterministic outcome.
//!
//! Runs the chaos fleet scenario (10% AFR loss, one rack-level 60% loss
//! burst, a crash and a graceful leave, periodic forced escalations) at
//! fleet sizes 32, 128, and 512 (32 only under `--small`) and reports,
//! per size, window accounting, reliability counters, fault totals, the
//! merged-fold digest and the p99 recovery latency — the 99th
//! percentile of the controller's
//! `ow_controller_cr_phase_duration{phase="recovery"}` histogram, on
//! the virtual clock.
//!
//! Nothing here reads the wall clock (the runs last 3–50 ms; speed is
//! `benchmark/`'s job), so with `--json results/fleet_bench.meta.json`
//! the report is byte-identical across same-seed processes. Next to it
//! goes `fleet_bench.obs.json`, the largest run's metrics snapshot
//! (fleet gauges included), and its rendered text,
//! `fleet_bench.obs.txt`; CI runs the binary twice and `cmp`s all three.

use std::path::Path;

use omniwindow::experiments::Scale;
use ow_bench::Cli;
use ow_common::time::Duration;
use ow_controller::wire::encode_merged;
use ow_netsim::fleet::{self, ChurnEvent, ChurnKind, FleetConfig, RackBurst};
use ow_obs::Obs;
use serde::Serialize;

/// Seed-deterministic outcome of one fleet size.
#[derive(Debug, Clone, Serialize)]
struct FleetMetaRow {
    /// Fleet size (switch count).
    switches: u32,
    /// Controller workers serving the fleet.
    workers: usize,
    /// Windows whose announcement was sent.
    started_windows: u64,
    /// Windows that merged complete batches.
    merged_windows: u64,
    /// Windows abandoned to crash churn.
    departed_windows: u64,
    /// AFR records announced across the fleet.
    announced_records: u64,
    /// Distinct records recovered by retransmission.
    recovered_records: u64,
    /// Sessions that escalated to the switch-OS read.
    escalations: u64,
    /// Packets the per-link channels dropped (all classes).
    packets_dropped: u64,
    /// p99 of the controller recovery-phase histogram, virtual ns.
    p99_recovery_ns: u64,
    /// FNV-1a digest of the fleet-wide `encode_merged` fold — pins the
    /// merged view without embedding megabytes of records.
    merged_fold_fnv: u64,
}

#[derive(Debug, Serialize)]
struct FleetMetaReport {
    bench: &'static str,
    seed: u64,
    afr_loss: f64,
    rows: Vec<FleetMetaRow>,
}

/// The CI smoke scenario at one fleet size: 10% baseline loss, one
/// rack-level 60% burst, a crash and a graceful leave, every 9th
/// window's back-channel dead.
fn fleet_cfg(switches: u32, seed: u64) -> FleetConfig {
    let mut cfg = FleetConfig {
        switches,
        workers: (switches as usize / 8).clamp(4, 16),
        shards_per_worker: 2,
        local_windows: 4,
        afr_loss: 0.10,
        bursts: vec![RackBurst {
            rack: 1,
            from: Duration::from_micros(500),
            until: Duration::from_micros(2_500),
            loss: 0.60,
        }],
        churn: Vec::new(),
        escalate_every: 9,
        sketch_feed: None,
        seed,
    };
    // Crash switch 2 100µs into its second window's stream (the stagger
    // offset is seed-derived, so aim relative to it — a fixed instant
    // could fall between windows and depart nothing), and let switch 5
    // leave gracefully near the end of the run.
    let crash_at = 1_000 + cfg.stagger_ns(2) / 1_000 + 100;
    cfg.churn = vec![
        ChurnEvent {
            at: Duration::from_micros(crash_at),
            switch: 2,
            kind: ChurnKind::Crash,
        },
        ChurnEvent {
            at: Duration::from_micros(3_800),
            switch: 5,
            kind: ChurnKind::Leave,
        },
    ];
    cfg
}

/// FNV-1a over the canonical merged-fold encoding.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn run_size(switches: u32, seed: u64) -> (FleetMetaRow, Obs) {
    let cfg = fleet_cfg(switches, seed);
    let obs = Obs::new();
    let report = fleet::run(&cfg, &obs);
    assert!(
        report.all_windows_accounted(),
        "fleet of {switches} wedged: started {} merged {} departed {}",
        report.started_windows,
        report.merged_windows,
        report.departed_windows
    );
    let snap = obs.snapshot();
    let p99_recovery_ns = snap
        .get("ow_controller_cr_phase_duration", &[("phase", "recovery")])
        .and_then(|m| m.histogram.as_ref().map(|h| h.p99))
        .unwrap_or(0);
    let row = FleetMetaRow {
        switches,
        workers: cfg.workers,
        started_windows: report.started_windows,
        merged_windows: report.merged_windows,
        departed_windows: report.departed_windows,
        announced_records: report.metrics.announced,
        recovered_records: report.metrics.recovered,
        escalations: report.metrics.escalations,
        packets_dropped: report.fault_stats.total_dropped(),
        p99_recovery_ns,
        merged_fold_fnv: fnv1a(&encode_merged(&report.merged)),
    };
    (row, obs)
}

fn main() {
    let cli = Cli::parse();
    let sizes: &[u32] = match cli.scale {
        Scale::Tiny => &[16],
        Scale::Small => &[32],
        Scale::Paper => &[32, 128, 512],
    };
    let mut rows = Vec::new();
    let mut last_obs: Option<Obs> = None;
    println!(
        "{:>9}  {:>8}  {:>8}  {:>8}  {:>9}  {:>14}",
        "switches", "started", "merged", "departed", "escal.", "p99 rec (ns)"
    );
    for &switches in sizes {
        cli.progress(format!("fleet of {switches}: running chaos scenario"));
        let (row, obs) = run_size(switches, cli.seed);
        last_obs = Some(obs);
        println!(
            "{:>9}  {:>8}  {:>8}  {:>8}  {:>9}  {:>14}",
            row.switches,
            row.started_windows,
            row.merged_windows,
            row.departed_windows,
            row.escalations,
            row.p99_recovery_ns,
        );
        rows.push(row);
    }

    cli.dump(&FleetMetaReport {
        bench: "bench_fleet",
        seed: cli.seed,
        afr_loss: 0.10,
        rows,
    });
    // The largest run's metrics snapshot — fleet gauges included — goes
    // next to the report: `<stem>.obs.json` (and its rendered
    // `<stem>.obs.txt`) for `<stem>.meta.json`.
    if let (Some(path), Some(obs)) = (&cli.json, &last_obs) {
        let stem = path
            .strip_suffix(".meta.json")
            .or_else(|| path.strip_suffix(".json"))
            .unwrap_or(path);
        let obs_path = format!("{stem}.obs.json");
        if let Err(e) = obs.report("bench_fleet").write(Path::new(&obs_path)) {
            eprintln!("bench_fleet: failed to write {obs_path}: {e}");
            std::process::exit(1);
        }
        cli.progress(format!("metrics snapshot written to {obs_path}"));
    }
}
