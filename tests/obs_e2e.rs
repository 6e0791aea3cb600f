//! End-to-end observability: one `ow-obs` registry attached to the
//! whole lossy sharded C&R pipeline (the acceptance scenario — 4 merge
//! shards, 10% AFR loss), checked for mirror-accuracy against the
//! controller's own metrics and for byte-identical determinism.

use omniwindow::experiments::obs_smoke::{self, ObsSmokeConfig};
use ow_common::time::Duration;
use ow_netsim::fleet::{self, ChurnEvent, ChurnKind, FleetConfig};
use ow_obs::Obs;

fn acceptance_cfg() -> ObsSmokeConfig {
    ObsSmokeConfig {
        seed: 7,
        loss: 0.10,
    }
}

#[test]
fn lossy_sharded_run_snapshot_meets_acceptance() {
    let out = obs_smoke::run(&acceptance_cfg());
    let snap = out.obs.snapshot();

    // Per-shard queue-depth gauges: one per shard, settled to zero.
    for shard in 0..4u32 {
        let gauge = snap
            .get(
                "ow_controller_shard_queue_depth",
                &[("shard", &shard.to_string())],
            )
            .unwrap_or_else(|| panic!("queue-depth gauge for shard {shard} missing"));
        assert_eq!(gauge.kind, "gauge");
        assert_eq!(gauge.value, 0, "shard {shard} queue drained at join");
    }

    // The retransmission loop ran and the registry mirrors it.
    let rounds = snap.value("ow_controller_retransmit_rounds", &[]);
    assert!(rounds > 0, "lossy run must use retransmission rounds");
    assert_eq!(rounds, out.metrics.retransmit_rounds);

    // C&R phase-duration histograms carry virtual-clock percentiles on
    // both sides of the pipeline.
    let recovery = snap
        .get("ow_controller_cr_phase_duration", &[("phase", "recovery")])
        .expect("controller recovery histogram");
    let h = recovery.histogram.as_ref().expect("histogram detail");
    assert!(h.count > 0);
    assert!(h.p50 > 0 && h.p99 >= h.p50, "virtual-clock percentiles");
    let collect = snap
        .get("ow_switch_cr_phase_duration", &[("phase", "collect")])
        .expect("switch collect histogram");
    assert!(collect.histogram.as_ref().expect("histogram detail").count > 0);

    // The dead back-channel sub-window escalated, and the registry's
    // escalation counter equals `join()`'s ReliabilityMetrics.
    assert!(out.metrics.escalations > 0, "forced escalation happened");
    assert_eq!(
        snap.value("ow_controller_escalations_total", &[]),
        out.metrics.escalations
    );

    // Both engines (switch side and controller side) reported through
    // the same registry.
    assert!(snap.value("ow_common_engine_transitions_total", &[("side", "switch")]) > 0);
    assert!(
        snap.value(
            "ow_common_engine_transitions_total",
            &[("side", "controller")]
        ) > 0
    );
}

#[test]
fn fleet_run_exposes_fleet_gauges() {
    let obs = Obs::new();
    let mut cfg = FleetConfig {
        switches: 16,
        workers: 3,
        afr_loss: 0.20,
        seed: 11,
        ..FleetConfig::default()
    };
    // Crash one switch 100µs into its second window's stream (its
    // stagger offset is seed-derived, so aim relative to it) and let
    // another leave gracefully near the end.
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
    let report = fleet::run(&cfg, &obs);
    assert!(report.all_windows_accounted());
    assert!(report.departed_windows > 0, "the crash departed a window");

    let snap = obs.snapshot();

    // Membership gauge: 16 switches minus the crash and the leave.
    let live = snap
        .get("ow_fleet_switches_live", &[])
        .expect("fleet membership gauge present");
    assert_eq!(live.kind, "gauge");
    assert_eq!(live.value, 14);

    // Per-worker in-flight gauges: present for every worker, settled to
    // zero once every window merged or departed.
    for worker in 0..3u32 {
        let g = snap
            .get(
                "ow_fleet_windows_inflight",
                &[("worker", &worker.to_string())],
            )
            .unwrap_or_else(|| panic!("in-flight gauge for worker {worker} missing"));
        assert_eq!(g.kind, "gauge");
        assert_eq!(g.value, 0, "worker {worker} still shows in-flight windows");
    }

    // The departure path reported through the same registry.
    assert_eq!(
        snap.value("ow_controller_departed_sessions_total", &[]),
        report.departed_windows
    );

    // Fleet gauges reach the rendered report.
    let text = obs.report("fleet").render();
    let want = "== fleet ==\nswitches live: 14\nwindows in flight: 0 across 3 worker(s)\n";
    assert!(text.contains(want), "{text}");
}

#[test]
fn same_seed_twice_is_byte_identical() {
    let a = obs_smoke::run(&acceptance_cfg());
    let b = obs_smoke::run(&acceptance_cfg());
    assert_eq!(
        a.obs.report("obs_e2e").to_json(),
        b.obs.report("obs_e2e").to_json(),
        "same seed must reproduce the snapshot byte for byte"
    );
    assert_eq!(a.metrics, b.metrics);
    assert_eq!(a.merged_flows, b.merged_flows);
}

#[test]
fn different_seed_changes_the_fault_pattern_not_the_merge() {
    let a = obs_smoke::run(&acceptance_cfg());
    let b = obs_smoke::run(&ObsSmokeConfig {
        seed: 8,
        ..acceptance_cfg()
    });
    // Loss pattern differs, but recovery always completes the batches:
    // the merged view and announced totals agree across seeds.
    assert_eq!(a.merged_flows, b.merged_flows);
    assert_eq!(a.metrics.announced, b.metrics.announced);
}
