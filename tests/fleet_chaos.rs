//! Chaos acceptance suite for the fleet-scale pipeline.
//!
//! The fleet simulator drives {32, 128} switches against a sharded
//! controller tier under 30% AFR loss, rack-correlated loss bursts, and
//! mid-window switch churn (joins, graceful leaves, crashes). These
//! tests pin the three fleet guarantees:
//!
//! 1. **No window wedges.** Every window whose announcement was sent
//!    reaches a terminal lifecycle state: `Merged` (complete batch) or
//!    `Released` via the departure path — never stuck in
//!    `CrWait`/`Retransmitting` against a switch that no longer exists.
//! 2. **Chaos is invisible to the merge.** The fleet-wide folded view of
//!    a chaotic N-worker run is byte-identical (`encode_merged`) to a
//!    lossless single-worker run of the same schedule: loss, bursts, and
//!    escalations change *how* batches are recovered, never *what* is
//!    merged. The surviving window set is schedule-determined (crash
//!    churn departs the same windows in both runs), so the baseline is a
//!    true ground truth.
//! 3. **Chaos is reproducible.** A fixed `FleetConfig` reproduces the
//!    same report — counters, fault stats, and merged bytes — run over
//!    run, which is what lets CI diff two runs of the smoke scenario.

use ow_common::time::Duration;
use ow_controller::wire::encode_merged;
use ow_netsim::fleet::{self, ChurnEvent, ChurnKind, FleetConfig, FleetReport, RackBurst};
use ow_obs::Obs;
use proptest::prelude::*;

/// The ISSUE scenario at one fleet size: 30% loss, one rack-level
/// burst at 60%, a crash and a graceful leave mid-run, a late join,
/// and every 7th window's retransmit channel dead (forced escalation).
fn chaos_config(switches: u32, seed: u64) -> FleetConfig {
    let mut cfg = FleetConfig {
        switches,
        workers: 4,
        shards_per_worker: 2,
        local_windows: 4,
        afr_loss: 0.30,
        bursts: vec![RackBurst {
            rack: 1,
            from: Duration::from_micros(500),
            until: Duration::from_micros(2_500),
            loss: 0.60,
        }],
        churn: Vec::new(),
        escalate_every: 7,
        sketch_feed: None,
        seed,
    };
    cfg.churn = vec![
        ChurnEvent {
            // Crash switch 2 just after its second announcement — inside
            // that window's stream regardless of the seed's stagger draw,
            // so the departure path is always exercised.
            at: Duration::from_micros(1_000 + cfg.stagger_ns(2) / 1_000 + 100),
            switch: 2,
            kind: ChurnKind::Crash,
        },
        ChurnEvent {
            at: Duration::from_micros(2_100),
            switch: 5,
            kind: ChurnKind::Leave,
        },
        ChurnEvent {
            at: Duration::from_micros(1_000),
            switch: 7,
            kind: ChurnKind::Join,
        },
    ];
    cfg
}

/// Assert the three fleet guarantees for one config; returns the
/// chaotic report for further scenario-specific checks.
fn assert_chaos_invariants(cfg: &FleetConfig) -> FleetReport {
    let chaotic = fleet::run(cfg, &Obs::new());

    // 1. Every started window terminated: merged or departed-released.
    assert!(
        chaotic.all_windows_accounted(),
        "wedged windows: started {} != merged {} + departed {}",
        chaotic.started_windows,
        chaotic.merged_windows,
        chaotic.departed_windows
    );
    assert_eq!(
        chaotic.metrics.departed, chaotic.departed_windows,
        "every departed window must be a departed session, nothing more"
    );

    // 2. Byte-identical merge against the lossless single-worker run of
    //    the same schedule.
    let baseline = fleet::run(&cfg.lossless_baseline(), &Obs::new());
    assert_eq!(
        baseline.started_windows, chaotic.started_windows,
        "the window schedule must not depend on loss"
    );
    assert_eq!(baseline.merged_windows, chaotic.merged_windows);
    assert_eq!(
        encode_merged(&chaotic.merged),
        encode_merged(&baseline.merged),
        "chaotic fold diverged from the lossless single-worker baseline"
    );

    // 3. Deterministic replay.
    let again = fleet::run(cfg, &Obs::new());
    assert_eq!(again.started_windows, chaotic.started_windows);
    assert_eq!(again.merged_windows, chaotic.merged_windows);
    assert_eq!(again.departed_windows, chaotic.departed_windows);
    assert_eq!(again.metrics, chaotic.metrics);
    assert_eq!(again.fault_stats, chaotic.fault_stats);
    assert_eq!(
        encode_merged(&again.merged),
        encode_merged(&chaotic.merged),
        "same seed, different merged bytes"
    );

    chaotic
}

#[test]
fn fleet_of_32_survives_loss_bursts_and_churn() {
    let cfg = chaos_config(32, 0xf1ee0032);
    let report = assert_chaos_invariants(&cfg);
    assert_eq!(report.switches, 32);
    // The chaos actually happened: loss forced recovery work, the crash
    // departed at least one window, the dead back-channels escalated.
    assert!(
        report.metrics.retransmit_rounds > 0,
        "no recovery exercised"
    );
    assert!(report.metrics.escalations > 0, "no escalation exercised");
    assert!(report.departed_windows > 0, "no departure exercised");
    assert!(
        report.fault_stats.total_dropped() > 0,
        "the channel never dropped"
    );
    // Work spread across the whole tier.
    assert!(
        report.per_worker_started.iter().all(|&n| n > 0),
        "idle worker in {:?}",
        report.per_worker_started
    );
}

#[test]
fn fleet_of_128_survives_loss_bursts_and_churn() {
    let cfg = chaos_config(128, 0xf1ee0128);
    let report = assert_chaos_invariants(&cfg);
    assert_eq!(report.switches, 128);
    assert!(report.metrics.retransmit_rounds > 0);
    assert!(report.metrics.escalations > 0);
    assert!(report.departed_windows > 0);
    // At 128 switches the stagger must spread announcements: with every
    // switch on its own offset, no two windows of different switches
    // share an announce instant in any realistic draw.
    let offsets: std::collections::HashSet<u64> =
        (0..cfg.switches).map(|s| cfg.stagger_ns(s)).collect();
    assert!(
        offsets.len() as u32 > cfg.switches * 3 / 4,
        "stagger collapsed"
    );
}

#[test]
fn crashed_switch_windows_release_instead_of_wedging() {
    // Crash a switch right after its second announcement: the two
    // unfinished windows must depart (router tombstones them, FSMs go
    // Released), while its completed first window still merges.
    let mut cfg = chaos_config(32, 7);
    cfg.churn = vec![ChurnEvent {
        // Inside window 1's stream for every stagger draw: after each
        // switch's announce (local*1ms + stagger < 2ms) and before some
        // streams end.
        at: Duration::from_micros(1_990),
        switch: 3,
        kind: ChurnKind::Crash,
    }];
    let report = assert_chaos_invariants(&cfg);
    assert!(report.departed_windows >= 1, "the crash departed nothing");
    // Switch 3 scheduled 4 windows but crashed during its second: the
    // later two never started.
    assert_eq!(
        report.started_windows,
        31 * 4 + 2,
        "crash must cancel the not-yet-announced windows"
    );
}

#[test]
fn worker_count_does_not_change_the_merge() {
    // Same fleet, same seed, different tier widths: the fold is a pure
    // function of the schedule, so 1, 2, and 8 workers agree bytewise.
    let base = FleetConfig {
        switches: 24,
        afr_loss: 0.25,
        escalate_every: 5,
        ..FleetConfig::default()
    };
    let reference = fleet::run(
        &FleetConfig {
            workers: 1,
            ..base.clone()
        },
        &Obs::new(),
    );
    for workers in [2usize, 8] {
        let report = fleet::run(
            &FleetConfig {
                workers,
                ..base.clone()
            },
            &Obs::new(),
        );
        assert!(report.all_windows_accounted());
        assert_eq!(
            encode_merged(&report.merged),
            encode_merged(&reference.merged),
            "{workers}-worker fold diverged from the single-worker fold"
        );
    }
}

proptest! {
    // Every case runs a chaotic fleet, its lossless baseline, and a
    // replay — three full controller tiers — so keep the case count
    // modest. 12 cases still sweep seeds, loss rates, tier widths, and
    // churn shapes.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random chaos never wedges a window, never perturbs the merge,
    /// and always replays byte-identically.
    #[test]
    fn random_chaos_upholds_the_fleet_invariants(
        seed in any::<u64>(),
        switches in 8u32..48,
        workers in 1usize..6,
        afr_loss in 0.0f64..0.45,
        escalate_every in 0u32..9,
        crash_at_us in 500u64..3_500,
        crash_switch in 0u32..8,
        leave_switch in 0u32..8,
        burst in any::<bool>(),
    ) {
        let cfg = FleetConfig {
            switches,
            workers,
            shards_per_worker: 2,
            afr_loss,
            escalate_every,
            bursts: if burst {
                vec![RackBurst {
                    rack: 0,
                    from: Duration::from_micros(800),
                    until: Duration::from_micros(2_600),
                    loss: 0.7,
                }]
            } else {
                Vec::new()
            },
            churn: vec![
                ChurnEvent {
                    at: Duration::from_micros(crash_at_us),
                    switch: crash_switch % switches,
                    kind: ChurnKind::Crash,
                },
                ChurnEvent {
                    at: Duration::from_micros(2_200),
                    switch: (crash_switch + 1 + leave_switch) % switches,
                    kind: ChurnKind::Leave,
                },
            ],
            seed,
            ..FleetConfig::default()
        };

        let chaotic = fleet::run(&cfg, &Obs::new());
        prop_assert!(
            chaotic.all_windows_accounted(),
            "wedged: started {} merged {} departed {}",
            chaotic.started_windows, chaotic.merged_windows, chaotic.departed_windows
        );
        prop_assert_eq!(chaotic.metrics.departed, chaotic.departed_windows);

        let baseline = fleet::run(&cfg.lossless_baseline(), &Obs::new());
        prop_assert_eq!(baseline.started_windows, chaotic.started_windows);
        prop_assert_eq!(
            encode_merged(&chaotic.merged),
            encode_merged(&baseline.merged),
            "chaotic fold diverged from the lossless baseline"
        );

        let again = fleet::run(&cfg, &Obs::new());
        prop_assert_eq!(again.metrics, chaotic.metrics);
        prop_assert_eq!(
            encode_merged(&again.merged),
            encode_merged(&chaotic.merged)
        );
    }
}
