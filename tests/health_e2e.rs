//! End-to-end acceptance for the fleet health engine and the black-box
//! flight recorder, over the scenarios `ow-smoke` writes artifacts for
//! (`omniwindow::experiments::fleet_smoke`):
//!
//! 1. **Precision.** A lossless fleet with the full fleet + controller
//!    catalog installed raises zero alerts and keeps the recorder warm
//!    (unfrozen) — a healthy system is never paged.
//! 2. **Recall.** Injected faults fire exactly their matching rules:
//!    a crash fires `OW-HEALTH-301`, a bursting rack fires
//!    `OW-HEALTH-302` for that rack only, a forced escalation drill
//!    fires the critical `OW-HEALTH-204` and freezes the black box —
//!    on the chaos fleet and on the single-switch `obs_smoke` pipeline.
//! 3. **Determinism.** Same-seed chaos runs produce byte-identical
//!    flight-recorder dumps and alert timelines (a proptest over
//!    seeds), which is what lets CI `cmp` two smoke artifacts.
//! 4. **Invariant coupling.** A `WindowFsm` invariant rejection inside
//!    an observed engine freezes the recorder through the
//!    `TransitionSink` path with the reserved `OW-HEALTH-001` code.

use std::collections::BTreeSet;

use omniwindow::experiments::fleet_smoke::{
    chaos_config, fired_pairs, fleet_catalog, judge_obs_smoke, run_with_health,
};
use omniwindow::experiments::obs_smoke::{self, ObsSmokeConfig};
use ow_common::engine::{WindowEngine, WindowEvent, WindowFsm};
use ow_netsim::FleetConfig;
use ow_obs::{Obs, FSM_REJECT_CODE};
use proptest::prelude::*;

/// The `(code, entity)` set a scenario must fire — no more, no less.
fn expected(pairs: &[(&str, &str)]) -> BTreeSet<(String, String)> {
    pairs
        .iter()
        .map(|(c, e)| (c.to_string(), e.to_string()))
        .collect()
}

#[test]
fn lossless_fleet_raises_zero_alerts() {
    let (engine, _obs) = run_with_health(&FleetConfig {
        switches: 16,
        workers: 2,
        local_windows: 3,
        afr_loss: 0.0,
        seed: 11,
        ..FleetConfig::default()
    });
    assert!(engine.timeline().is_empty(), "{:?}", engine.timeline());
    assert!(!engine.frozen());
    assert_eq!(engine.report("e2e").fleet_score, 1000);
}

#[test]
fn injected_faults_fire_exactly_their_rules() {
    let (engine, _obs) = run_with_health(&chaos_config(11));
    let want = expected(&[
        ("OW-HEALTH-203", "controller"), // escalated recoveries burn the 1ms SLO
        ("OW-HEALTH-204", "controller"), // every 4th window escalating is a storm
        ("OW-HEALTH-205", "controller"), // 30% loss is a retransmit storm
        ("OW-HEALTH-301", "fleet"),      // the injected crash
        ("OW-HEALTH-302", "rack:1"),     // only the bursting rack
    ]);
    assert_eq!(
        fired_pairs(&engine),
        want,
        "recall and precision must both hold"
    );
    // The critical 204 froze the box, and the dump validates.
    assert!(engine.frozen());
    let dump = engine.flight_dump("e2e").expect("critical froze");
    assert!(dump.freeze_reason.contains("OW-HEALTH-204"));
    dump.check().expect("dump validates");
}

/// The instrumented `obs_smoke` pipeline (10% loss, one deterministic
/// switch-OS escalation) judged by the switch + controller catalogs:
/// exactly the two controller rules fire, the critical one freezes the
/// box, and same-seed runs dump byte-identical post-mortems.
#[test]
fn forced_critical_obs_smoke_freezes_with_byte_identical_dumps() {
    let judge = || judge_obs_smoke(&obs_smoke::run(&ObsSmokeConfig::default()).obs);
    let (a, b) = (judge(), judge());
    let want = expected(&[
        ("OW-HEALTH-203", "controller"), // the 40ms OS read blows the 1ms SLO budget
        ("OW-HEALTH-204", "controller"), // 1 escalation over 5 sessions is a storm
    ]);
    assert_eq!(fired_pairs(&a), want);
    assert!(a.report("e2e").frozen);
    let dump = a.flight_dump("e2e").expect("critical froze");
    assert!(dump.freeze_reason.contains("OW-HEALTH-204"));
    dump.check().expect("dump validates");
    assert_eq!(
        Some(dump.to_json()),
        b.flight_dump("e2e").map(|d| d.to_json())
    );
}

#[test]
fn fsm_invariant_rejection_freezes_through_the_sink() {
    let obs = Obs::new();
    let engine = obs.install_health(fleet_catalog());
    let mut fsm = WindowEngine::new();
    fsm.set_sink(obs.engine_sink("controller"));
    fsm.insert(WindowFsm::announced(9));
    fsm.apply(9, WindowEvent::StreamComplete).unwrap();
    fsm.apply(9, WindowEvent::Acked).unwrap();
    assert!(!engine.frozen());
    assert!(fsm.apply(9, WindowEvent::Acked).is_err());
    assert!(engine.frozen(), "invariant rejection must freeze the box");
    let dump = engine.flight_dump("e2e").expect("frozen");
    assert!(dump.freeze_reason.contains(FSM_REJECT_CODE));
    assert_eq!(
        dump.timeline.last().map(|a| a.entity.as_str()),
        Some("controller:9")
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Same-seed chaos runs — threaded workers and all — dump
    /// byte-identical post-mortems and alert timelines.
    #[test]
    fn same_seed_chaos_dumps_are_byte_identical(seed in 1u64..10_000) {
        let cfg = chaos_config(seed);
        let (a, obs_a) = run_with_health(&cfg);
        let (b, obs_b) = run_with_health(&cfg);
        prop_assert_eq!(a.timeline(), b.timeline());
        let dump_a = a.flight_dump("e2e").map(|d| d.to_json());
        let dump_b = b.flight_dump("e2e").map(|d| d.to_json());
        prop_assert!(dump_a.is_some(), "the escalation drill always goes critical");
        prop_assert_eq!(dump_a, dump_b);
        let report_a = serde_json::to_string(&a.report("e2e")).unwrap();
        let report_b = serde_json::to_string(&b.report("e2e")).unwrap();
        prop_assert_eq!(report_a, report_b);
        // The metrics snapshot `ow-smoke` writes beside the dump.
        prop_assert_eq!(
            obs_a.report("e2e").to_json(),
            obs_b.report("e2e").to_json()
        );
    }
}
