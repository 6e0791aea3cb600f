//! The health and accuracy fleet scenarios, each defined once: the
//! `tests/health_e2e.rs` and `tests/accuracy_e2e.rs` suites assert on
//! them, and the `ow-smoke` binary writes their artifacts.
//!
//! Everything here is a function of the seed and the virtual clock, so
//! a scenario's alert timeline, scores, and flight-recorder dump are
//! byte-identical across same-seed runs.

use std::collections::BTreeSet;
use std::sync::Arc;

use ow_common::metrics;
use ow_common::time::{Duration, Instant};
use ow_controller::health::controller_health_rules;
use ow_netsim::fleet::{self, fleet_health_rules};
use ow_netsim::{ChurnEvent, ChurnKind, FleetConfig, RackBurst};
use ow_obs::{
    accuracy_health_rules, AccuracyScorer, HealthEngine, Obs, RuleSet, ACCURACY_THRESHOLD,
};
use ow_switch::health::switch_health_rules;

use crate::evaluate;
use crate::mechanisms::WindowResult;

/// The `(code, entity)` pairs that *fired* (ignoring clears) in an
/// engine's timeline, deduplicated and sorted.
pub fn fired_pairs(engine: &HealthEngine) -> BTreeSet<(String, String)> {
    engine
        .timeline()
        .iter()
        .filter(|a| a.state == "fired")
        .map(|a| (a.code.clone(), a.entity.clone()))
        .collect()
}

/// A `[0, 1]` score in the metrics layer's integer permille.
pub fn permille(x: f64) -> u64 {
    (x * 1000.0).round() as u64
}

/// The catalog every health fleet run installs: fleet + controller
/// rules, minus the scheduling-dependent queue-watermark rule (its
/// firing path is unit-tested in ow-controller; here it would leak
/// thread timing into the byte-identity checks).
pub fn fleet_catalog() -> RuleSet {
    RuleSet::merged(vec![
        fleet_health_rules(),
        controller_health_rules(fleet::QUEUE_DEPTH),
    ])
    .expect("catalogs merge")
    .without(&["OW-HEALTH-201"])
}

/// Switch 2 crashing mid-run, so the departure path exercises too.
fn crash_of_switch_2() -> Vec<ChurnEvent> {
    vec![ChurnEvent {
        at: Duration::from_micros(1_700),
        switch: 2,
        kind: ChurnKind::Crash,
    }]
}

/// A small chaos fleet: 30% loss, rack 1 bursting at 90%, switch 2
/// crashing mid-run, every 4th window's retransmit channel dead.
pub fn chaos_config(seed: u64) -> FleetConfig {
    FleetConfig {
        switches: 16,
        workers: 2,
        local_windows: 3,
        afr_loss: 0.30,
        bursts: vec![RackBurst {
            rack: 1,
            from: Duration::ZERO,
            until: Duration::from_millis(100),
            loss: 0.90,
        }],
        churn: crash_of_switch_2(),
        escalate_every: 4,
        seed,
        ..FleetConfig::default()
    }
}

/// A fleet whose switches announce through a data-plane MV-Sketch of
/// the given geometry (`None` = exact feed) over a 15%-loss wire, with
/// switch 2 crashing mid-run.
pub fn accuracy_config(seed: u64, sketch_feed: Option<(usize, usize)>) -> FleetConfig {
    FleetConfig {
        switches: 8,
        workers: 2,
        local_windows: 3,
        afr_loss: 0.15,
        churn: crash_of_switch_2(),
        sketch_feed,
        seed,
        ..FleetConfig::default()
    }
}

/// Run a fleet with [`fleet_catalog`] installed; the settle tick inside
/// `fleet::run` evaluates the rules.
pub fn run_with_health(cfg: &FleetConfig) -> (Arc<HealthEngine>, Obs) {
    let obs = Obs::with_journal_capacity(1 << 15);
    let engine = obs.install_health(fleet_catalog());
    fleet::run(cfg, &obs);
    (engine, obs)
}

/// Run a fleet with the accuracy observatory (oracle + live scorer)
/// and its `OW-HEALTH-4xx` catalog installed.
pub fn run_with_accuracy(cfg: &FleetConfig) -> (Arc<AccuracyScorer>, Arc<HealthEngine>, Obs) {
    let obs = Obs::with_journal_capacity(1 << 15);
    let engine = obs.install_health(accuracy_health_rules());
    let scorer = obs.install_accuracy();
    fleet::run(cfg, &obs);
    (scorer, engine, obs)
}

/// Judge a finished [`super::obs_smoke::run`] with the switch +
/// controller catalogs: one settle tick after the whole virtual trace
/// (~500ms) quiesced. The run's deterministic OS-read escalation is a
/// forced critical, so this is the black-box scenario that needs no
/// fleet. (The smoke serves retransmits from a replay map rather than
/// the switch pipeline, so the 1xx switch rules stay silent; the
/// controller folds are the live signals.)
pub fn judge_obs_smoke(obs: &Obs) -> Arc<HealthEngine> {
    let rules = RuleSet::merged(vec![
        switch_health_rules(),
        controller_health_rules(super::obs_smoke::QUEUE_DEPTH),
    ])
    .expect("switch + controller catalogs merge");
    let engine = obs.install_health(rules);
    engine.tick(Instant::from_millis(1_000));
    engine
}

/// The offline evaluation inputs rebuilt from the per-window data a
/// scorer retained, in the same (sub-window) order the live aggregates
/// summed in: `(mechanism, reference)` results, thresholded like the
/// live query.
pub fn offline_inputs(scorer: &AccuracyScorer) -> (Vec<WindowResult>, Vec<WindowResult>) {
    let result = |i: usize, rows: &[(ow_common::flowkey::FlowKey, f64)]| WindowResult {
        index: i,
        reported: rows
            .iter()
            .filter(|(_, s)| *s >= ACCURACY_THRESHOLD)
            .map(|(k, _)| *k)
            .collect(),
        estimates: rows.iter().cloned().collect(),
    };
    scorer
        .windows()
        .iter()
        .enumerate()
        .map(|(i, w)| (result(i, &w.merged), result(i, &w.truth)))
        .unzip()
}

/// `[precision, recall, AARE]` in permille from the offline
/// `evaluate::` path over [`offline_inputs`]. The live AARE is the mean
/// of per-window AREs, so the estimator is replayed window by window.
pub fn offline_permille(mech: &[WindowResult], refr: &[WindowResult]) -> [u64; 3] {
    let pr = evaluate::score_reports(mech, refr);
    let ares: Vec<f64> = mech
        .iter()
        .zip(refr)
        .map(|(m, r)| evaluate::score_estimates(std::slice::from_ref(m), std::slice::from_ref(r)))
        .collect();
    [
        permille(pr.precision),
        permille(pr.recall),
        permille(metrics::mean(&ares)),
    ]
}
