//! End-to-end acceptance for the live query-accuracy observatory:
//!
//! 1. **Perfect pipeline, perfect score.** A lossless exact-feed fleet
//!    scores every window at 1000‰ precision/recall and 0‰ AARE, the
//!    `OW-HEALTH-4xx` catalog stays silent, and no `ow_sketch_*` series
//!    exists.
//! 2. **Live ≡ offline.** The scores the observatory publishes while
//!    the run is still in flight equal — to the permille — what the
//!    offline `evaluate::score_reports` / `score_estimates` path
//!    computes over the same windows after the fact.
//! 3. **Recall collapse pages.** An undersized data-plane sketch
//!    publishes its occupancy, collision and eviction readings, fires
//!    exactly the expected 4xx set, and the critical `OW-HEALTH-404`
//!    freezes the flight recorder.
//! 4. **Determinism.** Same-seed runs — threaded workers and all —
//!    produce byte-identical accuracy summaries and alert timelines.

use std::collections::BTreeSet;

use omniwindow::evaluate;
use omniwindow::experiments::fleet_smoke::{
    accuracy_config, fired_pairs, offline_inputs, offline_permille, permille, run_with_accuracy,
};
use ow_netsim::FleetConfig;
use proptest::prelude::*;

#[test]
fn lossless_exact_feed_scores_perfectly_and_stays_silent() {
    let cfg = FleetConfig {
        switches: 8,
        workers: 2,
        local_windows: 3,
        afr_loss: 0.0,
        seed: 7,
        ..FleetConfig::default()
    };
    let (scorer, engine, obs) = run_with_accuracy(&cfg);
    let sketch_series: Vec<String> = (obs.snapshot().metrics.into_iter())
        .map(|m| m.name)
        .filter(|name| name.starts_with("ow_sketch_"))
        .collect();
    assert!(
        sketch_series.is_empty(),
        "an exact feed runs no sketch: {sketch_series:?}"
    );
    let summary = scorer.summary();
    assert_eq!(summary.windows_scored, 8 * 3);
    assert_eq!(summary.precision_permille, 1000);
    assert_eq!(summary.recall_permille, 1000);
    assert_eq!(summary.aare_permille, 0);
    assert_eq!(scorer.pending_windows(), 0, "every fed window was scored");
    assert!(engine.timeline().is_empty(), "{:?}", engine.timeline());
    assert!(!engine.frozen());
}

#[test]
fn live_scores_equal_the_offline_evaluation_path() {
    // A moderately sized sketch: enough buckets that most — but not
    // all — flows survive, so the scores are non-trivial.
    let (scorer, _engine, _obs) = run_with_accuracy(&accuracy_config(21, Some((1, 12))));
    let summary = scorer.summary();
    assert!(summary.windows_scored > 0);
    assert!(
        summary.recall_permille < 1000,
        "an undersized sketch must lose flows ({summary:?})"
    );
    assert_eq!(
        scorer.pending_windows(),
        0,
        "scored or departed, nothing wedged"
    );

    // The offline `evaluate::` path over the per-window data the scorer
    // retained publishes the same permilles the live gauges did.
    let (mech, refr) = offline_inputs(&scorer);
    assert_eq!(
        offline_permille(&mech, &refr),
        [
            summary.precision_permille,
            summary.recall_permille,
            summary.aare_permille
        ]
    );

    // The per-window briefs agree with the offline helpers too.
    for (i, w) in scorer.windows().iter().enumerate() {
        let pr_w = evaluate::score_reports(
            std::slice::from_ref(&mech[i]),
            std::slice::from_ref(&refr[i]),
        );
        assert_eq!(permille(pr_w.precision), permille(w.precision));
        assert_eq!(permille(pr_w.recall), permille(w.recall));
    }
}

#[test]
fn undersized_sketch_fires_the_accuracy_catalog_and_freezes() {
    // Four buckets against a ~20-distinct-key window: most flows are
    // lost in the data plane, invisibly to transport health.
    let (scorer, engine, obs) = run_with_accuracy(&accuracy_config(31, Some((1, 4))));
    let summary = scorer.summary();
    assert!(
        summary.recall_permille < 500,
        "recall must collapse ({summary:?})"
    );
    // The fleet publishes the sketch's own readings: every bucket holds
    // a candidate, and ~20 keys over 4 buckets collide and evict.
    let snap = obs.snapshot();
    let mv = [("sketch", "mv")];
    assert_eq!(snap.value("ow_sketch_occupancy_permille", &mv), 1000);
    assert!(snap.value("ow_sketch_hash_collisions_total", &mv) > 0);
    assert!(snap.value("ow_sketch_heavy_evicts_total", &mv) > 0);
    let fired = fired_pairs(&engine);
    let want: BTreeSet<(String, String)> = [
        ("OW-HEALTH-401", "accuracy"),  // recall SLO burn
        ("OW-HEALTH-402", "sketch:mv"), // the saturated sketch, by name
        ("OW-HEALTH-403", "accuracy"),  // merged keys ≪ oracle keys
        ("OW-HEALTH-404", "accuracy"),  // accuracy collapse
    ]
    .iter()
    .map(|(c, e)| (c.to_string(), e.to_string()))
    .collect();
    assert_eq!(fired, want, "recall and precision must both hold");
    assert!(engine.frozen(), "the critical 404 freezes the black box");
    let dump = engine.flight_dump("e2e").expect("frozen");
    assert!(dump.freeze_reason.contains("OW-HEALTH-404"));
    dump.check().expect("dump validates");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Same-seed degraded runs — threaded workers and all — publish
    /// byte-identical accuracy summaries and alert timelines.
    #[test]
    fn same_seed_accuracy_runs_are_byte_identical(seed in 1u64..10_000) {
        let cfg = accuracy_config(seed, Some((1, 8)));
        let (scorer_a, engine_a, obs_a) = run_with_accuracy(&cfg);
        let (scorer_b, engine_b, obs_b) = run_with_accuracy(&cfg);
        let json_a = serde_json::to_string(&scorer_a.summary()).unwrap();
        let json_b = serde_json::to_string(&scorer_b.summary()).unwrap();
        prop_assert_eq!(json_a, json_b);
        prop_assert_eq!(engine_a.timeline(), engine_b.timeline());
        let dump_a = engine_a.flight_dump("e2e").map(|d| d.to_json());
        let dump_b = engine_b.flight_dump("e2e").map(|d| d.to_json());
        prop_assert_eq!(dump_a, dump_b);
        // The metrics snapshot `ow-smoke` writes beside the dump.
        prop_assert_eq!(
            obs_a.report("e2e").to_json(),
            obs_b.report("e2e").to_json()
        );
    }
}
