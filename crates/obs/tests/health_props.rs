//! Property tests for the health engine and its black box: each tick
//! is the verdict of its own sample and nothing else, a frozen dump
//! holds exactly the freezing sample's readings and nothing recorded
//! after it, and rule evaluation is a pure function of the sample *set*
//! (never its order), which is what lets threaded runs alert
//! deterministically.

use proptest::prelude::*;

use ow_obs::{
    evaluate, Cmp, Event, FlightEntry, HealthSample, MetricSelector, MetricSnapshot, Obs,
    PeakSample, Rule, RuleSet, Severity, Signal,
};

/// A small fixed metric space the order-independence property draws
/// samples over: two counter families sharded four ways plus one
/// gauge peak family.
fn sample_of(values: &[u64], order: &[u8]) -> HealthSample {
    let mut metrics = Vec::new();
    let mut peaks = Vec::new();
    for shard in 0..4u64 {
        let labels = vec![("shard".to_string(), shard.to_string())];
        metrics.push(MetricSnapshot {
            name: "ow_prop_num_total".into(),
            labels: labels.clone(),
            kind: "counter".into(),
            value: values[shard as usize],
            histogram: None,
        });
        metrics.push(MetricSnapshot {
            name: "ow_prop_den_total".into(),
            labels: labels.clone(),
            kind: "counter".into(),
            value: 100,
            histogram: None,
        });
        peaks.push(PeakSample {
            name: "ow_prop_queue".into(),
            labels,
            peak: values[4 + shard as usize],
        });
    }
    // Deterministic permutation driven by the generated order bytes.
    let m_len = metrics.len();
    let p_len = peaks.len();
    for (i, &o) in order.iter().enumerate() {
        metrics.swap(i % m_len, o as usize % m_len);
        peaks.swap(i % p_len, o as usize % p_len);
    }
    HealthSample {
        at_ns: 1_000,
        metrics,
        peaks,
    }
}

fn prop_rules() -> RuleSet {
    RuleSet::new(vec![
        Rule::new(
            "OW-HEALTH-901",
            "prop_ratio",
            MetricSelector::new("ow_prop_num_total", &[]),
            Signal::RatioPermille {
                denominator: MetricSelector::new("ow_prop_den_total", &[]),
            },
            Cmp::Above,
            300,
            Severity::Warning,
        )
        .group_by("shard")
        .entity("shard"),
        Rule::new(
            "OW-HEALTH-902",
            "prop_saturation",
            MetricSelector::new("ow_prop_queue", &[]),
            Signal::SaturationPermille { capacity: 100 },
            Cmp::Above,
            500,
            Severity::Warning,
        )
        .group_by("shard")
        .entity("shard"),
        Rule::new(
            "OW-HEALTH-903",
            "prop_total",
            MetricSelector::new("ow_prop_num_total", &[]),
            Signal::Value,
            Cmp::Above,
            150,
            Severity::Critical,
        )
        .entity("fleet"),
    ])
    .expect("prop catalog validates")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Feeding the same sample *set* in any order produces the same
    /// alerts, the same scores, and the same timeline: evaluation
    /// cannot depend on snapshot enumeration order.
    #[test]
    fn rule_evaluation_is_order_independent(
        values in proptest::collection::vec(0u64..120, 8),
        order_a in proptest::collection::vec(any::<u8>(), 8),
        order_b in proptest::collection::vec(any::<u8>(), 8),
    ) {
        let obs_a = Obs::new();
        let obs_b = Obs::new();
        let engine_a = obs_a.install_health(prop_rules());
        let engine_b = obs_b.install_health(prop_rules());
        let fired_a = engine_a.tick_with_sample(sample_of(&values, &order_a));
        let fired_b = engine_b.tick_with_sample(sample_of(&values, &order_b));
        prop_assert_eq!(&fired_a, &fired_b);
        prop_assert_eq!(fired_a, evaluate(&prop_rules(), &sample_of(&values, &[])));
        prop_assert_eq!(engine_a.timeline(), engine_b.timeline());
        let report_a = serde_json::to_string(&engine_a.report("props")).unwrap();
        let report_b = serde_json::to_string(&engine_b.report("props")).unwrap();
        prop_assert_eq!(report_a, report_b);
        prop_assert_eq!(engine_a.frozen(), engine_b.frozen());
        if engine_a.frozen() {
            prop_assert_eq!(
                engine_a.flight_dump("props").map(|d| d.to_json()),
                engine_b.flight_dump("props").map(|d| d.to_json())
            );
        }
    }
}

/// `sample_of(values)` at `at_ns`, in generation order.
fn sample_at(values: &[u64], at_ns: u64) -> HealthSample {
    HealthSample {
        at_ns,
        ..sample_of(values, &[])
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A frozen black box is inert: ticks and journal events after the
    /// freeze leave the dump byte-identical.
    #[test]
    fn frozen_recorder_ignores_floods(
        flood in proptest::collection::vec((any::<bool>(), proptest::collection::vec(0u64..120, 8)), 1..32),
    ) {
        let obs = Obs::new();
        let engine = obs.install_health(prop_rules());
        engine.tick_with_sample(sample_at(&[100; 8], 1_000));
        let before = engine.flight_dump("props").expect("rule 903 froze the box").to_json();
        for (i, (tick, values)) in flood.into_iter().enumerate() {
            let at_ns = 2_000 + i as u64;
            if tick {
                engine.tick_with_sample(sample_at(&values, at_ns));
            } else {
                let event = Event::new("flood", format!("{values:?}"));
                obs.event(event.at(ow_common::time::Instant(at_ns)));
            }
        }
        prop_assert_eq!(before, engine.flight_dump("props").expect("still frozen").to_json());
    }

    /// No hidden state: over any sequence of samples, each tick
    /// returns and publishes exactly what `evaluate` says about its own
    /// sample alone, and a frozen dump holds exactly the freezing
    /// sample's lines.
    #[test]
    fn each_tick_is_the_verdict_of_its_own_sample(
        ticks in proptest::collection::vec(proptest::collection::vec(0u64..60, 8), 1..12),
    ) {
        let obs = Obs::new();
        let engine = obs.install_health(prop_rules());
        let mut freezing = None;
        for (i, values) in ticks.iter().enumerate() {
            let sample = sample_at(values, 1_000 * (i as u64 + 1));
            let alone = evaluate(&prop_rules(), &sample);
            prop_assert_eq!(&engine.tick_with_sample(sample), &alone);
            let report = engine.report("props");
            prop_assert_eq!(report.fleet_score, alone.fleet_score);
            prop_assert_eq!(&report.entity_scores, &alone.entity_scores);
            prop_assert_eq!(obs.snapshot().value("ow_health_fleet_score", &[]), alone.fleet_score);
            if engine.frozen() && freezing.is_none() {
                freezing = Some(alone);
            }
        }
        if let Some(verdict) = freezing {
            let dump = engine.flight_dump("props").expect("frozen");
            let kept: Vec<FlightEntry> = (dump.entries.into_iter())
                .filter(|e| e.kind != "event")
                .collect();
            let mut lines = verdict.lines;
            lines.sort();
            prop_assert_eq!(kept, lines);
        }
    }
}
