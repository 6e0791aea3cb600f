//! Property tests for the health engine and the flight recorder: the
//! ring honours its byte/entry budget under arbitrary floods, and rule
//! evaluation is a pure function of the sample *set* (never its
//! order), which is what lets threaded runs alert deterministically.

use proptest::prelude::*;

use ow_obs::{
    Cmp, FlightEntry, FlightRecorder, FlightRecorderConfig, HealthSample, MetricSelector,
    MetricSnapshot, Obs, PeakSample, Rule, RuleSet, Severity, Signal,
};

/// One flood entry: kind selector plus payload length.
fn arb_entry() -> impl Strategy<Value = (u8, u16, u64)> {
    (any::<u8>(), any::<u16>(), any::<u64>())
}

fn entry_of((kind, len, at): (u8, u16, u64)) -> FlightEntry {
    let kinds = ["event", "signal", "tick"];
    FlightEntry {
        at_ns: at % 1_000_000,
        kind: kinds[kind as usize % 3].into(),
        detail: "x".repeat(len as usize % 512),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// However hard the recorder is flooded, the retained ring never
    /// exceeds either configured bound, and every eviction is counted.
    #[test]
    fn recorder_ring_never_exceeds_its_bounds(
        max_entries in 1usize..64,
        max_bytes in 1usize..4096,
        flood in proptest::collection::vec(arb_entry(), 0..256),
    ) {
        let mut rec = FlightRecorder::new(FlightRecorderConfig { max_entries, max_bytes });
        let mut offered = 0u64;
        for raw in flood {
            let entry = entry_of(raw);
            offered += 1;
            rec.record(entry);
            prop_assert!(rec.entry_count() <= max_entries,
                "{} entries retained with max_entries {max_entries}", rec.entry_count());
            prop_assert!(rec.byte_usage() <= max_bytes,
                "{} bytes retained with max_bytes {max_bytes}", rec.byte_usage());
        }
        prop_assert!(rec.dropped() + rec.entry_count() as u64 <= offered);
    }

    /// A frozen recorder is inert: floods after the freeze change
    /// nothing about what the dump will say.
    #[test]
    fn frozen_recorder_ignores_floods(
        flood in proptest::collection::vec(arb_entry(), 1..64),
    ) {
        let mut rec = FlightRecorder::new(FlightRecorderConfig::default());
        rec.record(FlightEntry {
            at_ns: 1,
            kind: "event".into(),
            detail: "before the freeze".into(),
        });
        rec.freeze(
            "prop test freeze",
            2,
            ow_obs::RegistrySnapshot::default(),
            Vec::new(),
            Vec::new(),
            Vec::new(),
        );
        let before = rec.dump("props").expect("frozen").to_json();
        for raw in flood {
            rec.record(entry_of(raw));
        }
        prop_assert_eq!(before, rec.dump("props").expect("still frozen").to_json());
    }
}

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
        prop_assert_eq!(fired_a, fired_b);
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
