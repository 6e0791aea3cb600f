//! Switch-side health rules for the `ow_obs::health` engine.
//!
//! These interpret the metrics a [`crate::switch::Switch`] registers
//! when observability is attached (`ow_switch_*`): the §8 reliability
//! loop's retransmit and switch-OS escalation signals, plus the
//! collection buffer's eviction pressure. Install with
//! [`switch_health_rules`] (alone or merged with the controller and
//! fleet catalogs via `RuleSet::merged`).
//!
//! | code | rule | signal |
//! |------|------|--------|
//! | `OW-HEALTH-101` | `switch_retransmit_storm` | retransmit requests per 1000 collections above 500‰ |
//! | `OW-HEALTH-102` | `switch_os_escalation` | any switch-OS fallback read observed |
//! | `OW-HEALTH-103` | `switch_eviction_pressure` | collect-buffer evictions observed |

use ow_obs::{Cmp, MetricSelector, Rule, RuleSet, Severity, Signal};

/// Ratio threshold (‰) for the retransmit-storm rule: more than one
/// retransmit request per two collections means the back-channel loss
/// loop dominates the window, not the stream.
pub(crate) const RETRANSMIT_STORM_PERMILLE: u64 = 500;

/// The switch rule catalog (`OW-HEALTH-1xx`).
pub fn switch_health_rules() -> RuleSet {
    RuleSet::new(vec![
        Rule::new(
            "OW-HEALTH-101",
            "switch_retransmit_storm",
            MetricSelector::new("ow_switch_retransmit_requests_total", &[]),
            Signal::RatioPermille {
                denominator: MetricSelector::new("ow_switch_collections_total", &[]),
            },
            Cmp::Above,
            RETRANSMIT_STORM_PERMILLE,
            Severity::Warning,
        )
        .entity("switch"),
        Rule::new(
            "OW-HEALTH-102",
            "switch_os_escalation",
            MetricSelector::new("ow_switch_os_read_duration", &[]),
            Signal::Value,
            Cmp::Above,
            0,
            Severity::Warning,
        )
        .entity("switch"),
        Rule::new(
            "OW-HEALTH-103",
            "switch_eviction_pressure",
            MetricSelector::new("ow_switch_evictions_total", &[]),
            Signal::Value,
            Cmp::Above,
            0,
            Severity::Info,
        )
        .entity("switch"),
    ])
    .expect("switch rule catalog validates")
}

#[cfg(test)]
mod tests {
    use super::*;
    use ow_obs::{evaluate, HealthSample, MetricSnapshot};

    fn metric(name: &str, value: u64) -> MetricSnapshot {
        MetricSnapshot {
            name: name.into(),
            labels: vec![],
            kind: "counter".into(),
            value,
            histogram: None,
        }
    }

    fn sample(metrics: Vec<MetricSnapshot>) -> HealthSample {
        HealthSample {
            at_ns: 1_000,
            metrics,
            peaks: vec![],
        }
    }

    #[test]
    fn catalog_validates_and_covers_the_documented_codes() {
        let rules = switch_health_rules();
        let codes: Vec<&str> = rules.rules().iter().map(|r| r.code.as_str()).collect();
        assert_eq!(
            codes,
            vec!["OW-HEALTH-101", "OW-HEALTH-102", "OW-HEALTH-103"]
        );
    }

    #[test]
    fn retransmit_storm_fires_on_ratio_not_raw_count() {
        let storm = |retransmits, collections| {
            let metrics = vec![
                metric("ow_switch_retransmit_requests_total", retransmits),
                metric("ow_switch_collections_total", collections),
            ];
            evaluate(&switch_health_rules(), &sample(metrics)).alerts
        };
        // 100 retransmits over 1000 collections = 100‰: loud in
        // absolute terms, healthy as a ratio.
        assert!(storm(100, 1000).is_empty());
        // 30 retransmits over 40 collections = 750‰: a storm.
        let fired = storm(30, 40);
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].code, "OW-HEALTH-101");
        assert_eq!(fired[0].entity, "switch");
        assert_eq!(fired[0].value, 750);
    }

    #[test]
    fn os_escalation_fires_on_any_fallback_read() {
        // The histogram's snapshot value is its sample count; one
        // switch-OS read is already noteworthy.
        let os_read = MetricSnapshot {
            name: "ow_switch_os_read_duration".into(),
            labels: vec![],
            kind: "histogram".into(),
            value: 1,
            histogram: None,
        };
        let fired = evaluate(&switch_health_rules(), &sample(vec![os_read])).alerts;
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].code, "OW-HEALTH-102");
        assert_eq!(fired[0].severity, "warning");
        // A batch evicted unacknowledged from the retransmit buffer can
        // no longer be repaired: worth a record, not a page.
        let evicted = vec![metric("ow_switch_evictions_total", 1)];
        let evicted = evaluate(&switch_health_rules(), &sample(evicted)).alerts;
        assert_eq!(evicted.len(), 1);
        assert_eq!(evicted[0].code, "OW-HEALTH-103");
        assert_eq!(evicted[0].severity, "info");
    }
}
