//! Controller-side health rules for the `ow_obs::health` engine.
//!
//! These interpret the controller's registry footprint: the sharded
//! merge path's queue gauges (`ow_controller_shard_queue_*`), the C&R
//! reliability counters folded per session
//! (`ow_controller_{afr_recovered,escalations,…}_total`), and
//! the recovery-phase latency histogram that PR 5's SLO machinery
//! feeds. Install with [`controller_health_rules`] (alone or merged
//! with the switch and fleet catalogs via `RuleSet::merged`).
//!
//! | code | rule | signal |
//! |------|------|--------|
//! | `OW-HEALTH-201` | `shard_queue_saturation` | per-shard queued-record high-watermark near capacity |
//! | `OW-HEALTH-203` | `recovery_slo_burn` | recovery-latency SLO burn rate above budget |
//! | `OW-HEALTH-204` | `escalation_storm` | switch-OS escalations per 1000 sessions above 50‰ (**critical**) |
//! | `OW-HEALTH-205` | `cr_retransmit_storm` | AFRs recovered by retransmission per 1000 announced above 150‰ |

use ow_common::block::DEFAULT_BLOCK_CAPACITY;
use ow_obs::{Cmp, MetricSelector, Rule, RuleSet, Severity, Signal};

/// Saturation threshold (‰ of capacity) for `OW-HEALTH-201`.
pub(crate) const QUEUE_SATURATION_PERMILLE: u64 = 800;

/// Recovery SLO deadline (virtual ns) for the burn-rate rule: normal
/// lossy recovery lands well under 1ms, switch-OS escalation rounds
/// (tens of ms of control-plane reads) blow past it.
pub(crate) const RECOVERY_SLO_DEADLINE_NS: u64 = 1_000_000;

/// Error budget (‰ of sessions allowed past the deadline) for
/// `OW-HEALTH-203`.
pub(crate) const RECOVERY_SLO_BUDGET_PERMILLE: u64 = 50;

/// Escalation-storm threshold (‰ of sessions escalating to switch-OS
/// reads) for the critical `OW-HEALTH-204`.
pub(crate) const ESCALATION_STORM_PERMILLE: u64 = 50;

/// Retransmit-storm threshold (‰ of announced AFRs recovered through
/// the §8 retransmission loop) for `OW-HEALTH-205`: the loop holds
/// this near the loss rate, so 150‰ separates heavy loss (30%) from
/// the 10% steady state.
pub(crate) const CR_RETRANSMIT_STORM_PERMILLE: u64 = 150;

/// The controller rule catalog (`OW-HEALTH-2xx`) for a controller
/// spawned with `queue_depth` — the depth its caller hands
/// `spawn_sharded_obs`. A shard queue holds that many blocks of up to
/// [`DEFAULT_BLOCK_CAPACITY`] rows, which is the record capacity
/// `OW-HEALTH-201` judges queue peaks against.
pub fn controller_health_rules(queue_depth: usize) -> RuleSet {
    let queue_capacity = (queue_depth.max(1) * DEFAULT_BLOCK_CAPACITY) as u64;
    RuleSet::new(vec![
        Rule::new(
            "OW-HEALTH-201",
            "shard_queue_saturation",
            MetricSelector::new("ow_controller_shard_queue_records", &[]),
            Signal::SaturationPermille {
                capacity: queue_capacity,
            },
            Cmp::Above,
            QUEUE_SATURATION_PERMILLE,
            Severity::Warning,
        )
        .group_by("shard")
        .entity("shard"),
        Rule::new(
            "OW-HEALTH-203",
            "recovery_slo_burn",
            MetricSelector::new("ow_controller_cr_phase_duration", &[("phase", "recovery")]),
            Signal::BurnRatePermille {
                deadline_ns: RECOVERY_SLO_DEADLINE_NS,
                budget_permille: RECOVERY_SLO_BUDGET_PERMILLE,
            },
            Cmp::Above,
            1000,
            Severity::Warning,
        )
        .entity("controller"),
        Rule::new(
            "OW-HEALTH-204",
            "escalation_storm",
            MetricSelector::new("ow_controller_escalations_total", &[]),
            Signal::RatioPermille {
                denominator: MetricSelector::new("ow_controller_sessions_total", &[]),
            },
            Cmp::Above,
            ESCALATION_STORM_PERMILLE,
            Severity::Critical,
        )
        .entity("controller"),
        Rule::new(
            "OW-HEALTH-205",
            "cr_retransmit_storm",
            MetricSelector::new("ow_controller_afr_recovered_total", &[]),
            Signal::RatioPermille {
                denominator: MetricSelector::new("ow_controller_afr_announced_total", &[]),
            },
            Cmp::Above,
            CR_RETRANSMIT_STORM_PERMILLE,
            Severity::Warning,
        )
        .entity("controller"),
    ])
    // Unreachable: codes and budgets are constants, `queue_depth` moves
    // only a threshold (test: catalog_validates_and_merges_with_the_switch_catalog).
    .expect("controller rule catalog validates")
}

#[cfg(test)]
mod tests {
    use super::*;
    use ow_obs::{
        evaluate, AlertEvent, HealthSample, MetricSnapshot, MetricsRegistry, Obs, PeakSample,
    };

    fn metric(name: &str, labels: &[(&str, &str)], value: u64) -> MetricSnapshot {
        MetricSnapshot {
            name: name.into(),
            labels: labels
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            kind: "counter".into(),
            value,
            histogram: None,
        }
    }

    /// The alerts the depth-256 catalog fires on one sample.
    fn fired(sample: &HealthSample) -> Vec<AlertEvent> {
        evaluate(&controller_health_rules(256), sample).alerts
    }

    /// `escalated` of 100 sessions escalating, the inputs of the
    /// critical 204.
    fn escalations(escalated: u64) -> HealthSample {
        HealthSample {
            at_ns: 1_000,
            metrics: vec![
                metric("ow_controller_escalations_total", &[], escalated),
                metric("ow_controller_sessions_total", &[], 100),
            ],
            peaks: vec![],
        }
    }

    #[test]
    fn catalog_validates_and_merges_with_the_switch_catalog() {
        let merged = RuleSet::merged(vec![
            controller_health_rules(256),
            ow_switch::health::switch_health_rules(),
        ])
        .expect("cross-catalog codes stay unique");
        assert_eq!(merged.rules().len(), 7);
    }

    #[test]
    fn queue_saturation_judges_the_peak_not_the_drained_value() {
        // What `fleet::run` and `obs_smoke` install: 256 blocks × 1024
        // rows = 262,144 records per shard queue. The queue spiked
        // mid-window but drained to 0 by the sample: the instantaneous
        // gauge hides it, the high-watermark does not — 200,000 queued
        // is 762‰ (silent), 230,000 is 877‰ (over the 800‰ threshold).
        let spiked_to = |peak| HealthSample {
            at_ns: 1_000,
            metrics: vec![metric(
                "ow_controller_shard_queue_records",
                &[("shard", "2")],
                0,
            )],
            peaks: vec![PeakSample {
                name: "ow_controller_shard_queue_records".into(),
                labels: vec![("shard".into(), "2".into())],
                peak,
            }],
        };
        assert!(fired(&spiked_to(200_000)).is_empty());
        let saturated = fired(&spiked_to(230_000));
        assert_eq!(saturated.len(), 1);
        assert_eq!(saturated[0].code, "OW-HEALTH-201");
        assert_eq!(saturated[0].entity, "shard:2");
        assert_eq!(saturated[0].value, 877);
        // 30 of 100 announced AFRs needing retransmission is a storm
        // (300‰).
        let lossy = fired(&HealthSample {
            at_ns: 2_000,
            metrics: vec![
                metric("ow_controller_afr_recovered_total", &[], 30),
                metric("ow_controller_afr_announced_total", &[], 100),
            ],
            peaks: vec![],
        });
        assert_eq!(lossy.len(), 1);
        assert_eq!(lossy[0].code, "OW-HEALTH-205");
        assert_eq!(lossy[0].value, 300);
        assert_eq!(lossy[0].entity, "controller");
    }

    #[test]
    fn escalation_storm_is_critical_and_freezes_the_black_box() {
        // 1 escalation per 100 sessions = 10‰: within tolerance.
        assert!(fired(&escalations(1)).is_empty());
        // 10 per 100 = 100‰: a storm — critical, so the engine's
        // recorder freezes with the rule in the reason line.
        let obs = Obs::new();
        let engine = obs.install_health(controller_health_rules(256));
        let storm = engine.tick_with_sample(escalations(10)).alerts;
        assert_eq!(storm.len(), 1);
        assert_eq!(storm[0].code, "OW-HEALTH-204");
        assert_eq!(storm[0].severity, "critical");
        assert!(engine.frozen());
        let dump = engine.flight_dump("unit").expect("critical froze the box");
        assert!(dump.freeze_reason.contains("OW-HEALTH-204"));
    }

    #[test]
    fn recovery_burn_fires_when_escalated_sessions_blow_the_deadline() {
        use ow_common::time::Duration;
        let registry = MetricsRegistry::new();
        let hist = registry.histogram("ow_controller_cr_phase_duration", &[("phase", "recovery")]);
        let burn = |at_ns| {
            fired(&HealthSample {
                at_ns,
                metrics: registry.snapshot().metrics,
                peaks: vec![],
            })
        };
        // 19 fast recoveries (~100µs) + 1 escalated one (40ms): 5% of
        // sessions past the 1ms deadline against a 5% budget — at the
        // edge, not over. Ten escalations (~34%) burn 6.9× the budget.
        for _ in 0..19 {
            hist.record(Duration::from_micros(100));
        }
        hist.record(Duration::from_millis(40));
        let edge = burn(1_000_000);
        assert!(edge.iter().all(|a| a.code != "OW-HEALTH-203"), "{edge:?}");
        for _ in 0..9 {
            hist.record(Duration::from_millis(40));
        }
        let burning = burn(2_000_000);
        assert_eq!(burning.len(), 1);
        assert_eq!(burning[0].code, "OW-HEALTH-203");
        assert!(
            burning[0].value > 1000,
            "burn {} must exceed budget",
            burning[0].value
        );
    }
}
