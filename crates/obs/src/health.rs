//! The fleet health engine: one verdict over one sample.
//!
//! Raw signals — per-shard queue gauges, recovery-latency histograms,
//! retransmit counters — say nothing by themselves; this module is the
//! interpretation layer. A declarative [`RuleSet`] of [`Rule`]s (stable
//! `OW-HEALTH-*` codes, threshold + [`Severity`]) is judged by
//! [`evaluate`] against one [`HealthSample`] (registry snapshot + gauge
//! high watermarks), with derived [`Signal`] evaluators: instantaneous
//! values, saturation and numerator/denominator ratios, and SLO burn
//! rate read straight from the log2 latency histograms. A rule
//! breaches or it does not; nothing is remembered between samples.
//! All arithmetic is integer/permille, so two same-seed runs produce
//! byte-identical verdicts.
//!
//! [`HealthEngine::tick`] captures a sample, evaluates it and publishes
//! the [`Verdict`]:
//!
//! * each fired [`AlertEvent`] joins the engine's timeline, a
//!   `health_alert` journal event and `ow_health_alerts_total`;
//! * per-entity scores (1000 = healthy, minus severity-weighted
//!   penalties for this sample's breaches) roll up to the
//!   `ow_health_fleet_score` gauge — the one number an operator watches;
//! * the first [`Severity::Critical`] alert, or a rejected `WindowFsm`
//!   transition (code [`FSM_REJECT_CODE`]), freezes a deterministic
//!   [`FlightDump`] post-mortem holding the latest verdict's lines.
//!
//! Evaluation is **order-independent**: series matched by a selector
//! are aggregated per entity into sorted maps before any comparison,
//! so shuffling registry iteration cannot change an alert decision.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use parking_lot::Mutex;
use serde::Serialize;

use ow_common::time::Instant;

use crate::flightrec::{FlightDump, FlightEntry};
use crate::journal::{Event, EventJournal};
use crate::registry::{MetricSnapshot, MetricsRegistry, PeakSample};

/// The reserved code for `WindowFsm` invariant rejections — not part of
/// any installed [`RuleSet`], emitted directly by
/// `HealthEngine::fsm_invariant_rejected`.
pub const FSM_REJECT_CODE: &str = "OW-HEALTH-001";

/// Check an alert code against the stable scheme `OW-HEALTH-<3 digits>`.
pub(crate) fn valid_code(code: &str) -> bool {
    code.len() == 13
        && code.starts_with("OW-HEALTH-")
        && code[10..].chars().all(|c| c.is_ascii_digit())
}

/// How bad a firing rule is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Notable but expected under some workloads (evictions).
    Info,
    /// Degraded; an operator should look.
    Warning,
    /// The run is compromised — freezes the flight recorder.
    Critical,
}

impl Severity {
    /// Health-score penalty of one breach at this severity.
    pub(crate) fn penalty(self) -> u64 {
        match self {
            Severity::Info => 0,
            Severity::Warning => 250,
            Severity::Critical => 600,
        }
    }

    /// Stable lowercase name (label value / JSON field).
    pub(crate) fn name(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Critical => "critical",
        }
    }
}

/// Comparison direction for a rule threshold (strict).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    /// Breach when the signal is strictly above the threshold.
    Above,
    /// Breach when the signal is strictly below the threshold.
    Below,
}

/// Selects metric series by name plus a label **subset**: a series
/// matches when its name equals `name` and it carries every `(k, v)`
/// pair in `labels` (it may carry more — that is what `group_by`
/// splits on).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricSelector {
    /// Exact metric name (`ow_<crate>_<name>`).
    pub name: String,
    /// Required label pairs (subset match).
    pub labels: Vec<(String, String)>,
}

impl MetricSelector {
    /// Selector for `name` requiring the given label pairs.
    pub fn new(name: &str, labels: &[(&str, &str)]) -> MetricSelector {
        MetricSelector {
            name: name.to_string(),
            labels: labels
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
        }
    }

    fn matches(&self, name: &str, labels: &[(String, String)]) -> bool {
        name == self.name
            && self
                .labels
                .iter()
                .all(|want| labels.iter().any(|have| have == want))
    }
}

/// A derived signal computed from the selected series of a sample. All
/// math is integer (permille where a fraction is meant) so evaluation
/// is deterministic across platforms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Signal {
    /// The summed instantaneous value of the selected series.
    Value,
    /// `numerator · 1000 / denominator` where the numerator is the
    /// rule's selector and the denominator its own selector, matched
    /// per entity. A group whose denominator is still 0 carries no
    /// signal yet and is **skipped** — never evaluated as ratio 0 — so
    /// `Cmp::Below` ratio rules stay silent until the denominator
    /// series actually moves.
    RatioPermille {
        /// The denominator series.
        denominator: MetricSelector,
    },
    /// `peak · 1000 / capacity` — how close a gauge's high watermark
    /// since it was registered (see [`crate::Gauge::peak`]) came to a
    /// fixed capacity.
    SaturationPermille {
        /// The capacity the gauge saturates at.
        capacity: u64,
    },
    /// SLO burn rate from a log2 latency histogram: the permille of
    /// recorded values whose bucket lies **entirely** above
    /// `deadline_ns` (a conservative undercount), scaled against the
    /// error budget: `burn = violated‰ · 1000 / budget‰`. A burn above
    /// 1000 means the budget is being spent faster than allowed.
    ///
    /// **Error bound.** A violating value `v > deadline` is counted iff
    /// its log2 bucket's lower bound reaches the deadline. Since a
    /// bucket `(b/2, b]` always satisfies `b < 2v`, every value
    /// `v ≥ 2·deadline` is *always* counted; only violations in the
    /// open band `(deadline, 2·deadline)` can land in the one bucket
    /// straddling the deadline and be missed. The reported burn is
    /// therefore a lower bound on the true burn, short by at most the
    /// straddling bucket's share of the count — the signal can stay
    /// silent on near-deadline misses but can never over-report, so a
    /// rule alerting `Cmp::Above` on it never false-fires.
    BurnRatePermille {
        /// The SLO deadline in virtual nanoseconds.
        deadline_ns: u64,
        /// Allowed violation fraction, in permille (the error budget).
        budget_permille: u64,
    },
}

/// One declarative health rule.
#[derive(Debug, Clone)]
pub struct Rule {
    /// Stable machine-readable code (`OW-HEALTH-NNN`).
    pub code: String,
    /// Short human-readable rule name (`retransmit_storm`).
    pub name: String,
    /// The series the rule watches.
    pub selector: MetricSelector,
    /// When set, split matched series into one entity per distinct
    /// value of this label key (series lacking the key are ignored);
    /// entity keys become `"<entity>:<label value>"`.
    pub group_by: Option<String>,
    /// The entity class the rule judges (`"switch"`, `"shard"`, …).
    pub entity: String,
    /// The derived signal to compute.
    pub signal: Signal,
    /// Comparison direction against `threshold`.
    pub cmp: Cmp,
    /// The threshold (same unit as the signal).
    pub threshold: u64,
    /// Severity when firing.
    pub severity: Severity,
}

impl Rule {
    /// A rule with defaults: entity `"fleet"`, no grouping. It fires on
    /// every breaching sample. Refine with the builder methods.
    pub fn new(
        code: &str,
        name: &str,
        selector: MetricSelector,
        signal: Signal,
        cmp: Cmp,
        threshold: u64,
        severity: Severity,
    ) -> Rule {
        Rule {
            code: code.to_string(),
            name: name.to_string(),
            selector,
            group_by: None,
            entity: "fleet".to_string(),
            signal,
            cmp,
            threshold,
            severity,
        }
    }

    /// Set the entity class.
    pub fn entity(mut self, entity: &str) -> Rule {
        self.entity = entity.to_string();
        self
    }

    /// Split matched series into per-entity instances by label key.
    pub fn group_by(mut self, label: &str) -> Rule {
        self.group_by = Some(label.to_string());
        self
    }
}

/// A validated, immutable collection of rules.
#[derive(Debug, Clone, Default)]
pub struct RuleSet {
    rules: Vec<Rule>,
}

impl RuleSet {
    /// Validate and freeze a rule list: every code must match
    /// `OW-HEALTH-NNN`, be unique, and not collide with the reserved
    /// [`FSM_REJECT_CODE`]; burn budgets must lie in 1..=1000‰.
    pub fn new(rules: Vec<Rule>) -> Result<RuleSet, String> {
        let mut seen: Vec<&str> = Vec::new();
        for r in &rules {
            if !valid_code(&r.code) {
                return Err(format!("rule '{}' has malformed code '{}'", r.name, r.code));
            }
            if r.code == FSM_REJECT_CODE {
                return Err(format!(
                    "code {FSM_REJECT_CODE} is reserved for FSM invariant rejections"
                ));
            }
            if seen.contains(&r.code.as_str()) {
                return Err(format!("duplicate rule code '{}'", r.code));
            }
            seen.push(&r.code);
            if let Signal::BurnRatePermille {
                budget_permille, ..
            } = r.signal
            {
                if budget_permille == 0 || budget_permille > 1000 {
                    return Err(format!(
                        "rule '{}' burn budget {budget_permille}‰ outside 1..=1000",
                        r.code
                    ));
                }
            }
        }
        Ok(RuleSet { rules })
    }

    /// Concatenate rule sets (controller + switch + fleet catalogs),
    /// revalidating cross-set code uniqueness.
    pub fn merged(sets: Vec<RuleSet>) -> Result<RuleSet, String> {
        RuleSet::new(sets.into_iter().flat_map(|s| s.rules).collect())
    }

    /// The same set minus the named codes. Used to drop rules whose
    /// inputs are scheduling-dependent (e.g. queue high-watermarks
    /// under threaded workers) before a byte-identity gate on the
    /// flight-recorder dump.
    pub fn without(mut self, codes: &[&str]) -> RuleSet {
        self.rules.retain(|r| !codes.contains(&r.code.as_str()));
        self
    }

    /// The rules, in installation order.
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }
}

/// What [`evaluate`] judges: a point-in-time metric sample plus every
/// gauge's high watermark. Normally captured from the registry by
/// [`HealthEngine::tick`]; tests build synthetic samples directly.
#[derive(Debug, Clone)]
pub struct HealthSample {
    /// Virtual-clock instant of the sample.
    pub at_ns: u64,
    /// Every metric (any order — evaluation is order-independent).
    pub metrics: Vec<MetricSnapshot>,
    /// Gauge high watermarks since each gauge was registered.
    pub peaks: Vec<PeakSample>,
}

impl HealthSample {
    /// Capture the live registry at `now`.
    pub(crate) fn capture(registry: &MetricsRegistry, now: Instant) -> HealthSample {
        HealthSample {
            at_ns: now.as_nanos(),
            metrics: registry.snapshot().metrics,
            peaks: registry.gauge_peaks(),
        }
    }
}

/// One fired alert: a rule breaching for an entity in one sample, or a
/// rejected `WindowFsm` transition.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct AlertEvent {
    /// Virtual-clock instant of the evaluating sample.
    pub at_ns: u64,
    /// The stable rule code.
    pub code: String,
    /// The rule name.
    pub rule: String,
    /// The entity key (`"shard:3"`, `"controller"`, …).
    pub entity: String,
    /// `"info"` / `"warning"` / `"critical"`.
    pub severity: String,
    /// The signal value that breached.
    pub value: u64,
    /// The rule threshold.
    pub threshold: u64,
}

/// What [`evaluate`] says about one sample.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Verdict {
    /// Virtual-clock instant of the sample.
    pub at_ns: u64,
    /// Every breaching (rule, entity), in rule order, then entity order.
    pub alerts: Vec<AlertEvent>,
    /// 1000 minus the penalties of the entity's breaches, for every
    /// entity some rule evaluated, sorted by entity key.
    pub entity_scores: BTreeMap<String, u64>,
    /// The worst entity score (1000 when no rule evaluated anything).
    pub fleet_score: u64,
    /// One `signal` line per evaluated (rule, entity), then a `tick`
    /// summary line: what the black box keeps of this sample.
    pub lines: Vec<FlightEntry>,
}

/// Aggregated inputs of one entity under one rule.
#[derive(Debug, Clone, Default)]
struct GroupAgg {
    value: u64,
    peak: u64,
    denom: u64,
    hist_count: u64,
    hist_buckets: BTreeMap<u64, u64>,
}

/// Judge one sample: every rule, per entity, breaches or it does not.
/// A ratio whose denominator is 0 carries no signal yet and is
/// skipped, never read as ratio 0.
pub fn evaluate(rules: &RuleSet, sample: &HealthSample) -> Verdict {
    let at_ns = sample.at_ns;
    let mut alerts = Vec::new();
    let mut penalties: BTreeMap<String, u64> = BTreeMap::new();
    let mut lines = Vec::new();
    for rule in rules.rules() {
        for (entity, agg) in aggregate(rule, sample) {
            if matches!(rule.signal, Signal::RatioPermille { .. }) && agg.denom == 0 {
                continue;
            }
            let value = eval_signal(&rule.signal, &agg);
            lines.push(FlightEntry {
                at_ns,
                kind: "signal".into(),
                detail: format!(
                    "{} {} value={value} threshold={}",
                    rule.code, entity, rule.threshold
                ),
            });
            let penalty = penalties.entry(entity.clone()).or_insert(0);
            let breach = match rule.cmp {
                Cmp::Above => value > rule.threshold,
                Cmp::Below => value < rule.threshold,
            };
            if breach {
                *penalty += rule.severity.penalty();
                alerts.push(AlertEvent {
                    at_ns,
                    code: rule.code.clone(),
                    rule: rule.name.clone(),
                    entity,
                    severity: rule.severity.name().to_string(),
                    value,
                    threshold: rule.threshold,
                });
            }
        }
    }
    let entity_scores: BTreeMap<String, u64> = penalties
        .into_iter()
        .map(|(e, p)| (e, 1000u64.saturating_sub(p)))
        .collect();
    let fleet_score = entity_scores.values().copied().min().unwrap_or(1000);
    lines.push(FlightEntry {
        at_ns,
        kind: "tick".into(),
        detail: format!("fleet_score={fleet_score} active_alerts={}", alerts.len()),
    });
    Verdict {
        at_ns,
        alerts,
        entity_scores,
        fleet_score,
        lines,
    }
}

#[derive(Debug, Default)]
struct EngineInner {
    /// Every alert fired so far, by ticks and FSM rejections, in order.
    timeline: Vec<AlertEvent>,
    /// The latest tick's verdict; the next tick replaces it.
    latest: Option<Verdict>,
    /// The post-mortem of the first freeze; later freezes are ignored so
    /// the dump shows the *initial* failure, not the last symptom.
    dump: Option<FlightDump>,
}

/// The health engine: [`evaluate`] on a captured sample, with the
/// verdict published. Install on an [`crate::Obs`] via
/// [`crate::Obs::install_health`]; drive with [`HealthEngine::tick`].
pub struct HealthEngine {
    rules: RuleSet,
    registry: Arc<MetricsRegistry>,
    journal: Arc<EventJournal>,
    inner: Mutex<EngineInner>,
}

impl fmt::Debug for HealthEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HealthEngine")
            .field("rules", &self.rules.rules().len())
            .finish()
    }
}

impl HealthEngine {
    /// Build an engine over the given observability parts, with the
    /// engine's own metrics pre-registered: `ow_health_alerts_total`
    /// per severity and the `ow_health_fleet_score` gauge (initialized
    /// to a healthy 1000).
    pub(crate) fn new(
        rules: RuleSet,
        registry: Arc<MetricsRegistry>,
        journal: Arc<EventJournal>,
    ) -> HealthEngine {
        for severity in [Severity::Info, Severity::Warning, Severity::Critical] {
            registry.counter("ow_health_alerts_total", &[("severity", severity.name())]);
        }
        registry.gauge("ow_health_fleet_score", &[]).set(1000);
        HealthEngine {
            rules,
            registry,
            journal,
            inner: Mutex::new(EngineInner::default()),
        }
    }

    /// Sample the live registry at `now` and judge it.
    pub fn tick(&self, now: Instant) -> Verdict {
        self.tick_with_sample(HealthSample::capture(&self.registry, now))
    }

    /// Judge an explicit sample (`tick` is capture + this): publish the
    /// verdict's alerts and scores, keep it as the latest, and freeze
    /// the black box on its first critical alert.
    pub fn tick_with_sample(&self, sample: HealthSample) -> Verdict {
        let mut inner = self.inner.lock();
        let verdict = evaluate(&self.rules, &sample);
        for a in &verdict.alerts {
            let message = format!(
                "{} {} fired for {}: value {} vs threshold {} ({})",
                a.code, a.rule, a.entity, a.value, a.threshold, a.severity
            );
            let event = Event::new("health_alert", message).warn();
            self.raise(&mut inner, a.clone(), event.at(Instant(a.at_ns)));
        }
        self.registry
            .gauge("ow_health_fleet_score", &[])
            .set(verdict.fleet_score);
        for (entity, score) in &verdict.entity_scores {
            self.registry
                .gauge("ow_health_entity_score", &[("entity", entity)])
                .set(*score);
        }
        let critical = (verdict.alerts.iter()).find(|a| a.severity == Severity::Critical.name());
        let reason = critical.map(|a| {
            format!(
                "{} {} fired at severity critical for {}",
                a.code, a.rule, a.entity
            )
        });
        inner.latest = Some(verdict.clone());
        if let Some(reason) = reason {
            self.freeze(&mut inner, reason, sample.metrics);
        }
        verdict
    }

    /// Count `alert`, journal `event` and append the alert to the
    /// timeline.
    fn raise(&self, inner: &mut EngineInner, alert: AlertEvent, event: Event) {
        self.registry
            .counter("ow_health_alerts_total", &[("severity", &alert.severity)])
            .inc();
        self.journal.record(event);
        inner.timeline.push(alert);
    }

    /// Report a rejected `WindowFsm` transition: appends a critical
    /// [`FSM_REJECT_CODE`] record to the timeline, counts it, and
    /// freezes the flight recorder with the latest verdict's lines.
    /// Called from the engine-transition sink, so any invariant
    /// rejection anywhere in the system becomes a post-mortem.
    pub(crate) fn fsm_invariant_rejected(&self, side: &str, subwindow: u32, detail: &str) {
        let mut inner = self.inner.lock();
        let alert = AlertEvent {
            at_ns: inner.latest.as_ref().map_or(0, |v| v.at_ns),
            code: FSM_REJECT_CODE.to_string(),
            rule: "fsm_invariant_rejected".into(),
            entity: format!("{side}:{subwindow}"),
            severity: Severity::Critical.name().to_string(),
            value: 1,
            threshold: 0,
        };
        let message = format!(
            "{FSM_REJECT_CODE} fsm_invariant_rejected fired for {side}:{subwindow}: {detail}"
        );
        let event = Event::new("health_alert", message).warn();
        self.raise(&mut inner, alert, event.subwindow(subwindow));
        let reason =
            format!("{FSM_REJECT_CODE} WindowFsm invariant rejected on {side} sub-window {subwindow}: {detail}");
        self.freeze(&mut inner, reason, self.registry.snapshot().metrics);
    }

    /// Build the post-mortem from the latest verdict, unless an earlier
    /// freeze did. A tick's freeze passes the evaluating sample's
    /// `metrics`, so the dump shows exactly the metrics the decision
    /// was made on; FSM rejections pass a fresh snapshot.
    fn freeze(&self, inner: &mut EngineInner, reason: String, metrics: Vec<MetricSnapshot>) {
        if inner.dump.is_some() {
            return;
        }
        let (at_ns, lines) =
            (inner.latest.as_ref()).map_or((0, &[][..]), |v| (v.at_ns, &v.lines[..]));
        inner.dump = Some(FlightDump::capture(
            reason,
            at_ns,
            lines,
            &self.journal,
            metrics,
            inner.timeline.clone(),
        ));
    }

    /// Every alert fired so far.
    pub fn timeline(&self) -> Vec<AlertEvent> {
        self.inner.lock().timeline.clone()
    }

    /// Whether the flight recorder froze.
    pub fn frozen(&self) -> bool {
        self.inner.lock().dump.is_some()
    }

    /// The frozen post-mortem, when a freeze happened.
    pub fn flight_dump(&self, run: &str) -> Option<FlightDump> {
        let dump = self.inner.lock().dump.clone()?;
        Some(FlightDump {
            run: run.to_string(),
            ..dump
        })
    }

    /// A serializable summary: the latest verdict's scores and every
    /// alert so far (for `results/health_*.json` artifacts).
    pub fn report(&self, run: &str) -> HealthReport {
        let inner = self.inner.lock();
        let (fleet_score, entity_scores) = (inner.latest.as_ref())
            .map_or((1000, BTreeMap::new()), |v| {
                (v.fleet_score, v.entity_scores.clone())
            });
        HealthReport {
            run: run.to_string(),
            fleet_score,
            entity_scores,
            frozen: inner.dump.is_some(),
            timeline: inner.timeline.clone(),
        }
    }
}

/// The on-disk health summary (`results/health_*.json`).
#[derive(Debug, Clone, Serialize)]
pub struct HealthReport {
    /// Name of the run.
    pub run: String,
    /// The latest fleet score (worst entity; 1000 = healthy).
    pub fleet_score: u64,
    /// The latest per-entity scores, sorted by entity key.
    pub entity_scores: BTreeMap<String, u64>,
    /// Whether the flight recorder froze during the run.
    pub frozen: bool,
    /// Every alert fired during the run.
    pub timeline: Vec<AlertEvent>,
}

fn entity_key(rule: &Rule, labels: &[(String, String)]) -> Option<String> {
    match &rule.group_by {
        None => Some(rule.entity.clone()),
        Some(key) => labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| format!("{}:{}", rule.entity, v)),
    }
}

/// Aggregate the sample's series into per-entity inputs for one rule.
/// BTreeMap keying makes the result independent of sample order.
fn aggregate(rule: &Rule, sample: &HealthSample) -> BTreeMap<String, GroupAgg> {
    let mut groups: BTreeMap<String, GroupAgg> = BTreeMap::new();
    for m in &sample.metrics {
        if !rule.selector.matches(&m.name, &m.labels) {
            continue;
        }
        let Some(key) = entity_key(rule, &m.labels) else {
            continue;
        };
        let g = groups.entry(key).or_default();
        g.value += m.value;
        if let Some(h) = &m.histogram {
            g.hist_count += h.count;
            for (bound, count) in &h.buckets {
                *g.hist_buckets.entry(*bound).or_insert(0) += count;
            }
        }
    }
    for p in &sample.peaks {
        if !rule.selector.matches(&p.name, &p.labels) {
            continue;
        }
        let Some(key) = entity_key(rule, &p.labels) else {
            continue;
        };
        groups.entry(key).or_default().peak += p.peak;
    }
    if let Signal::RatioPermille { denominator } = &rule.signal {
        for m in &sample.metrics {
            if !denominator.matches(&m.name, &m.labels) {
                continue;
            }
            let Some(key) = entity_key(rule, &m.labels) else {
                continue;
            };
            groups.entry(key).or_default().denom += m.value;
        }
    }
    groups
}

fn eval_signal(signal: &Signal, agg: &GroupAgg) -> u64 {
    match signal {
        Signal::Value => agg.value,
        Signal::RatioPermille { .. } => agg
            .value
            .saturating_mul(1000)
            .checked_div(agg.denom)
            .unwrap_or(0),
        Signal::SaturationPermille { capacity } => {
            agg.peak.saturating_mul(1000) / (*capacity).max(1)
        }
        Signal::BurnRatePermille {
            deadline_ns,
            budget_permille,
        } => {
            if agg.hist_count == 0 {
                return 0;
            }
            // A log2 bucket with upper bound b holds values in
            // (b/2, b]; every value in it certainly violates the
            // deadline when its *lower* bound is at or past it.
            let violated: u64 = agg
                .hist_buckets
                .iter()
                .filter(|(bound, _)| **bound > 1 && **bound / 2 >= *deadline_ns)
                .map(|(_, count)| *count)
                .sum();
            let violated_permille = violated.saturating_mul(1000) / agg.hist_count;
            violated_permille.saturating_mul(1000) / budget_permille
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Obs;

    fn metric(name: &str, labels: &[(&str, &str)], kind: &str, value: u64) -> MetricSnapshot {
        MetricSnapshot {
            name: name.into(),
            labels: labels
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            kind: kind.into(),
            value,
            histogram: None,
        }
    }

    fn engine_with(rules: Vec<Rule>) -> (Obs, Arc<HealthEngine>) {
        let obs = Obs::new();
        let engine = obs.install_health(RuleSet::new(rules).expect("rules validate"));
        (obs, engine)
    }

    fn sample(at_ns: u64, metrics: Vec<MetricSnapshot>) -> HealthSample {
        HealthSample {
            at_ns,
            metrics,
            peaks: vec![],
        }
    }

    #[test]
    fn code_scheme_is_enforced() {
        assert!(valid_code("OW-HEALTH-204"));
        assert!(!valid_code("OW-HEALTH-20"));
        assert!(!valid_code("OW-HEALTH-20x"));
        assert!(!valid_code("ow-health-204"));
        let bad = Rule::new(
            "HEALTH-1",
            "x",
            MetricSelector::new("ow_test_total", &[]),
            Signal::Value,
            Cmp::Above,
            0,
            Severity::Info,
        );
        assert!(RuleSet::new(vec![bad]).is_err());
        let reserved = Rule::new(
            FSM_REJECT_CODE,
            "x",
            MetricSelector::new("ow_test_total", &[]),
            Signal::Value,
            Cmp::Above,
            0,
            Severity::Info,
        );
        assert!(RuleSet::new(vec![reserved]).is_err());
    }

    #[test]
    fn a_breach_fires_on_every_sample_that_holds_it() {
        let rule = Rule::new(
            "OW-HEALTH-900",
            "unit_pending",
            MetricSelector::new("ow_test_pending", &[]),
            Signal::Value,
            Cmp::Above,
            10,
            Severity::Warning,
        );
        let rules = RuleSet::new(vec![rule.entity("unit")]).expect("rules validate");
        let pending =
            |at_ns, value| sample(at_ns, vec![metric("ow_test_pending", &[], "gauge", value)]);
        // A healthy sample is silent and scores 1000…
        let healthy = evaluate(&rules, &pending(100, 5));
        assert!(healthy.alerts.is_empty());
        assert_eq!(healthy.entity_scores["unit"], 1000);
        // …each breaching sample fires on its own…
        for (at_ns, value) in [(200, 60), (300, 70)] {
            let breach = evaluate(&rules, &pending(at_ns, value));
            assert_eq!(breach.alerts.len(), 1);
            let alert = &breach.alerts[0];
            assert_eq!(
                (alert.code.as_str(), alert.entity.as_str()),
                ("OW-HEALTH-900", "unit")
            );
            assert_eq!((alert.at_ns, alert.value), (at_ns, value));
            assert_eq!(breach.fleet_score, 750);
        }
        // …and a verdict reads its own sample only.
        assert_eq!(evaluate(&rules, &pending(100, 5)), healthy);

        // The engine publishes each verdict: two breaching ticks fire
        // twice, and the report carries the latest verdict's scores.
        let obs = Obs::new();
        let engine = obs.install_health(rules);
        for (at_ns, value) in [(200, 60), (300, 70), (400, 5)] {
            engine.tick_with_sample(pending(at_ns, value));
        }
        assert!(!engine.frozen(), "warning severity never freezes");
        let report = engine.report("unit");
        assert_eq!(report.timeline.len(), 2);
        assert_eq!(report.fleet_score, 1000);
        let warnings = [("severity", "warning")];
        assert_eq!(obs.snapshot().value("ow_health_alerts_total", &warnings), 2);
    }

    #[test]
    fn group_by_splits_entities_and_scores_them() {
        let (obs, engine) = engine_with(vec![Rule::new(
            "OW-HEALTH-901",
            "unit_shard_depth",
            MetricSelector::new("ow_test_depth", &[]),
            Signal::Value,
            Cmp::Above,
            10,
            Severity::Warning,
        )
        .group_by("shard")
        .entity("shard")]);
        let fired = engine.tick_with_sample(sample(
            100,
            vec![
                metric("ow_test_depth", &[("shard", "0")], "gauge", 3),
                metric("ow_test_depth", &[("shard", "1")], "gauge", 99),
            ],
        ));
        assert_eq!(fired.alerts.len(), 1);
        assert_eq!(fired.alerts[0].entity, "shard:1");
        let report = engine.report("unit");
        assert_eq!(report.entity_scores["shard:0"], 1000);
        assert_eq!(report.entity_scores["shard:1"], 750);
        assert_eq!(report.fleet_score, 750, "fleet is the worst entity");
        assert_eq!(
            obs.snapshot().value("ow_health_fleet_score", &[]),
            750,
            "fleet score is exported as a gauge"
        );
        assert_eq!(
            obs.snapshot()
                .value("ow_health_entity_score", &[("entity", "shard:1")]),
            750
        );
    }

    #[test]
    fn ratio_and_saturation_signals() {
        let ratio = Signal::RatioPermille {
            denominator: MetricSelector::new("ow_test_d", &[]),
        };
        let mut agg = GroupAgg {
            value: 30,
            denom: 200,
            ..GroupAgg::default()
        };
        assert_eq!(eval_signal(&ratio, &agg), 150);
        agg.denom = 0;
        assert_eq!(
            eval_signal(&ratio, &agg),
            0,
            "zero denominator reads 0, not a panic"
        );
        // Saturation of a peak against a fixed capacity.
        agg.peak = 75;
        assert_eq!(
            eval_signal(&Signal::SaturationPermille { capacity: 100 }, &agg),
            750
        );
    }

    #[test]
    fn burn_rate_reads_histogram_buckets_conservatively() {
        // 90 values in bucket 1024 (lower bound 512), 10 in bucket
        // 2^21 (lower bound 2^20 ≥ 1ms deadline → violations).
        let mut agg = GroupAgg {
            hist_count: 100,
            ..GroupAgg::default()
        };
        agg.hist_buckets.insert(1024, 90);
        agg.hist_buckets.insert(1 << 21, 10);
        let signal = Signal::BurnRatePermille {
            deadline_ns: 1_000_000,
            budget_permille: 50,
        };
        // 10% violations against a 5% budget = burn 2000‰ (2× budget).
        assert_eq!(eval_signal(&signal, &agg), 2000);
        // Bucket straddling the deadline (lower bound below it) does
        // not count — conservative undercount, no false positives.
        let mut low = GroupAgg {
            hist_count: 100,
            ..GroupAgg::default()
        };
        low.hist_buckets.insert(1 << 20, 100); // (2^19, 2^20] straddles 1e6
        assert_eq!(eval_signal(&signal, &low), 0);
        let empty = GroupAgg::default();
        assert_eq!(eval_signal(&signal, &empty), 0);
    }

    #[test]
    fn below_ratio_rules_skip_groups_with_a_zero_denominator() {
        let rule = Rule::new(
            "OW-HEALTH-902",
            "unit_drift",
            MetricSelector::new("ow_test_num", &[]),
            Signal::RatioPermille {
                denominator: MetricSelector::new("ow_test_den", &[]),
            },
            Cmp::Below,
            900,
            Severity::Warning,
        );
        let rules = RuleSet::new(vec![rule.entity("unit")]).expect("rules validate");
        let ratio = |num, den| {
            let num = metric("ow_test_num", &[], "counter", num);
            evaluate(
                &rules,
                &sample(100, vec![num, metric("ow_test_den", &[], "counter", den)]),
            )
        };

        // Both series exist but the denominator is still 0: no signal
        // yet, so the `Below` rule must not read 0/0 as ratio 0.
        let unmoved = ratio(0, 0);
        assert!(
            unmoved.alerts.is_empty(),
            "zero denominator fired: {unmoved:?}"
        );
        assert!(
            unmoved.entity_scores.is_empty(),
            "a skipped group is not scored"
        );
        assert!(unmoved.lines.iter().all(|l| l.kind != "signal"));
        // Once the denominator moves, a genuine drift fires.
        let drift = ratio(10, 100);
        assert_eq!(drift.alerts.len(), 1);
        assert_eq!(drift.alerts[0].value, 100);
    }

    #[test]
    fn burn_rate_undercount_is_bounded_by_twice_the_deadline() {
        // Deadline 1500 sits inside bucket 2048 = (1024, 2048].
        // Violations in (1500, 2·1500) can hide in that straddling
        // bucket; any value ≥ 2·deadline = 3000 lands in a bucket whose
        // lower bound ≥ 2048 ≥ 1500 and is always counted.
        let signal = Signal::BurnRatePermille {
            deadline_ns: 1500,
            budget_permille: 500,
        };
        let mut agg = GroupAgg {
            hist_count: 10,
            ..GroupAgg::default()
        };
        agg.hist_buckets.insert(2048, 5); // true violations ~2000, missed
        agg.hist_buckets.insert(4096, 5); // ≥ 2·deadline, counted
                                          // True violated share is 1000‰ (all ten); measured is 500‰ —
                                          // the undercount is exactly the straddling bucket's share.
        assert_eq!(eval_signal(&signal, &agg), 1000);
        // Move the hidden half past 2× the deadline: nothing can hide.
        let mut all_past = GroupAgg {
            hist_count: 10,
            ..GroupAgg::default()
        };
        all_past.hist_buckets.insert(4096, 10);
        assert_eq!(eval_signal(&signal, &all_past), 2000);
        // And with every violation inside the straddling band the
        // signal reads zero — silent, never over-reporting.
        let mut all_hidden = GroupAgg {
            hist_count: 10,
            ..GroupAgg::default()
        };
        all_hidden.hist_buckets.insert(2048, 10);
        assert_eq!(eval_signal(&signal, &all_hidden), 0);
    }

    #[test]
    fn critical_fire_freezes_the_flight_recorder_once() {
        let (_obs, engine) = engine_with(vec![Rule::new(
            "OW-HEALTH-902",
            "unit_wedged",
            MetricSelector::new("ow_test_wedged", &[]),
            Signal::Value,
            Cmp::Above,
            0,
            Severity::Critical,
        )]);
        engine.tick_with_sample(sample(100, vec![metric("ow_test_wedged", &[], "gauge", 0)]));
        assert!(!engine.frozen());
        let fired =
            engine.tick_with_sample(sample(200, vec![metric("ow_test_wedged", &[], "gauge", 3)]));
        assert_eq!(fired.alerts.len(), 1);
        assert!(engine.frozen());
        let dump = engine.flight_dump("unit").expect("frozen dump");
        assert!(dump.freeze_reason.contains("OW-HEALTH-902"));
        assert_eq!(dump.frozen_at_ns, 200);
        assert_eq!(dump.timeline.len(), 1);
        assert!(
            dump.entries.iter().any(|e| e.kind == "tick"),
            "the dump holds the tick summary"
        );
        assert!(
            dump.entries.iter().any(|e| e.kind == "signal"),
            "the dump holds the signal readings"
        );
        dump.check().expect("dump validates");
    }

    #[test]
    fn events_recorded_while_ticks_pull_reach_the_dump_exactly_once() {
        use std::sync::atomic::{AtomicBool, Ordering};
        // Fewer events than the journal ring and the recorder hold, so
        // every one of them must survive to the dump.
        const EVENTS: usize = 2_000;
        const MAX_TICKS: u64 = 4_000;
        let (obs, engine) = engine_with(vec![]);
        let done = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                for i in 0..EVENTS {
                    obs.journal()
                        .record(Event::new("race", format!("race-{i:05}")));
                }
                done.store(true, Ordering::SeqCst);
            });
            let mut at_ns = 0;
            while !done.load(Ordering::SeqCst) && at_ns < MAX_TICKS {
                at_ns += 1;
                engine.tick_with_sample(sample(at_ns, vec![]));
            }
        });
        engine.fsm_invariant_rejected("controller", 0, "freeze for the test");
        let dump = engine.flight_dump("unit").expect("frozen");
        let mut pulled: Vec<&str> = (dump.entries.iter())
            .filter_map(|e| e.detail.strip_prefix("info race: "))
            .collect();
        pulled.sort_unstable();
        let recorded: Vec<String> = (0..EVENTS).map(|i| format!("race-{i:05}")).collect();
        assert_eq!(pulled, recorded, "every recorded event is in the dump once");
    }

    #[test]
    fn fsm_rejection_freezes_via_engine_sink() {
        use ow_common::engine::{WindowEngine, WindowEvent};
        let obs = Obs::new();
        let engine = obs.install_health(RuleSet::default());
        let mut fsm_engine = WindowEngine::new();
        fsm_engine.set_sink(obs.engine_sink());
        fsm_engine.open(3);
        fsm_engine.apply(3, WindowEvent::SignalFired).unwrap();
        assert!(!engine.frozen());
        // Acknowledging a window that was never collected is an
        // invariant rejection — the black box freezes with the reserved
        // code.
        assert!(fsm_engine.apply(3, WindowEvent::Acked).is_err());
        assert!(engine.frozen());
        let dump = engine.flight_dump("unit").expect("frozen");
        assert!(
            dump.freeze_reason.contains(FSM_REJECT_CODE),
            "{}",
            dump.freeze_reason
        );
        assert_eq!(dump.timeline.len(), 1);
        assert_eq!(dump.timeline[0].entity, "switch:3");
        assert!(
            dump.entries
                .iter()
                .any(|e| e.detail.contains("rejected event")),
            "the rejected transition itself is in the ring"
        );
    }

    #[test]
    fn evaluation_is_order_independent() {
        let metrics = [
            metric("ow_test_num", &[("shard", "0")], "counter", 40),
            metric("ow_test_num", &[("shard", "1")], "counter", 5),
            metric("ow_test_den", &[("shard", "0")], "counter", 100),
            metric("ow_test_den", &[("shard", "1")], "counter", 100),
        ];
        let rule = Rule::new(
            "OW-HEALTH-903",
            "unit_ratio",
            MetricSelector::new("ow_test_num", &[]),
            Signal::RatioPermille {
                denominator: MetricSelector::new("ow_test_den", &[]),
            },
            Cmp::Above,
            200,
            Severity::Warning,
        )
        .group_by("shard")
        .entity("shard");

        let rules = RuleSet::new(vec![rule]).expect("rules validate");
        let verdicts: Vec<Verdict> = [[0usize, 1, 2, 3], [3, 2, 1, 0], [1, 3, 0, 2]]
            .iter()
            .map(|order| {
                let shuffled = order.iter().map(|i| metrics[*i].clone()).collect();
                evaluate(&rules, &sample(100, shuffled))
            })
            .collect();
        assert_eq!(verdicts[0], verdicts[1]);
        assert_eq!(verdicts[0], verdicts[2]);
        assert_eq!(verdicts[0].alerts.len(), 1);
        assert_eq!(verdicts[0].alerts[0].entity, "shard:0");
    }
}
