//! `ow-obs` — observability for the OmniWindow reproduction.
//!
//! Everything is recorded on the repo's *virtual* clock, so a run's
//! record is deterministic and testable:
//!
//! * [`MetricsRegistry`] ([`registry`]) — named counters, gauges, and
//!   fixed-bucket log2 histograms with percentile readout. Handles are
//!   atomics shared out of the registry, so hot paths never touch the
//!   registry lock. Names follow `ow_<crate>_<name>`.
//! * [`EventJournal`] ([`journal`]) — typed lifecycle events in a
//!   bounded ring, each tagged with its sub-window and phase where it
//!   has one, with an optional console sink. It is the one causal
//!   record of a window's life: the switch's FSM steps and `cr_session`,
//!   the controller's `session_complete` or `switch_departed`, and any
//!   `os_read` escalation.
//! * [`ObsReport`] ([`export`]) — the `results/obs_*.json` snapshot.
//!   It and [`FlightDump`] each `render()` to text from their typed
//!   fields, and `write(path)` puts that text beside the JSON as
//!   `<stem>.txt`.
//! * [`HealthEngine`] ([`health`]) — the interpretation layer:
//!   [`evaluate`] judges one sample against declarative `OW-HEALTH-*`
//!   rules over derived signals (ratios, saturation, SLO burn rate)
//!   and scores each entity, rolled up to `ow_health_fleet_score`;
//!   the engine publishes that [`Verdict`] and keeps a black box that
//!   freezes a deterministic [`FlightDump`] ([`flightrec`]) — the
//!   latest verdict's readings, the journal, the registry and the
//!   alerts — as `results/flightrec_*.json` on critical alerts or FSM
//!   invariant rejections.
//! * [`AccuracyScorer`] ([`accuracy`]) — the live query-accuracy
//!   observatory: a streaming ground-truth oracle fed per sub-window
//!   by the feeder, scored synchronously against each window's merged
//!   answer at its `Merged` transition, published as `ow_accuracy_*`
//!   permille gauges and closed through the health engine by the
//!   `OW-HEALTH-4xx` catalog ([`accuracy_health_rules`]).
//!
//! [`Obs`] bundles one registry and one journal, plus the optional
//! health engine and accuracy scorer, into a cheap-clone handle that
//! threads through the switch, controller, and fleet.
//! [`Obs::engine_sink`] adapts the handle onto
//! [`ow_common::engine::TransitionSink`] so every transition of the
//! switch's `WindowEngine` — including a rejected one — lands in the
//! registry and the journal.

pub mod accuracy;
pub mod export;
pub mod flightrec;
pub mod health;
pub mod journal;
pub mod registry;
mod render;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use ow_common::engine::{Transition, TransitionSink, WindowPhase};
use ow_common::metrics::ReliabilityMetrics;

pub use accuracy::{
    accuracy_health_rules, AccuracyScorer, AccuracySummary, WindowScore, WindowScoreBrief,
    ACCURACY_THRESHOLD,
};
pub use export::ObsReport;
pub use flightrec::{FlightDump, FlightEntry};
pub use health::{
    evaluate, AlertEvent, Cmp, HealthEngine, HealthReport, HealthSample, MetricSelector, Rule,
    RuleSet, Severity, Signal, Verdict, FSM_REJECT_CODE,
};
pub use journal::{Event, EventJournal, Level};
pub use registry::{
    Counter, Gauge, Histogram, HistogramSnapshot, MetricSnapshot, MetricsRegistry, PeakSample,
    RegistrySnapshot,
};

/// The combined observability handle: one metrics registry, one event
/// journal, and the slots for an installed health engine and accuracy
/// scorer. Cheap to clone (four `Arc`s); every clone observes the same
/// run.
#[derive(Debug, Clone)]
pub struct Obs {
    registry: Arc<MetricsRegistry>,
    journal: Arc<EventJournal>,
    health: Arc<RwLock<Option<Arc<HealthEngine>>>>,
    accuracy: Arc<RwLock<Option<Arc<AccuracyScorer>>>>,
}

impl Default for Obs {
    fn default() -> Obs {
        Obs::new()
    }
}

impl Obs {
    /// A fresh registry + journal pair, with the crate's own
    /// health metric pre-registered: `ow_obs_journal_dropped_total`
    /// (events the bounded journal ring discarded).
    pub fn new() -> Obs {
        Obs::with_journal_capacity(journal::DEFAULT_CAPACITY)
    }

    /// Like [`Obs::new`] with an explicit journal ring capacity
    /// (tests overfill a tiny ring to exercise the drop counter).
    pub fn with_journal_capacity(capacity: usize) -> Obs {
        let registry = Arc::new(MetricsRegistry::new());
        let journal = Arc::new(EventJournal::with_capacity(capacity));
        journal.set_drop_counter(registry.counter("ow_obs_journal_dropped_total", &[]));
        Obs {
            registry,
            journal,
            health: Arc::new(RwLock::new(None)),
            accuracy: Arc::new(RwLock::new(None)),
        }
    }

    /// Install a [`HealthEngine`] over this handle's registry and
    /// journal. Every clone of the handle sees the engine (the
    /// engine-transition sink uses it to freeze the flight recorder on
    /// FSM invariant rejections). Installing again replaces the
    /// previous engine.
    pub fn install_health(&self, rules: RuleSet) -> Arc<HealthEngine> {
        let engine = Arc::new(HealthEngine::new(
            rules,
            Arc::clone(&self.registry),
            Arc::clone(&self.journal),
        ));
        *self.health.write() = Some(Arc::clone(&engine));
        engine
    }

    /// The installed health engine, if any.
    pub fn health(&self) -> Option<Arc<HealthEngine>> {
        self.health.read().clone()
    }

    /// Install an [`AccuracyScorer`] over this handle's registry and
    /// journal. Every clone of the handle sees the scorer: the feeder
    /// streams ground truth into it and the controller scores each
    /// window at its `Merged` transition. Installing again replaces the
    /// previous scorer (and starts a fresh oracle).
    pub fn install_accuracy(&self) -> Arc<AccuracyScorer> {
        let scorer = AccuracyScorer::new(Arc::clone(&self.registry), Arc::clone(&self.journal));
        *self.accuracy.write() = Some(Arc::clone(&scorer));
        scorer
    }

    /// The installed accuracy scorer, if any.
    pub fn accuracy(&self) -> Option<Arc<AccuracyScorer>> {
        self.accuracy.read().clone()
    }

    /// The event journal.
    pub fn journal(&self) -> &Arc<EventJournal> {
        &self.journal
    }

    /// Register (or look up) a counter. See [`MetricsRegistry::counter`].
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        self.registry.counter(name, labels)
    }

    /// Register (or look up) a gauge. See `MetricsRegistry::gauge`.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        self.registry.gauge(name, labels)
    }

    /// Register (or look up) a histogram. See
    /// [`MetricsRegistry::histogram`].
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Histogram {
        self.registry.histogram(name, labels)
    }

    /// Record one journal event.
    pub fn event(&self, event: Event) {
        self.journal.record(event);
    }

    /// A deterministic snapshot of the registry.
    pub fn snapshot(&self) -> RegistrySnapshot {
        self.registry.snapshot()
    }

    /// Capture a full on-disk report (registry + journal tail in
    /// canonical order, so same-seed runs write the same bytes).
    pub fn report(&self, run: &str) -> ObsReport {
        ObsReport::capture(run, &self.registry, &self.journal)
    }

    /// A [`TransitionSink`] mirroring every transition of the switch's
    /// `WindowEngine` into this handle:
    /// `ow_common_engine_{transitions,released,rejected}_total{side="switch"}`
    /// counters, an `fsm_transition` journal event per step, and a
    /// one-shot `drift_detected` warning on the first rejection.
    pub fn engine_sink(&self) -> Arc<EngineObserver> {
        let side = [("side", ENGINE_SIDE)];
        Arc::new(EngineObserver {
            obs: self.clone(),
            transitions: self.counter("ow_common_engine_transitions_total", &side),
            released: self.counter("ow_common_engine_released_total", &side),
            rejected: self.counter("ow_common_engine_rejected_total", &side),
            drift_warned: AtomicBool::new(false),
        })
    }

    /// Fold one session's [`ReliabilityMetrics`] into the registry under
    /// the `ow_controller_*` names (counters accumulate across
    /// sessions; `wall_clock` feeds the C&R recovery-duration
    /// histogram).
    pub fn fold_reliability(&self, m: &ReliabilityMetrics) {
        self.counter("ow_controller_afr_announced_total", &[])
            .add(m.announced);
        self.counter("ow_controller_afr_first_pass_total", &[])
            .add(m.first_pass);
        self.counter("ow_controller_retransmit_rounds", &[])
            .add(m.retransmit_rounds);
        self.counter("ow_controller_afr_recovered_total", &[])
            .add(m.recovered);
        self.counter("ow_controller_afr_duplicates_total", &[])
            .add(m.duplicates);
        self.counter("ow_controller_escalations_total", &[])
            .add(m.escalations);
        self.counter("ow_controller_departed_sessions_total", &[])
            .add(m.departed);
        self.histogram("ow_controller_cr_phase_duration", &[("phase", "recovery")])
            .record(m.wall_clock);
    }
}

/// The `side` an [`EngineObserver`] labels its series, journal lines
/// and health entities with: the switch is the one side that keeps
/// window FSMs.
const ENGINE_SIDE: &str = "switch";

/// Adapter from [`Obs`] onto the engine's [`TransitionSink`] hook; build
/// via [`Obs::engine_sink`].
#[derive(Debug)]
pub struct EngineObserver {
    obs: Obs,
    transitions: Counter,
    released: Counter,
    rejected: Counter,
    drift_warned: AtomicBool,
}

impl TransitionSink for EngineObserver {
    fn on_transition(&self, t: &Transition) {
        self.transitions.inc();
        match t.to {
            Some(to) => {
                if to == WindowPhase::Released {
                    self.released.inc();
                }
                self.obs.event(
                    Event::new(
                        "fsm_transition",
                        format!("{} -> {} via '{}' ({ENGINE_SIDE})", t.from, to, t.event),
                    )
                    .subwindow(t.subwindow)
                    .phase(to.name()),
                );
            }
            None => {
                self.rejected.inc();
                self.obs.event(
                    Event::new(
                        "fsm_transition",
                        format!(
                            "rejected event '{}' in phase '{}' ({ENGINE_SIDE})",
                            t.event, t.from
                        ),
                    )
                    .warn()
                    .subwindow(t.subwindow)
                    .phase(t.from.name()),
                );
                if !self.drift_warned.swap(true, Ordering::Relaxed) {
                    self.obs.event(
                        Event::new(
                            "drift_detected",
                            format!(
                                "first rejected transition on side '{ENGINE_SIDE}': sub-window {} event '{}' in phase '{}'",
                                t.subwindow, t.event, t.from
                            ),
                        )
                        .warn()
                        .subwindow(t.subwindow),
                    );
                }
                // A rejected transition is an invariant violation: when
                // a health engine is installed, it freezes the black
                // box so the failure becomes a post-mortem artifact.
                if let Some(health) = self.obs.health() {
                    health.fsm_invariant_rejected(
                        ENGINE_SIDE,
                        t.subwindow,
                        &format!("event '{}' rejected in phase '{}'", t.event, t.from),
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ow_common::engine::{WindowEngine, WindowEvent};
    use ow_common::time::{Duration, Instant};

    #[test]
    fn engine_sink_mirrors_transitions_into_registry_and_journal() {
        let obs = Obs::new();
        let mut engine = WindowEngine::new();
        engine.set_sink(obs.engine_sink());
        engine.open(3);
        engine.apply(3, WindowEvent::SignalFired).unwrap();
        let due = Instant::from_millis(101);
        engine.apply(3, WindowEvent::CrScheduled { due }).unwrap();
        engine.apply(3, WindowEvent::SwitchDeparted).unwrap();
        assert!(engine.apply(3, WindowEvent::Acked).is_err(), "pruned");
        assert!(engine.apply(3, WindowEvent::Acked).is_err());

        let snap = obs.snapshot();
        let side = [("side", "switch")];
        assert_eq!(snap.value("ow_common_engine_transitions_total", &side), 5);
        assert_eq!(snap.value("ow_common_engine_released_total", &side), 1);
        assert_eq!(snap.value("ow_common_engine_rejected_total", &side), 2);
        assert_eq!(
            snap.value("ow_common_engine_rejected_total", &side),
            engine.rejected()
        );

        let events = obs.journal().events();
        let kinds: Vec<&str> = events.iter().map(|e| e.kind.as_str()).collect();
        // 5 fsm_transition events plus exactly one drift_detected.
        assert_eq!(kinds.iter().filter(|k| **k == "fsm_transition").count(), 5);
        assert_eq!(kinds.iter().filter(|k| **k == "drift_detected").count(), 1);
        let drift = events.iter().find(|e| e.kind == "drift_detected").unwrap();
        assert_eq!(drift.level, Level::Warn);
        assert_eq!(drift.subwindow, Some(3));
    }

    #[test]
    fn journal_overflow_surfaces_in_snapshot_and_report() {
        let obs = Obs::with_journal_capacity(4);
        for i in 0..10 {
            obs.event(Event::new("tick", format!("event {i}")));
        }
        // 10 recorded into a 4-slot ring: 6 dropped, visible everywhere.
        let snap = obs.snapshot();
        assert_eq!(snap.value("ow_obs_journal_dropped_total", &[]), 6);
        let report = obs.report("unit");
        assert_eq!(report.events_dropped, 6);
        assert_eq!(report.events_recorded, 10);
        assert_eq!(report.events.len(), 4);
        assert!(
            report.to_json().contains("\"events_dropped\": 6"),
            "JSON snapshot carries the drop count"
        );
    }

    #[test]
    fn reliability_metrics_fold_accumulates() {
        let obs = Obs::new();
        let session = ReliabilityMetrics {
            announced: 10,
            first_pass: 7,
            retransmit_rounds: 2,
            retransmit_requests: 3,
            recovered: 3,
            duplicates: 1,
            escalations: 1,
            departed: 1,
            wall_clock: Duration::from_micros(400),
        };
        obs.fold_reliability(&session);
        obs.fold_reliability(&session);
        let snap = obs.snapshot();
        assert_eq!(snap.value("ow_controller_afr_announced_total", &[]), 20);
        assert_eq!(snap.value("ow_controller_retransmit_rounds", &[]), 4);
        assert_eq!(snap.value("ow_controller_escalations_total", &[]), 2);
        assert_eq!(snap.value("ow_controller_departed_sessions_total", &[]), 2);
        let h = snap
            .get("ow_controller_cr_phase_duration", &[("phase", "recovery")])
            .unwrap()
            .histogram
            .as_ref()
            .unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 800_000);
    }
}
