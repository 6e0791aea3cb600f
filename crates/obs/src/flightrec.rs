//! The black-box post-mortem.
//!
//! When something goes badly wrong (a [`crate::health`] rule firing at
//! `Severity::Critical`, or a `WindowFsm` invariant rejection) the
//! health engine freezes a [`FlightDump`], which becomes a deterministic
//! `results/flightrec_*.json`: the latest verdict's signal readings and
//! summary line joined by the journal's events at the freeze, the
//! full registry snapshot at the freeze instant, and the health-alert
//! timeline.
//! Chaos failures become diagnosable artifacts instead of log
//! archaeology.
//!
//! The dump orders its entries by `(at_ns, kind, detail)` with journal
//! sequence numbers stripped, so two same-seed runs — whose journal
//! *multiset* is deterministic even when cross-thread interleaving is
//! not — dump byte-identical post-mortems.

use std::io;
use std::path::Path;

use serde::Serialize;

use crate::health::AlertEvent;
use crate::journal::{Event, EventJournal, Level};
use crate::registry::{MetricSnapshot, RegistrySnapshot};

/// One black-box entry: a journal event, a rule-signal reading, or a
/// verdict's summary, pre-rendered to a canonical line.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Serialize)]
pub struct FlightEntry {
    /// Virtual-clock timestamp (0 when the source carried none).
    pub at_ns: u64,
    /// `"event"`, `"signal"`, or `"tick"`.
    pub kind: String,
    /// Canonical rendered detail (journal sequence numbers excluded so
    /// same-seed runs match byte for byte).
    pub detail: String,
}

/// A journal event's canonical line. The sequence number is left out:
/// it is the one field that depends on cross-thread interleaving, so
/// ordering by the entry orders same-seed journals identically.
impl From<&Event> for FlightEntry {
    fn from(e: &Event) -> FlightEntry {
        let level = match e.level {
            Level::Info => "info",
            Level::Warn => "warn",
        };
        let ctx = e.context(false);
        FlightEntry {
            at_ns: e.at_ns.unwrap_or(0),
            kind: "event".into(),
            detail: format!("{level} {}{ctx}: {}", e.kind, e.message),
        }
    }
}

/// The deterministic on-disk post-mortem (`results/flightrec_*.json`).
#[derive(Debug, Clone, Serialize)]
pub struct FlightDump {
    /// Name of the run that froze.
    pub run: String,
    /// Why the recorder froze (rule code + entity, or the rejected FSM
    /// transition).
    pub freeze_reason: String,
    /// Virtual-clock instant of the freeze.
    pub frozen_at_ns: u64,
    /// The latest verdict's signal and tick lines (none when no tick
    /// ran) and the journal's events at the freeze, in canonical
    /// `(at_ns, kind, detail)` order.
    pub entries: Vec<FlightEntry>,
    /// Full registry snapshot at the freeze instant.
    pub registry: RegistrySnapshot,
    /// Every alert fired up to and including the freeze.
    pub timeline: Vec<AlertEvent>,
}

impl FlightDump {
    /// Assemble the post-mortem at a freeze: the latest verdict's
    /// `lines` joined by `journal`'s retained events (read once),
    /// and `metrics` in series order. `run` is left empty; [`crate::HealthEngine::flight_dump`]
    /// names it.
    pub(crate) fn capture(
        reason: String,
        at_ns: u64,
        lines: &[FlightEntry],
        journal: &EventJournal,
        mut metrics: Vec<MetricSnapshot>,
        timeline: Vec<AlertEvent>,
    ) -> FlightDump {
        let mut entries: Vec<FlightEntry> =
            journal.events().iter().map(FlightEntry::from).collect();
        entries.extend_from_slice(lines);
        entries.sort();
        metrics.sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
        FlightDump {
            run: String::new(),
            freeze_reason: reason,
            frozen_at_ns: at_ns,
            entries,
            registry: RegistrySnapshot { metrics },
            timeline,
        }
    }

    /// Pretty-printed JSON (the byte-stable form the CI determinism
    /// gate compares with `cmp`).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("flight dump serializes")
    }

    /// Write the dump to `path` and its `render`ed
    /// form beside it as `<stem>.txt`, creating parent directories.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        crate::render::write_artifact(path, self.to_json(), self.render())
    }

    /// What the types do not already guarantee about a dump: a
    /// non-empty `freeze_reason`, entry kinds in `event|signal|tick`
    /// and a stable `OW-HEALTH-*` code on every timeline record.
    pub fn check(&self) -> Result<(), String> {
        if self.freeze_reason.is_empty() {
            return Err("empty freeze_reason".into());
        }
        for (i, e) in self.entries.iter().enumerate() {
            if !matches!(e.kind.as_str(), "event" | "signal" | "tick") {
                return Err(format!("entry {i} has unknown kind '{}'", e.kind));
            }
        }
        for (i, a) in self.timeline.iter().enumerate() {
            if !crate::health::valid_code(&a.code) {
                return Err(format!("timeline record {i} has bad code '{}'", a.code));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::health::RuleSet;
    use crate::Obs;
    use ow_common::time::Instant;

    fn event(obs: &Obs, at_ns: u64, message: &str) {
        obs.event(Event::new("unit", message).at(Instant(at_ns)));
    }

    /// `(kind, detail)` of every entry, in dump order.
    fn lines(dump: &FlightDump) -> Vec<(&str, &str)> {
        (dump.entries.iter())
            .map(|e| (e.kind.as_str(), e.detail.as_str()))
            .collect()
    }

    #[test]
    fn freeze_is_first_wins_and_stops_recording() {
        let obs = Obs::new();
        let engine = obs.install_health(RuleSet::default());
        engine.tick(Instant(10));
        engine.fsm_invariant_rejected("controller", 1, "first failure");
        engine.fsm_invariant_rejected("controller", 2, "second failure");
        engine.tick(Instant(30));
        event(&obs, 30, "after");
        let dump = engine.flight_dump("unit").expect("frozen");
        assert!(dump.freeze_reason.ends_with("first failure"));
        assert_eq!(dump.frozen_at_ns, 10);
        assert_eq!(dump.timeline.len(), 1, "later alerts are not in the dump");
        assert_eq!(
            lines(&dump),
            vec![
                ("event", "warn health_alert [sw=1]: OW-HEALTH-001 fsm_invariant_rejected fired for controller:1: first failure"),
                ("tick", "fleet_score=1000 active_alerts=0"),
            ],
            "post-freeze lines ignored"
        );
    }

    #[test]
    fn journal_events_join_the_dump_without_evicting_ring_lines() {
        let obs = Obs::new();
        let engine = obs.install_health(RuleSet::default());
        event(&obs, 1, "journal a");
        event(&obs, 3, "journal b");
        engine.tick(Instant(2));
        engine.fsm_invariant_rejected("switch", 4, "unit");
        let dump = engine.flight_dump("unit").expect("frozen");
        assert_eq!(
            lines(&dump),
            vec![
                ("event", "warn health_alert [sw=4]: OW-HEALTH-001 fsm_invariant_rejected fired for switch:4: unit"),
                ("event", "info unit: journal a"),
                ("tick", "fleet_score=1000 active_alerts=0"),
                ("event", "info unit: journal b"),
            ]
        );
    }

    #[test]
    fn dump_is_canonically_ordered_and_schema_valid() {
        let obs = Obs::new();
        let engine = obs.install_health(RuleSet::default());
        event(&obs, 9, "late");
        event(&obs, 1, "early");
        engine.fsm_invariant_rejected("controller", 0, "no tick ran");
        let dump = engine.flight_dump("unit").expect("frozen");
        let order: Vec<&str> = dump.entries.iter().map(|e| e.detail.as_str()).collect();
        assert_eq!(order[1..], ["info unit: early", "info unit: late"]);
        assert!(
            dump.entries.iter().all(|e| e.kind == "event"),
            "a freeze before any tick carries no tick lines"
        );
        dump.check().expect("dump validates");
    }

    #[test]
    fn validator_rejects_malformed_dumps() {
        let obs = Obs::new();
        let engine = obs.install_health(RuleSet::default());
        engine.fsm_invariant_rejected("controller", 0, "unit");
        let good = engine.flight_dump("x").expect("frozen");
        good.check().expect("well-formed dump");

        let mut empty_reason = good.clone();
        empty_reason.freeze_reason.clear();
        assert!(empty_reason.check().is_err());

        let mut bad_kind = good.clone();
        bad_kind.entries[0].kind = "bogus".into();
        let err = bad_kind.check().unwrap_err();
        assert!(err.contains("unknown kind"), "{err}");

        let mut bad_timeline = good;
        bad_timeline.timeline[0].code = "HEALTH-1".into();
        let err = bad_timeline.check().unwrap_err();
        assert!(err.contains("bad code"), "{err}");
    }
}
