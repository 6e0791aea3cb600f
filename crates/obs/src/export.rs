//! The on-disk metrics snapshot.
//!
//! [`ObsReport`] is registry + journal tail, written pretty-printed
//! like the bench result files so `results/obs_*.json` sits beside
//! `results/exp*.json` with the same conventions, with its
//! [`render`](ObsReport::render)ed form beside it as `<stem>.txt`.

use std::io;
use std::path::Path;

use serde::Serialize;

use crate::flightrec::FlightEntry;
use crate::journal::{Event, EventJournal};
use crate::registry::RegistrySnapshot;

/// The on-disk observability snapshot: registry state plus the journal
/// tail, written as `results/obs_*.json`.
#[derive(Debug, Clone, Serialize)]
pub struct ObsReport {
    /// Name of the run (e.g. `obs_smoke`).
    pub run: String,
    /// Every registered metric.
    pub registry: RegistrySnapshot,
    /// Total journal events recorded (the ring may retain fewer).
    pub events_recorded: u64,
    /// Events the bounded ring discarded (also surfaced as the
    /// `ow_obs_journal_dropped_total` counter in `registry`).
    pub events_dropped: u64,
    /// The retained journal tail in the flight recorder's canonical
    /// order, `seq` renumbered to match. A run whose emitters share the
    /// journal across threads (fleet workers) is seed-deterministic only
    /// as an event *multiset*, so recording order is not kept.
    pub events: Vec<Event>,
}

impl ObsReport {
    /// Capture the current state of `registry` and `journal`.
    pub(crate) fn capture(
        run: &str,
        registry: &crate::MetricsRegistry,
        journal: &EventJournal,
    ) -> ObsReport {
        let mut events = journal.events();
        events.sort_by_cached_key(|e| FlightEntry::from(e));
        for (seq, event) in events.iter_mut().enumerate() {
            event.seq = seq as u64;
        }
        ObsReport {
            run: run.to_string(),
            registry: registry.snapshot(),
            events_recorded: journal.total_recorded(),
            events_dropped: journal.dropped_total(),
            events,
        }
    }

    /// Pretty-printed JSON (the byte-stable form the determinism
    /// acceptance test compares).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("obs report serializes")
    }

    /// Write the report to `path` and its rendered form beside it as
    /// `<stem>.txt`, creating parent directories.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        crate::render::write_artifact(path, self.to_json(), self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MetricsRegistry;

    #[test]
    fn canonicalized_is_independent_of_recording_order() {
        // Events tying on (at_ns, kind, subwindow, message) and
        // differing only in phase or level — the ties a racy
        // interleaving can reorder — plus untimestamped ones.
        let events = || {
            vec![
                Event::new("merge", "done").subwindow(3).phase("sealed"),
                Event::new("merge", "done").subwindow(3).phase("merged"),
                Event::new("merge", "done").subwindow(3),
                Event::new("merge", "done").subwindow(3).warn(),
                Event::new("progress", "b"),
                Event::new("progress", "a"),
            ]
        };
        let reg = MetricsRegistry::new();
        let canonical = |order: Vec<Event>| {
            let journal = EventJournal::default();
            for e in order {
                journal.record(e);
            }
            ObsReport::capture("unit", &reg, &journal).to_json()
        };
        let mut reversed = events();
        reversed.reverse();
        let mut rotated = events();
        rotated.rotate_left(2);
        let want = canonical(events());
        assert_eq!(canonical(reversed), want);
        assert_eq!(canonical(rotated), want);
    }
}
