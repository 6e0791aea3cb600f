//! The black-box flight recorder.
//!
//! A bounded ring of recent observability context — journal events,
//! per-tick rule-signal readings, tick summaries — that [`freeze`]s the
//! moment something goes badly wrong (a [`crate::health`] rule firing
//! at `Severity::Critical`, or a `WindowFsm` invariant rejection) and
//! becomes a deterministic `results/flightrec_*.json` post-mortem: the
//! retained ring, the full registry snapshot at the freeze instant, a
//! brief of every causal span tree, and the health-alert timeline.
//! Chaos failures become diagnosable artifacts instead of log
//! archaeology.
//!
//! The ring is bounded by **both** an entry count and a byte budget
//! ([`FlightRecorderConfig`]); eviction is oldest-first, and the dump
//! canonicalizes entry order by `(at_ns, kind, detail)` with journal
//! sequence numbers stripped, so two same-seed runs — whose journal
//! *multiset* is deterministic even when cross-thread interleaving is
//! not — dump byte-identical post-mortems.
//!
//! [`freeze`]: FlightRecorder::freeze

use std::collections::VecDeque;
use std::io;
use std::path::Path;

use serde::Serialize;

use crate::health::AlertEvent;
use crate::journal::{Event, Level};
use crate::registry::RegistrySnapshot;

/// Byte/entry bounds of the recorder ring.
#[derive(Debug, Clone, Copy)]
pub struct FlightRecorderConfig {
    /// Maximum retained entries.
    pub max_entries: usize,
    /// Maximum total [`FlightEntry::cost`] bytes retained.
    pub max_bytes: usize,
}

impl Default for FlightRecorderConfig {
    fn default() -> FlightRecorderConfig {
        FlightRecorderConfig {
            max_entries: 8192,
            max_bytes: 1 << 20,
        }
    }
}

/// One retained black-box entry: a journal event, a rule-signal
/// reading, or a tick summary, pre-rendered to a canonical line.
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

impl FlightEntry {
    /// Accounting size of this entry against the byte budget.
    pub fn cost(&self) -> usize {
        16 + self.kind.len() + self.detail.len()
    }
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

/// One span tree's brief in the post-mortem.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct TraceBrief {
    /// Trace id (root span id).
    pub trace_id: u64,
    /// The traced sub-window.
    pub subwindow: u32,
    /// Spans in the tree.
    pub spans: u64,
    /// Critical-path wall latency of the tree, ns.
    pub wall_ns: u64,
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
    /// Entries the bounded ring evicted before the freeze.
    pub entries_dropped: u64,
    /// The retained ring in canonical `(at_ns, kind, detail)` order.
    pub entries: Vec<FlightEntry>,
    /// Full registry snapshot at the freeze instant.
    pub registry: RegistrySnapshot,
    /// Brief of every causal span tree at the freeze instant, by id.
    pub traces: Vec<TraceBrief>,
    /// The health-alert timeline up to and including the freeze.
    pub timeline: Vec<AlertEvent>,
}

impl FlightDump {
    /// Pretty-printed JSON (the byte-stable form the CI determinism
    /// gate compares with `cmp`).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("flight dump serializes")
    }

    /// Write the dump to `path` and its [`render`](FlightDump::render)ed
    /// form beside it as `<stem>.txt`, creating parent directories.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        crate::render::write_artifact(path, self.to_json(), self.render())
    }

    /// What the types do not already guarantee about a dump: a
    /// non-empty `freeze_reason`, entry kinds in `event|signal|tick`,
    /// a stable `OW-HEALTH-*` code and a `fired|cleared` state on every
    /// timeline record.
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
            if !matches!(a.state.as_str(), "fired" | "cleared") {
                return Err(format!("timeline record {i} has state '{}'", a.state));
            }
        }
        Ok(())
    }
}

/// What the freeze captured (set once, first trigger wins).
#[derive(Debug)]
struct FrozenState {
    reason: String,
    at_ns: u64,
    registry: RegistrySnapshot,
    traces: Vec<TraceBrief>,
    timeline: Vec<AlertEvent>,
}

/// The bounded black-box ring. Owned by the health engine (single
/// writer behind its lock); not internally synchronized.
#[derive(Debug)]
pub struct FlightRecorder {
    cfg: FlightRecorderConfig,
    ring: VecDeque<FlightEntry>,
    bytes: usize,
    dropped: u64,
    frozen: Option<FrozenState>,
}

impl FlightRecorder {
    /// An empty recorder with the given bounds.
    pub fn new(cfg: FlightRecorderConfig) -> FlightRecorder {
        FlightRecorder {
            cfg: FlightRecorderConfig {
                max_entries: cfg.max_entries.max(1),
                max_bytes: cfg.max_bytes.max(1),
            },
            ring: VecDeque::new(),
            bytes: 0,
            dropped: 0,
            frozen: None,
        }
    }

    /// Append an entry, evicting oldest-first until both bounds hold.
    /// After a freeze this is a no-op (the black box stops recording).
    /// An entry whose own cost exceeds the byte budget is dropped
    /// outright rather than blowing the bound.
    pub fn record(&mut self, entry: FlightEntry) {
        if self.frozen.is_some() {
            return;
        }
        let cost = entry.cost();
        if cost > self.cfg.max_bytes {
            self.dropped += 1;
            return;
        }
        while self.ring.len() >= self.cfg.max_entries || self.bytes + cost > self.cfg.max_bytes {
            match self.ring.pop_front() {
                Some(old) => {
                    self.bytes -= old.cost();
                    self.dropped += 1;
                }
                None => break,
            }
        }
        self.bytes += cost;
        self.ring.push_back(entry);
    }

    /// Freeze the recorder with the post-mortem context. The first
    /// trigger wins; later freezes are ignored so the dump reflects the
    /// *initial* failure, not the last symptom.
    pub fn freeze(
        &mut self,
        reason: &str,
        at_ns: u64,
        registry: RegistrySnapshot,
        traces: Vec<TraceBrief>,
        timeline: Vec<AlertEvent>,
    ) {
        if self.frozen.is_some() {
            return;
        }
        self.frozen = Some(FrozenState {
            reason: reason.to_string(),
            at_ns,
            registry,
            traces,
            timeline,
        });
    }

    /// Whether a freeze already happened.
    pub fn is_frozen(&self) -> bool {
        self.frozen.is_some()
    }

    /// Retained entry count.
    pub fn entry_count(&self) -> usize {
        self.ring.len()
    }

    /// Retained byte total (sum of entry costs).
    pub fn byte_usage(&self) -> usize {
        self.bytes
    }

    /// Entries evicted (or oversized-rejected) so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The configured bounds.
    pub fn config(&self) -> FlightRecorderConfig {
        self.cfg
    }

    /// The frozen post-mortem, if a freeze happened; entries in
    /// canonical order.
    pub fn dump(&self, run: &str) -> Option<FlightDump> {
        let frozen = self.frozen.as_ref()?;
        let mut entries: Vec<FlightEntry> = self.ring.iter().cloned().collect();
        entries.sort();
        let mut traces = frozen.traces.clone();
        traces.sort_by_key(|t| t.trace_id);
        Some(FlightDump {
            run: run.to_string(),
            freeze_reason: frozen.reason.clone(),
            frozen_at_ns: frozen.at_ns,
            entries_dropped: self.dropped,
            entries,
            registry: frozen.registry.clone(),
            traces,
            timeline: frozen.timeline.clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(i: u64, detail: &str) -> FlightEntry {
        FlightEntry {
            at_ns: i,
            kind: "event".into(),
            detail: detail.to_string(),
        }
    }

    #[test]
    fn ring_enforces_entry_bound_oldest_first() {
        let mut rec = FlightRecorder::new(FlightRecorderConfig {
            max_entries: 3,
            max_bytes: 1 << 20,
        });
        for i in 0..5 {
            rec.record(entry(i, "x"));
        }
        assert_eq!(rec.entry_count(), 3);
        assert_eq!(rec.dropped(), 2);
        let dumpless = rec.dump("unit");
        assert!(dumpless.is_none(), "no dump before a freeze");
    }

    #[test]
    fn ring_enforces_byte_bound() {
        let cfg = FlightRecorderConfig {
            max_entries: 1000,
            max_bytes: 100,
        };
        let mut rec = FlightRecorder::new(cfg);
        for i in 0..50 {
            rec.record(entry(i, "0123456789"));
            assert!(rec.byte_usage() <= cfg.max_bytes);
        }
        assert!(rec.dropped() > 0);
        // One entry bigger than the whole budget is rejected outright.
        let before = rec.entry_count();
        rec.record(entry(99, &"y".repeat(200)));
        assert_eq!(rec.entry_count(), before);
        assert!(rec.byte_usage() <= cfg.max_bytes);
    }

    #[test]
    fn freeze_is_first_wins_and_stops_recording() {
        let mut rec = FlightRecorder::new(FlightRecorderConfig::default());
        rec.record(entry(5, "before"));
        rec.freeze(
            "first failure",
            10,
            RegistrySnapshot::default(),
            vec![],
            vec![],
        );
        rec.freeze(
            "second failure",
            20,
            RegistrySnapshot::default(),
            vec![],
            vec![],
        );
        rec.record(entry(30, "after"));
        let dump = rec.dump("unit").expect("frozen");
        assert_eq!(dump.freeze_reason, "first failure");
        assert_eq!(dump.frozen_at_ns, 10);
        assert_eq!(dump.entries.len(), 1, "post-freeze entries ignored");
        assert_eq!(dump.entries[0].detail, "before");
    }

    #[test]
    fn dump_is_canonically_ordered_and_schema_valid() {
        let mut rec = FlightRecorder::new(FlightRecorderConfig::default());
        rec.record(entry(9, "late"));
        rec.record(entry(1, "early"));
        rec.record(FlightEntry {
            at_ns: 1,
            kind: "tick".into(),
            detail: "tick=0".into(),
        });
        rec.freeze("unit test", 9, RegistrySnapshot::default(), vec![], vec![]);
        let dump = rec.dump("unit").expect("frozen");
        let order: Vec<&str> = dump.entries.iter().map(|e| e.detail.as_str()).collect();
        assert_eq!(order, vec!["early", "tick=0", "late"]);
        dump.check().expect("dump validates");
    }

    #[test]
    fn validator_rejects_malformed_dumps() {
        let mut rec = FlightRecorder::new(FlightRecorderConfig::default());
        rec.record(entry(1, "d"));
        rec.freeze("r", 1, RegistrySnapshot::default(), vec![], vec![]);
        let good = rec.dump("x").expect("frozen");
        good.check().expect("well-formed dump");

        let mut empty_reason = good.clone();
        empty_reason.freeze_reason.clear();
        assert!(empty_reason.check().is_err());

        let mut bad_kind = good.clone();
        bad_kind.entries[0].kind = "bogus".into();
        let err = bad_kind.check().unwrap_err();
        assert!(err.contains("unknown kind"), "{err}");

        let mut bad_timeline = good;
        bad_timeline.timeline.push(AlertEvent {
            tick: 0,
            at_ns: 1,
            code: "OW-HEALTH-999".into(),
            rule: "unit".into(),
            entity: "unit".into(),
            severity: "critical".into(),
            state: "flapping".into(),
            value: 1,
            threshold: 0,
        });
        let err = bad_timeline.check().unwrap_err();
        assert!(err.contains("state 'flapping'"), "{err}");
        bad_timeline.timeline[0].state = "fired".into();
        bad_timeline.timeline[0].code = "HEALTH-1".into();
        let err = bad_timeline.check().unwrap_err();
        assert!(err.contains("bad code"), "{err}");
    }
}
