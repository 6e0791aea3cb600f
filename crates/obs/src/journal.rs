//! The structured event journal.
//!
//! Typed [`Event`]s — each carrying the sub-window, lifecycle phase,
//! and (when the emitter knows it) the *virtual* timestamp —
//! are appended to a bounded in-memory ring. An optional **console
//! sink** renders every event as a progress line on *stderr* as it is
//! recorded — stdout stays clean for `--json` pipelines.
//!
//! The ring is bounded (default `DEFAULT_CAPACITY`) so a long run
//! keeps the newest events without growing; `total_recorded` keeps the
//! true count for "N events, showing last M" reporting.

use std::collections::VecDeque;

use parking_lot::Mutex;
use serde::Serialize;

use ow_common::time::Instant;

/// Default ring capacity (events retained in memory).
pub(crate) const DEFAULT_CAPACITY: usize = 4096;

/// Severity of one journal event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Level {
    /// Routine lifecycle or progress event.
    Info,
    /// Something a human should look at (protocol drift, CLI misuse).
    Warn,
}

/// One structured journal entry.
#[derive(Debug, Clone, Serialize)]
pub struct Event {
    /// Monotonic sequence number (order of recording).
    pub seq: u64,
    /// Severity.
    pub level: Level,
    /// Stable machine-readable kind (`"fsm_transition"`,
    /// `"cr_session"`, `"progress"`, …).
    pub kind: String,
    /// Sub-window (window id) the event concerns, when applicable.
    pub subwindow: Option<u32>,
    /// Lifecycle phase name, when applicable.
    pub phase: Option<String>,
    /// Virtual-clock timestamp, when the emitter runs on the virtual
    /// clock (nanoseconds since trace start). Never wall-clock.
    pub at_ns: Option<u64>,
    /// Human-readable detail.
    pub message: String,
}

impl Event {
    /// A bare event of `kind` with `message`; attach context with the
    /// builder methods.
    pub fn new(kind: &str, message: impl Into<String>) -> Event {
        Event {
            seq: 0,
            level: Level::Info,
            kind: kind.to_string(),
            subwindow: None,
            phase: None,
            at_ns: None,
            message: message.into(),
        }
    }

    /// Mark the event as a warning.
    pub fn warn(mut self) -> Event {
        self.level = Level::Warn;
        self
    }

    /// Attach the sub-window.
    pub fn subwindow(mut self, sw: u32) -> Event {
        self.subwindow = Some(sw);
        self
    }

    /// Attach the lifecycle phase name.
    pub fn phase(mut self, phase: &str) -> Event {
        self.phase = Some(phase.to_string());
        self
    }

    /// Attach the virtual-clock timestamp.
    pub fn at(mut self, at: Instant) -> Event {
        self.at_ns = Some(at.as_nanos());
        self
    }

    /// The event's context as ` [sw=3 phase=merged]` (empty when
    /// it carries none); `with_time` appends the virtual timestamp.
    pub(crate) fn context(&self, with_time: bool) -> String {
        let mut ctx = Vec::new();
        if let Some(sw) = self.subwindow {
            ctx.push(format!("sw={sw}"));
        }
        if let Some(p) = &self.phase {
            ctx.push(format!("phase={p}"));
        }
        if let Some(ns) = self.at_ns.filter(|_| with_time) {
            ctx.push(format!("t={ns}ns"));
        }
        if ctx.is_empty() {
            String::new()
        } else {
            format!(" [{}]", ctx.join(" "))
        }
    }

    fn console_line(&self) -> String {
        let level = match self.level {
            Level::Info => "info",
            Level::Warn => "WARN",
        };
        let ctx = self.context(true);
        format!("[{level}] {}{ctx}: {}", self.kind, self.message)
    }
}

struct JournalInner {
    ring: VecDeque<Event>,
    capacity: usize,
    next_seq: u64,
    dropped: u64,
    console: bool,
    drop_counter: Option<crate::registry::Counter>,
}

/// The bounded event journal (interior-mutable; share via
/// `Arc` / [`crate::Obs`]).
pub struct EventJournal {
    inner: Mutex<JournalInner>,
}

impl Default for EventJournal {
    fn default() -> Self {
        EventJournal::with_capacity(DEFAULT_CAPACITY)
    }
}

impl std::fmt::Debug for EventJournal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("EventJournal")
            .field("events", &inner.ring.len())
            .field("capacity", &inner.capacity)
            .field("total_recorded", &inner.next_seq)
            .finish()
    }
}

impl EventJournal {
    /// A journal retaining at most `capacity` events (≥ 1).
    pub(crate) fn with_capacity(capacity: usize) -> EventJournal {
        EventJournal {
            inner: Mutex::new(JournalInner {
                ring: VecDeque::new(),
                capacity: capacity.max(1),
                next_seq: 0,
                dropped: 0,
                console: false,
                drop_counter: None,
            }),
        }
    }

    /// Enable the console sink: every event also renders one line to
    /// stderr (stdout stays clean for `--json` pipelines).
    pub fn enable_console(&self) {
        self.inner.lock().console = true;
    }

    /// Attach the `ow_obs_journal_dropped_total` counter (wired by
    /// [`crate::Obs::new`]) so ring overflow is visible in
    /// every snapshot, not silent.
    pub(crate) fn set_drop_counter(&self, counter: crate::registry::Counter) {
        self.inner.lock().drop_counter = Some(counter);
    }

    /// Record one event, stamping its sequence number; returns the
    /// stamped sequence.
    pub(crate) fn record(&self, mut event: Event) -> u64 {
        let mut inner = self.inner.lock();
        let seq = inner.next_seq;
        event.seq = seq;
        inner.next_seq += 1;
        if inner.console {
            eprintln!("{}", event.console_line());
        }
        if inner.ring.len() == inner.capacity {
            inner.ring.pop_front();
            inner.dropped += 1;
            if let Some(c) = inner.drop_counter.as_ref() {
                c.inc();
            }
        }
        inner.ring.push_back(event);
        seq
    }

    /// Convenience: record an info `progress` event (the bench
    /// binaries' stderr progress lines).
    pub fn progress(&self, message: impl Into<String>) {
        self.record(Event::new("progress", message));
    }

    /// Events currently retained, oldest first.
    pub fn events(&self) -> Vec<Event> {
        self.inner.lock().ring.iter().cloned().collect()
    }

    /// Total events ever recorded (≥ retained count).
    pub(crate) fn total_recorded(&self) -> u64 {
        self.inner.lock().next_seq
    }

    /// Events discarded by the bounded ring (oldest-first eviction).
    pub(crate) fn dropped_total(&self) -> u64 {
        self.inner.lock().dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_is_bounded_and_keeps_newest() {
        let j = EventJournal::with_capacity(3);
        for i in 0..5 {
            j.record(Event::new("tick", format!("event {i}")));
        }
        let evs = j.events();
        assert_eq!(evs.len(), 3);
        assert_eq!(j.total_recorded(), 5);
        assert_eq!(evs[0].seq, 2, "oldest retained is the third recorded");
        assert_eq!(evs[2].seq, 4);
        assert_eq!(evs[2].message, "event 4");
    }

    #[test]
    fn overfilling_counts_every_dropped_event() {
        let j = EventJournal::with_capacity(2);
        assert_eq!(j.dropped_total(), 0);
        for i in 0..7 {
            j.record(Event::new("tick", format!("event {i}")));
        }
        assert_eq!(j.dropped_total(), 5, "7 recorded minus 2 retained");
        assert_eq!(j.total_recorded(), 7);
        assert_eq!(j.events().len(), 2);
    }

    #[test]
    fn drop_counter_mirrors_ring_eviction() {
        let c = crate::registry::Counter::default();
        let j = EventJournal::with_capacity(1);
        j.set_drop_counter(c.clone());
        j.record(Event::new("a", ""));
        assert_eq!(c.get(), 0, "first event fits");
        j.record(Event::new("b", ""));
        j.record(Event::new("c", ""));
        assert_eq!(c.get(), 2);
        assert_eq!(j.dropped_total(), 2);
    }

    #[test]
    fn builder_attaches_context() {
        let e = Event::new("fsm_transition", "collected")
            .warn()
            .subwindow(4)
            .phase("collected")
            .at(Instant::from_micros(10));
        assert_eq!(e.level, Level::Warn);
        assert_eq!(e.subwindow, Some(4));
        assert_eq!(e.phase.as_deref(), Some("collected"));
        assert_eq!(e.at_ns, Some(10_000));
        let line = e.console_line();
        assert!(line.contains("WARN"), "{line}");
        assert!(line.contains("sw=4"), "{line}");
        assert!(line.contains("t=10000ns"), "{line}");
    }

    #[test]
    fn sequence_numbers_are_monotonic() {
        let j = EventJournal::default();
        assert_eq!(j.record(Event::new("x", "")), 0);
        assert_eq!(j.record(Event::new("x", "")), 1);
        assert_eq!(j.record(Event::new("x", "")), 2);
    }
}
