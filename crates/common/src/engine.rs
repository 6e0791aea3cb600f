//! The per-window lifecycle state machine of the switch.
//!
//! [`WindowFsm`] makes one sub-window's collect-and-reset lifecycle
//! explicit and event-driven:
//!
//! ```text
//!   Open ──SignalFired──▶ Terminated ──CrScheduled──▶ CrWait
//!     CrWait ──CollectStarted──▶ Collecting ──BatchGenerated──▶ Collected
//!     Collected ──StreamComplete──────────────▶ Merged
//!     Collected ──RetransmitRound──▶ Retransmitting        (§8 side-loop)
//!       Retransmitting ──RetransmitRound──▶ Retransmitting
//!       Retransmitting ──StreamComplete──▶ Merged
//!       Retransmitting / Collected ──EscalateOsRead──▶ Escalated
//!       Escalated ──StreamComplete──▶ Merged
//!     Merged ──Acked──▶ Released
//!     Collected / Retransmitting / Escalated ──Evicted──▶ Released
//!     any non-terminal phase ──SwitchDeparted──▶ Released    (fleet churn)
//! ```
//!
//! `ow-switch` drives it: signal → C&R → batch retained
//! for §8 retransmission, then the retransmit / OS-read handlers, the
//! acknowledgement and eviction of the retained copy. An illegal
//! transition is a protocol bug surfaced as an [`FsmError`]. The
//! controller keeps no copy of these phases: its record of a window is
//! its collection session's seen-bitmap, its `ReliabilityMetrics` and
//! its journal events. The framework crate re-exports this module as
//! `omniwindow::engine`.
//!
//! [`WindowEngine`] manages the set of live windows (one FSM per
//! sub-window), answers scheduling queries ("which C&R is due?"), and
//! counts rejected transitions.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::time::Instant;

/// The lifecycle phase of one sub-window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WindowPhase {
    /// The sub-window is (or will be) actively measured.
    Open,
    /// The termination signal fired; the trigger packet is out.
    Terminated,
    /// Waiting `cr_wait` for out-of-order packets to drain (Figure 3).
    CrWait,
    /// The collect-and-reset is running on the terminated region.
    Collecting,
    /// The AFR batch exists and its count is announced; the initial
    /// lowest-priority stream is (conceptually) in flight.
    Collected,
    /// The §8 retransmission side-loop is recovering missing AFRs.
    Retransmitting,
    /// Retransmission gave up; the slow-but-reliable switch-OS read is
    /// producing the batch.
    Escalated,
    /// The controller holds the complete batch in its merge table.
    Merged,
    /// The switch-side copy is freed; the lifecycle is over.
    Released,
}

impl WindowPhase {
    /// Every phase, in lifecycle order.
    pub const LIFECYCLE: [WindowPhase; 9] = [
        WindowPhase::Open,
        WindowPhase::Terminated,
        WindowPhase::CrWait,
        WindowPhase::Collecting,
        WindowPhase::Collected,
        WindowPhase::Retransmitting,
        WindowPhase::Escalated,
        WindowPhase::Merged,
        WindowPhase::Released,
    ];

    /// Short stable name (diagnostics, JSON).
    pub fn name(self) -> &'static str {
        match self {
            WindowPhase::Open => "open",
            WindowPhase::Terminated => "terminated",
            WindowPhase::CrWait => "cr_wait",
            WindowPhase::Collecting => "collecting",
            WindowPhase::Collected => "collected",
            WindowPhase::Retransmitting => "retransmitting",
            WindowPhase::Escalated => "escalated",
            WindowPhase::Merged => "merged",
            WindowPhase::Released => "released",
        }
    }

    /// Whether the phase is terminal (no event leaves it).
    pub fn is_terminal(self) -> bool {
        self == WindowPhase::Released
    }

    /// Whether a generated batch exists for this phase (the phases in
    /// which the switch retains a §8 retransmit copy).
    pub fn has_batch(self) -> bool {
        matches!(
            self,
            WindowPhase::Collected
                | WindowPhase::Retransmitting
                | WindowPhase::Escalated
                | WindowPhase::Merged
        )
    }
}

impl core::fmt::Display for WindowPhase {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

/// An event driving a [`WindowFsm`] transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowEvent {
    /// The window termination signal fired.
    SignalFired,
    /// The delayed C&R was scheduled for `due` (the `cr_wait` drain).
    CrScheduled {
        /// When the collection may start.
        due: Instant,
    },
    /// The collect-and-reset began executing.
    CollectStarted,
    /// AFR generation finished; the batch is announced to the controller.
    BatchGenerated,
    /// Every announced AFR reached the controller; the batch merged.
    StreamComplete,
    /// One §8 retransmission round ran (request for the missing ids).
    RetransmitRound,
    /// The controller gave up on retransmission and escalated to the
    /// switch-OS readback.
    EscalateOsRead,
    /// The controller acknowledged the merge; the switch frees its copy.
    Acked,
    /// The switch evicted the retained copy before acknowledgement
    /// (bounded retransmit buffer) — the window can no longer be
    /// repaired.
    Evicted,
    /// The owning switch left the fleet (crash or failed link) while the
    /// window was in flight. Legal from every non-terminal phase: a
    /// departed switch can answer no retransmission request and no
    /// OS read, so whatever the lifecycle was doing, the only safe exit
    /// is an immediate release — the FSM must never wedge in `CrWait` or
    /// `Retransmitting` waiting on a peer that no longer exists.
    SwitchDeparted,
}

impl WindowEvent {
    /// Short stable name (diagnostics).
    pub fn name(&self) -> &'static str {
        match self {
            WindowEvent::SignalFired => "signal_fired",
            WindowEvent::CrScheduled { .. } => "cr_scheduled",
            WindowEvent::CollectStarted => "collect_started",
            WindowEvent::BatchGenerated => "batch_generated",
            WindowEvent::StreamComplete => "stream_complete",
            WindowEvent::RetransmitRound => "retransmit_round",
            WindowEvent::EscalateOsRead => "escalate_os_read",
            WindowEvent::Acked => "acked",
            WindowEvent::Evicted => "evicted",
            WindowEvent::SwitchDeparted => "switch_departed",
        }
    }
}

/// A rejected transition: `event` is not legal in `phase`.
///
/// This means the protocol drifted — e.g. an acknowledgement for a
/// window the switch never collected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FsmError {
    /// The sub-window whose FSM rejected the event.
    pub subwindow: u32,
    /// The phase the FSM was in.
    pub phase: WindowPhase,
    /// The rejected event's name.
    pub event: &'static str,
}

impl core::fmt::Display for FsmError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "sub-window {}: event '{}' illegal in phase '{}'",
            self.subwindow, self.event, self.phase
        )
    }
}

impl std::error::Error for FsmError {}

/// The explicit lifecycle state machine of one sub-window.
///
/// ```
/// use ow_common::engine::{WindowEvent, WindowFsm, WindowPhase};
/// use ow_common::time::Instant;
///
/// let mut fsm = WindowFsm::open(3);
/// fsm.apply(WindowEvent::SignalFired).unwrap();
/// fsm.apply(WindowEvent::CrScheduled { due: Instant::from_millis(101) }).unwrap();
/// fsm.apply(WindowEvent::CollectStarted).unwrap();
/// fsm.apply(WindowEvent::BatchGenerated).unwrap();
/// assert_eq!(fsm.phase(), WindowPhase::Collected);
/// // Skipping straight to release is a protocol bug, not a panic:
/// assert!(fsm.apply(WindowEvent::Acked).is_err());
/// fsm.apply(WindowEvent::StreamComplete).unwrap();
/// fsm.apply(WindowEvent::Acked).unwrap();
/// assert!(fsm.phase().is_terminal());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowFsm {
    subwindow: u32,
    phase: WindowPhase,
    cr_due: Option<Instant>,
    retransmit_rounds: u32,
}

impl WindowFsm {
    /// A window starting at the beginning of its life.
    pub fn open(subwindow: u32) -> WindowFsm {
        WindowFsm {
            subwindow,
            phase: WindowPhase::Open,
            cr_due: None,
            retransmit_rounds: 0,
        }
    }

    /// The sub-window this FSM tracks.
    pub(crate) fn subwindow(&self) -> u32 {
        self.subwindow
    }

    /// Current phase.
    pub fn phase(&self) -> WindowPhase {
        self.phase
    }

    /// When the scheduled C&R becomes due (set by `CrScheduled`).
    pub fn cr_due(&self) -> Option<Instant> {
        self.cr_due
    }

    /// §8 retransmission rounds applied so far.
    pub fn retransmit_rounds(&self) -> u32 {
        self.retransmit_rounds
    }

    fn reject(&self, event: &WindowEvent) -> FsmError {
        FsmError {
            subwindow: self.subwindow,
            phase: self.phase,
            event: event.name(),
        }
    }

    /// Apply one event; returns the new phase, or the rejected
    /// transition. The FSM is unchanged on error.
    pub fn apply(&mut self, event: WindowEvent) -> Result<WindowPhase, FsmError> {
        use WindowPhase as P;
        let next = match (self.phase, &event) {
            (P::Open, WindowEvent::SignalFired) => P::Terminated,
            (P::Terminated, WindowEvent::CrScheduled { due }) => {
                self.cr_due = Some(*due);
                P::CrWait
            }
            (P::CrWait, WindowEvent::CollectStarted) => P::Collecting,
            (P::Collecting, WindowEvent::BatchGenerated) => P::Collected,
            (P::Collected | P::Retransmitting | P::Escalated, WindowEvent::StreamComplete) => {
                P::Merged
            }
            (P::Collected | P::Retransmitting, WindowEvent::RetransmitRound) => {
                self.retransmit_rounds += 1;
                P::Retransmitting
            }
            (P::Collected | P::Retransmitting, WindowEvent::EscalateOsRead) => P::Escalated,
            (P::Merged, WindowEvent::Acked) => P::Released,
            (P::Collected | P::Retransmitting | P::Escalated, WindowEvent::Evicted) => P::Released,
            (phase, WindowEvent::SwitchDeparted) if !phase.is_terminal() => P::Released,
            _ => return Err(self.reject(&event)),
        };
        self.phase = next;
        Ok(next)
    }
}

/// A record of one attempted [`WindowEngine`] transition, delivered to
/// an attached [`TransitionSink`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transition {
    /// The sub-window the event targeted.
    pub subwindow: u32,
    /// The event's stable name ([`WindowEvent::name`]).
    pub event: &'static str,
    /// The phase the FSM was in (for an unknown window, the synthetic
    /// [`WindowPhase::Released`], matching [`FsmError`]).
    pub from: WindowPhase,
    /// The phase entered, or `None` when the transition was rejected
    /// (counted into [`WindowEngine::rejected`]).
    pub to: Option<WindowPhase>,
}

/// Observer of [`WindowEngine`] transitions.
///
/// The observability layer (`ow-obs`) implements this to mirror every
/// lifecycle step into its metrics registry and event journal without
/// `ow-common` depending on it. Sinks must be cheap: they run inline on
/// the engine's apply path.
pub trait TransitionSink: Send + Sync {
    /// Called after every [`WindowEngine::apply`], accepted or rejected.
    fn on_transition(&self, transition: &Transition);
}

/// The set of live window FSMs of one switch.
///
/// Keyed by sub-window, with scheduling queries for the switch driver
/// (which C&R is due, which single window is mid-C&R) and a count of
/// rejected transitions. Released windows are pruned eagerly so the engine
/// stays bounded by the number of *in-flight* windows, not the trace
/// length.
#[derive(Clone, Default)]
pub struct WindowEngine {
    windows: BTreeMap<u32, WindowFsm>,
    released: u64,
    rejected: u64,
    sink: Option<Arc<dyn TransitionSink>>,
}

impl core::fmt::Debug for WindowEngine {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("WindowEngine")
            .field("windows", &self.windows)
            .field("released", &self.released)
            .field("rejected", &self.rejected)
            .field("sink", &self.sink.as_ref().map(|_| "attached"))
            .finish()
    }
}

impl WindowEngine {
    /// An empty engine.
    pub fn new() -> WindowEngine {
        WindowEngine::default()
    }

    /// Attach a transition observer. Every subsequent
    /// [`WindowEngine::apply`] — accepted or rejected — is mirrored to
    /// the sink. Clones of the engine share the attached sink.
    pub fn set_sink(&mut self, sink: Arc<dyn TransitionSink>) {
        self.sink = Some(sink);
    }

    fn notify(&self, transition: Transition) {
        if let Some(sink) = &self.sink {
            sink.on_transition(&transition);
        }
    }

    /// Get (or create in [`WindowPhase::Open`]) the FSM for `subwindow`.
    pub fn open(&mut self, subwindow: u32) -> &mut WindowFsm {
        self.windows
            .entry(subwindow)
            .or_insert_with(|| WindowFsm::open(subwindow))
    }

    /// The FSM for `subwindow`, if still in flight.
    pub fn get(&self, subwindow: u32) -> Option<&WindowFsm> {
        self.windows.get(&subwindow)
    }

    /// Phase of `subwindow` (`Released` once pruned is reported as
    /// `None` — the engine keeps counters, not tombstones).
    pub fn phase(&self, subwindow: u32) -> Option<WindowPhase> {
        self.windows.get(&subwindow).map(|f| f.phase())
    }

    /// Apply `event` to `subwindow`'s FSM. Unknown windows and illegal
    /// transitions are both counted into [`WindowEngine::rejected`] and
    /// returned as errors. A transition into
    /// [`WindowPhase::Released`] prunes the FSM.
    pub fn apply(&mut self, subwindow: u32, event: WindowEvent) -> Result<WindowPhase, FsmError> {
        let Some(fsm) = self.windows.get_mut(&subwindow) else {
            self.rejected += 1;
            self.notify(Transition {
                subwindow,
                event: event.name(),
                from: WindowPhase::Released,
                to: None,
            });
            return Err(FsmError {
                subwindow,
                phase: WindowPhase::Released,
                event: event.name(),
            });
        };
        let from = fsm.phase();
        let result = match fsm.apply(event) {
            Ok(WindowPhase::Released) => {
                self.windows.remove(&subwindow);
                self.released += 1;
                Ok(WindowPhase::Released)
            }
            Ok(phase) => Ok(phase),
            Err(e) => {
                self.rejected += 1;
                Err(e)
            }
        };
        self.notify(Transition {
            subwindow,
            event: event.name(),
            from,
            to: result.ok(),
        });
        result
    }

    /// The single window currently between termination and batch
    /// generation (`CrWait` or `Collecting`) — the two-region constraint
    /// allows at most one.
    pub fn pending_cr(&self) -> Option<(u32, Instant)> {
        self.windows
            .values()
            .find(|f| matches!(f.phase(), WindowPhase::CrWait | WindowPhase::Collecting))
            .map(|f| (f.subwindow(), f.cr_due().unwrap_or(Instant::ZERO)))
    }

    /// The lowest `CrWait` window whose due time has passed.
    pub fn due_collection(&self, now: Instant) -> Option<u32> {
        self.windows
            .values()
            .find(|f| f.phase() == WindowPhase::CrWait && f.cr_due().is_some_and(|d| now >= d))
            .map(|f| f.subwindow())
    }

    /// Windows that completed their lifecycle (pruned on release).
    pub fn released(&self) -> u64 {
        self.released
    }

    /// Rejected transitions observed — nonzero means an event arrived
    /// that the window's phase does not allow.
    pub fn rejected(&self) -> u64 {
        self.rejected
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Duration;

    fn full_switch_side(fsm: &mut WindowFsm) {
        fsm.apply(WindowEvent::SignalFired).unwrap();
        fsm.apply(WindowEvent::CrScheduled {
            due: Instant::from_millis(101),
        })
        .unwrap();
        fsm.apply(WindowEvent::CollectStarted).unwrap();
        fsm.apply(WindowEvent::BatchGenerated).unwrap();
    }

    /// A window walked from `open` to `Collected`: its batch exists.
    fn collected(subwindow: u32) -> WindowFsm {
        let mut fsm = WindowFsm::open(subwindow);
        full_switch_side(&mut fsm);
        fsm
    }

    #[test]
    fn happy_path_reaches_released() {
        let mut fsm = WindowFsm::open(0);
        full_switch_side(&mut fsm);
        assert_eq!(fsm.phase(), WindowPhase::Collected);
        assert_eq!(
            fsm.apply(WindowEvent::StreamComplete),
            Ok(WindowPhase::Merged)
        );
        assert_eq!(fsm.apply(WindowEvent::Acked), Ok(WindowPhase::Released));
        assert!(fsm.phase().is_terminal());
    }

    #[test]
    fn retransmit_side_loop_counts_rounds() {
        let mut fsm = collected(7);
        fsm.apply(WindowEvent::RetransmitRound).unwrap();
        fsm.apply(WindowEvent::RetransmitRound).unwrap();
        assert_eq!(fsm.phase(), WindowPhase::Retransmitting);
        assert_eq!(fsm.retransmit_rounds(), 2);
        assert_eq!(
            fsm.apply(WindowEvent::EscalateOsRead),
            Ok(WindowPhase::Escalated)
        );
        fsm.apply(WindowEvent::StreamComplete).unwrap();
        assert_eq!(fsm.phase(), WindowPhase::Merged);
    }

    #[test]
    fn illegal_transitions_are_rejected_without_state_change() {
        let mut fsm = WindowFsm::open(3);
        let err = fsm.apply(WindowEvent::StreamComplete).unwrap_err();
        assert_eq!(err.subwindow, 3);
        assert_eq!(err.phase, WindowPhase::Open);
        assert_eq!(err.event, "stream_complete");
        assert_eq!(fsm.phase(), WindowPhase::Open, "FSM unchanged on error");
        // Error formatting is stable enough to log.
        assert!(err.to_string().contains("stream_complete"));
    }

    #[test]
    fn eviction_releases_unmerged_windows() {
        let mut fsm = collected(1);
        assert_eq!(fsm.apply(WindowEvent::Evicted), Ok(WindowPhase::Released));
        assert_eq!(fsm.phase(), WindowPhase::Released);
    }

    #[test]
    fn departure_releases_from_every_non_terminal_phase() {
        // Walk the happy path, branching off a departure at every
        // intermediate phase: each one must release immediately.
        let reach = |phase: WindowPhase| -> WindowFsm {
            let mut fsm = WindowFsm::open(5);
            let script: &[WindowEvent] = &[
                WindowEvent::SignalFired,
                WindowEvent::CrScheduled {
                    due: Instant::from_millis(101),
                },
                WindowEvent::CollectStarted,
                WindowEvent::BatchGenerated,
                WindowEvent::RetransmitRound,
                WindowEvent::EscalateOsRead,
                WindowEvent::StreamComplete,
            ];
            for ev in script {
                if fsm.phase() == phase {
                    break;
                }
                fsm.apply(*ev).unwrap();
            }
            assert_eq!(fsm.phase(), phase, "script reaches {phase}");
            fsm
        };
        for phase in WindowPhase::LIFECYCLE
            .into_iter()
            .filter(|p| !p.is_terminal())
        {
            let mut fsm = reach(phase);
            let to = fsm
                .apply(WindowEvent::SwitchDeparted)
                .unwrap_or_else(|e| panic!("departure from {phase}: {e}"));
            assert_eq!(to, WindowPhase::Released);
            assert_eq!(fsm.phase(), WindowPhase::Released);
        }
    }

    #[test]
    fn released_windows_reject_departure() {
        let mut fsm = collected(2);
        fsm.apply(WindowEvent::SwitchDeparted).unwrap();
        let err = fsm.apply(WindowEvent::SwitchDeparted).unwrap_err();
        assert_eq!(err.event, "switch_departed");
        assert_eq!(err.phase, WindowPhase::Released);
    }

    #[test]
    fn merged_windows_cannot_be_evicted() {
        let mut fsm = collected(1);
        fsm.apply(WindowEvent::StreamComplete).unwrap();
        assert!(fsm.apply(WindowEvent::Evicted).is_err());
    }

    #[test]
    fn engine_schedules_and_prunes() {
        let mut engine = WindowEngine::new();
        engine.open(0);
        engine.apply(0, WindowEvent::SignalFired).unwrap();
        engine
            .apply(
                0,
                WindowEvent::CrScheduled {
                    due: Instant::from_millis(100) + Duration::from_millis(1),
                },
            )
            .unwrap();
        assert_eq!(engine.pending_cr(), Some((0, Instant::from_millis(101))));
        assert_eq!(engine.due_collection(Instant::from_millis(100)), None);
        assert_eq!(engine.due_collection(Instant::from_millis(101)), Some(0));
        engine.apply(0, WindowEvent::CollectStarted).unwrap();
        engine.apply(0, WindowEvent::BatchGenerated).unwrap();
        assert_eq!(engine.pending_cr(), None);
        engine.apply(0, WindowEvent::StreamComplete).unwrap();
        engine.apply(0, WindowEvent::Acked).unwrap();
        assert!(engine.windows.is_empty());
        assert_eq!(engine.released(), 1);
        assert_eq!(engine.rejected(), 0);
    }

    #[test]
    fn engine_counts_drift() {
        let mut engine = WindowEngine::new();
        assert!(engine.apply(9, WindowEvent::StreamComplete).is_err());
        engine.open(1);
        assert!(engine.apply(1, WindowEvent::Acked).is_err());
        assert_eq!(engine.rejected(), 2);
        assert_eq!(engine.phase(1), Some(WindowPhase::Open));
        assert_eq!(engine.phase(9), None);
    }

    #[test]
    fn sink_observes_accepted_and_rejected_transitions() {
        use std::sync::Mutex;

        #[derive(Default)]
        struct Rec(Mutex<Vec<Transition>>);
        impl TransitionSink for Rec {
            fn on_transition(&self, t: &Transition) {
                self.0.lock().unwrap().push(*t);
            }
        }

        let rec = Arc::new(Rec::default());
        let mut engine = WindowEngine::new();
        engine.set_sink(rec.clone());
        engine.open(2);
        engine.apply(2, WindowEvent::SignalFired).unwrap();
        assert!(engine.apply(9, WindowEvent::Acked).is_err());
        let ts = rec.0.lock().unwrap();
        assert_eq!(ts.len(), 2);
        assert_eq!(
            ts[0],
            Transition {
                subwindow: 2,
                event: "signal_fired",
                from: WindowPhase::Open,
                to: Some(WindowPhase::Terminated),
            }
        );
        assert_eq!(ts[1].to, None, "rejected");
        assert_eq!(ts[1].from, WindowPhase::Released);
    }
}
