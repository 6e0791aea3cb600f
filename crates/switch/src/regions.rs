//! Shared two-region state management with the flattened SALU layout (§6).
//!
//! Only one sub-window is actively measured at any time, so OmniWindow
//! keeps exactly **two** memory regions per application: the active
//! sub-window measures into one while the previous sub-window's state in
//! the other is collected and reset. Because fast C&R finishes well
//! within a sub-window, two regions suffice for continuous monitoring.
//!
//! The *flattened layout* concatenates both regions into one logical
//! array and installs each region's base offset in a match-action table;
//! address = offset(subwindow) + index. One SALU per register array then
//! serves both regions — without the layout, each region needs its own
//! SALU and the SALU cost doubles (`ablations::salu_ablation`
//! quantifies this).

use ow_common::time::Instant;

use crate::app::DataPlaneApp;
use crate::flowkey::FlowkeyTracker;

/// The two-region state wrapper around a telemetry application.
#[derive(Debug, Clone)]
pub struct TwoRegionState<A> {
    regions: [A; 2],
    trackers: [FlowkeyTracker; 2],
    /// Region index the active sub-window writes into.
    active: usize,
    /// Sub-window number currently measured into `active`.
    active_subwindow: u32,
    /// Outstanding C&R on the inactive region: `(subwindow, finish_time)`.
    pending_cr: Option<(u32, Instant)>,
    /// Count of rotations that happened while the previous C&R was still
    /// running — each one is a correctness hazard (the TW1 failure mode);
    /// OmniWindow's fast C&R keeps this at zero.
    cr_overruns: u64,
}

impl<A: DataPlaneApp> TwoRegionState<A> {
    /// Create the wrapper from two identically-configured application
    /// instances and two flowkey trackers.
    pub(crate) fn new(
        region_a: A,
        region_b: A,
        tracker_a: FlowkeyTracker,
        tracker_b: FlowkeyTracker,
    ) -> Self {
        TwoRegionState {
            regions: [region_a, region_b],
            trackers: [tracker_a, tracker_b],
            active: 0,
            active_subwindow: 0,
            pending_cr: None,
            cr_overruns: 0,
        }
    }

    /// The active region (current sub-window's state).
    pub(crate) fn active(&self) -> &A {
        &self.regions[self.active]
    }

    /// Mutable active region plus its tracker — the per-packet hot path.
    pub(crate) fn active_mut(&mut self) -> (&mut A, &mut FlowkeyTracker) {
        (
            &mut self.regions[self.active],
            &mut self.trackers[self.active],
        )
    }

    /// The sub-window number being measured.
    pub(crate) fn active_subwindow(&self) -> u32 {
        self.active_subwindow
    }

    /// The inactive region and its tracker (the one C&R operates on).
    pub(crate) fn inactive_mut(&mut self) -> (&mut A, &mut FlowkeyTracker) {
        let idx = 1 - self.active;
        // Split-borrow via indices.
        let (r, t) = (&mut self.regions, &mut self.trackers);
        // Safe split: idx != self.active.
        (&mut r[idx], &mut t[idx])
    }

    /// Query the region holding sub-window `sw`, if still resident.
    ///
    /// The preserved previous sub-window (for out-of-order packets) is the
    /// inactive region until its C&R completes.
    pub(crate) fn region_of(&mut self, sw: u32) -> Option<(&mut A, &mut FlowkeyTracker)> {
        if sw == self.active_subwindow {
            Some(self.active_mut())
        } else if self
            .pending_cr
            .map(|(pending_sw, _)| pending_sw == sw)
            .unwrap_or(false)
        {
            Some(self.inactive_mut())
        } else {
            None
        }
    }

    /// Rotate at a sub-window termination: the active region becomes the
    /// C&R target and the other region takes over measurement for
    /// sub-window `next`. `cr_finish` is when the scheduled C&R of the
    /// outgoing region will complete (from the latency model).
    ///
    /// Returns the sub-window whose state is now pending collection.
    pub(crate) fn rotate(&mut self, next: u32, now: Instant, cr_finish: Instant) -> u32 {
        // If the previous C&R hadn't finished, measuring would have raced
        // with reset — count the overrun (OmniWindow's design goal is that
        // this never happens; TW1 hits it every window).
        if let Some((_, finish)) = self.pending_cr {
            if finish > now {
                self.cr_overruns += 1;
            }
        }
        let ended = self.active_subwindow;
        self.active = 1 - self.active;
        self.active_subwindow = next;
        self.pending_cr = Some((ended, cr_finish));
        ended
    }

    /// Mark the pending C&R as done (called after the collect engine
    /// finishes with the inactive region).
    pub(crate) fn complete_cr(&mut self) {
        self.pending_cr = None;
    }

    /// The pending C&R, if any.
    pub(crate) fn pending_cr(&self) -> Option<(u32, Instant)> {
        self.pending_cr
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::FrequencyApp;
    use ow_common::afr::AttrValue;
    use ow_common::flowkey::{FlowKey, KeyKind};
    use ow_common::packet::{Packet, TcpFlags};
    use ow_sketch::CountMin;

    type App = FrequencyApp<CountMin>;

    fn make() -> TwoRegionState<App> {
        let app = |s| FrequencyApp::new(CountMin::new(2, 256, s), KeyKind::SrcIp, false);
        TwoRegionState::new(
            app(1),
            app(2),
            FlowkeyTracker::new(64, 256, 3),
            FlowkeyTracker::new(64, 256, 4),
        )
    }

    fn pkt(src: u32, ms: u64) -> Packet {
        Packet::tcp(Instant::from_millis(ms), src, 9, 1, 80, TcpFlags::ack(), 64)
    }

    #[test]
    fn rotation_swaps_regions() {
        let mut s = make();
        {
            let (app, tr) = s.active_mut();
            app.update(&pkt(1, 10));
            tr.track(&FlowKey::src_ip(1));
        }
        let ended = s.rotate(1, Instant::from_millis(100), Instant::from_millis(102));
        assert_eq!(ended, 0);
        assert_eq!(s.active_subwindow(), 1);
        // The new active region is clean.
        assert_eq!(
            s.active().query(&FlowKey::src_ip(1)),
            AttrValue::Frequency(0)
        );
        // The inactive region still holds sub-window 0's state.
        let (old, _) = s.inactive_mut();
        assert_eq!(old.query(&FlowKey::src_ip(1)), AttrValue::Frequency(1));
    }

    #[test]
    fn region_of_finds_preserved_subwindow() {
        let mut s = make();
        {
            let (app, _) = s.active_mut();
            app.update(&pkt(5, 10));
        }
        s.rotate(1, Instant::from_millis(100), Instant::from_millis(102));
        // Out-of-order packet for sub-window 0 still lands in its region.
        let (region, _) = s.region_of(0).expect("preserved");
        assert_eq!(region.query(&FlowKey::src_ip(5)), AttrValue::Frequency(1));
        // Sub-window 7 is nowhere.
        assert!(s.region_of(7).is_none());
    }

    #[test]
    fn overrun_detected_when_cr_still_running() {
        let mut s = make();
        // C&R scheduled to finish at t=200ms…
        s.rotate(1, Instant::from_millis(100), Instant::from_millis(200));
        // …but the next rotation happens at 150ms.
        s.rotate(2, Instant::from_millis(150), Instant::from_millis(250));
        assert_eq!(s.cr_overruns, 1);
    }

    #[test]
    fn no_overrun_when_cr_fast() {
        let mut s = make();
        s.rotate(1, Instant::from_millis(100), Instant::from_millis(102));
        s.complete_cr();
        s.rotate(2, Instant::from_millis(200), Instant::from_millis(202));
        assert_eq!(s.cr_overruns, 0);
    }
}
