//! The O1–O5 instrumented controller (Exp#4).
//!
//! Wall-clock timers around the five controller operations the paper
//! breaks down, taken on the [`MergeTable`] every live path folds into:
//!
//! * **O1** — collect the sub-window's AFRs: stage them as a
//!   [`RecordBlock`] (the copy the live feeder also pays),
//! * **O2+O3** — insert the AFRs into the key-value table and merge each
//!   flow's AFR into its slot. [`MergeTable::insert_block`] resolves the
//!   slots and folds the attribute lane in one call, so the two are one
//!   column: timing them apart would take a second table implementation,
//!   and then the instrument would not time the table that runs,
//! * **O4** — process the merged result (threshold query) — once per
//!   complete window for tumbling, after every sub-window for sliding,
//! * **O5** — remove the oldest sub-window (sliding only).
//!
//! Timings use `std::time::Instant` (real CPU time): these operations
//! run on the controller host in the real system too.

use std::time::{Duration, Instant};

use ow_common::afr::FlowRecord;
use ow_common::block::RecordBlock;
use ow_common::flowkey::FlowKey;

use crate::table::MergeTable;

/// Window reconstruction mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowMode {
    /// Non-overlapping windows of `subwindows` sub-windows each.
    Tumbling {
        /// Sub-windows per window.
        subwindows: usize,
    },
    /// Overlapping windows of `subwindows` sub-windows, sliding by one.
    Sliding {
        /// Sub-windows per window.
        subwindows: usize,
    },
}

/// Wall-clock breakdown of one sub-window's controller work.
#[derive(Debug, Clone, Copy, Default)]
pub struct OpBreakdown {
    /// Sub-window this breakdown describes.
    pub subwindow: u32,
    /// O1: AFR collection/staging.
    pub o1_collect: Duration,
    /// O2+O3: key-value table insertion and per-flow merging (one call).
    pub o23_insert_merge: Duration,
    /// O4: merged-result processing.
    pub o4_process: Duration,
    /// O5: oldest-sub-window removal (sliding only).
    pub o5_evict: Duration,
}

/// The instrumented controller.
#[derive(Debug)]
pub struct InstrumentedController {
    mode: WindowMode,
    threshold: f64,
    table: MergeTable,
    /// Reported flow sets, one per completed window.
    reports: Vec<Vec<FlowKey>>,
}

impl InstrumentedController {
    /// Create a controller reporting flows whose merged scalar ≥
    /// `threshold`.
    pub fn new(mode: WindowMode, threshold: f64) -> InstrumentedController {
        InstrumentedController {
            mode,
            threshold,
            table: MergeTable::new(),
            reports: Vec::new(),
        }
    }

    /// Process one terminated sub-window's AFR stream, timing O1–O5.
    pub fn ingest(&mut self, subwindow: u32, incoming: &[FlowRecord]) -> OpBreakdown {
        let mut bd = OpBreakdown {
            subwindow,
            ..OpBreakdown::default()
        };

        let t = Instant::now();
        let block = RecordBlock::from_records(subwindow, incoming);
        bd.o1_collect = t.elapsed();

        let t = Instant::now();
        self.table.insert_block(block, true);
        bd.o23_insert_merge = t.elapsed();

        let (WindowMode::Tumbling { subwindows } | WindowMode::Sliding { subwindows }) = self.mode;
        if self.table.subwindows().len() >= subwindows {
            // O4: once per complete window (tumbling), or after every
            // sub-window once the window is full (sliding).
            let t = Instant::now();
            let over = self.table.flows_over(self.threshold);
            bd.o4_process = t.elapsed();
            self.reports
                .push(over.into_iter().map(|(k, _)| k).collect());

            match self.mode {
                WindowMode::Tumbling { .. } => self.table.clear(),
                WindowMode::Sliding { .. } => {
                    let t = Instant::now();
                    self.table.evict_oldest();
                    bd.o5_evict = t.elapsed();
                }
            }
        }

        bd
    }

    /// Reported flow sets, one per completed window.
    pub fn reports(&self) -> &[Vec<FlowKey>] {
        &self.reports
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ow_common::afr::AttrValue;

    fn batch(sw: u32, flows: std::ops::Range<u32>, count: u64) -> Vec<FlowRecord> {
        flows
            .map(|i| FlowRecord::frequency(FlowKey::src_ip(i), count, sw))
            .collect()
    }

    #[test]
    fn tumbling_reports_once_per_window() {
        let mut c = InstrumentedController::new(WindowMode::Tumbling { subwindows: 3 }, 25.0);
        c.ingest(0, &batch(0, 0..10, 10));
        c.ingest(1, &batch(1, 0..10, 10));
        assert!(c.reports().is_empty());
        c.ingest(2, &batch(2, 0..10, 10));
        assert_eq!(c.reports().len(), 1);
        // 3 × 10 = 30 ≥ 25: every flow reported.
        assert_eq!(c.reports()[0].len(), 10);
        // Table released after the window.
        assert_eq!(c.table.len(), 0);
    }

    #[test]
    fn sliding_reports_every_subwindow_once_full() {
        let mut c = InstrumentedController::new(WindowMode::Sliding { subwindows: 2 }, 15.0);
        c.ingest(0, &batch(0, 0..5, 10));
        assert!(c.reports().is_empty());
        c.ingest(1, &batch(1, 0..5, 10));
        assert_eq!(c.reports().len(), 1);
        c.ingest(2, &batch(2, 0..5, 10));
        assert_eq!(c.reports().len(), 2);
        // After eviction, the merged window spans exactly 2 sub-windows.
        assert_eq!(c.table.len(), 5);
    }

    #[test]
    fn sliding_eviction_subtracts_and_deletes() {
        let mut c = InstrumentedController::new(WindowMode::Sliding { subwindows: 2 }, 10_000.0);
        // Flow 0 in all sub-windows; flow 99 only in sub-window 0.
        let mut b0 = batch(0, 0..1, 100);
        b0.extend(batch(0, 99..100, 7));
        c.ingest(0, &b0);
        c.ingest(1, &batch(1, 0..1, 10));
        // Window [0,1] processed; sub-window 0 evicted.
        c.ingest(2, &batch(2, 0..1, 1));
        // Flow 99 appeared only in the evicted sub-window → deleted.
        assert_eq!(c.table.len(), 1);
    }

    #[test]
    fn signed_eviction_negates() {
        let mut c = InstrumentedController::new(WindowMode::Sliding { subwindows: 2 }, 1e18);
        let rec = |sw: u32, v: i64| {
            vec![FlowRecord {
                key: FlowKey::src_ip(1),
                attr: AttrValue::Signed(v),
                subwindow: sw,
                seq: 0,
            }]
        };
        c.ingest(0, &rec(0, 5));
        c.ingest(1, &rec(1, 3));
        c.ingest(2, &rec(2, -2));
        // ingest(2) reported window [1,2] (3 + (−2) = 1) and then evicted
        // sub-window 1, so the table now holds only sub-window 2's −2 —
        // the eviction must have removed sub-window 1's +3.
        assert_eq!(
            c.table.get(&FlowKey::src_ip(1)),
            Some(AttrValue::Signed(-2))
        );
    }

    #[test]
    fn breakdowns_recorded_per_subwindow() {
        let mut c = InstrumentedController::new(WindowMode::Sliding { subwindows: 2 }, 5.0);
        let breakdowns: Vec<OpBreakdown> = (0..4)
            .map(|sw| c.ingest(sw, &batch(sw, 0..100, 1)))
            .collect();
        assert_eq!(breakdowns[2].subwindow, 2);
        // O5 only fires once the window is full.
        assert_eq!(breakdowns[0].o5_evict, Duration::ZERO);
        let b = &breakdowns[3];
        assert!(b.o1_collect + b.o23_insert_merge + b.o4_process + b.o5_evict > Duration::ZERO);
    }
}
