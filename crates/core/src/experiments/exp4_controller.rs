//! Exp#4 (Figure 10): controller time-usage breakdown.
//!
//! Measures the wall-clock time of the five controller operations
//! (O1 collect, O2+O3 insert and merge — one `MergeTable::insert_block`
//! call, so one column — O4 process, O5 evict) per sub-window, for both
//! tumbling and sliding reconstruction over five-sub-window windows,
//! using Q1-scale AFR batches.

use serde::Serialize;

use ow_common::afr::FlowRecord;
use ow_common::flowkey::FlowKey;
use ow_common::hash::mix64;
use ow_controller::timing::{InstrumentedController, WindowMode};

/// One sub-window's measured breakdown, in microseconds.
#[derive(Debug, Clone, Serialize)]
pub struct BreakdownRow {
    /// Sub-window label (sw1…).
    pub subwindow: u32,
    /// O1 collect µs.
    pub o1_collect: f64,
    /// O2+O3 insert-and-merge µs.
    pub o23_insert_merge: f64,
    /// O4 process µs.
    pub o4_process: f64,
    /// O5 evict µs.
    pub o5_evict: f64,
}

impl BreakdownRow {
    /// Total µs.
    pub fn total(&self) -> f64 {
        self.o1_collect + self.o23_insert_merge + self.o4_process + self.o5_evict
    }
}

/// The whole experiment.
#[derive(Debug, Clone, Serialize)]
pub struct Exp4Result {
    /// Tumbling-window rows (five sub-windows).
    pub tumbling: Vec<BreakdownRow>,
    /// Sliding-window rows.
    pub sliding: Vec<BreakdownRow>,
}

/// Build one sub-window's AFR batch with `flows` records. Roughly 70% of
/// flows persist across sub-windows (the merge-heavy case) and 30% are
/// new — matching the churn the paper's trace shows.
fn batch(subwindow: u32, flows: usize, seed: u64) -> Vec<FlowRecord> {
    (0..flows)
        .map(|i| {
            let persistent = i < flows * 7 / 10;
            let id = if persistent {
                i as u64
            } else {
                mix64(seed ^ subwindow as u64 ^ i as u64) | 0x8000_0000
            };
            let mut r = FlowRecord::frequency(
                FlowKey::src_ip((id as u32) | 0x0A00_0000),
                1 + (mix64(id) % 50),
                subwindow,
            );
            r.seq = i as u32;
            r
        })
        .collect()
}

/// Run Exp#4 with `flows_per_subwindow` AFRs per sub-window (the paper's
/// sub-windows carry 64 K–96 K flows).
pub fn run(flows_per_subwindow: usize, subwindows: u32, seed: u64) -> Exp4Result {
    let threshold = 100.0;
    let spw = 5usize;

    let run_mode = |mode: WindowMode| -> Vec<BreakdownRow> {
        let mut c = InstrumentedController::new(mode, threshold);
        let mut rows = Vec::new();
        for sw in 0..subwindows {
            let b = batch(sw, flows_per_subwindow, seed);
            let bd = c.ingest(sw, &b);
            rows.push(BreakdownRow {
                subwindow: sw + 1,
                o1_collect: bd.o1_collect.as_secs_f64() * 1e6,
                o23_insert_merge: bd.o23_insert_merge.as_secs_f64() * 1e6,
                o4_process: bd.o4_process.as_secs_f64() * 1e6,
                o5_evict: bd.o5_evict.as_secs_f64() * 1e6,
            });
        }
        rows
    };

    Exp4Result {
        tumbling: run_mode(WindowMode::Tumbling { subwindows: spw }),
        sliding: run_mode(WindowMode::Sliding { subwindows: spw }),
    }
}

impl Exp4Result {
    /// Mean total µs per sub-window for a mode's rows.
    pub fn mean_total(rows: &[BreakdownRow]) -> f64 {
        if rows.is_empty() {
            return 0.0;
        }
        rows.iter().map(|r| r.total()).sum::<f64>() / rows.len() as f64
    }
}
