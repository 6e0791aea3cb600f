//! The §8 state-migration path: telemetry structures that cannot answer
//! data-plane flow queries (FlowRadar, NZE) have their *entire state*
//! migrated to the controller per sub-window; the controller decodes
//! each state into AFRs and merges those — the same recirculate-and-
//! clone machinery, but carrying register contents instead of AFRs.

use ow_common::afr::FlowRecord;
use ow_common::flowkey::KeyKind;
use ow_common::time::Duration;
use ow_controller::table::MergeTable;
use ow_sketch::FlowRadar;
use ow_switch::latency;
use ow_trace::Trace;

use crate::config::WindowConfig;
use crate::mechanisms::{per_subwindow, window_ranges, Mode, WindowResult};

/// Outcome of the migration pipeline.
#[derive(Debug, Clone)]
pub struct MigrationRun {
    /// Per-window results (reported = flows over the threshold).
    pub windows: Vec<WindowResult>,
    /// Whether every sub-window state decoded completely.
    pub all_complete: bool,
    /// Modelled per-sub-window migration time (recirculating the state
    /// registers to the controller, like DPC over the state's slots).
    pub migration_time: Duration,
}

/// Counting cells per sub-window instance.
const CELLS: usize = 16 * 1024;
/// Encoding hashes.
const HASHES: usize = 3;
/// Expected flows per sub-window (sizes the flow filter).
const EXPECTED_FLOWS: usize = 8 * 1024;
const SEED: u64 = 0xF10;
/// A merged flow at or above this many packets is reported.
const THRESHOLD: f64 = 100.0;

/// Run FlowRadar under OmniWindow with state migration: one instance per
/// sub-window, decoded by the controller, merged per tumbling window.
pub fn run_flowradar(trace: &Trace, cfg: &WindowConfig) -> MigrationRun {
    let mut all_complete = true;
    let batches = per_subwindow(
        trace,
        cfg,
        FlowRadar::new(CELLS, HASHES, EXPECTED_FLOWS, SEED),
        |state, pkt| state.update(&pkt.key(KeyKind::FiveTuple)),
        |state, sw| {
            // Migrate: the controller receives the raw state and decodes
            // it into AFRs (clone keeps the functional state intact for
            // reset).
            let decoded = state.clone().decode();
            all_complete &= decoded.complete;
            let batch: Vec<FlowRecord> = decoded
                .flows
                .into_iter()
                .enumerate()
                .map(|(i, (key, count))| {
                    let mut r = FlowRecord::frequency(key, count, sw as u32);
                    r.seq = i as u32;
                    r
                })
                .collect();
            state.reset();
            batch
        },
    );

    let windows = window_ranges(cfg, batches.len(), Mode::Tumbling)
        .into_iter()
        .enumerate()
        .map(|(index, (lo, hi))| {
            let mut table = MergeTable::new();
            for (sw, batch) in batches[lo..hi].iter().enumerate() {
                table.insert_batch((lo + sw) as u32, batch.clone());
            }
            let reported = table
                .iter()
                .filter(|(_, v)| v.scalar() >= THRESHOLD)
                .map(|(k, _)| k)
                .collect();
            let estimates = table.iter().map(|(k, v)| (k, v.scalar())).collect();
            WindowResult {
                index,
                reported,
                estimates,
            }
        })
        .collect();

    MigrationRun {
        windows,
        all_complete,
        // The migration recirculates one packet per register slot, like
        // the data-plane collection path over `CELLS` slots.
        migration_time: latency::recirc_enumeration(CELLS, 16),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ow_common::flowkey::FlowKey;
    use ow_common::packet::{Packet, TcpFlags};
    use ow_common::time::Instant;

    fn trace() -> Trace {
        let mut packets = Vec::new();
        // Flow 42: 60 + 80 packets across the two sub-windows of window 0
        // (the §4.1 boundary case), among light flows.
        for i in 0..60u64 {
            packets.push(Packet::tcp(
                Instant::from_millis(i),
                42,
                9,
                1,
                80,
                TcpFlags::ack(),
                64,
            ));
        }
        for i in 0..80u64 {
            packets.push(Packet::tcp(
                Instant::from_millis(100 + i),
                42,
                9,
                1,
                80,
                TcpFlags::ack(),
                64,
            ));
        }
        for f in 0..50u32 {
            for s in 0..5u64 {
                packets.push(Packet::tcp(
                    Instant::from_millis(s * 100 + (f as u64) % 90),
                    1000 + f,
                    9,
                    1,
                    80,
                    TcpFlags::ack(),
                    64,
                ));
            }
        }
        packets.sort_by_key(|p| p.ts);
        Trace {
            packets,
            duration: Duration::from_millis(500),
        }
    }

    #[test]
    fn flowradar_migration_recovers_exact_counts() {
        let run = run_flowradar(&trace(), &WindowConfig::paper_default());
        assert!(run.all_complete, "states must decode completely");
        assert_eq!(run.windows.len(), 1);
        let w = &run.windows[0];
        let heavy_key = FlowKey::five_tuple(42, 9, 1, 80, 6);
        // FlowRadar decoding is exact: 140 packets, found after merging.
        assert_eq!(w.estimates[&heavy_key], 140.0);
        assert!(w.reported.contains(&heavy_key));
        // Light flows (5 packets) are decoded exactly too.
        let light = FlowKey::five_tuple(1000, 9, 1, 80, 6);
        assert_eq!(w.estimates[&light], 5.0);
        assert!(!w.reported.contains(&light));
    }

    #[test]
    fn migration_time_fits_subwindow() {
        let run = run_flowradar(&trace(), &WindowConfig::paper_default());
        assert!(run.migration_time < Duration::from_millis(10));
    }
}
