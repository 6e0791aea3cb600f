//! The §8 state-migration path: telemetry structures that cannot answer
//! data-plane flow queries (FlowRadar, NZE) have their *entire state*
//! migrated to the controller per sub-window; the controller decodes
//! each state into AFRs and merges those — the same recirculate-and-
//! clone machinery, but carrying register contents instead of AFRs.

use std::collections::HashMap;

use ow_common::afr::FlowRecord;
use ow_common::flowkey::{FlowKey, KeyKind};
use ow_common::time::Duration;
use ow_controller::table::MergeTable;
use ow_sketch::FlowRadar;
use ow_switch::latency;
use ow_trace::Trace;

use crate::config::WindowConfig;
use crate::mechanisms::{Mode, WindowResult};

/// Configuration of the FlowRadar deployment.
#[derive(Debug, Clone)]
pub struct FlowRadarConfig {
    /// Counting cells per sub-window instance.
    pub cells: usize,
    /// Encoding hashes.
    pub hashes: usize,
    /// Expected flows per sub-window (sizes the flow filter).
    pub expected_flows: usize,
    /// Seed.
    pub seed: u64,
}

impl Default for FlowRadarConfig {
    fn default() -> Self {
        FlowRadarConfig {
            cells: 16 * 1024,
            hashes: 3,
            expected_flows: 8 * 1024,
            seed: 0xF10,
        }
    }
}

/// Outcome of the migration pipeline.
#[derive(Debug, Clone)]
pub struct MigrationRun {
    /// Per-window results (reported = flows over the threshold).
    pub windows: Vec<WindowResult>,
    /// Whether every sub-window state decoded completely.
    pub all_complete: bool,
    /// Modelled per-sub-window migration time (recirculating the state
    /// registers to the controller, like DPC over `cells` slots).
    pub migration_time: Duration,
}

/// Run FlowRadar under OmniWindow with state migration: one instance per
/// sub-window, decoded by the controller, merged per window position.
pub fn run_flowradar(
    trace: &Trace,
    cfg: &WindowConfig,
    mode: Mode,
    fr_cfg: &FlowRadarConfig,
    threshold: f64,
) -> MigrationRun {
    let n_sub = cfg.subwindows_in(trace.duration);
    let mut state = FlowRadar::new(
        fr_cfg.cells,
        fr_cfg.hashes,
        fr_cfg.expected_flows,
        fr_cfg.seed,
    );
    let mut batches: Vec<Vec<FlowRecord>> = Vec::with_capacity(n_sub);
    let mut all_complete = true;
    let mut current = 0usize;

    let finish = |state: &mut FlowRadar, sw: usize, all_complete: &mut bool| {
        // Migrate: the controller receives the raw state and decodes it
        // into AFRs (clone keeps the functional state intact for reset).
        let decoded = state.clone().decode();
        *all_complete &= decoded.complete;
        let batch = decoded
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
    };

    for pkt in trace.iter() {
        let s = cfg.subwindow_of(pkt.ts) as usize;
        if s >= n_sub {
            break;
        }
        while s > current {
            let b = finish(&mut state, current, &mut all_complete);
            batches.push(b);
            current += 1;
        }
        state.update(&pkt.key(KeyKind::FiveTuple));
    }
    while current < n_sub {
        let b = finish(&mut state, current, &mut all_complete);
        batches.push(b);
        current += 1;
    }

    // Merge per window position.
    let spw = cfg.subwindows_per_window();
    let step = match mode {
        Mode::Tumbling => spw,
        Mode::Sliding => cfg.subwindows_per_slide(),
    };
    let mut windows = Vec::new();
    let mut start = 0usize;
    let mut index = 0usize;
    while start + spw <= n_sub {
        let mut table = MergeTable::new();
        for (i, b) in batches[start..start + spw].iter().enumerate() {
            table.insert_batch((start + i) as u32, b.clone());
        }
        let reported = table
            .iter()
            .filter(|(_, v)| v.scalar() >= threshold)
            .map(|(k, _)| k)
            .collect();
        let estimates: HashMap<FlowKey, f64> = table.iter().map(|(k, v)| (k, v.scalar())).collect();
        windows.push(WindowResult {
            index,
            reported,
            estimates,
        });
        start += step;
        index += 1;
    }

    // The migration recirculates one packet per register slot, like the
    // data-plane collection path over `cells` slots.
    let migration_time = latency::recirc_enumeration(fr_cfg.cells, 16);

    MigrationRun {
        windows,
        all_complete,
        migration_time,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let run = run_flowradar(
            &trace(),
            &WindowConfig::paper_default(),
            Mode::Tumbling,
            &FlowRadarConfig::default(),
            100.0,
        );
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
        let run = run_flowradar(
            &trace(),
            &WindowConfig::paper_default(),
            Mode::Tumbling,
            &FlowRadarConfig::default(),
            100.0,
        );
        assert!(run.migration_time < Duration::from_millis(10));
    }
}
