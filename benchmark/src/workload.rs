//! The four workloads and their generated inputs.

use ow_common::hash::mix64;
use ow_common::time::Duration;
use ow_netsim::FaultConfig;
use ow_trace::{Trace, TraceBuilder, TraceConfig};

/// Faults on the switch→controller path of a lossy workload.
#[derive(Debug, Clone, Copy)]
pub struct Faults {
    pub afr_loss: f64,
    pub afr_duplicate: f64,
    pub afr_reorder: f64,
    pub retransmit_data_loss: f64,
    /// Every n-th sub-window's retransmission back-channel is dead, which
    /// forces the OS-read escalation.
    pub dead_backchannel_every: u32,
}

/// One benchmark workload: a trace shape, a switch geometry and a query
/// schedule. Everything else about a run derives from `--seed`.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// Why the workload exists (copied into `BENCHMARK.json`).
    pub why: &'static str,
    pub packets: usize,
    pub flows: usize,
    pub zipf_alpha: f64,
    pub duration_ms: u64,
    pub subwindow_ms: u64,
    /// Sub-windows per sliding window.
    pub span: usize,
    pub fk_capacity: usize,
    pub expected_flows: usize,
    /// `flows_over` threshold, chosen so the exact answer holds 100–1000
    /// flows per window.
    pub threshold: f64,
    /// The feeder waits for, queries and checks every n-th window.
    pub query_every: u32,
    /// Every n-th sub-window's query is followed by a `snapshot()`.
    pub snapshot_every: u32,
    /// Added to `--seed` so two workloads of one shape differ in trace.
    pub seed_offset: u64,
    pub faults: Option<Faults>,
}

/// `--smoke` divides packets and flows by this.
pub const SMOKE_DIVISOR: usize = 20;
/// Bound on every controller channel, in messages (blocks of ≤ 1024 records).
pub const QUEUE_DEPTH: usize = 64;
/// Records per shipped block.
pub const CHUNK: usize = ow_common::block::DEFAULT_BLOCK_CAPACITY;

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "hh_steady",
        why: "4k hot flows, 0.03 records/pkt: over 90% of the wall is Switch::process, so per-packet switch work shows and codec/fold changes read flat",
        packets: 6_000_000,
        flows: 4_000,
        zipf_alpha: 1.1,
        duration_ms: 10_000,
        subwindow_ms: 250,
        span: 4,
        fk_capacity: 65_536,
        expected_flows: 98_304,
        threshold: 300.0,
        query_every: 2,
        snapshot_every: 10,
        seed_offset: 0,
        faults: None,
    },
    Workload {
        name: "flow_churn",
        why: "1M mostly-new flows, 1 record/pkt, fk_buffer overflows: AFR generation, codec, block build and key tracking set the feeder's pace while the fold runs on the other core",
        packets: 2_000_000,
        flows: 1_000_000,
        zipf_alpha: 0.4,
        duration_ms: 2_000,
        subwindow_ms: 20,
        span: 5,
        fk_capacity: 16_384,
        expected_flows: 65_536,
        threshold: 4.0,
        query_every: 4,
        snapshot_every: 20,
        seed_offset: 0,
        faults: None,
    },
    Workload {
        name: "window_query",
        why: "closed loop on every window: router, scatter, fold, evict and query all block the feeder, so a fold gain bought with a slower query shows as window-ready latency",
        packets: 2_000_000,
        flows: 200_000,
        zipf_alpha: 0.9,
        duration_ms: 2_000,
        subwindow_ms: 20,
        span: 5,
        fk_capacity: 32_768,
        expected_flows: 98_304,
        threshold: 40.0,
        query_every: 1,
        snapshot_every: 10,
        seed_offset: 0,
        faults: None,
    },
    Workload {
        name: "lossy_recovery",
        why: "window_query's trace shape through ReliableLiveController with 10% AFR loss: sessions, seen-bitmap and the recovery driver, with a fold that must equal the lossless one",
        packets: 2_000_000,
        flows: 200_000,
        zipf_alpha: 0.9,
        duration_ms: 2_000,
        subwindow_ms: 20,
        span: 5,
        fk_capacity: 32_768,
        expected_flows: 98_304,
        threshold: 40.0,
        query_every: 4,
        snapshot_every: 20,
        seed_offset: 1,
        faults: Some(Faults {
            afr_loss: 0.10,
            afr_duplicate: 0.02,
            afr_reorder: 0.05,
            retransmit_data_loss: 0.05,
            dead_backchannel_every: 50,
        }),
    },
];

/// Independent seeds for the run's random streams, all derived from `--seed`.
#[derive(Debug, Clone, Copy)]
pub struct Seeds {
    pub trace: u64,
    pub switch: u64,
    pub afr_channel: u64,
    pub retransmit_channel: u64,
}

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// The same shape with `divisor` times fewer packets and flows (and a
    /// threshold lowered to match), for `--smoke`.
    pub fn scaled_down(mut self, divisor: usize) -> Workload {
        self.packets /= divisor;
        self.flows = (self.flows / divisor).max(64);
        self.threshold = (self.threshold / divisor as f64).max(2.0);
        self
    }

    pub fn subwindows(&self) -> u32 {
        (self.duration_ms / self.subwindow_ms) as u32
    }

    pub fn seeds(&self, seed: u64) -> Seeds {
        let base = mix64(seed.wrapping_add(self.seed_offset));
        Seeds {
            trace: mix64(base ^ 0x7472_6163),
            switch: mix64(base ^ 0x7377_6974),
            afr_channel: mix64(base ^ 0x6166_7273),
            retransmit_channel: mix64(base ^ 0x7265_7478),
        }
    }

    pub fn build_trace(&self, seed: u64) -> Trace {
        TraceBuilder::new(TraceConfig {
            duration: Duration::from_millis(self.duration_ms),
            flows: self.flows,
            packets: self.packets,
            zipf_alpha: self.zipf_alpha,
            seed: self.seeds(seed).trace,
            ..TraceConfig::default()
        })
        .build()
    }

    /// Whether the feeder waits for, queries and checks the window ending
    /// at sub-window `i`. The first full window is skipped: readiness is
    /// observed through the eviction of sub-window `i - span`.
    pub fn is_query_window(&self, i: u32) -> bool {
        i as usize >= self.span && (i + 1).is_multiple_of(self.query_every)
    }

    /// Whether the query at sub-window `i` is followed by a `snapshot()`.
    /// The last window's snapshot is the final fold, taken after `join()`.
    pub fn is_snapshot_window(&self, i: u32) -> bool {
        self.is_query_window(i)
            && (i + 1).is_multiple_of(self.snapshot_every)
            && i + 1 != self.subwindows()
    }
}

impl Faults {
    /// The fault model of the AFR channel.
    pub fn afr_channel(&self, seeds: &Seeds) -> FaultConfig {
        let mut cfg = FaultConfig::afr_loss(seeds.afr_channel, self.afr_loss);
        cfg.afr.duplicate = self.afr_duplicate;
        cfg.afr.reorder = self.afr_reorder;
        cfg
    }

    /// The fault model applied to replayed records on the back-channel.
    pub fn back_channel(&self, seeds: &Seeds) -> FaultConfig {
        let mut cfg = FaultConfig::lossless(seeds.retransmit_channel);
        cfg.retransmit_data.loss = self.retransmit_data_loss;
        cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_schedules_divide_the_trace() {
        for w in WORKLOADS {
            let n = w.subwindows();
            assert_eq!(w.duration_ms % w.subwindow_ms, 0, "{}", w.name);
            assert_eq!(n % w.query_every, 0, "{}: last window is queried", w.name);
            assert_eq!(w.snapshot_every % w.query_every, 0, "{}", w.name);
            assert!(w.is_query_window(n - 1), "{}", w.name);
            assert!(!w.is_snapshot_window(n - 1), "{}", w.name);
            assert!(!w.is_query_window(w.span as u32 - 1), "{}", w.name);
            assert!(w.why.len() <= 200, "{}", w.name);
        }
    }

    #[test]
    fn seeds_differ_by_stream_and_by_seed() {
        let w = WORKLOADS[2];
        let (a, b) = (w.seeds(1), w.seeds(2));
        assert_ne!(a.trace, a.switch);
        assert_ne!(a.trace, b.trace);
        // lossy_recovery reuses window_query's shape at seed + 1.
        assert_eq!(WORKLOADS[3].seeds(1).trace, b.trace);
    }
}
