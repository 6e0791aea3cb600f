//! Shared experiment scaffolding: scales, the evaluation trace, and
//! result row types.

use serde::Serialize;

use ow_common::metrics::PrecisionRecall;
use ow_common::time::{Duration, Instant};
use ow_trace::anomaly::{Anomaly, AnomalyKind};
use ow_trace::{Trace, TraceBuilder, TraceConfig};

use crate::evaluate::score_reports;
use crate::mechanisms::Lineup;

/// Experiment scale: `Small` for tests, `Paper` for the bench binaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Minimal: for debug-mode integration tests. Orderings still hold.
    Tiny,
    /// Fast: small trace, small states. Accuracy *ordering* still holds.
    Small,
    /// Near-paper workload sizes.
    Paper,
}

impl Scale {
    /// Background flows in the evaluation trace.
    pub(crate) fn flows(self) -> usize {
        match self {
            Scale::Tiny => 1_000,
            Scale::Small => 4_000,
            Scale::Paper => 60_000,
        }
    }

    /// Background packets in the evaluation trace.
    pub(crate) fn packets(self) -> usize {
        match self {
            Scale::Tiny => 20_000,
            Scale::Small => 80_000,
            Scale::Paper => 1_500_000,
        }
    }

    /// Trace duration (multiple complete 500 ms windows).
    pub(crate) fn duration(self) -> Duration {
        match self {
            Scale::Tiny => Duration::from_millis(1_500),
            Scale::Small => Duration::from_millis(2_000),
            Scale::Paper => Duration::from_millis(4_000),
        }
    }

    /// Memory for one original window's sketch state (scaled stand-in
    /// for the paper's 8 MB: the trace carries fewer flows, and accuracy
    /// depends on the cells-per-flow ratio, which this preserves).
    pub(crate) fn window_memory(self) -> usize {
        match self {
            Scale::Tiny => 96 * 1024,
            Scale::Small => 256 * 1024,
            Scale::Paper => 4 * 1024 * 1024,
        }
    }

    /// Register slots for one original window's Sonata query state
    /// (sized a few× the expected key count, as deployed Sonata states
    /// are; sub-windows get 1/4 of this).
    pub(crate) fn query_slots(self) -> usize {
        match self {
            Scale::Tiny => 6 * 1024,
            Scale::Small => 16 * 1024,
            Scale::Paper => 256 * 1024,
        }
    }

    /// Memory per sub-window: the paper allocates 1/4 of the window
    /// memory (not 1/5) because traffic is non-uniform.
    pub(crate) fn subwindow_memory(self) -> usize {
        self.window_memory() / 4
    }

    /// Data-plane flowkey array capacity.
    pub(crate) fn fk_capacity(self) -> usize {
        match self {
            Scale::Tiny => 4 * 1024,
            Scale::Small => 8 * 1024,
            Scale::Paper => 32 * 1024,
        }
    }
}

/// A precision/recall row for one mechanism.
#[derive(Debug, Clone, Serialize)]
pub struct MechScore {
    /// Mechanism label (ITW, ISW, TW1, TW2, OTW, OSW, SS).
    pub mechanism: String,
    /// Average per-window precision.
    pub precision: f64,
    /// Average per-window recall.
    pub recall: f64,
}

impl MechScore {
    pub(crate) fn new(mechanism: &str, pr: PrecisionRecall) -> MechScore {
        MechScore {
            mechanism: mechanism.to_string(),
            precision: pr.precision,
            recall: pr.recall,
        }
    }

    /// The lineup's precision/recall rows against the ideals.
    pub(crate) fn rows(lineup: &Lineup) -> Vec<MechScore> {
        lineup
            .scores(score_reports)
            .map(|(name, pr)| MechScore::new(name, pr))
            .collect()
    }
}

/// The anomaly set injected into the evaluation trace: several instances
/// of every attack Table 1's queries detect, staggered so that some land
/// inside windows and some straddle window boundaries (the Figure-1
/// pathology that separates tumbling from sliding windows).
pub(crate) fn evaluation_anomalies(duration: Duration) -> Vec<Anomaly> {
    let ms = Duration::from_millis;
    let dur_ms = duration.as_nanos() / 1_000_000;
    let mut anomalies = Vec::new();
    let mut id = 1u32;
    // Stagger starts: in-window (e.g. 120 ms) and boundary-straddling
    // (e.g. 380 ms: a 250 ms attack spans the 500 ms boundary).
    let starts: Vec<u64> = (0..dur_ms / 500)
        .flat_map(|w| vec![w * 500 + 120, w * 500 + 380])
        .collect();
    for (i, &start_ms) in starts.iter().enumerate() {
        let start = Instant::from_millis(start_ms);
        let dur = ms(250);
        let scale = 1 + i % 3; // vary magnitudes
        let kinds = [
            AnomalyKind::NewTcpConns { conns: 50 * scale },
            AnomalyKind::SshBruteForce {
                attempts: 25 * scale,
            },
            AnomalyKind::PortScan { ports: 80 * scale },
            AnomalyKind::Ddos {
                sources: 80 * scale,
            },
            AnomalyKind::SynFlood { syns: 100 * scale },
            AnomalyKind::IncompleteFlows { flows: 60 * scale },
            AnomalyKind::Slowloris {
                conns: 50 * scale,
                pkts_per_conn: 3,
            },
            AnomalyKind::SuperSpreader { dsts: 120 * scale },
            AnomalyKind::HeavyFlow {
                pkts: 150 * scale,
                pkt_len: 1000,
            },
        ];
        for kind in kinds {
            anomalies.push(Anomaly {
                kind,
                id,
                start,
                duration: dur,
            });
            id += 1;
        }
    }
    anomalies
}

/// Build the shared evaluation trace: CAIDA-like background plus the
/// full anomaly set.
pub(crate) fn evaluation_trace(scale: Scale, seed: u64) -> Trace {
    evaluation_trace_stretched(scale, seed, 1)
}

/// [`evaluation_trace`] with the duration (and packet/anomaly budget)
/// multiplied — Exp#10 sweeps windows up to 2 s and needs several
/// complete windows of the largest size.
pub(crate) fn evaluation_trace_stretched(scale: Scale, seed: u64, stretch: u32) -> Trace {
    let duration = scale.duration() * stretch as u64;
    TraceBuilder::new(TraceConfig {
        duration,
        flows: scale.flows() * stretch as usize,
        packets: scale.packets() * stretch as usize,
        seed,
        ..TraceConfig::default()
    })
    .with_anomalies(evaluation_anomalies(duration))
    .build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evaluation_trace_contains_anomaly_hosts() {
        let t = evaluation_trace(Scale::Small, 3);
        let has_attacker = t
            .iter()
            .any(|p| p.src_ip & 0xFFFF_0000 == ow_trace::anomaly::ATTACKER_NET);
        let has_victim = t
            .iter()
            .any(|p| p.dst_ip & 0xFFF0_0000 == ow_trace::anomaly::VICTIM_NET);
        assert!(has_attacker);
        assert!(has_victim);
    }

    #[test]
    fn anomalies_cover_every_kind_and_straddle_boundaries() {
        let dur = Duration::from_millis(2_000);
        let list = evaluation_anomalies(dur);
        assert!(list.len() >= 9 * 4);
        // Boundary-straddling instances exist: start < k*500 < start+dur.
        let straddlers = list
            .iter()
            .filter(|a| {
                let s = a.start.as_nanos();
                let e = s + a.duration.as_nanos();
                let w = 500_000_000u64;
                (s / w) != (e / w)
            })
            .count();
        assert!(straddlers > 0, "no boundary-straddling anomalies");
    }
}
