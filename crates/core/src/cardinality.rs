//! Whole-window flow-cardinality estimation (Q11: LC / HyperLogLog).
//!
//! Cardinality estimators produce one number per window, not per-flow
//! records, so OmniWindow cannot generate AFRs for them. Instead the
//! data plane migrates the entire (small) state to the controller,
//! which merges sub-window states in the *distinct-union* way each
//! structure supports — bitmap OR for Linear Counting, register-wise max
//! for HyperLogLog (§8, "Merging intermediate data without AFRs").

use ow_common::flowkey::KeyKind;
use ow_common::packet::Packet;
use ow_common::time::Duration;
use ow_sketch::{HyperLogLog, LinearCounting};
use ow_trace::Trace;

use crate::app::HeavyHitterApp;
use crate::config::WindowConfig;
use crate::mechanisms::{
    per_subwindow, run_ideal, sliding_sketch_rotation, tumbling_with_blackout, window_ranges, Mode,
};

/// Which estimator backs the cardinality pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Estimator {
    /// Linear Counting with the given bitmap bits per instance.
    LinearCounting {
        /// Bits per (sub-)window instance.
        bits: usize,
    },
    /// HyperLogLog with the given precision per instance.
    HyperLogLog {
        /// Precision `p` (2^p one-byte registers).
        precision: u8,
    },
}

enum State {
    Lc(LinearCounting),
    Hll(HyperLogLog),
}

impl State {
    fn new(est: Estimator, seed: u64) -> State {
        match est {
            Estimator::LinearCounting { bits } => State::Lc(LinearCounting::new(bits, seed)),
            Estimator::HyperLogLog { precision } => State::Hll(HyperLogLog::new(precision, seed)),
        }
    }

    /// Insert the packet's five-tuple.
    fn insert(&mut self, pkt: &Packet) {
        let key = pkt.key(KeyKind::FiveTuple);
        match self {
            State::Lc(lc) => lc.insert(&key),
            State::Hll(h) => h.insert(&key),
        }
    }

    fn merge(&mut self, other: &State) {
        match (self, other) {
            (State::Lc(a), State::Lc(b)) => a.merge(b),
            (State::Hll(a), State::Hll(b)) => a.merge(b),
            _ => unreachable!("states built from one estimator"),
        }
    }

    fn estimate(&self) -> f64 {
        match self {
            State::Lc(lc) => lc.estimate(),
            State::Hll(h) => h.estimate(),
        }
    }
}

/// Exact per-window flow cardinalities (the ideal baseline): the number
/// of distinct five-tuples the exact reference sees in each window.
pub(crate) fn ideal_cardinality(trace: &Trace, cfg: &WindowConfig, mode: Mode) -> Vec<f64> {
    let every_flow = HeavyHitterApp::mv(u64::MAX);
    run_ideal(&every_flow, trace, cfg, mode)
        .iter()
        .map(|w| w.estimates.len() as f64)
        .collect()
}

/// OmniWindow cardinality: one estimator instance per sub-window (each
/// sized to the sub-window budget), state-merged per window position.
pub(crate) fn omniwindow_cardinality(
    trace: &Trace,
    cfg: &WindowConfig,
    mode: Mode,
    est: Estimator,
    seed: u64,
) -> Vec<f64> {
    let subs = per_subwindow(trace, cfg, State::new(est, seed), State::insert, |st, _| {
        std::mem::replace(st, State::new(est, seed))
    });
    window_ranges(cfg, subs.len(), mode)
        .into_iter()
        .map(|(lo, hi)| {
            let mut acc = State::new(est, seed);
            for s in &subs[lo..hi] {
                acc.merge(s);
            }
            acc.estimate()
        })
        .collect()
}

/// Conventional tumbling-window cardinality with one full-window
/// instance; `blackout` models the TW1 hazard (traffic during the C&R
/// at each window start after the first is not inserted).
pub(crate) fn conventional_cardinality(
    trace: &Trace,
    cfg: &WindowConfig,
    est: Estimator,
    blackout: Duration,
    seed: u64,
) -> Vec<f64> {
    tumbling_with_blackout(
        trace,
        cfg,
        blackout,
        State::new(est, seed),
        State::insert,
        |st| *st = State::new(est, seed),
        |st, _| st.estimate(),
    )
}

/// Sliding-Sketch-style sliding cardinality: two half-size instances,
/// rotation per tumbling window, estimate = merge of both — includes up
/// to a full extra window of traffic (the over-inclusion error).
pub(crate) fn sliding_sketch_cardinality(
    trace: &Trace,
    cfg: &WindowConfig,
    est: Estimator,
    seed: u64,
) -> Vec<f64> {
    let half = match est {
        Estimator::LinearCounting { bits } => Estimator::LinearCounting { bits: bits / 2 },
        Estimator::HyperLogLog { precision } => Estimator::HyperLogLog {
            precision: precision.saturating_sub(1).max(4),
        },
    };
    sliding_sketch_rotation(
        trace,
        cfg,
        State::new(half, seed),
        State::new(half, seed),
        State::insert,
        |st| *st = State::new(half, seed),
        |cur, prev, _| {
            let mut merged = State::new(half, seed);
            merged.merge(cur);
            merged.merge(prev);
            merged.estimate()
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluate::aare;
    use ow_trace::{TraceBuilder, TraceConfig};

    fn trace() -> Trace {
        TraceBuilder::new(TraceConfig {
            duration: Duration::from_millis(1500),
            flows: 3_000,
            packets: 60_000,
            seed: 11,
            ..TraceConfig::default()
        })
        .build()
    }

    #[test]
    fn omniwindow_lc_tracks_ideal() {
        let t = trace();
        let cfg = WindowConfig::paper_default();
        let ideal = ideal_cardinality(&t, &cfg, Mode::Tumbling);
        let ow = omniwindow_cardinality(
            &t,
            &cfg,
            Mode::Tumbling,
            Estimator::LinearCounting { bits: 64 * 1024 },
            5,
        );
        let err = aare(&ow, &ideal);
        assert!(err < 0.05, "LC AARE {err}");
    }

    #[test]
    fn omniwindow_hll_tracks_ideal_sliding() {
        let t = trace();
        let cfg = WindowConfig::paper_default();
        let ideal = ideal_cardinality(&t, &cfg, Mode::Sliding);
        let ow = omniwindow_cardinality(
            &t,
            &cfg,
            Mode::Sliding,
            Estimator::HyperLogLog { precision: 12 },
            5,
        );
        let err = aare(&ow, &ideal);
        assert!(err < 0.1, "HLL AARE {err}");
    }

    #[test]
    fn sliding_sketch_overestimates_cardinality() {
        let t = trace();
        let cfg = WindowConfig::paper_default();
        let ideal = ideal_cardinality(&t, &cfg, Mode::Sliding);
        let ss =
            sliding_sketch_cardinality(&t, &cfg, Estimator::LinearCounting { bits: 64 * 1024 }, 5);
        let ow = omniwindow_cardinality(
            &t,
            &cfg,
            Mode::Sliding,
            Estimator::LinearCounting { bits: 64 * 1024 },
            5,
        );
        let err_ss = aare(&ss, &ideal);
        let err_ow = aare(&ow, &ideal);
        assert!(
            err_ss > err_ow * 5.0,
            "SS error {err_ss} must dwarf OW error {err_ow}"
        );
        // SS specifically *over*-estimates (stale traffic included).
        let mean_ss: f64 = ss.iter().sum::<f64>() / ss.len() as f64;
        let mean_ideal: f64 = ideal.iter().sum::<f64>() / ideal.len() as f64;
        assert!(mean_ss > mean_ideal);
    }

    #[test]
    fn tw1_blackout_undercounts() {
        let t = trace();
        let cfg = WindowConfig::paper_default();
        let tw2 = conventional_cardinality(
            &t,
            &cfg,
            Estimator::LinearCounting { bits: 64 * 1024 },
            Duration::ZERO,
            5,
        );
        let tw1 = conventional_cardinality(
            &t,
            &cfg,
            Estimator::LinearCounting { bits: 64 * 1024 },
            Duration::from_millis(100),
            5,
        );
        // Windows after the first must count fewer flows under TW1.
        for w in 1..tw1.len() {
            assert!(
                tw1[w] < tw2[w],
                "window {w}: tw1 {} !< tw2 {}",
                tw1[w],
                tw2[w]
            );
        }
    }
}
