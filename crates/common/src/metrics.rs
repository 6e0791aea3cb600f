//! Accuracy metrics used by the evaluation: precision, recall, ARE, AARE.
//!
//! * **Precision** — of the flows a mechanism reported, the fraction that
//!   are true anomalies.
//! * **Recall** — of the true anomalies, the fraction the mechanism found.
//! * **ARE** (average relative error) — mean of `|est - true| / true` over
//!   ground-truth flows.
//! * **AARE** — the ARE averaged again across windows (the paper computes
//!   AARE for the per-window cardinality query).
//!
//! Alongside accuracy, [`ReliabilityMetrics`] counts what the §8 AFR
//! recovery loop did: retransmission rounds, recovered AFRs, OS-path
//! escalations, and the virtual wall-clock spent reaching completeness.

use std::collections::HashSet;

use crate::flowkey::FlowKey;
use crate::time::Duration;

/// Precision/recall of a reported set against a ground-truth set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrecisionRecall {
    /// Fraction of reported items that are true positives.
    pub precision: f64,
    /// Fraction of ground-truth items that were reported.
    pub recall: f64,
    /// True-positive count.
    pub tp: usize,
    /// False-positive count.
    pub fp: usize,
    /// False-negative count.
    pub fn_: usize,
}

/// Compare a reported flow set against ground truth.
///
/// Empty-set conventions: precision of an empty report is 1.0 (nothing
/// wrong was said); recall against empty ground truth is 1.0 (nothing was
/// missed). These match how the paper's plots treat windows with no
/// anomalies.
pub fn precision_recall(reported: &HashSet<FlowKey>, truth: &HashSet<FlowKey>) -> PrecisionRecall {
    let tp = reported.intersection(truth).count();
    let fp = reported.len() - tp;
    let fn_ = truth.len() - tp;
    let precision = if reported.is_empty() {
        1.0
    } else {
        tp as f64 / reported.len() as f64
    };
    let recall = if truth.is_empty() {
        1.0
    } else {
        tp as f64 / truth.len() as f64
    };
    PrecisionRecall {
        precision,
        recall,
        tp,
        fp,
        fn_,
    }
}

/// Average relative error of `(estimate, truth)` pairs.
///
/// Pairs with `truth == 0` are skipped (relative error is undefined);
/// returns 0.0 when no pair is usable.
pub fn average_relative_error(pairs: &[(f64, f64)]) -> f64 {
    let mut sum = 0.0;
    let mut n = 0usize;
    for &(est, truth) in pairs {
        if truth > 0.0 {
            sum += (est - truth).abs() / truth;
            n += 1;
        }
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// Mean of per-window AREs (the paper's AARE).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Counters surfaced by the controller's AFR reliability loop (§8,
/// "Reliability of AFRs").
///
/// One value describes one collection session (a single switch,
/// sub-window pair); sessions aggregate with [`ReliabilityMetrics::merge`]
/// into per-window or per-run totals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReliabilityMetrics {
    /// AFRs the trigger packet announced.
    pub announced: u64,
    /// Distinct AFRs that survived the initial lowest-priority stream.
    pub first_pass: u64,
    /// Retransmission rounds the session ran (0 when the first pass was
    /// already complete).
    pub retransmit_rounds: u64,
    /// Retransmission requests put on the wire (counted even when the
    /// request itself is lost).
    pub retransmit_requests: u64,
    /// Distinct AFRs recovered by retransmission.
    pub recovered: u64,
    /// Duplicate AFR copies discarded (retransmissions that crossed
    /// their original, or channel-duplicated clones).
    pub duplicates: u64,
    /// Sessions that gave up on retransmission and read the sub-window
    /// through the slow switch-OS path.
    pub escalations: u64,
    /// Sessions abandoned because their switch departed the fleet
    /// mid-window (crash churn): the partial batch is discarded and the
    /// window released instead of merged.
    pub departed: u64,
    /// Virtual wall-clock from generation end to a complete batch
    /// (timeouts waited plus any charged OS-read latency).
    pub wall_clock: Duration,
}

impl ReliabilityMetrics {
    /// Fold another session's counters into this aggregate. Counters
    /// add; `wall_clock` adds too, making the aggregate the *total*
    /// recovery time across sessions (sessions are sequential per
    /// switch in the model).
    pub fn merge(&mut self, other: &ReliabilityMetrics) {
        self.announced += other.announced;
        self.first_pass += other.first_pass;
        self.retransmit_rounds += other.retransmit_rounds;
        self.retransmit_requests += other.retransmit_requests;
        self.recovered += other.recovered;
        self.duplicates += other.duplicates;
        self.escalations += other.escalations;
        self.departed += other.departed;
        self.wall_clock += other.wall_clock;
    }

    /// Fraction of announced AFRs lost on the first pass (0.0 when
    /// nothing was announced).
    pub fn first_pass_loss(&self) -> f64 {
        if self.announced == 0 {
            0.0
        } else {
            (self.announced - self.first_pass.min(self.announced)) as f64 / self.announced as f64
        }
    }

    /// Whether the recovery loop had any work to do.
    pub fn lossless(&self) -> bool {
        self.retransmit_rounds == 0 && self.escalations == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(ids: &[u32]) -> HashSet<FlowKey> {
        ids.iter().map(|&i| FlowKey::src_ip(i)).collect()
    }

    #[test]
    fn perfect_report_scores_one() {
        let truth = keys(&[1, 2, 3]);
        let pr = precision_recall(&truth, &truth);
        assert_eq!(pr.precision, 1.0);
        assert_eq!(pr.recall, 1.0);
        assert_eq!((pr.tp, pr.fp, pr.fn_), (3, 0, 0));
    }

    #[test]
    fn half_right_report() {
        let reported = keys(&[1, 2, 4, 5]);
        let truth = keys(&[1, 2, 3]);
        let pr = precision_recall(&reported, &truth);
        assert!((pr.precision - 0.5).abs() < 1e-12);
        assert!((pr.recall - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!((pr.tp, pr.fp, pr.fn_), (2, 2, 1));
    }

    #[test]
    fn empty_sets_follow_conventions() {
        let empty = HashSet::new();
        let truth = keys(&[1]);
        let pr = precision_recall(&empty, &truth);
        assert_eq!(pr.precision, 1.0);
        assert_eq!(pr.recall, 0.0);
        let pr = precision_recall(&truth, &empty);
        assert_eq!(pr.precision, 0.0);
        assert_eq!(pr.recall, 1.0);
        let pr = precision_recall(&empty, &empty);
        assert_eq!(pr.precision, 1.0);
        assert_eq!(pr.recall, 1.0);
    }

    #[test]
    fn are_ignores_zero_truth() {
        let pairs = [(10.0, 10.0), (15.0, 10.0), (5.0, 0.0)];
        let are = average_relative_error(&pairs);
        assert!((are - 0.25).abs() < 1e-12);
        assert_eq!(average_relative_error(&[]), 0.0);
    }

    #[test]
    fn reliability_metrics_merge_and_loss() {
        let mut total = ReliabilityMetrics::default();
        assert!(total.lossless());
        assert_eq!(total.first_pass_loss(), 0.0);
        let session = ReliabilityMetrics {
            announced: 10,
            first_pass: 7,
            retransmit_rounds: 2,
            retransmit_requests: 2,
            recovered: 3,
            duplicates: 1,
            escalations: 0,
            departed: 1,
            wall_clock: Duration::from_micros(400),
        };
        total.merge(&session);
        total.merge(&session);
        assert_eq!(total.announced, 20);
        assert_eq!(total.recovered, 6);
        assert_eq!(total.departed, 2);
        assert_eq!(total.wall_clock, Duration::from_micros(800));
        assert!((total.first_pass_loss() - 0.3).abs() < 1e-12);
        assert!(!total.lossless());
    }
}
