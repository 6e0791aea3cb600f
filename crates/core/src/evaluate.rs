//! Scoring mechanisms against the ideal baselines.

use ow_common::metrics::{self, PrecisionRecall};

use crate::mechanisms::WindowResult;

/// Average precision/recall of a mechanism's reports against a
/// reference's reports, window by window.
///
/// # Panics
/// Panics if the two runs have different window counts — comparing
/// misaligned windows would be meaningless.
pub fn score_reports(mechanism: &[WindowResult], reference: &[WindowResult]) -> PrecisionRecall {
    assert_eq!(
        mechanism.len(),
        reference.len(),
        "window counts differ: {} vs {}",
        mechanism.len(),
        reference.len()
    );
    let mut precision = 0.0;
    let mut recall = 0.0;
    let (mut tp, mut fp, mut fn_) = (0usize, 0usize, 0usize);
    for (m, r) in mechanism.iter().zip(reference.iter()) {
        let pr = metrics::precision_recall(&m.reported, &r.reported);
        precision += pr.precision;
        recall += pr.recall;
        tp += pr.tp;
        fp += pr.fp;
        fn_ += pr.fn_;
    }
    let n = mechanism.len().max(1) as f64;
    PrecisionRecall {
        precision: precision / n,
        recall: recall / n,
        tp,
        fp,
        fn_,
    }
}

/// Average relative error of a mechanism's probed estimates against the
/// reference's exact values, across all windows. Probe keys absent from
/// the reference window (true value 0) are skipped.
pub(crate) fn score_estimates(mechanism: &[WindowResult], reference: &[WindowResult]) -> f64 {
    assert_eq!(mechanism.len(), reference.len(), "window counts differ");
    let mut pairs = Vec::new();
    for (m, r) in mechanism.iter().zip(reference.iter()) {
        for (key, truth) in &r.estimates {
            if *truth > 0.0 {
                let est = m.estimates.get(key).copied().unwrap_or(0.0);
                pairs.push((est, *truth));
            }
        }
    }
    metrics::average_relative_error(&pairs)
}

/// Precision/recall of the *union over time* of two runs' reports.
///
/// This is the right comparison between window types with different
/// positions (ITW vs ISW): every tumbling window is also a sliding
/// position, so ITW's united detections are a subset of ISW's — its
/// union precision is 1.0 and its union recall measures exactly the
/// anomalies that only a sliding window can catch (Figure 1).
pub(crate) fn union_score(
    mechanism: &[WindowResult],
    reference: &[WindowResult],
) -> PrecisionRecall {
    let mech: std::collections::HashSet<_> = mechanism
        .iter()
        .flat_map(|w| w.reported.iter().copied())
        .collect();
    let refr: std::collections::HashSet<_> = reference
        .iter()
        .flat_map(|w| w.reported.iter().copied())
        .collect();
    metrics::precision_recall(&mech, &refr)
}

/// Per-window relative errors of a scalar series (used by the
/// cardinality experiments): `|est - truth| / truth` per window, then
/// averaged (the paper's AARE).
pub(crate) fn aare(estimates: &[f64], truths: &[f64]) -> f64 {
    assert_eq!(estimates.len(), truths.len(), "window counts differ");
    let errs: Vec<f64> = estimates
        .iter()
        .zip(truths.iter())
        .filter(|(_, t)| **t > 0.0)
        .map(|(e, t)| (e - t).abs() / t)
        .collect();
    metrics::mean(&errs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ow_common::flowkey::FlowKey;
    #[allow(unused_imports)]
    use std::collections::{HashMap, HashSet};

    fn wr(index: usize, reported: &[u32], estimates: &[(u32, f64)]) -> WindowResult {
        WindowResult {
            index,
            reported: reported.iter().map(|&i| FlowKey::src_ip(i)).collect(),
            estimates: estimates
                .iter()
                .map(|&(i, v)| (FlowKey::src_ip(i), v))
                .collect(),
        }
    }

    #[test]
    fn perfect_match_scores_one() {
        let a = vec![wr(0, &[1, 2], &[]), wr(1, &[3], &[])];
        let pr = score_reports(&a, &a);
        assert_eq!(pr.precision, 1.0);
        assert_eq!(pr.recall, 1.0);
    }

    #[test]
    fn partial_match_averages_over_windows() {
        let mech = vec![wr(0, &[1], &[]), wr(1, &[2, 9], &[])];
        let truth = vec![wr(0, &[1], &[]), wr(1, &[2, 3], &[])];
        let pr = score_reports(&mech, &truth);
        // Window 0: 1/1. Window 1: precision 1/2, recall 1/2.
        assert!((pr.precision - 0.75).abs() < 1e-12);
        assert!((pr.recall - 0.75).abs() < 1e-12);
        assert_eq!((pr.tp, pr.fp, pr.fn_), (2, 1, 1));
    }

    #[test]
    fn estimate_are_uses_reference_truth() {
        let mech = vec![wr(0, &[], &[(1, 110.0), (2, 45.0)])];
        let truth = vec![wr(0, &[], &[(1, 100.0), (2, 50.0)])];
        let are = score_estimates(&mech, &truth);
        // |110-100|/100 = 0.1, |45-50|/50 = 0.1 → mean 0.1.
        assert!((are - 0.1).abs() < 1e-12);
    }

    #[test]
    fn missing_estimates_count_as_zero() {
        let mech = vec![wr(0, &[], &[])];
        let truth = vec![wr(0, &[], &[(1, 100.0)])];
        assert!((score_estimates(&mech, &truth) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn aare_averages_per_window_errors() {
        let est = [90.0, 220.0];
        let truth = [100.0, 200.0];
        assert!((aare(&est, &truth) - 0.1).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "window counts differ")]
    fn misaligned_runs_panic() {
        let a = vec![wr(0, &[], &[])];
        let _ = score_reports(&a, &[]);
    }
}
