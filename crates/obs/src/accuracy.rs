//! Live query-accuracy observatory: a streaming ground-truth oracle
//! plus a scorer that turns OmniWindow's *offline* evaluation metrics
//! (precision / recall / ARE per query per window) into *live*
//! telemetry.
//!
//! The paper's whole value proposition is measured in query accuracy,
//! yet transport-plane health says nothing about it: a fleet can merge
//! every window on time while an undersized sketch quietly evicts half
//! the heavy hitters. This module closes that gap:
//!
//! * [`AccuracyScorer::feed_truth`] — the feeder (netsim/fleet) hands
//!   the *exact* per-sub-window batch to the oracle **before** the
//!   lossy channel and before any sketch compression, keyed by the
//!   global sub-window id. Truth is aggregated per flow key with the
//!   [`AttrValue`] merge algebra — the same algebra the controller's
//!   merge tables and `ow-core`'s `ExactStat` scalarize.
//! * [`AccuracyScorer::score_block`] — the controller calls this at
//!   each window's `Merged` transition with the recovered
//!   [`RecordBlock`].
//!
//! Every call runs **synchronously on the caller's thread**, under the
//! oracle and score-table mutexes: the feeder ingests a sub-window's
//! truth before it sends that sub-window's announcement, so the channel
//! itself orders ingestion before the router's scoring (or dropping) of
//! the same window. [`AccuracyScorer::score_block`] diffs the merged
//! answer against the oracle entry (consuming it), computes the
//! per-window precision/recall/ARE with the *identical*
//! [`ow_common::metrics`] helpers the offline
//! `evaluate::score_reports` path uses, and publishes running
//! aggregates as `ow_accuracy_{precision,recall,aare}_permille`
//! gauges — so live and offline scores agree to the permille by
//! construction, and the oracle holds truth only for windows still in
//! flight.
//!
//! [`AccuracyScorer::window_departed`] handles crash churn: the
//! abandoned window's oracle entry is dropped on the spot.
//!
//! Aggregates are recomputed from a `BTreeMap` keyed by sub-window on
//! every score, so the *final* gauge values are independent of the
//! order in which concurrent controller workers score their windows —
//! the property that keeps same-seed artifacts byte-identical.
//!
//! [`accuracy_health_rules`] closes the loop through the health
//! engine with the `OW-HEALTH-4xx` catalog (recall SLO burn, sketch
//! saturation, cardinality drift, and the critical accuracy collapse
//! that freezes the flight recorder).

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

use parking_lot::Mutex;
use serde::Serialize;

use ow_common::afr::{AttrValue, FlowRecord};
use ow_common::block::RecordBlock;
use ow_common::flowkey::FlowKey;
use ow_common::metrics;

use crate::health::{Cmp, MetricSelector, Rule, RuleSet, Severity, Signal};
use crate::journal::{Event, EventJournal};
use crate::registry::{Counter, Gauge, Histogram, MetricsRegistry};

/// Per-window recall error (‰) above which a window counts against the
/// recall SLO (the `OW-HEALTH-401` deadline). 64‰ keeps the log2
/// histogram bucket boundaries clean: a window with recall ≤ 936‰
/// records an error value whose bucket lies entirely past the deadline.
pub(crate) const RECALL_SLO_ERROR_PERMILLE: u64 = 64;

/// Error budget for `OW-HEALTH-401`: the allowed fraction of windows
/// (‰) that may violate the recall SLO before the burn rate exceeds 1×.
pub(crate) const RECALL_SLO_BUDGET_PERMILLE: u64 = 100;

/// Sketch occupancy (‰) above which `OW-HEALTH-402` flags saturation.
pub(crate) const SKETCH_SATURATION_PERMILLE: u64 = 900;

/// Merged/oracle distinct-key ratio (‰) below which `OW-HEALTH-403`
/// flags cardinality drift (the merged answer is missing keys the
/// oracle saw).
pub(crate) const CARDINALITY_DRIFT_PERMILLE: u64 = 900;

/// Live recall (‰) below which `OW-HEALTH-404` declares accuracy
/// collapse — critical, freezing the flight recorder.
pub(crate) const ACCURACY_COLLAPSE_PERMILLE: u64 = 500;

/// Value of the `query` label on every `ow_accuracy_*` series: the one
/// live query the scorer grades.
pub(crate) const ACCURACY_QUERY: &str = "heavy_hitter";

/// Scalar a key must reach ([`AttrValue::scalar`]) to be *reported* by
/// the scored query, on both the merged and the oracle side (the
/// heavy-hitter detection threshold). Keys below it still contribute to
/// the ARE estimate pairs.
pub const ACCURACY_THRESHOLD: f64 = 1.0;

/// One scored window, with enough detail to replay the offline scoring
/// path (`evaluate::score_reports` / `score_estimates`) over the same
/// data — the live-vs-offline agreement gate.
#[derive(Debug, Clone)]
pub struct WindowScore {
    /// The scored (global) sub-window id.
    pub subwindow: u32,
    /// Merged scalar per key, ascending key order (all keys, not just
    /// reported ones — the mechanism's estimate map).
    pub merged: Vec<(FlowKey, f64)>,
    /// Oracle scalar per key, ascending key order (the reference's
    /// estimate map).
    pub truth: Vec<(FlowKey, f64)>,
    /// Per-window precision of the thresholded report sets.
    pub precision: f64,
    /// Per-window recall of the thresholded report sets.
    pub recall: f64,
    /// Per-window average relative error over truth keys.
    pub are: f64,
    /// True positives of the thresholded report sets.
    pub tp: usize,
    /// False positives.
    pub fp: usize,
    /// False negatives.
    pub fn_: usize,
}

/// One scored window in serializable, integer-only form.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct WindowScoreBrief {
    /// The scored sub-window id.
    pub subwindow: u32,
    /// Distinct keys in the oracle entry.
    pub truth_keys: usize,
    /// Distinct keys in the merged answer.
    pub merged_keys: usize,
    /// Per-window precision, permille.
    pub precision_permille: u64,
    /// Per-window recall, permille.
    pub recall_permille: u64,
    /// Per-window average relative error, permille.
    pub are_permille: u64,
}

/// Deterministic snapshot of everything the scorer has seen: the
/// aggregates mirrored by the gauges plus the per-window briefs in
/// sub-window order. Serialized into `results/accuracy_smoke.json`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct AccuracySummary {
    /// The scored query's label.
    pub query: String,
    /// Windows scored so far.
    pub windows_scored: u64,
    /// Mean per-window precision, permille (the live gauge value).
    pub precision_permille: u64,
    /// Mean per-window recall, permille.
    pub recall_permille: u64,
    /// Mean per-window ARE, permille.
    pub aare_permille: u64,
    /// Per-window scores, ascending sub-window order.
    pub windows: Vec<WindowScoreBrief>,
}

/// Round a fraction to permille the way every gate in this repo does.
fn permille(x: f64) -> u64 {
    (x * 1000.0).round() as u64
}

/// Aggregate `(key, attr)` rows per key with the [`AttrValue`] merge
/// algebra into a hash map — O(1) per row, so the callers can bulk-sort
/// the (much smaller) distinct-key set afterwards.
///
/// # Panics
/// Panics when one key carries two different attribute patterns — the
/// same hard failure the merge tables raise.
fn aggregate_records(
    rows: impl Iterator<Item = (FlowKey, AttrValue)>,
    capacity: usize,
) -> HashMap<u128, (FlowKey, AttrValue)> {
    let mut agg: HashMap<u128, (FlowKey, AttrValue)> = HashMap::with_capacity(capacity);
    for (key, attr) in rows {
        match agg.entry(key.as_u128()) {
            std::collections::hash_map::Entry::Occupied(mut e) => {
                e.get_mut()
                    .1
                    .merge(&attr)
                    .expect("one merge kind per key in an aggregated batch");
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert((key, attr));
            }
        }
    }
    agg
}

/// One sub-window's exact truth, aggregated per flow key. Keyed by the
/// packed key so iteration (and therefore scoring) is deterministic.
type TruthTable = BTreeMap<u128, (FlowKey, AttrValue)>;

/// The streaming ground-truth oracle plus scorer. Built by
/// [`crate::Obs::install_accuracy`]; every clone of the handle sees it.
#[derive(Debug)]
pub struct AccuracyScorer {
    journal: Arc<EventJournal>,
    /// Exact per-sub-window truth, aggregated per key; consumed at
    /// scoring (or dropped at departure).
    oracle: Mutex<HashMap<u32, TruthTable>>,
    /// Every scored window, keyed by sub-window so aggregate recompute
    /// order is deterministic regardless of scoring order.
    scores: Mutex<BTreeMap<u32, WindowScore>>,
    precision_g: Gauge,
    recall_g: Gauge,
    aare_g: Gauge,
    windows_c: Counter,
    truth_keys_c: Counter,
    merged_keys_c: Counter,
    departed_c: Counter,
    recall_err_h: Histogram,
}

impl AccuracyScorer {
    /// Build a scorer over a registry + journal pair, registering the
    /// `ow_accuracy_*` series. The precision/recall gauges start at
    /// 1000‰ ("perfect until a window proves otherwise") so alert
    /// rules evaluated before the first scored window stay silent.
    pub(crate) fn new(
        registry: Arc<MetricsRegistry>,
        journal: Arc<EventJournal>,
    ) -> Arc<AccuracyScorer> {
        let labels = [("query", ACCURACY_QUERY)];
        let scorer = AccuracyScorer {
            journal,
            oracle: Mutex::new(HashMap::new()),
            scores: Mutex::new(BTreeMap::new()),
            precision_g: registry.gauge("ow_accuracy_precision_permille", &labels),
            recall_g: registry.gauge("ow_accuracy_recall_permille", &labels),
            aare_g: registry.gauge("ow_accuracy_aare_permille", &labels),
            windows_c: registry.counter("ow_accuracy_windows_scored_total", &labels),
            truth_keys_c: registry.counter("ow_accuracy_truth_keys_total", &labels),
            merged_keys_c: registry.counter("ow_accuracy_merged_keys_total", &labels),
            departed_c: registry.counter("ow_accuracy_oracle_departed_total", &labels),
            recall_err_h: registry.histogram("ow_accuracy_recall_error_permille", &labels),
        };
        scorer.precision_g.set(1000);
        scorer.recall_g.set(1000);
        scorer.aare_g.set(0);
        Arc::new(scorer)
    }

    /// Feed the oracle one sub-window's *exact* records — called by the
    /// feeder before loss and before any sketch compression, and before
    /// it sends the sub-window's announcement. Repeated feeds for the
    /// same sub-window aggregate (multi-batch feeders).
    ///
    /// # Panics
    /// Panics if a key is fed two different attribute patterns — the
    /// same hard failure the merge tables raise.
    pub fn feed_truth(&self, subwindow: u32, records: &[FlowRecord]) {
        // Aggregate the batch hash-first (O(1) per record, outside the
        // oracle lock), then bulk-build the ordered entry — an order of
        // magnitude cheaper than per-record ordered inserts.
        let agg = aggregate_records(records.iter().map(|r| (r.key, r.attr)), records.len());
        let mut oracle = self.oracle.lock();
        match oracle.entry(subwindow) {
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(agg.into_iter().collect());
            }
            std::collections::hash_map::Entry::Occupied(mut e) => {
                let entry = e.get_mut();
                for (k, (key, attr)) in agg {
                    match entry.entry(k) {
                        std::collections::btree_map::Entry::Occupied(mut e) => {
                            e.get_mut()
                                .1
                                .merge(&attr)
                                .expect("one merge kind per key in the oracle feed");
                        }
                        std::collections::btree_map::Entry::Vacant(e) => {
                            e.insert((key, attr));
                        }
                    }
                }
            }
        }
    }

    /// Sub-windows currently held by the oracle (fed, not yet scored
    /// or departed).
    pub fn pending_windows(&self) -> usize {
        self.oracle.lock().len()
    }

    /// Score one window's merged answer at its `Merged` transition:
    /// consume the oracle entry, diff, publish. Returns the per-window
    /// score, or `None` when the oracle was never fed this sub-window
    /// (unobserved windows are skipped, not scored as empty).
    pub fn score_block(&self, block: &RecordBlock) -> Option<WindowScoreBrief> {
        let subwindow = block.subwindow();
        let truth = self.oracle.lock().remove(&subwindow)?;

        // Aggregate the merged rows per key with the same merge algebra
        // the shard tables use — hash-first, then bulk-build ordered.
        let merged: TruthTable =
            aggregate_records(block.iter().map(|r| (r.key, r.attr)), block.len())
                .into_iter()
                .collect();

        let merged_scalars: Vec<(FlowKey, f64)> =
            merged.values().map(|(k, v)| (*k, v.scalar())).collect();
        let truth_scalars: Vec<(FlowKey, f64)> =
            truth.values().map(|(k, v)| (*k, v.scalar())).collect();

        // The thresholded report sets, then the exact helpers the
        // offline scorer uses.
        let reported: HashSet<FlowKey> = merged_scalars
            .iter()
            .filter(|(_, s)| *s >= ACCURACY_THRESHOLD)
            .map(|(k, _)| *k)
            .collect();
        let truth_set: HashSet<FlowKey> = truth_scalars
            .iter()
            .filter(|(_, s)| *s >= ACCURACY_THRESHOLD)
            .map(|(k, _)| *k)
            .collect();
        let pr = metrics::precision_recall(&reported, &truth_set);
        let pairs: Vec<(f64, f64)> = truth_scalars
            .iter()
            .filter(|(_, t)| *t > 0.0)
            .map(|(k, t)| {
                let est = merged
                    .get(&k.as_u128())
                    .map(|(_, v)| v.scalar())
                    .unwrap_or(0.0);
                (est, *t)
            })
            .collect();
        let are = metrics::average_relative_error(&pairs);

        let score = WindowScore {
            subwindow,
            merged: merged_scalars,
            truth: truth_scalars,
            precision: pr.precision,
            recall: pr.recall,
            are,
            tp: pr.tp,
            fp: pr.fp,
            fn_: pr.fn_,
        };
        let brief = WindowScoreBrief {
            subwindow,
            truth_keys: truth.len(),
            merged_keys: merged.len(),
            precision_permille: permille(pr.precision),
            recall_permille: permille(pr.recall),
            are_permille: permille(are),
        };

        // Insert, then recompute the aggregates over the *ordered* map:
        // the final gauge values come out identical no matter which
        // worker scored which window first.
        {
            let mut scores = self.scores.lock();
            scores.insert(subwindow, score);
            let n = scores.len() as f64;
            let precision = scores.values().map(|w| w.precision).sum::<f64>() / n;
            let recall = scores.values().map(|w| w.recall).sum::<f64>() / n;
            let aare = scores.values().map(|w| w.are).sum::<f64>() / n;
            self.precision_g.set(permille(precision));
            self.recall_g.set(permille(recall));
            self.aare_g.set(permille(aare));
        }
        self.windows_c.inc();
        // Merged before truth: a health snapshot racing these two adds
        // then sees a cardinality ratio biased *high*, so the `Below`
        // drift rule (OW-HEALTH-403) can never false-fire mid-update.
        self.merged_keys_c.add(brief.merged_keys as u64);
        self.truth_keys_c.add(brief.truth_keys as u64);
        self.recall_err_h
            .record_value(1000 - brief.recall_permille.min(1000));
        self.journal.record(
            Event::new(
                "accuracy_scored",
                format!(
                    "query '{}': precision {}‰ recall {}‰ are {}‰ ({} truth keys, {} merged)",
                    ACCURACY_QUERY,
                    brief.precision_permille,
                    brief.recall_permille,
                    brief.are_permille,
                    brief.truth_keys,
                    brief.merged_keys,
                ),
            )
            .subwindow(subwindow)
            .phase("merged"),
        );
        Some(brief)
    }

    /// Drop the oracle entry of a window abandoned through the `Depart`
    /// path — its merged answer will never arrive, and the oracle map
    /// must not grow without bound under crash churn.
    pub fn window_departed(&self, subwindow: u32) {
        if self.oracle.lock().remove(&subwindow).is_some() {
            self.departed_c.inc();
        }
    }

    /// Every scored window, ascending sub-window order.
    pub fn windows(&self) -> Vec<WindowScore> {
        self.scores.lock().values().cloned().collect()
    }

    /// The deterministic summary (aggregates + per-window briefs).
    pub fn summary(&self) -> AccuracySummary {
        let scores = self.scores.lock();
        let n = scores.len() as f64;
        let (precision, recall, aare) = if scores.is_empty() {
            (1.0, 1.0, 0.0)
        } else {
            (
                scores.values().map(|w| w.precision).sum::<f64>() / n,
                scores.values().map(|w| w.recall).sum::<f64>() / n,
                scores.values().map(|w| w.are).sum::<f64>() / n,
            )
        };
        AccuracySummary {
            query: ACCURACY_QUERY.to_string(),
            windows_scored: scores.len() as u64,
            precision_permille: permille(precision),
            recall_permille: permille(recall),
            aare_permille: permille(aare),
            windows: scores
                .values()
                .map(|w| WindowScoreBrief {
                    subwindow: w.subwindow,
                    truth_keys: w.truth.len(),
                    merged_keys: w.merged.len(),
                    precision_permille: permille(w.precision),
                    recall_permille: permille(w.recall),
                    are_permille: permille(w.are),
                })
                .collect(),
        }
    }
}

/// The accuracy rule catalog (`OW-HEALTH-4xx`), evaluated over the
/// `ow_accuracy_*` and `ow_sketch_*` series at the run's settle tick.
///
/// | code | rule | signal |
/// |------|------|--------|
/// | `OW-HEALTH-401` | `recall_slo_burn` | burn rate of per-window recall errors ≥ `RECALL_SLO_ERROR_PERMILLE`‰ against a `RECALL_SLO_BUDGET_PERMILLE`‰ budget (conservative straddling-bucket undercount — see [`Signal::BurnRatePermille`]) |
/// | `OW-HEALTH-402` | `sketch_saturation` | per-sketch occupancy above `SKETCH_SATURATION_PERMILLE`‰ |
/// | `OW-HEALTH-403` | `cardinality_drift` | merged/oracle distinct-key ratio below `CARDINALITY_DRIFT_PERMILLE`‰ |
/// | `OW-HEALTH-404` | `accuracy_collapse` | live recall below `ACCURACY_COLLAPSE_PERMILLE`‰ (**critical** — freezes the flight recorder) |
pub fn accuracy_health_rules() -> RuleSet {
    RuleSet::new(vec![
        Rule::new(
            "OW-HEALTH-401",
            "recall_slo_burn",
            MetricSelector::new("ow_accuracy_recall_error_permille", &[]),
            // The deadline is a recall-error permille, not a latency:
            // the burn-rate signal only reads bucket bounds, so any
            // monotone unit recorded into a log2 histogram works. Its
            // straddling-bucket undercount (documented on the signal)
            // means windows with error in (32, 64] never count — the
            // rule errs toward silence, never toward a false page.
            Signal::BurnRatePermille {
                deadline_ns: RECALL_SLO_ERROR_PERMILLE,
                budget_permille: RECALL_SLO_BUDGET_PERMILLE,
            },
            Cmp::Above,
            1000,
            Severity::Warning,
        )
        .entity("accuracy"),
        Rule::new(
            "OW-HEALTH-402",
            "sketch_saturation",
            MetricSelector::new("ow_sketch_occupancy_permille", &[]),
            Signal::Value,
            Cmp::Above,
            SKETCH_SATURATION_PERMILLE,
            Severity::Warning,
        )
        .group_by("sketch")
        .entity("sketch"),
        Rule::new(
            "OW-HEALTH-403",
            "cardinality_drift",
            MetricSelector::new("ow_accuracy_merged_keys_total", &[]),
            Signal::RatioPermille {
                denominator: MetricSelector::new("ow_accuracy_truth_keys_total", &[]),
            },
            Cmp::Below,
            CARDINALITY_DRIFT_PERMILLE,
            Severity::Warning,
        )
        .entity("accuracy"),
        Rule::new(
            "OW-HEALTH-404",
            "accuracy_collapse",
            MetricSelector::new("ow_accuracy_recall_permille", &[]),
            Signal::Value,
            Cmp::Below,
            ACCURACY_COLLAPSE_PERMILLE,
            Severity::Critical,
        )
        .entity("accuracy"),
    ])
    .expect("accuracy rule catalog validates")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Obs;
    use ow_common::time::Instant;

    fn freq(key: u32, count: u64, sw: u32) -> FlowRecord {
        FlowRecord::frequency(FlowKey::src_ip(key), count, sw)
    }

    #[test]
    fn perfect_merge_scores_perfectly() {
        let obs = Obs::new();
        let acc = obs.install_accuracy();
        let batch = vec![freq(1, 60, 7), freq(2, 80, 7), freq(1, 40, 7)];
        acc.feed_truth(7, &batch);
        let brief = acc
            .score_block(&RecordBlock::from_records(7, &batch))
            .expect("fed window scores");
        assert_eq!(brief.precision_permille, 1000);
        assert_eq!(brief.recall_permille, 1000);
        assert_eq!(brief.are_permille, 0);
        assert_eq!(brief.truth_keys, 2);
        let snap = obs.snapshot();
        let q = [("query", "heavy_hitter")];
        assert_eq!(snap.value("ow_accuracy_precision_permille", &q), 1000);
        assert_eq!(snap.value("ow_accuracy_recall_permille", &q), 1000);
        assert_eq!(snap.value("ow_accuracy_aare_permille", &q), 0);
        assert_eq!(snap.value("ow_accuracy_windows_scored_total", &q), 1);
        // A perfect window records recall error 0.
        let h = snap
            .get("ow_accuracy_recall_error_permille", &q)
            .unwrap()
            .histogram
            .as_ref()
            .unwrap();
        assert_eq!(h.count, 1);
        assert_eq!(h.sum, 0);
    }

    #[test]
    fn missing_and_spurious_keys_degrade_the_scores() {
        let obs = Obs::new();
        let acc = obs.install_accuracy();
        acc.feed_truth(1, &[freq(1, 100, 1), freq(2, 50, 1)]);
        // The merged answer lost key 2 and invented key 9.
        let brief = acc
            .score_block(&RecordBlock::from_records(
                1,
                &[freq(1, 100, 1), freq(9, 10, 1)],
            ))
            .unwrap();
        assert_eq!(brief.precision_permille, 500); // 1 of 2 reported is real
        assert_eq!(brief.recall_permille, 500); // 1 of 2 truths found
                                                // ARE: key 1 exact (0), key 2 missing (|0-50|/50 = 1) → 0.5.
        assert_eq!(brief.are_permille, 500);
        let ws = &acc.windows()[0];
        assert_eq!((ws.tp, ws.fp, ws.fn_), (1, 1, 1));
    }

    #[test]
    fn aggregates_average_over_windows_in_subwindow_order() {
        let obs = Obs::new();
        let acc = obs.install_accuracy();
        // Score out of order: window 5 first, then window 2.
        acc.feed_truth(5, &[freq(1, 10, 5), freq(2, 10, 5)]);
        acc.feed_truth(2, &[freq(3, 10, 2)]);
        acc.score_block(&RecordBlock::from_records(5, &[freq(1, 10, 5)]))
            .unwrap();
        acc.score_block(&RecordBlock::from_records(2, &[freq(3, 10, 2)]))
            .unwrap();
        let summary = acc.summary();
        assert_eq!(summary.windows_scored, 2);
        // Mean of 1000 and 500.
        assert_eq!(summary.recall_permille, 750);
        assert_eq!(summary.precision_permille, 1000);
        // Briefs come back in sub-window order regardless of scoring order.
        let sws: Vec<u32> = summary.windows.iter().map(|w| w.subwindow).collect();
        assert_eq!(sws, vec![2, 5]);
        let snap = obs.snapshot();
        let q = [("query", "heavy_hitter")];
        assert_eq!(snap.value("ow_accuracy_recall_permille", &q), 750);
    }

    #[test]
    fn unfed_windows_are_skipped_and_departures_drop_the_oracle_entry() {
        let obs = Obs::new();
        let acc = obs.install_accuracy();
        assert!(acc
            .score_block(&RecordBlock::from_records(3, &[freq(1, 1, 3)]))
            .is_none());
        acc.feed_truth(4, &[freq(1, 1, 4)]);
        acc.feed_truth(5, &[freq(1, 1, 5)]);
        assert_eq!(acc.pending_windows(), 2);
        // Scoring is synchronous: when `score_block` returns the window
        // is in the summary and its truth is gone, with no further call.
        acc.score_block(&RecordBlock::from_records(5, &[freq(1, 1, 5)]))
            .expect("fed window scores");
        assert_eq!(acc.pending_windows(), 1);
        let scored: Vec<u32> = acc.summary().windows.iter().map(|w| w.subwindow).collect();
        assert_eq!(scored, vec![5]);
        // A departed window releases its truth immediately.
        acc.window_departed(4);
        assert_eq!(acc.pending_windows(), 0);
        // A second departure of the same window is a no-op.
        acc.window_departed(4);
        let snap = obs.snapshot();
        let q = [("query", "heavy_hitter")];
        assert_eq!(snap.value("ow_accuracy_oracle_departed_total", &q), 1);
    }

    #[test]
    fn collapse_rule_fires_and_freezes_only_on_bad_recall() {
        let obs = Obs::new();
        let engine = obs.install_health(accuracy_health_rules());
        let acc = obs.install_accuracy();
        // Perfect window: every 4xx rule stays silent.
        let batch = vec![freq(1, 10, 0), freq(2, 10, 0)];
        acc.feed_truth(0, &batch);
        acc.score_block(&RecordBlock::from_records(0, &batch));
        engine.tick(Instant::from_millis(1));
        assert!(engine.timeline().is_empty(), "{:?}", engine.timeline());
        assert!(!engine.frozen());
        // Two collapsed windows (none of the truths recovered, only a
        // spurious key): the aggregate recall drops to 333‰, so
        // 401 + 403 + 404 fire and the critical 404 freezes the box.
        for sw in [1u32, 2] {
            let truth: Vec<FlowRecord> = (0..4).map(|k| freq(k, 10, sw)).collect();
            acc.feed_truth(sw, &truth);
            acc.score_block(&RecordBlock::from_records(sw, &[freq(9, 10, sw)]));
        }
        // The sketch behind the feed reports itself nearly full: 402.
        obs.gauge("ow_sketch_occupancy_permille", &[("sketch", "mv")])
            .set(950);
        engine.tick(Instant::from_millis(2));
        let fired: Vec<String> = engine
            .timeline()
            .iter()
            .filter(|a| a.state == "fired")
            .map(|a| a.code.clone())
            .collect();
        let fired: Vec<&str> = fired.iter().map(String::as_str).collect();
        assert!(fired.contains(&"OW-HEALTH-401"), "{fired:?}");
        assert!(fired.contains(&"OW-HEALTH-402"), "{fired:?}");
        assert!(fired.contains(&"OW-HEALTH-403"), "{fired:?}");
        assert!(fired.contains(&"OW-HEALTH-404"), "{fired:?}");
        assert!(engine.frozen(), "accuracy collapse freezes the recorder");
        let dump = engine.flight_dump("unit").expect("frozen");
        assert!(dump.freeze_reason.contains("OW-HEALTH-404"));
    }
}
