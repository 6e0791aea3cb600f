//! Exp#2 (Figure 8): sketch-based algorithms under the window settings.
//!
//! Eight sketches across four query types:
//! Q8 super-spreaders (SpreadSketch, Vector Bloom Filter — precision/
//! recall), Q9 heavy hitters (MV-Sketch, HashPipe — precision/recall),
//! Q10 per-flow size (Count-Min, SuMax — ARE vs ideal), Q11 flow
//! cardinality (Linear Counting, HyperLogLog — AARE vs ideal).
//! The Sliding Sketch baseline (SS) joins every sliding comparison.

use std::collections::HashSet;

use serde::Serialize;

use ow_common::flowkey::{sort_by_packed_key, FlowKey};
use ow_common::time::Duration;
use ow_trace::Trace;

use crate::app::{HeavyHitterApp, SizeApp, SpreadApp, VbfApp, WindowApp};
use crate::cardinality::{
    conventional_cardinality, ideal_cardinality, omniwindow_cardinality,
    sliding_sketch_cardinality, Estimator,
};
use crate::config::WindowConfig;
use crate::evaluate::{aare, score_estimates};
use crate::experiments::common::{evaluation_trace, MechScore, Scale};
use crate::mechanisms::{Ideals, Lineup, Mode, TW1_BLACKOUT};

/// Accuracy of one sketch under every window setting.
#[derive(Debug, Clone, Serialize)]
pub struct SketchAccuracy {
    /// Query id (Q8–Q11).
    pub query: String,
    /// Sketch name.
    pub sketch: String,
    /// Precision/recall rows (detection sketches) — empty for error
    /// metrics.
    pub rows: Vec<MechScore>,
    /// Relative-error rows `(mechanism, error)` (estimation sketches) —
    /// empty for detection metrics.
    pub errors: Vec<(String, f64)>,
}

/// The whole experiment.
#[derive(Debug, Clone, Serialize)]
pub struct Exp2Result {
    /// One entry per (query, sketch) pair.
    pub sketches: Vec<SketchAccuracy>,
}

fn probe_keys<A: WindowApp>(app: &A, trace: &Trace) -> Vec<FlowKey> {
    let mut keys: HashSet<FlowKey> = HashSet::new();
    for pkt in trace.iter() {
        if app.filter(pkt) {
            keys.insert(pkt.key(app.key_kind()));
        }
    }
    let mut v: Vec<FlowKey> = keys.into_iter().collect();
    sort_by_packed_key(&mut v, |k| *k);
    v
}

/// Q8's super-spreader threshold (distinct destinations per source).
const SPREAD_THRESHOLD: u64 = 80;
/// Q9's heavy-hitter threshold (packets per five-tuple).
const HH_THRESHOLD: u64 = 120;

/// The inputs every sketch of the experiment shares.
struct Setup {
    trace: Trace,
    cfg: WindowConfig,
    scale: Scale,
    seed: u64,
    /// Q11's exact per-window cardinalities under tumbling and sliding
    /// windows; they depend only on the trace, so both estimators share
    /// them.
    ideal_t: Vec<f64>,
    ideal_s: Vec<f64>,
}

impl Setup {
    fn lineup<'a, A: WindowApp>(
        &self,
        app: &A,
        ideals: &'a Ideals,
        probes: &[FlowKey],
    ) -> Lineup<'a> {
        let s = self.scale;
        let (mem, sub_mem, fk) = (s.window_memory(), s.subwindow_memory(), s.fk_capacity());
        Lineup::run(app, ideals, mem, sub_mem, fk, self.seed, probes, true)
    }

    /// Precision/recall rows of a detection sketch.
    fn detection<A: WindowApp>(
        &self,
        query: &str,
        sketch: &str,
        app: &A,
        ideals: &Ideals,
    ) -> SketchAccuracy {
        let rows = MechScore::rows(&self.lineup(app, ideals, &[]));
        SketchAccuracy::new(query, sketch, rows, vec![])
    }

    /// Relative-error rows of an estimation sketch, over every key.
    fn errors<A: WindowApp>(
        &self,
        query: &str,
        sketch: &str,
        app: &A,
        ideals: &Ideals,
    ) -> SketchAccuracy {
        let errors = self
            .lineup(app, ideals, &probe_keys(app, &self.trace))
            .scores(score_estimates)
            .map(|(name, error)| (name.to_string(), error))
            .collect();
        SketchAccuracy::new(query, sketch, vec![], errors)
    }

    /// Q11's AARE rows: window instances `est_window`, sub-window
    /// instances `est_sub`.
    fn cardinality(
        &self,
        sketch: &str,
        est_window: Estimator,
        est_sub: Estimator,
    ) -> SketchAccuracy {
        let (trace, cfg, seed) = (&self.trace, &self.cfg, self.seed);
        let (ideal_t, ideal_s) = (&self.ideal_t, &self.ideal_s);
        let tw1 = conventional_cardinality(trace, cfg, est_window, TW1_BLACKOUT, seed);
        let tw2 = conventional_cardinality(trace, cfg, est_window, Duration::ZERO, seed);
        let otw = omniwindow_cardinality(trace, cfg, Mode::Tumbling, est_sub, seed);
        let osw = omniwindow_cardinality(trace, cfg, Mode::Sliding, est_sub, seed);
        let ss = sliding_sketch_cardinality(trace, cfg, est_window, seed);
        let errors = vec![
            ("TW1".into(), aare(&tw1, ideal_t)),
            ("TW2".into(), aare(&tw2, ideal_t)),
            ("OTW".into(), aare(&otw, ideal_t)),
            ("OSW".into(), aare(&osw, ideal_s)),
            ("SS".into(), aare(&ss, ideal_s)),
        ];
        SketchAccuracy::new("Q11", sketch, vec![], errors)
    }
}

/// Run Exp#2.
pub fn run(scale: Scale, seed: u64) -> Exp2Result {
    let trace = evaluation_trace(scale, seed);
    let cfg = WindowConfig::paper_default();
    let x = Setup {
        ideal_t: ideal_cardinality(&trace, &cfg, Mode::Tumbling),
        ideal_s: ideal_cardinality(&trace, &cfg, Mode::Sliding),
        trace,
        cfg,
        scale,
        seed,
    };
    // Q11: window instances get the full window budget, sub-window
    // instances the sub-window budget.
    let lc_bits_win = scale.window_memory() * 8 / 16; // bits
    let hll_p_win = match scale {
        Scale::Tiny => 11,
        Scale::Small => 12,
        Scale::Paper => 14,
    };
    // Each query's sketches differ only in their sketch, so they share
    // one ideal pair; it is replaced query by query to hold one at a time.
    let (spread, vbf) = (
        SpreadApp::new(SPREAD_THRESHOLD),
        VbfApp::new(SPREAD_THRESHOLD),
    );
    let mut ideals = Ideals::run(&spread, &x.trace, &x.cfg);
    let mut sketches = vec![
        x.detection("Q8", "SpreadSketch", &spread, &ideals),
        x.detection("Q8", "VectorBloomFilter", &vbf, &ideals),
    ];
    let mv = HeavyHitterApp::mv(HH_THRESHOLD);
    let hashpipe = HeavyHitterApp::hashpipe(HH_THRESHOLD);
    // Extension beyond the paper's eight: Elastic Sketch (§4.2's
    // heavy-keys-only example) under the same window settings.
    let elastic = HeavyHitterApp::elastic(HH_THRESHOLD);
    ideals = Ideals::run(&mv, &x.trace, &x.cfg);
    sketches.extend([
        x.detection("Q9", "MvSketch", &mv, &ideals),
        x.detection("Q9", "HashPipe", &hashpipe, &ideals),
        x.detection("Q9", "ElasticSketch", &elastic, &ideals),
    ]);
    // Q10: per-flow size (bytes), scored by ARE; the apps never report.
    let (count_min, sumax) = (SizeApp::count_min(u64::MAX), SizeApp::sumax(u64::MAX));
    ideals = Ideals::run(&count_min, &x.trace, &x.cfg);
    sketches.extend([
        x.errors("Q10", "CountMin", &count_min, &ideals),
        x.errors("Q10", "SuMax", &sumax, &ideals),
    ]);
    drop(ideals);
    sketches.extend([
        x.cardinality(
            "LinearCounting",
            Estimator::LinearCounting { bits: lc_bits_win },
            Estimator::LinearCounting {
                bits: lc_bits_win / 4,
            },
        ),
        x.cardinality(
            "HyperLogLog",
            Estimator::HyperLogLog {
                precision: hll_p_win,
            },
            Estimator::HyperLogLog {
                precision: hll_p_win - 2,
            },
        ),
    ]);
    Exp2Result { sketches }
}

impl Exp2Result {
    /// Look up one (query, sketch) entry.
    pub fn get(&self, query: &str, sketch: &str) -> Option<&SketchAccuracy> {
        self.sketches
            .iter()
            .find(|s| s.query == query && s.sketch == sketch)
    }
}

impl SketchAccuracy {
    fn new(query: &str, sketch: &str, rows: Vec<MechScore>, errors: Vec<(String, f64)>) -> Self {
        SketchAccuracy {
            query: query.into(),
            sketch: sketch.into(),
            rows,
            errors,
        }
    }

    /// A detection row by mechanism name.
    pub fn row(&self, mechanism: &str) -> Option<&MechScore> {
        self.rows.iter().find(|r| r.mechanism == mechanism)
    }

    /// An error value by mechanism name.
    pub fn error(&self, mechanism: &str) -> Option<f64> {
        self.errors
            .iter()
            .find(|(m, _)| m == mechanism)
            .map(|(_, e)| *e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mechanisms::WindowResult;

    fn pair<A: WindowApp>(app: &A, trace: &Trace) -> (Vec<WindowResult>, Vec<WindowResult>) {
        let cfg = WindowConfig::paper_default();
        let ideals = Ideals::run(app, trace, &cfg);
        (ideals.itw, ideals.isw)
    }

    /// The ideals read only an app's exact half, so the pair `run`
    /// shares within a query is each of that query's sketches' own.
    #[test]
    fn each_querys_sketches_share_one_ideal_pair() {
        let trace = evaluation_trace(Scale::Tiny, 7);
        let q8 = pair(&SpreadApp::new(SPREAD_THRESHOLD), &trace);
        assert_eq!(pair(&VbfApp::new(SPREAD_THRESHOLD), &trace), q8);
        let q9 = pair(&HeavyHitterApp::mv(HH_THRESHOLD), &trace);
        assert_eq!(pair(&HeavyHitterApp::hashpipe(HH_THRESHOLD), &trace), q9);
        assert_eq!(pair(&HeavyHitterApp::elastic(HH_THRESHOLD), &trace), q9);
        let q10 = pair(&SizeApp::count_min(u64::MAX), &trace);
        assert_eq!(pair(&SizeApp::sumax(u64::MAX), &trace), q10);
        assert!(q9.0.iter().any(|w| !w.reported.is_empty()), "Q9 reports");
        assert_ne!(q9, q10, "a packet count and a byte count differ");
    }
}
