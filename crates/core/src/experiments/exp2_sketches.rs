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

use crate::app::{HeavyHitterApp, SizeApp, SpreadApp, VbfApp, WindowApp};
use crate::cardinality::{
    conventional_cardinality, ideal_cardinality, omniwindow_cardinality,
    sliding_sketch_cardinality, Estimator,
};
use crate::config::WindowConfig;
use crate::evaluate::{aare, score_estimates, score_reports};
use crate::experiments::common::{evaluation_trace, MechScore, Scale};
use crate::experiments::exp1_queries::TW1_BLACKOUT;
use crate::mechanisms::{
    run_conventional_tw, run_ideal, run_omniwindow_probed, run_sliding_sketch, Mode,
};

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

fn detection_rows<A: WindowApp>(
    app: &A,
    trace: &ow_trace::Trace,
    cfg: &WindowConfig,
    scale: Scale,
    seed: u64,
) -> Vec<MechScore> {
    let mem = scale.window_memory();
    let sub_mem = scale.subwindow_memory();
    let fk = scale.fk_capacity();
    let itw = run_ideal(app, trace, cfg, Mode::Tumbling);
    let isw = run_ideal(app, trace, cfg, Mode::Sliding);
    let tw1 = run_conventional_tw(app, trace, cfg, mem, TW1_BLACKOUT, seed, &[]);
    let tw2 = run_conventional_tw(app, trace, cfg, mem, Duration::ZERO, seed, &[]);
    let otw = run_omniwindow_probed(app, trace, cfg, Mode::Tumbling, sub_mem, fk, seed, &[]);
    let osw = run_omniwindow_probed(app, trace, cfg, Mode::Sliding, sub_mem, fk, seed, &[]);
    let ss = run_sliding_sketch(app, trace, cfg, mem, seed, &[]);

    let mut rows = Vec::new();
    let mut push = |name: &str, pr: ow_common::metrics::PrecisionRecall| {
        rows.push(MechScore {
            mechanism: name.to_string(),
            precision: pr.precision,
            recall: pr.recall,
        });
    };
    push("TW1", score_reports(&tw1, &itw));
    push("TW2", score_reports(&tw2, &itw));
    push("OTW", score_reports(&otw, &itw));
    push("OSW", score_reports(&osw, &isw));
    push("SS", score_reports(&ss, &isw));
    rows
}

fn probe_keys<A: WindowApp>(app: &A, trace: &ow_trace::Trace) -> Vec<FlowKey> {
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

fn error_rows<A: WindowApp>(
    app: &A,
    trace: &ow_trace::Trace,
    cfg: &WindowConfig,
    scale: Scale,
    seed: u64,
) -> Vec<(String, f64)> {
    let mem = scale.window_memory();
    let sub_mem = scale.subwindow_memory();
    let fk = scale.fk_capacity();
    let probes = probe_keys(app, trace);
    let itw = run_ideal(app, trace, cfg, Mode::Tumbling);
    let isw = run_ideal(app, trace, cfg, Mode::Sliding);
    let tw1 = run_conventional_tw(app, trace, cfg, mem, TW1_BLACKOUT, seed, &probes);
    let tw2 = run_conventional_tw(app, trace, cfg, mem, Duration::ZERO, seed, &probes);
    let otw = run_omniwindow_probed(app, trace, cfg, Mode::Tumbling, sub_mem, fk, seed, &probes);
    let osw = run_omniwindow_probed(app, trace, cfg, Mode::Sliding, sub_mem, fk, seed, &probes);
    let ss = run_sliding_sketch(app, trace, cfg, mem, seed, &probes);
    vec![
        ("TW1".into(), score_estimates(&tw1, &itw)),
        ("TW2".into(), score_estimates(&tw2, &itw)),
        ("OTW".into(), score_estimates(&otw, &itw)),
        ("OSW".into(), score_estimates(&osw, &isw)),
        ("SS".into(), score_estimates(&ss, &isw)),
    ]
}

fn cardinality_rows(
    trace: &ow_trace::Trace,
    cfg: &WindowConfig,
    est_window: Estimator,
    est_sub: Estimator,
    seed: u64,
) -> Vec<(String, f64)> {
    let ideal_t = ideal_cardinality(trace, cfg, Mode::Tumbling);
    let ideal_s = ideal_cardinality(trace, cfg, Mode::Sliding);
    let tw1 = conventional_cardinality(trace, cfg, est_window, TW1_BLACKOUT, seed);
    let tw2 = conventional_cardinality(trace, cfg, est_window, Duration::ZERO, seed);
    let otw = omniwindow_cardinality(trace, cfg, Mode::Tumbling, est_sub, seed);
    let osw = omniwindow_cardinality(trace, cfg, Mode::Sliding, est_sub, seed);
    let ss = sliding_sketch_cardinality(trace, cfg, est_window, seed);
    vec![
        ("TW1".into(), aare(&tw1, &ideal_t)),
        ("TW2".into(), aare(&tw2, &ideal_t)),
        ("OTW".into(), aare(&otw, &ideal_t)),
        ("OSW".into(), aare(&osw, &ideal_s)),
        ("SS".into(), aare(&ss, &ideal_s)),
    ]
}

/// Run Exp#2.
pub fn run(scale: Scale, seed: u64) -> Exp2Result {
    let trace = evaluation_trace(scale, seed);
    let cfg = WindowConfig::paper_default();
    let mut sketches = Vec::new();

    // Q8: super-spreaders.
    let spread_threshold = 80;
    let sps = SpreadApp::new(spread_threshold);
    sketches.push(SketchAccuracy {
        query: "Q8".into(),
        sketch: "SpreadSketch".into(),
        rows: detection_rows(&sps, &trace, &cfg, scale, seed),
        errors: vec![],
    });
    let vbf = VbfApp::new(spread_threshold);
    sketches.push(SketchAccuracy {
        query: "Q8".into(),
        sketch: "VectorBloomFilter".into(),
        rows: detection_rows(&vbf, &trace, &cfg, scale, seed),
        errors: vec![],
    });

    // Q9: heavy hitters (packets per five-tuple).
    let hh_threshold = 120;
    let mv = HeavyHitterApp::mv(hh_threshold);
    sketches.push(SketchAccuracy {
        query: "Q9".into(),
        sketch: "MvSketch".into(),
        rows: detection_rows(&mv, &trace, &cfg, scale, seed),
        errors: vec![],
    });
    let hp = HeavyHitterApp::hashpipe(hh_threshold);
    sketches.push(SketchAccuracy {
        query: "Q9".into(),
        sketch: "HashPipe".into(),
        rows: detection_rows(&hp, &trace, &cfg, scale, seed),
        errors: vec![],
    });
    // Extension beyond the paper's eight: Elastic Sketch (§4.2's
    // heavy-keys-only example) under the same window settings.
    let es = HeavyHitterApp::elastic(hh_threshold);
    sketches.push(SketchAccuracy {
        query: "Q9".into(),
        sketch: "ElasticSketch".into(),
        rows: detection_rows(&es, &trace, &cfg, scale, seed),
        errors: vec![],
    });

    // Q10: per-flow size (bytes), scored by ARE.
    let cm = SizeApp::count_min(u64::MAX); // never reports; ARE only
    sketches.push(SketchAccuracy {
        query: "Q10".into(),
        sketch: "CountMin".into(),
        rows: vec![],
        errors: error_rows(&cm, &trace, &cfg, scale, seed),
    });
    let sm = SizeApp::sumax(u64::MAX);
    sketches.push(SketchAccuracy {
        query: "Q10".into(),
        sketch: "SuMax".into(),
        rows: vec![],
        errors: error_rows(&sm, &trace, &cfg, scale, seed),
    });

    // Q11: flow cardinality, scored by AARE. Window instances get the
    // full window budget; sub-window instances the sub-window budget.
    let lc_bits_win = scale.window_memory() * 8 / 16; // bits
    let lc_bits_sub = lc_bits_win / 4;
    sketches.push(SketchAccuracy {
        query: "Q11".into(),
        sketch: "LinearCounting".into(),
        rows: vec![],
        errors: cardinality_rows(
            &trace,
            &cfg,
            Estimator::LinearCounting { bits: lc_bits_win },
            Estimator::LinearCounting { bits: lc_bits_sub },
            seed,
        ),
    });
    let hll_p_win = match scale {
        Scale::Tiny => 11,
        Scale::Small => 12,
        Scale::Paper => 14,
    };
    sketches.push(SketchAccuracy {
        query: "Q11".into(),
        sketch: "HyperLogLog".into(),
        rows: vec![],
        errors: cardinality_rows(
            &trace,
            &cfg,
            Estimator::HyperLogLog {
                precision: hll_p_win,
            },
            Estimator::HyperLogLog {
                precision: hll_p_win - 2,
            },
            seed,
        ),
    });

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
