//! Exp#1 (Figure 7): query-driven telemetry accuracy.
//!
//! Integrates the window mechanisms with the seven Sonata queries
//! (Q1–Q7) and scores each mechanism's reports against the matching
//! ideal: tumbling mechanisms (ITW, TW1, TW2, OTW) against ITW, sliding
//! (OSW) against ISW, plus the ITW-vs-ISW row showing what tumbling
//! windows inherently miss.

use serde::Serialize;

use ow_common::time::Duration;
use ow_query::spec::standard_queries;

use crate::app::QueryApp;
use crate::config::WindowConfig;
use crate::evaluate::{score_reports, union_score};
use crate::experiments::common::{evaluation_trace, MechScore, Scale};
use crate::mechanisms::{run_conventional_tw, run_ideal, run_omniwindow_probed, Mode};

/// One query's accuracy rows.
#[derive(Debug, Clone, Serialize)]
pub struct QueryAccuracy {
    /// Query name (Q1–Q7).
    pub query: String,
    /// Per-mechanism precision/recall.
    pub rows: Vec<MechScore>,
}

/// The whole experiment's results.
#[derive(Debug, Clone, Serialize)]
pub struct Exp1Result {
    /// One entry per query.
    pub queries: Vec<QueryAccuracy>,
}

/// TW1's blackout: the switch-OS C&R time for the query state, during
/// which the single memory region cannot measure. 60 ms ≈ the OS reading
/// + clearing a Sonata-scale register array via PCIe.
pub(crate) const TW1_BLACKOUT: Duration = Duration::from_millis(60);

/// Run Exp#1.
pub fn run(scale: Scale, seed: u64) -> Exp1Result {
    let trace = evaluation_trace(scale, seed);
    let cfg = WindowConfig::paper_default();
    let fk = scale.fk_capacity();

    let mut queries = Vec::new();
    for spec in standard_queries() {
        let app = QueryApp::new(spec);
        // Window state sized to the scale's slot budget; sub-windows get
        // 1/4 of the window's memory (paper §9.1).
        let mem = app.memory_for_slots(scale.query_slots());
        let sub_mem = mem / 4;
        let itw = run_ideal(&app, &trace, &cfg, Mode::Tumbling);
        let isw = run_ideal(&app, &trace, &cfg, Mode::Sliding);
        let tw1 = run_conventional_tw(&app, &trace, &cfg, mem, TW1_BLACKOUT, seed, &[]);
        let tw2 = run_conventional_tw(&app, &trace, &cfg, mem, Duration::ZERO, seed, &[]);
        let otw = run_omniwindow_probed(&app, &trace, &cfg, Mode::Tumbling, sub_mem, fk, seed, &[]);
        let osw = run_omniwindow_probed(&app, &trace, &cfg, Mode::Sliding, sub_mem, fk, seed, &[]);

        let mut rows = Vec::new();
        let mut push = |name: &str, pr: ow_common::metrics::PrecisionRecall| {
            rows.push(MechScore {
                mechanism: name.to_string(),
                precision: pr.precision,
                recall: pr.recall,
            });
        };
        // ITW vs ISW compares the *union over time* of detections: every
        // tumbling window is also a sliding position, so ITW's precision
        // is 1.0 by construction and its recall measures the anomalies
        // only a sliding window catches (Figure 1).
        push("ITW-vs-ISW", union_score(&itw, &isw));
        push("TW1", score_reports(&tw1, &itw));
        push("TW2", score_reports(&tw2, &itw));
        push("OTW", score_reports(&otw, &itw));
        push("OSW", score_reports(&osw, &isw));

        queries.push(QueryAccuracy {
            query: spec.name.to_string(),
            rows,
        });
    }
    Exp1Result { queries }
}

impl Exp1Result {
    /// Average of a metric over all queries for one mechanism.
    pub fn average(&self, mechanism: &str) -> (f64, f64) {
        let rows: Vec<&MechScore> = self
            .queries
            .iter()
            .flat_map(|q| q.rows.iter())
            .filter(|r| r.mechanism == mechanism)
            .collect();
        let n = rows.len().max(1) as f64;
        (
            rows.iter().map(|r| r.precision).sum::<f64>() / n,
            rows.iter().map(|r| r.recall).sum::<f64>() / n,
        )
    }
}
