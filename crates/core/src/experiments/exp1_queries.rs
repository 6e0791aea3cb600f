//! Exp#1 (Figure 7): query-driven telemetry accuracy.
//!
//! Integrates the window mechanisms with the seven Sonata queries
//! (Q1–Q7) and scores each mechanism's reports against the matching
//! ideal: tumbling mechanisms (ITW, TW1, TW2, OTW) against ITW, sliding
//! (OSW) against ISW, plus the ITW-vs-ISW row showing what tumbling
//! windows inherently miss.

use serde::Serialize;

use ow_query::spec::standard_queries;

use crate::app::QueryApp;
use crate::config::WindowConfig;
use crate::evaluate::union_score;
use crate::experiments::common::{evaluation_trace, MechScore, Scale};
use crate::mechanisms::{Ideals, Lineup};

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
        let ideals = Ideals::run(&app, &trace, &cfg);
        let lineup = Lineup::run(&app, &ideals, mem, mem / 4, fk, seed, &[], false);
        // ITW vs ISW compares the *union over time* of detections: every
        // tumbling window is also a sliding position, so ITW's precision
        // is 1.0 by construction and its recall measures the anomalies
        // only a sliding window catches (Figure 1).
        let itw_vs_isw = union_score(&ideals.itw, &ideals.isw);
        let mut rows = vec![MechScore::new("ITW-vs-ISW", itw_vs_isw)];
        rows.extend(MechScore::rows(&lineup));

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
