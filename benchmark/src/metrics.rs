//! The metric tables: names, units, directions and regression bounds.
//!
//! `BENCHMARK.json` at the repo root is rendered from these tables
//! (`owbench --print-benchmark-json`); a unit test keeps the two equal.

use std::fmt::Write as _;

use crate::workload::WORKLOADS;

/// Seconds one run measures for (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 15;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// A metric a user of the system would see. `bound` is the share of the
/// parent's median by which it may get worse before a change is rejected.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

/// A metric of one layer; it has no bound.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

use Better::{Higher, Lower};

pub const END_TO_END: [EndToEnd; 7] = [
    e2e("pkts_per_s", "pkt/s", Higher, 0.25),
    e2e("window_ready_ms_p50", "ms", Lower, 0.25),
    e2e("query_us_p50", "us", Lower, 0.25),
    e2e("snapshot_ms_p50", "ms", Lower, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.15),
    e2e("hh_f1_permille", "permille", Higher, 0.03),
    e2e("setup_s", "s", Lower, 0.25),
];

pub const PER_LAYER: [PerLayer; 49] = [
    layer("trace.build_ns_per_pkt", "ns", Lower),
    layer("verify.build_switch_ms", "ms", Lower),
    layer("switch.update_ns_per_pkt", "ns", Lower),
    layer("switch.update_share", "share", Lower),
    layer("switch.allocs_per_pkt", "count", Lower),
    layer("switch.alloc_bytes_per_pkt", "B", Lower),
    layer("switch.cr_ns_per_record", "ns", Lower),
    layer("switch.cr_ms_p50", "ms", Lower),
    layer("switch.cr_share", "share", Lower),
    layer("switch.trigger_us_p50", "us", Lower),
    layer("switch.records_per_pkt", "ratio", Lower),
    layer("switch.overflow_share", "ratio", Lower),
    layer("switch.latency_spikes", "count", Lower),
    layer("switch.track_ns_per_key", "ns", Lower),
    layer("sketch.cm_update_ns", "ns", Lower),
    layer("sketch.cm_query_ns", "ns", Lower),
    layer("sketch.mv_update_ns", "ns", Lower),
    layer("wire.encode_ns_per_record", "ns", Lower),
    layer("wire.decode_ns_per_record", "ns", Lower),
    layer("wire.bytes_per_record", "B", Lower),
    layer("wire.share", "share", Lower),
    layer("block.build_ns_per_record", "ns", Lower),
    layer("block.scatter_ns_per_record", "ns", Lower),
    layer("controller.send_wait_ns_per_record", "ns", Lower),
    layer("controller.send_wait_share", "share", Lower),
    layer("controller.drain_ms", "ms", Lower),
    layer("controller.ready_wait_ms_p50", "ms", Lower),
    layer("controller.fold_ns_per_record", "ns", Lower),
    layer("controller.evict_us_p50", "us", Lower),
    layer("controller.flows_over_us_p50", "us", Lower),
    layer("controller.snapshot_ms_p50", "ms", Lower),
    layer("controller.merged_flows", "count", Lower),
    layer("controller.queue_depth_peak", "count", Lower),
    layer("controller.queue_records_peak", "count", Lower),
    layer("controller.blocks_routed", "count", Lower),
    layer("controller.backpressure_dropped", "count", Lower),
    layer("reliability.first_pass_share", "ratio", Higher),
    layer("reliability.recovered_records", "count", Lower),
    layer("reliability.retransmit_rounds", "count", Lower),
    layer("reliability.retransmit_requests", "count", Lower),
    layer("reliability.escalations", "count", Lower),
    layer("reliability.duplicates", "count", Lower),
    layer("reliability.collect_ns_per_record", "ns", Lower),
    layer("netsim.channel_ns_per_record", "ns", Lower),
    layer("core.run_omniwindow_ns_per_pkt", "ns", Lower),
    layer("window_ready_ms_p95", "ms", Lower),
    layer("query_us_p95", "us", Lower),
    layer("harness.glue_share", "share", Lower),
    layer("harness.trace_overhead_pct", "%", Lower),
];

/// A measured value with its unit, and for timings its spread.
#[derive(Debug, Clone, Copy)]
pub struct Measured {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// `(q1, q3, n)` of the samples behind `value`, when it is a median.
    pub spread: Option<(f64, f64, usize)>,
}

/// `name unit value [q1 q3 n]`, the line format of every report.
pub fn render_line(m: &Measured) -> String {
    let mut s = format!("{} {} {}", m.name, m.unit, m.value);
    if let Some((q1, q3, n)) = m.spread {
        let _ = write!(s, " q1 {q1} q3 {q3} n {n}");
    }
    s
}

/// The one-line JSON result the driver reads from the end of stdout.
pub fn render_result(correct: bool, attempted: u64, failed: u64, metrics: &[Measured]) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(
            s,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    s.push_str("}}");
    s
}

/// The text of `BENCHMARK.json`.
pub fn render_benchmark_json() -> String {
    let rows = |rows: Vec<String>| rows.join(",\n");
    let workloads = rows(
        WORKLOADS
            .iter()
            .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
            .collect(),
    );
    let end_to_end = rows(
        END_TO_END
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                    m.name,
                    m.unit,
                    m.better.as_str(),
                    m.bound
                )
            })
            .collect(),
    );
    let per_layer = rows(
        PER_LAYER
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                    m.name,
                    m.unit,
                    m.better.as_str()
                )
            })
            .collect(),
    );
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{workloads}\n  ],\n  \"end_to_end\": [\n{end_to_end}\n  ],\n  \"per_layer\": [\n{per_layer}\n  ]\n}}\n"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn valid_name(n: &str) -> bool {
        n.len() <= 64
            && n.starts_with(|c: char| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(u: &str) -> bool {
        !u.is_empty()
            && u.len() <= 16
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn tables_meet_the_benchmark_contract() {
        let mut names = HashSet::new();
        for m in END_TO_END {
            assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(names.insert(m.name), "{} is used twice", m.name);
        }
        for m in PER_LAYER {
            assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
            assert!(names.insert(m.name), "{} is used twice", m.name);
        }
        for w in WORKLOADS {
            assert!(valid_name(w.name));
            assert!(names.insert(w.name), "{} is used twice", w.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s");
        let setup = setup.expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    #[test]
    fn committed_benchmark_json_is_rendered_from_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(committed, render_benchmark_json());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = render_result(
            true,
            7,
            0,
            &[Measured {
                name: "setup_s",
                unit: "s",
                value: 0.5,
                spread: None,
            }],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 7, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
