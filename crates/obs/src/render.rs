//! Human-readable renderings of the artifact types.
//!
//! [`ObsReport::render`], [`TraceReport::render`] and
//! [`FlightDump::render`] print what the value holds — tables for a
//! metrics snapshot, an indented span tree per traced window, the
//! freeze header and alert timeline of a post-mortem — and each type's
//! `write(path)` puts that text beside the JSON as `<stem>.txt`, so an
//! artifact ships with its readable form. Rendering reads the typed
//! fields; nothing is serialised and parsed back.

use std::io;
use std::path::Path;

use crate::export::ObsReport;
use crate::flightrec::FlightDump;
use crate::journal::Level;
use crate::registry::{MetricSnapshot, RegistrySnapshot};
use crate::span::{Span, TraceReport};

/// Journal events / black-box entries shown: the newest this many.
const TAIL: usize = 20;

/// Write `json` to `path` and `text` beside it as `<stem>.txt`,
/// creating parent directories.
pub(crate) fn write_artifact(path: &Path, json: String, text: String) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    std::fs::write(path, json + "\n")?;
    std::fs::write(path.with_extension("txt"), text)
}

/// Every series of the metric family `name`, in snapshot order.
fn series<'a>(
    reg: &'a RegistrySnapshot,
    name: &'a str,
) -> impl Iterator<Item = &'a MetricSnapshot> {
    reg.metrics.iter().filter(move |m| m.name == name)
}

/// The value of label `key` on `m` (`?` when it carries none).
fn label<'a>(m: &'a MetricSnapshot, key: &str) -> &'a str {
    m.labels
        .iter()
        .find(|(k, _)| k == key)
        .map_or("?", |(_, v)| v)
}

/// The value of `name`'s series whose `key` label is `want`, 0 when absent.
fn labelled(reg: &RegistrySnapshot, name: &str, key: &str, want: &str) -> u64 {
    series(reg, name)
        .find(|m| label(m, key) == want)
        .map_or(0, |m| m.value)
}

/// The sorted values label `key` takes across `name`'s series.
fn label_values(reg: &RegistrySnapshot, name: &str, key: &str) -> Vec<String> {
    let mut values: Vec<String> = series(reg, name)
        .map(|m| label(m, key).to_string())
        .collect();
    values.sort();
    values
}

/// Rendered ids of `metrics` and the width of the longest.
fn ids(metrics: &[&MetricSnapshot]) -> (Vec<String>, usize) {
    let ids: Vec<String> = metrics.iter().map(|m| m.render_id()).collect();
    let width = ids.iter().map(String::len).max().unwrap_or(0);
    (ids, width)
}

impl ObsReport {
    /// The snapshot as text: run header, counters & gauges, the health /
    /// fleet / accuracy summaries when their series are present,
    /// histogram percentiles (virtual ns) and the newest journal events.
    pub fn render(&self) -> String {
        let reg = &self.registry;
        let (histos, scalars): (Vec<&MetricSnapshot>, Vec<&MetricSnapshot>) =
            reg.metrics.iter().partition(|m| m.histogram.is_some());
        let recorded = self.events_recorded;
        let mut out = format!(
            "run: {} — {} metrics, {recorded} events recorded ({} retained)\n\n",
            self.run,
            reg.metrics.len(),
            self.events.len()
        );

        if !scalars.is_empty() {
            out.push_str("== counters & gauges ==\n");
            let (ids, width) = ids(&scalars);
            for (m, id) in scalars.iter().zip(&ids) {
                out.push_str(&format!("{id:<width$}  {:<7}  {}\n", m.kind, m.value));
            }
            out.push('\n');
        }

        render_health(reg, &mut out);
        render_fleet(reg, &mut out);
        render_accuracy(reg, &mut out);

        if !histos.is_empty() {
            out.push_str("== histograms (virtual ns) ==\n");
            let (ids, width) = ids(&histos);
            let width = width.max(4);
            out.push_str(&format!(
                "{:<width$}  {:>8}  {:>12}  {:>12}  {:>12}  {:>14}\n",
                "name", "count", "p50", "p90", "p99", "sum"
            ));
            for (h, id) in histos.iter().filter_map(|m| m.histogram.as_ref()).zip(&ids) {
                out.push_str(&format!(
                    "{id:<width$}  {:>8}  {:>12}  {:>12}  {:>12}  {:>14}\n",
                    h.count, h.p50, h.p90, h.p99, h.sum
                ));
            }
            out.push('\n');
        }

        let tail = &self.events[self.events.len().saturating_sub(TAIL)..];
        if !tail.is_empty() {
            out.push_str(&format!(
                "== journal (last {} of {recorded}) ==\n",
                tail.len()
            ));
        }
        for e in tail {
            let level = match e.level {
                Level::Warn => "WARN",
                Level::Info => "info",
            };
            let ctx = e.context(false);
            out.push_str(&format!(
                "{:>6}  {level}  {}{ctx}: {}\n",
                e.seq, e.kind, e.message
            ));
        }
        out
    }
}

/// `== health ==`: the health engine's fleet score, alert counts and
/// every degraded entity; nothing when no engine ran.
fn render_health(reg: &RegistrySnapshot, out: &mut String) {
    let Some(fleet) = series(reg, "ow_health_fleet_score").next() else {
        return;
    };
    let score = fleet.value;
    let ticks = series(reg, "ow_health_ticks_total")
        .next()
        .map_or(0, |m| m.value);
    out.push_str(&format!(
        "== health ==\nfleet score: {score}/1000 ({}) over {ticks} tick(s)\n",
        if score == 1000 { "healthy" } else { "DEGRADED" }
    ));
    let fired: Vec<&MetricSnapshot> = series(reg, "ow_health_alerts_total")
        .filter(|m| m.value > 0)
        .collect();
    if fired.is_empty() {
        out.push_str("alerts fired: none\n");
    } else {
        let total: u64 = fired.iter().map(|m| m.value).sum();
        let per: Vec<String> = fired
            .iter()
            .map(|m| format!("{} {}", m.value, label(m, "severity")))
            .collect();
        out.push_str(&format!("alerts fired: {total} ({})\n", per.join(", ")));
    }
    let mut entities: Vec<(&str, u64)> = series(reg, "ow_health_entity_score")
        .map(|m| (label(m, "entity"), m.value))
        .collect();
    entities.sort();
    for (entity, score) in entities.iter().filter(|(_, s)| *s < 1000) {
        out.push_str(&format!("  {entity}: {score}/1000\n"));
    }
    out.push('\n');
}

/// `== fleet ==`: live switches and windows in flight per worker;
/// nothing for non-fleet runs.
fn render_fleet(reg: &RegistrySnapshot, out: &mut String) {
    let live = series(reg, "ow_fleet_switches_live").next();
    let inflight: Vec<u64> = series(reg, "ow_fleet_windows_inflight")
        .map(|m| m.value)
        .collect();
    if live.is_none() && inflight.is_empty() {
        return;
    }
    out.push_str("== fleet ==\n");
    if let Some(m) = live {
        out.push_str(&format!("switches live: {}\n", m.value));
    }
    if !inflight.is_empty() {
        out.push_str(&format!(
            "windows in flight: {} across {} worker(s)\n",
            inflight.iter().sum::<u64>(),
            inflight.len()
        ));
    }
    out.push('\n');
}

/// `== accuracy ==`: the live scorer's per-query permille scores and
/// oracle sizes, plus any `ow_sketch_*` data-quality series; nothing
/// when no scorer was installed.
fn render_accuracy(reg: &RegistrySnapshot, out: &mut String) {
    let queries = label_values(reg, "ow_accuracy_precision_permille", "query");
    if queries.is_empty() {
        return;
    }
    out.push_str("== accuracy ==\n");
    for query in queries {
        let of = |name: &str| labelled(reg, name, "query", &query);
        out.push_str(&format!(
            "query '{query}': precision {}‰ recall {}‰ aare {}‰ over {} window(s)\n",
            of("ow_accuracy_precision_permille"),
            of("ow_accuracy_recall_permille"),
            of("ow_accuracy_aare_permille"),
            of("ow_accuracy_windows_scored_total"),
        ));
        out.push_str(&format!(
            "  oracle: {} truth key(s) vs {} merged, {} departed window(s)\n",
            of("ow_accuracy_truth_keys_total"),
            of("ow_accuracy_merged_keys_total"),
            of("ow_accuracy_oracle_departed_total"),
        ));
    }
    for sketch in label_values(reg, "ow_sketch_occupancy_permille", "sketch") {
        let of = |name: &str| labelled(reg, name, "sketch", &sketch);
        out.push_str(&format!(
            "  sketch {sketch}: occupancy {}‰, {} collision(s), {} eviction(s)\n",
            of("ow_sketch_occupancy_permille"),
            of("ow_sketch_hash_collisions_total"),
            of("ow_sketch_heavy_evicts_total"),
        ));
    }
    out.push('\n');
}

impl TraceReport {
    /// One block per traced window: the critical path and SLO verdict,
    /// then the span tree as an indented virtual-clock timeline.
    pub(crate) fn render(&self) -> String {
        let mut out = format!(
            "run: {} — {} window trace(s)\n",
            self.run,
            self.traces.len()
        );
        if let Some(slo) = self.slo_deadline_ns {
            out.push_str(&format!("SLO deadline: {slo}ns\n"));
        }
        for trace in &self.traces {
            let cp = &trace.critical_path;
            let slo = if cp.slo_violated {
                ", SLO VIOLATED"
            } else {
                ""
            };
            out.push_str(&format!(
                "\n== sub-window {} (trace {}) ==\n\
                 critical path: {} — wall {}ns, {}‰ attributed{slo}\n",
                trace.subwindow,
                trace.trace_id,
                cp.chain.join(" → "),
                cp.wall_ns,
                cp.attributed_permille,
            ));
            render_span_tree(&trace.spans, None, 0, &mut out);
        }
        out
    }
}

/// Append `parent`'s children (in span-id order) at `depth`, recursing.
fn render_span_tree(spans: &[Span], parent: Option<u64>, depth: usize, out: &mut String) {
    for s in spans.iter().filter(|s| s.parent == parent) {
        let shard = s.shard.map(|sh| format!(" shard={sh}")).unwrap_or_default();
        out.push_str(&format!(
            "{:indent$}{} [{}{shard}]  {}..{}  ({}ns)\n",
            "",
            s.name,
            s.side,
            s.start_ns,
            s.end_ns,
            s.duration_ns(),
            indent = 2 + depth * 2,
        ));
        render_span_tree(spans, Some(s.id), depth + 1, out);
    }
}

impl FlightDump {
    /// The post-mortem as text: freeze header, alert timeline, and the
    /// newest black-box entries.
    pub(crate) fn render(&self) -> String {
        let mut out = format!(
            "run: {} — FLIGHT RECORDER POST-MORTEM\nfrozen at: {}ns\nreason: {}\n\
             captured: {} entries ({} evicted), {} metrics, {} trace(s)\n\n",
            self.run,
            self.frozen_at_ns,
            self.freeze_reason,
            self.entries.len(),
            self.entries_dropped,
            self.registry.metrics.len(),
            self.traces.len()
        );
        if !self.timeline.is_empty() {
            out.push_str("== alert timeline ==\n");
            for a in &self.timeline {
                out.push_str(&format!(
                    "{:>12}ns  {}  {} {} for {} ({}): value {} vs threshold {}\n",
                    a.at_ns, a.code, a.rule, a.state, a.entity, a.severity, a.value, a.threshold
                ));
            }
            out.push('\n');
        }
        let tail = &self.entries[self.entries.len().saturating_sub(TAIL)..];
        if !tail.is_empty() {
            out.push_str(&format!(
                "== black box (last {} of {}) ==\n",
                tail.len(),
                self.entries.len()
            ));
        }
        for e in tail {
            out.push_str(&format!("{:>12}ns  {:<6}  {}\n", e.at_ns, e.kind, e.detail));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use crate::{Cmp, MetricSelector, Rule, RuleSet, Severity, Signal};
    use crate::{Event, HealthEngine, Obs};
    use ow_common::time::{Duration, Instant};
    use std::sync::Arc;

    #[track_caller]
    fn has(rendered: &str, want: &str) {
        assert!(rendered.contains(want), "no {want:?} in:\n{rendered}");
    }

    /// An engine over `obs` with one rule on gauge `ow_test_depth`.
    fn one_rule(obs: &Obs, code: &str, threshold: u64, severity: Severity) -> Arc<HealthEngine> {
        let selector = MetricSelector::new("ow_test_depth", &[]);
        let rule = Rule::new(
            code,
            "unit_rule",
            selector,
            Signal::Value,
            Cmp::Above,
            threshold,
            severity,
        );
        obs.install_health(RuleSet::new(vec![rule.entity("unit")]).unwrap())
    }

    #[test]
    fn fleet_gauges_render_a_fleet_section() {
        let obs = Obs::new();
        obs.gauge("ow_fleet_switches_live", &[]).set(30);
        obs.gauge("ow_fleet_windows_inflight", &[("worker", "0")])
            .set(3);
        obs.gauge("ow_fleet_windows_inflight", &[("worker", "1")])
            .set(4);
        has(
            &obs.report("fleet").render(),
            "== fleet ==\nswitches live: 30\nwindows in flight: 7 across 2 worker(s)\n\n",
        );
    }

    #[test]
    fn absent_series_render_no_section() {
        let obs = Obs::new();
        obs.counter("ow_controller_sessions_total", &[]).inc();
        let rendered = obs.report("plain").render();
        assert!(rendered.starts_with("run: plain — 2 metrics, 0 events recorded (0 retained)\n"));
        has(&rendered, "ow_controller_sessions_total  counter  1\n");
        assert_eq!(rendered.matches("==").count(), 2, "one section: {rendered}");
    }

    #[test]
    fn histograms_and_the_journal_tail_render() {
        let obs = Obs::new();
        obs.histogram("ow_test_latency", &[("phase", "x")])
            .record(Duration::from_micros(3));
        for i in 0..25 {
            obs.event(Event::new("progress", format!("step {i}")).subwindow(i));
        }
        obs.event(Event {
            shard: Some(2),
            ..Event::new("drift_detected", "late").warn()
        });
        let rendered = obs.report("unit").render();
        has(&rendered, "== histograms (virtual ns) ==\nname  ");
        has(
            &rendered,
            "ow_test_latency{phase=\"x\"}         1          4096",
        );
        has(
            &rendered,
            "== journal (last 20 of 26) ==\n     6  info  progress [sw=6]: step 6\n",
        );
        assert!(rendered.ends_with("    25  WARN  drift_detected [shard=2]: late\n"));
    }

    #[test]
    fn health_metrics_render_a_health_section() {
        let obs = Obs::new();
        let engine = one_rule(&obs, "OW-HEALTH-998", 10, Severity::Warning);
        obs.gauge("ow_test_depth", &[]).set(50);
        engine.tick(Instant(1_000));
        let rendered = obs.report("unit").render();
        has(
            &rendered,
            "== health ==\nfleet score: 750/1000 (DEGRADED) over 1 tick(s)\n",
        );
        has(
            &rendered,
            "alerts fired: 1 (1 warning)\n  unit: 750/1000\n\n",
        );
    }

    #[test]
    fn accuracy_metrics_render_an_accuracy_section() {
        use ow_common::afr::FlowRecord;
        use ow_common::block::RecordBlock;
        use ow_common::flowkey::FlowKey;
        let obs = Obs::new();
        let acc = obs.install_accuracy();
        let batch = vec![
            FlowRecord::frequency(FlowKey::src_ip(1), 40, 2),
            FlowRecord::frequency(FlowKey::src_ip(2), 60, 2),
        ];
        acc.feed_truth(2, &batch);
        acc.score_block(&RecordBlock::from_records(2, &batch));
        obs.gauge("ow_sketch_occupancy_permille", &[("sketch", "mv")])
            .set(875);
        obs.counter("ow_sketch_hash_collisions_total", &[("sketch", "mv")])
            .add(4);
        let rendered = obs.report("unit").render();
        has(
            &rendered,
            "== accuracy ==\nquery 'heavy_hitter': precision 1000‰ recall 1000‰ aare 0‰ over 1 window(s)\n",
        );
        has(
            &rendered,
            "  oracle: 2 truth key(s) vs 2 merged, 0 departed window(s)\n",
        );
        has(
            &rendered,
            "  sketch mv: occupancy 875‰, 4 collision(s), 0 eviction(s)",
        );
    }

    #[test]
    fn trace_report_renders_the_span_tree() {
        let obs = Obs::new();
        let t = obs.tracer();
        let root = t.start_window(3, "switch", 1_000);
        let collect = t
            .span(root, root, "collect", "switch", None, 1_000, 1_400)
            .unwrap();
        t.span(root, collect, "merge", "controller", Some(1), 1_400, 1_700)
            .unwrap();
        t.finish_window(root, 1_700);
        let report = crate::TraceReport::capture("unit", t, Some(Duration::from_nanos(500)));
        assert_eq!(
            report.render(),
            "run: unit — 1 window trace(s)\nSLO deadline: 500ns\n\n\
             == sub-window 3 (trace 1) ==\n\
             critical path: window → collect → merge — wall 700ns, 1000‰ attributed, SLO VIOLATED\n\
             \x20 window [switch]  1000..1700  (700ns)\n\
             \x20   collect [switch]  1000..1400  (400ns)\n\
             \x20     merge [controller shard=1]  1400..1700  (300ns)\n"
        );
    }

    #[test]
    fn flight_dump_renders_and_writes_beside_its_json() {
        let obs = Obs::new();
        let engine = one_rule(&obs, "OW-HEALTH-999", 0, Severity::Critical);
        obs.gauge("ow_test_depth", &[]).set(2);
        engine.tick(Instant(5_000));
        let dump = engine.flight_dump("unit").expect("critical froze the box");
        dump.check().expect("dump validates");
        let rendered = dump.render();
        has(
            &rendered,
            "run: unit — FLIGHT RECORDER POST-MORTEM\nfrozen at: 5000ns\nreason: ",
        );
        has(
            &rendered,
            "== alert timeline ==\n        5000ns  OW-HEALTH-999  unit_rule fired",
        );
        has(
            &rendered,
            " for unit (critical): value 2 vs threshold 0\n\n== black box (last ",
        );

        let dir = std::env::temp_dir().join(format!("ow-obs-render-{}", std::process::id()));
        dump.write(&dir.join("flightrec_unit.json")).unwrap();
        let read = |name: &str| std::fs::read_to_string(dir.join(name)).unwrap();
        assert_eq!(read("flightrec_unit.json"), dump.to_json() + "\n");
        assert_eq!(read("flightrec_unit.txt"), rendered);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
