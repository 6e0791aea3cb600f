//! Exporters: Prometheus text exposition and `results/obs_*.json`
//! snapshot files.
//!
//! [`prometheus_text`] renders a [`RegistrySnapshot`] in the Prometheus
//! text exposition format (version 0.0.4): `# TYPE` comment per metric
//! family, `_bucket{le="…"}` / `_sum` / `_count` series for histograms.
//! [`check_exposition`] is the matching line-format validator — a
//! deliberately simple checker `tests/obs_e2e.rs` uses to prove
//! the exposition parses without needing a real Prometheus binary.
//!
//! [`ObsReport`] is the on-disk snapshot: registry + journal tail,
//! written pretty-printed like the bench result files so
//! `results/obs_*.json` sits beside `results/exp*.json` with the same
//! conventions.

use std::io;
use std::path::Path;

use serde::Serialize;

use crate::flightrec::FlightEntry;
use crate::journal::{Event, EventJournal};
use crate::registry::{MetricSnapshot, RegistrySnapshot};

/// Render a snapshot in the Prometheus text exposition format.
///
/// Families appear in snapshot order (deterministic: sorted by name,
/// labels); each family gets one `# TYPE` line. Histograms expand to
/// cumulative `_bucket` series with a final `le="+Inf"`, plus `_sum`
/// and `_count`.
pub fn prometheus_text(snapshot: &RegistrySnapshot) -> String {
    let mut out = String::new();
    let mut last_family: Option<(&str, &str)> = None;
    for m in &snapshot.metrics {
        let family = (m.name.as_str(), m.kind.as_str());
        if last_family != Some(family) {
            out.push_str(&format!("# TYPE {} {}\n", m.name, m.kind));
            last_family = Some(family);
        }
        match m.kind.as_str() {
            "histogram" => render_histogram(m, &mut out),
            _ => {
                out.push_str(&format!(
                    "{} {}\n",
                    render_series(&m.name, &m.labels, &[]),
                    m.value
                ));
            }
        }
    }
    out
}

fn render_series(name: &str, labels: &[(String, String)], extra: &[(&str, String)]) -> String {
    if labels.is_empty() && extra.is_empty() {
        return name.to_string();
    }
    let mut parts: Vec<String> = labels.iter().map(|(k, v)| format!("{k}=\"{v}\"")).collect();
    parts.extend(extra.iter().map(|(k, v)| format!("{k}=\"{v}\"")));
    format!("{name}{{{}}}", parts.join(","))
}

fn render_histogram(m: &MetricSnapshot, out: &mut String) {
    let h = match &m.histogram {
        Some(h) => h,
        None => return,
    };
    let mut cumulative = 0u64;
    for (bound, count) in &h.buckets {
        cumulative += count;
        out.push_str(&format!(
            "{} {}\n",
            render_series(
                &format!("{}_bucket", m.name),
                &m.labels,
                &[("le", bound.to_string())]
            ),
            cumulative
        ));
    }
    out.push_str(&format!(
        "{} {}\n",
        render_series(
            &format!("{}_bucket", m.name),
            &m.labels,
            &[("le", "+Inf".to_string())]
        ),
        h.count
    ));
    out.push_str(&format!(
        "{} {}\n",
        render_series(&format!("{}_sum", m.name), &m.labels, &[]),
        h.sum
    ));
    out.push_str(&format!(
        "{} {}\n",
        render_series(&format!("{}_count", m.name), &m.labels, &[]),
        h.count
    ));
}

/// Validate Prometheus text exposition line format.
///
/// Checks, per line: `# TYPE <name> <counter|gauge|histogram>` comments
/// are well-formed; sample lines are `<name>[{labels}] <value>` where
/// the name is `ow_`-prefixed lower-snake (with optional
/// `_bucket`/`_sum`/`_count` suffix), labels are `key="value"` pairs,
/// and the value parses as a finite number. Returns the first offending
/// line as `Err((line_number, reason))`.
pub fn check_exposition(text: &str) -> Result<(), (usize, String)> {
    for (i, line) in text.lines().enumerate() {
        let lineno = i + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let name = parts.next().unwrap_or("");
            let kind = parts.next().unwrap_or("");
            if crate::registry::validate_metric_name(name).is_err() {
                return Err((lineno, format!("bad metric name in TYPE line: '{name}'")));
            }
            if !matches!(kind, "counter" | "gauge" | "histogram") {
                return Err((lineno, format!("bad metric kind in TYPE line: '{kind}'")));
            }
            if parts.next().is_some() {
                return Err((lineno, "trailing tokens in TYPE line".to_string()));
            }
            continue;
        }
        if line.starts_with('#') {
            continue; // other comments are legal exposition
        }
        check_sample_line(line).map_err(|reason| (lineno, reason))?;
    }
    Ok(())
}

fn check_sample_line(line: &str) -> Result<(), String> {
    let (series, value) = line
        .rsplit_once(' ')
        .ok_or_else(|| "sample line has no value".to_string())?;
    if value.parse::<f64>().map(|v| v.is_finite()) != Ok(true) {
        return Err(format!("sample value '{value}' is not a finite number"));
    }
    let (name, labels) = match series.split_once('{') {
        Some((name, rest)) => {
            let labels = rest
                .strip_suffix('}')
                .ok_or_else(|| "unterminated label set".to_string())?;
            (name, Some(labels))
        }
        None => (series, None),
    };
    let base = name
        .strip_suffix("_bucket")
        .or_else(|| name.strip_suffix("_sum"))
        .or_else(|| name.strip_suffix("_count"))
        .unwrap_or(name);
    crate::registry::validate_metric_name(base).map_err(|e| e.to_string())?;
    if let Some(labels) = labels {
        for pair in labels.split(',') {
            let (k, v) = pair
                .split_once('=')
                .ok_or_else(|| format!("label '{pair}' is not key=\"value\""))?;
            if k.is_empty()
                || !k
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
            {
                return Err(format!("bad label key '{k}'"));
            }
            if !(v.len() >= 2 && v.starts_with('"') && v.ends_with('"')) {
                return Err(format!("label value {v} is not quoted"));
            }
        }
    }
    Ok(())
}

/// The on-disk observability snapshot: registry state plus the journal
/// tail, written as `results/obs_*.json`.
#[derive(Debug, Clone, Serialize)]
pub struct ObsReport {
    /// Name of the run (e.g. `obs_smoke`).
    pub run: String,
    /// Every registered metric.
    pub registry: RegistrySnapshot,
    /// Total journal events recorded (the ring may retain fewer).
    pub events_recorded: u64,
    /// Events the bounded ring discarded (also surfaced as the
    /// `ow_obs_journal_dropped_total` counter in `registry`).
    pub events_dropped: u64,
    /// The retained journal tail, oldest first.
    pub events: Vec<Event>,
}

impl ObsReport {
    /// Capture the current state of `registry` and `journal`.
    pub fn capture(
        run: &str,
        registry: &crate::MetricsRegistry,
        journal: &EventJournal,
    ) -> ObsReport {
        ObsReport {
            run: run.to_string(),
            registry: registry.snapshot(),
            events_recorded: journal.total_recorded(),
            events_dropped: journal.dropped_total(),
            events: journal.events(),
        }
    }

    /// The report with its journal in the flight recorder's canonical
    /// order and `seq` renumbered to match. A run whose emitters share
    /// the journal across threads (fleet workers) is seed-deterministic
    /// only as an event *multiset*; this is the form to write or `cmp`.
    pub fn canonicalized(mut self) -> ObsReport {
        self.events.sort_by_cached_key(|e| FlightEntry::from(e));
        for (seq, event) in self.events.iter_mut().enumerate() {
            event.seq = seq as u64;
        }
        self
    }

    /// Pretty-printed JSON (the byte-stable form the determinism
    /// acceptance test compares).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("obs report serializes")
    }

    /// Write the report to `path`, creating parent directories.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, self.to_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MetricsRegistry;
    use ow_common::time::Duration;

    fn sample_registry() -> MetricsRegistry {
        let reg = MetricsRegistry::new();
        reg.counter("ow_test_events_total", &[]).add(7);
        reg.gauge("ow_test_depth", &[("shard", "0")]).set(3);
        reg.gauge("ow_test_depth", &[("shard", "1")]).set(5);
        let h = reg.histogram("ow_test_latency", &[]);
        h.record(Duration::from_nanos(100));
        h.record(Duration::from_nanos(100));
        h.record(Duration::from_micros(10));
        reg
    }

    #[test]
    fn exposition_renders_types_series_and_buckets() {
        let text = prometheus_text(&sample_registry().snapshot());
        assert!(
            text.contains("# TYPE ow_test_events_total counter"),
            "{text}"
        );
        assert!(text.contains("ow_test_events_total 7"), "{text}");
        assert!(text.contains("ow_test_depth{shard=\"0\"} 3"), "{text}");
        assert!(text.contains("ow_test_depth{shard=\"1\"} 5"), "{text}");
        assert!(text.contains("# TYPE ow_test_latency histogram"), "{text}");
        assert!(
            text.contains("ow_test_latency_bucket{le=\"128\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("ow_test_latency_bucket{le=\"+Inf\"} 3"),
            "{text}"
        );
        assert!(text.contains("ow_test_latency_sum 10200"), "{text}");
        assert!(text.contains("ow_test_latency_count 3"), "{text}");
        // One TYPE line per family, not per labelled series.
        assert_eq!(text.matches("# TYPE ow_test_depth gauge").count(), 1);
    }

    #[test]
    fn exposition_buckets_are_cumulative() {
        let text = prometheus_text(&sample_registry().snapshot());
        // 10µs = 10_000ns → bucket bound 2^14 = 16384; cumulative 3.
        assert!(
            text.contains("ow_test_latency_bucket{le=\"16384\"} 3"),
            "{text}"
        );
    }

    #[test]
    fn checker_accepts_own_exposition() {
        let text = prometheus_text(&sample_registry().snapshot());
        assert_eq!(check_exposition(&text), Ok(()));
    }

    #[test]
    fn checker_rejects_malformed_lines() {
        assert!(check_exposition("no_prefix_metric 1").is_err());
        assert!(check_exposition("ow_test_x notanumber").is_err());
        assert!(check_exposition("ow_test_x{unclosed 1").is_err());
        assert!(check_exposition("ow_test_x{k=unquoted} 1").is_err());
        assert!(check_exposition("# TYPE ow_test_x summary").is_err());
        assert!(check_exposition("# TYPE bad_name counter").is_err());
        let err = check_exposition("ow_test_ok 1\nbogus line here x").unwrap_err();
        assert_eq!(err.0, 2);
    }

    #[test]
    fn report_roundtrips_through_the_parser() {
        use crate::json::{parse, ValueExt};
        let reg = sample_registry();
        let journal = EventJournal::default();
        journal.progress("hello");
        let report = ObsReport::capture("unit", &reg, &journal);
        let json = report.to_json();
        let v = parse(&json).expect("report JSON parses");
        assert_eq!(v.field("run").unwrap().as_str(), Some("unit"));
        assert_eq!(v.field("events_recorded").unwrap().as_u64(), Some(1));
        let metrics = v
            .field("registry")
            .unwrap()
            .field("metrics")
            .unwrap()
            .items()
            .unwrap();
        assert_eq!(metrics.len(), 4);
    }

    #[test]
    fn canonicalized_is_independent_of_recording_order() {
        // Events tying on (at_ns, kind, subwindow, message) and
        // differing only in shard, phase or level — the ties a racy
        // interleaving can reorder — plus untimestamped ones.
        let events = || {
            vec![
                Event::new("merge", "done").subwindow(3).shard(1),
                Event::new("merge", "done").subwindow(3).shard(0),
                Event::new("merge", "done").subwindow(3).phase("sealed"),
                Event::new("merge", "done").subwindow(3).warn(),
                Event::new("progress", "b"),
                Event::new("progress", "a"),
            ]
        };
        let reg = sample_registry();
        let canonical = |order: Vec<Event>| {
            let journal = EventJournal::default();
            for e in order {
                journal.record(e);
            }
            ObsReport::capture("unit", &reg, &journal)
                .canonicalized()
                .to_json()
        };
        let mut reversed = events();
        reversed.reverse();
        let mut rotated = events();
        rotated.rotate_left(2);
        let want = canonical(events());
        assert_eq!(canonical(reversed), want);
        assert_eq!(canonical(rotated), want);
    }
}
