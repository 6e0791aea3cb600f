//! `ow-obs-report` — render a `results/obs_*.json` snapshot or a
//! `results/trace_*.json` span-trace report as human-readable tables.
//!
//! ```text
//! ow-obs-report results/obs_smoke.json [--events N] [--section NAME]
//! ow-obs-report results/trace_smoke.json
//! ```
//!
//! `--section <name>` renders exactly one section of a metrics
//! snapshot (`counters`, `health`, `fleet`, `accuracy`, `histograms`,
//! or `journal`); an unknown name exits nonzero so CI greps cannot
//! silently pass on a typo.
//!
//! For a metrics snapshot, prints the run's counters/gauges, histogram
//! percentiles (virtual nanoseconds), and the retained journal tail.
//!
//! A document carrying a `traces` field is treated as an
//! `ow_obs::TraceReport`: it is first checked against the span schema
//! (single root, no orphans, `parent < id`, non-empty critical-path
//! chains — exit nonzero on any violation, so CI can gate on it), then
//! rendered as one indented per-window span timeline each, with the
//! critical path and SLO verdict on top.
//!
//! A document carrying a `freeze_reason` field is a flight-recorder
//! post-mortem (`results/flightrec_*.json`): schema-checked by
//! `validate_flightrec_json`, then rendered as the freeze header, the
//! alert timeline, and the black-box entry tail.
//!
//! Metrics snapshots are validated **strictly**: an unrecognized
//! top-level section, an unknown metric kind, or a histogram without
//! its bucket detail is an error (exit nonzero), not something to
//! skip silently — a malformed artifact in CI should fail the gate,
//! not render a truncated report that passes.

use std::process::ExitCode;

use ow_obs::json::{parse, ValueExt};
use ow_obs::{validate_flightrec_json, validate_trace_json};
use serde::Value;

/// Section names `--section` accepts, in render order.
const SECTIONS: [&str; 6] = [
    "counters",
    "health",
    "fleet",
    "accuracy",
    "histograms",
    "journal",
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut path: Option<String> = None;
    let mut events_shown = 20usize;
    let mut section: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--events" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => events_shown = n,
                None => return usage("--events needs an integer"),
            },
            "--section" => match it.next() {
                Some(name) if SECTIONS.contains(&name.as_str()) => {
                    section = Some(name.clone());
                }
                Some(name) => {
                    return usage(&format!(
                        "unknown section '{name}' (known: {})",
                        SECTIONS.join(", ")
                    ));
                }
                None => return usage("--section needs a name"),
            },
            "--help" | "-h" => {
                eprintln!("usage: ow-obs-report <obs_snapshot.json> [--events N] [--section NAME]");
                return ExitCode::SUCCESS;
            }
            other if !other.starts_with('-') && path.is_none() => path = Some(other.to_string()),
            other => return usage(&format!("unknown flag '{other}'")),
        }
    }
    let Some(path) = path else {
        return usage("missing snapshot path");
    };
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("ow-obs-report: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let doc = match parse(&text) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("ow-obs-report: {path} is not valid JSON: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Flight dumps carry a `traces` field too, so the freeze_reason
    // check must dispatch first.
    if doc.field("freeze_reason").is_some() {
        if let Err(e) = validate_flightrec_json(&doc) {
            eprintln!("ow-obs-report: invalid flight-recorder dump: {e}");
            return ExitCode::FAILURE;
        }
        return match render_flightrec(&doc, events_shown) {
            Ok(out) => {
                print!("{out}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("ow-obs-report: malformed flight-recorder dump: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if doc.field("traces").is_some() {
        if let Err(e) = validate_trace_json(&doc) {
            eprintln!("ow-obs-report: invalid trace report: {e}");
            return ExitCode::FAILURE;
        }
        return match render_traces(&doc) {
            Ok(out) => {
                print!("{out}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("ow-obs-report: malformed trace report: {e}");
                ExitCode::FAILURE
            }
        };
    }
    match render(&doc, events_shown, section.as_deref()) {
        Ok(out) => {
            print!("{out}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("ow-obs-report: malformed snapshot: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Render a validated trace report as per-window span timelines.
fn render_traces(doc: &Value) -> Result<String, String> {
    let run = doc.field("run").and_then(Value::as_str).unwrap_or("?");
    let traces = doc
        .field("traces")
        .and_then(Value::items)
        .ok_or("missing traces")?;
    let mut out = String::new();
    out.push_str(&format!("run: {run} — {} window trace(s)\n", traces.len()));
    if let Some(slo) = doc.field("slo_deadline_ns").and_then(Value::as_u64) {
        out.push_str(&format!("SLO deadline: {slo}ns\n"));
    }
    for trace in traces {
        let sw = trace
            .field("subwindow")
            .and_then(Value::as_u64)
            .ok_or("trace without subwindow")?;
        let id = trace
            .field("trace_id")
            .and_then(Value::as_u64)
            .ok_or("trace without trace_id")?;
        let spans = trace
            .field("spans")
            .and_then(Value::items)
            .ok_or("trace without spans")?;
        out.push_str(&format!("\n== sub-window {sw} (trace {id}) ==\n"));
        if let Some(cp) = trace.field("critical_path") {
            let wall = cp.field("wall_ns").and_then(Value::as_u64).unwrap_or(0);
            let attr = cp
                .field("attributed_permille")
                .and_then(Value::as_u64)
                .unwrap_or(0);
            let violated = matches!(cp.field("slo_violated"), Some(Value::Bool(true)));
            let chain: Vec<&str> = cp
                .field("chain")
                .and_then(Value::items)
                .unwrap_or(&[])
                .iter()
                .filter_map(Value::as_str)
                .collect();
            out.push_str(&format!(
                "critical path: {} — wall {wall}ns, {attr}‰ attributed{}\n",
                chain.join(" → "),
                if violated { ", SLO VIOLATED" } else { "" }
            ));
        }
        render_span_tree(spans, None, 0, &mut out)?;
    }
    Ok(out)
}

/// Append `parent`'s children (in span-id order) at `depth`, recursing.
fn render_span_tree(
    spans: &[Value],
    parent: Option<u64>,
    depth: usize,
    out: &mut String,
) -> Result<(), String> {
    for s in spans {
        let this_parent = s.field("parent").and_then(Value::as_u64);
        if this_parent != parent || (parent.is_none() && s.field("parent").is_some_and(is_set)) {
            continue;
        }
        let id = s
            .field("id")
            .and_then(Value::as_u64)
            .ok_or("span sans id")?;
        let name = s.field("name").and_then(Value::as_str).unwrap_or("?");
        let side = s.field("side").and_then(Value::as_str).unwrap_or("?");
        let start = s.field("start_ns").and_then(Value::as_u64).unwrap_or(0);
        let end = s.field("end_ns").and_then(Value::as_u64).unwrap_or(0);
        let shard = s
            .field("shard")
            .and_then(Value::as_u64)
            .map(|sh| format!(" shard={sh}"))
            .unwrap_or_default();
        out.push_str(&format!(
            "{:indent$}{name} [{side}{shard}]  {start}..{end}  ({}ns)\n",
            "",
            end.saturating_sub(start),
            indent = 2 + depth * 2,
        ));
        render_span_tree(spans, Some(id), depth + 1, out)?;
    }
    Ok(())
}

/// Whether a JSON value is present and non-null.
fn is_set(v: &Value) -> bool {
    !matches!(v, Value::Null)
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("ow-obs-report: {msg}");
    eprintln!("usage: ow-obs-report <obs_snapshot.json> [--events N] [--section NAME]");
    ExitCode::from(2)
}

fn render_id(m: &Value) -> Result<String, String> {
    let name = m
        .field("name")
        .and_then(Value::as_str)
        .ok_or("metric without name")?;
    let labels = m.field("labels").and_then(Value::items).unwrap_or(&[]);
    if labels.is_empty() {
        return Ok(name.to_string());
    }
    let mut parts = Vec::new();
    for pair in labels {
        let kv = pair.items().ok_or("label is not a pair")?;
        if kv.len() != 2 {
            return Err("label pair is not 2-element".into());
        }
        parts.push(format!(
            "{}=\"{}\"",
            kv[0].as_str().unwrap_or("?"),
            kv[1].as_str().unwrap_or("?")
        ));
    }
    Ok(format!("{name}{{{}}}", parts.join(",")))
}

/// Strict structural validation of a metrics snapshot: every top-level
/// section must be one the renderer understands, every metric must
/// carry a known kind, and histogram metrics must carry their bucket
/// detail. Unrecognized or malformed sections are an **error** — a
/// corrupted artifact must fail loudly, not render partially.
fn validate_snapshot(doc: &Value) -> Result<(), String> {
    const KNOWN_SECTIONS: [&str; 5] = [
        "run",
        "registry",
        "events_recorded",
        "events_dropped",
        "events",
    ];
    let Value::Object(sections) = doc else {
        return Err("snapshot is not a JSON object".into());
    };
    for (key, _) in sections {
        if !KNOWN_SECTIONS.contains(&key.as_str()) {
            return Err(format!(
                "unrecognized top-level section '{key}' (known: {})",
                KNOWN_SECTIONS.join(", ")
            ));
        }
    }
    let metrics = doc
        .field("registry")
        .and_then(|r| r.field("metrics"))
        .and_then(Value::items)
        .ok_or("missing registry.metrics")?;
    for m in metrics {
        let name = m
            .field("name")
            .and_then(Value::as_str)
            .ok_or("metric without name")?;
        let kind = m
            .field("kind")
            .and_then(Value::as_str)
            .ok_or(format!("metric '{name}' without kind"))?;
        if !matches!(kind, "counter" | "gauge" | "histogram") {
            return Err(format!("metric '{name}' has unrecognized kind '{kind}'"));
        }
        let detail = m.field("histogram").filter(|h| is_set(h));
        if kind == "histogram" && detail.is_none() {
            return Err(format!("histogram '{name}' without bucket detail"));
        }
        if kind != "histogram" && detail.is_some() {
            return Err(format!("{kind} '{name}' carries histogram detail"));
        }
        m.field("value")
            .and_then(Value::as_u64)
            .ok_or(format!("metric '{name}' without numeric value"))?;
    }
    for (i, e) in doc
        .field("events")
        .and_then(Value::items)
        .unwrap_or(&[])
        .iter()
        .enumerate()
    {
        let level = e
            .field("level")
            .and_then(Value::as_str)
            .ok_or(format!("journal event {i} without level"))?;
        if !matches!(level, "Info" | "Warn") {
            return Err(format!("journal event {i} has unknown level '{level}'"));
        }
        e.field("kind")
            .and_then(Value::as_str)
            .ok_or(format!("journal event {i} without kind"))?;
    }
    Ok(())
}

fn render(doc: &Value, events_shown: usize, section: Option<&str>) -> Result<String, String> {
    validate_snapshot(doc)?;
    let metrics = doc
        .field("registry")
        .and_then(|r| r.field("metrics"))
        .and_then(Value::items)
        .ok_or("missing registry.metrics")?;

    // `--section X` renders exactly that section; without it, all.
    let want = |name: &str| section.map_or(true, |s| s == name);

    let run = doc.field("run").and_then(Value::as_str).unwrap_or("?");
    let recorded = doc
        .field("events_recorded")
        .and_then(Value::as_u64)
        .unwrap_or(0);
    let events = doc.field("events").and_then(Value::items).unwrap_or(&[]);

    let mut out = String::new();
    if section.is_none() {
        out.push_str(&format!(
            "run: {run} — {} metrics, {recorded} events recorded ({} retained)\n\n",
            metrics.len(),
            events.len()
        ));
    }

    let scalars: Vec<&Value> = metrics
        .iter()
        .filter(|m| m.field("kind").and_then(Value::as_str) != Some("histogram"))
        .collect();
    if !scalars.is_empty() && want("counters") {
        out.push_str("== counters & gauges ==\n");
        let ids: Vec<String> = scalars
            .iter()
            .map(|m| render_id(m))
            .collect::<Result<_, _>>()?;
        let width = ids.iter().map(String::len).max().unwrap_or(0);
        for (m, id) in scalars.iter().zip(&ids) {
            let kind = m.field("kind").and_then(Value::as_str).unwrap_or("?");
            let value = m.field("value").and_then(Value::as_u64).unwrap_or(0);
            out.push_str(&format!("{id:<width$}  {kind:<7}  {value}\n"));
        }
        out.push('\n');
    }

    if want("health") {
        out.push_str(&render_health(metrics));
    }
    if want("fleet") {
        out.push_str(&render_fleet(metrics));
    }
    if want("accuracy") {
        out.push_str(&render_accuracy(metrics));
    }

    let histos: Vec<&Value> = metrics
        .iter()
        .filter(|m| m.field("kind").and_then(Value::as_str) == Some("histogram"))
        .collect();
    if !histos.is_empty() && want("histograms") {
        out.push_str("== histograms (virtual ns) ==\n");
        let ids: Vec<String> = histos
            .iter()
            .map(|m| render_id(m))
            .collect::<Result<_, _>>()?;
        let width = ids.iter().map(String::len).max().unwrap_or(0).max(4);
        out.push_str(&format!(
            "{:<width$}  {:>8}  {:>12}  {:>12}  {:>12}  {:>14}\n",
            "name", "count", "p50", "p90", "p99", "sum"
        ));
        for (m, id) in histos.iter().zip(&ids) {
            let h = m
                .field("histogram")
                .ok_or("histogram metric without detail")?;
            let get = |k: &str| h.field(k).and_then(Value::as_u64).unwrap_or(0);
            out.push_str(&format!(
                "{id:<width$}  {:>8}  {:>12}  {:>12}  {:>12}  {:>14}\n",
                get("count"),
                get("p50"),
                get("p90"),
                get("p99"),
                get("sum")
            ));
        }
        out.push('\n');
    }

    if !events.is_empty() && events_shown > 0 && want("journal") {
        let tail = &events[events.len().saturating_sub(events_shown)..];
        out.push_str(&format!(
            "== journal (last {} of {recorded}) ==\n",
            tail.len()
        ));
        for e in tail {
            let seq = e.field("seq").and_then(Value::as_u64).unwrap_or(0);
            let level = match e.field("level").and_then(Value::as_str) {
                Some("Warn") => "WARN",
                _ => "info",
            };
            let kind = e.field("kind").and_then(Value::as_str).unwrap_or("?");
            let mut ctx = Vec::new();
            if let Some(sw) = e.field("subwindow").and_then(Value::as_u64) {
                ctx.push(format!("sw={sw}"));
            }
            if let Some(p) = e.field("phase").and_then(Value::as_str) {
                ctx.push(format!("phase={p}"));
            }
            if let Some(s) = e.field("shard").and_then(Value::as_u64) {
                ctx.push(format!("shard={s}"));
            }
            let ctx = if ctx.is_empty() {
                String::new()
            } else {
                format!(" [{}]", ctx.join(" "))
            };
            let message = e.field("message").and_then(Value::as_str).unwrap_or("");
            out.push_str(&format!("{seq:>6}  {level}  {kind}{ctx}: {message}\n"));
        }
    }
    Ok(out)
}

/// Summarize the health-engine metrics (`ow_health_fleet_score`,
/// `ow_health_entity_score{entity=…}`, `ow_health_alerts_total`) when
/// a snapshot carries them; empty when no engine ran.
fn render_health(metrics: &[Value]) -> String {
    let named = |want: &str| -> Vec<&Value> {
        metrics
            .iter()
            .filter(|m| m.field("name").and_then(Value::as_str) == Some(want))
            .collect()
    };
    let fleet = named("ow_health_fleet_score");
    if fleet.is_empty() {
        return String::new();
    }
    let value_of = |m: &Value| m.field("value").and_then(Value::as_u64).unwrap_or(0);
    let label_of = |m: &Value, key: &str| -> String {
        m.field("labels")
            .and_then(Value::items)
            .unwrap_or(&[])
            .iter()
            .filter_map(Value::items)
            .filter(|kv| kv.len() == 2 && kv[0].as_str() == Some(key))
            .filter_map(|kv| kv[1].as_str())
            .next()
            .unwrap_or("?")
            .to_string()
    };
    let mut out = String::from("== health ==\n");
    let score = value_of(fleet[0]);
    let ticks = named("ow_health_ticks_total")
        .first()
        .map_or(0, |m| value_of(m));
    out.push_str(&format!(
        "fleet score: {score}/1000 ({}) over {ticks} tick(s)\n",
        if score == 1000 { "healthy" } else { "DEGRADED" }
    ));
    let alerts = named("ow_health_alerts_total");
    let total: u64 = alerts.iter().map(|m| value_of(m)).sum();
    if total > 0 {
        let per: Vec<String> = alerts
            .iter()
            .filter(|m| value_of(m) > 0)
            .map(|m| format!("{} {}", value_of(m), label_of(m, "severity")))
            .collect();
        out.push_str(&format!("alerts fired: {total} ({})\n", per.join(", ")));
    } else {
        out.push_str("alerts fired: none\n");
    }
    let mut entities: Vec<(String, u64)> = named("ow_health_entity_score")
        .iter()
        .map(|m| (label_of(m, "entity"), value_of(m)))
        .collect();
    entities.sort();
    for (entity, score) in entities.iter().filter(|(_, s)| *s < 1000) {
        out.push_str(&format!("  {entity}: {score}/1000\n"));
    }
    out.push('\n');
    out
}

/// Summarize the live accuracy observatory (`ow_accuracy_*` scores per
/// query, plus any `ow_sketch_*` data-quality series) when a snapshot
/// carries them; empty when no scorer was installed.
fn render_accuracy(metrics: &[Value]) -> String {
    let named = |want: &str| -> Vec<&Value> {
        metrics
            .iter()
            .filter(|m| m.field("name").and_then(Value::as_str) == Some(want))
            .collect()
    };
    let value_of = |m: &Value| m.field("value").and_then(Value::as_u64).unwrap_or(0);
    let label_of = |m: &Value, key: &str| -> String {
        m.field("labels")
            .and_then(Value::items)
            .unwrap_or(&[])
            .iter()
            .filter_map(Value::items)
            .filter(|kv| kv.len() == 2 && kv[0].as_str() == Some(key))
            .filter_map(|kv| kv[1].as_str())
            .next()
            .unwrap_or("?")
            .to_string()
    };
    let precisions = named("ow_accuracy_precision_permille");
    if precisions.is_empty() {
        return String::new();
    }
    let series_for = |name: &str, query: &str| -> u64 {
        named(name)
            .iter()
            .find(|m| label_of(m, "query") == query)
            .map_or(0, |m| value_of(m))
    };
    let mut out = String::from("== accuracy ==\n");
    let mut queries: Vec<String> = precisions.iter().map(|m| label_of(m, "query")).collect();
    queries.sort();
    for query in queries {
        let windows = series_for("ow_accuracy_windows_scored_total", &query);
        out.push_str(&format!(
            "query '{query}': precision {}‰ recall {}‰ aare {}‰ over {windows} window(s)\n",
            series_for("ow_accuracy_precision_permille", &query),
            series_for("ow_accuracy_recall_permille", &query),
            series_for("ow_accuracy_aare_permille", &query),
        ));
        out.push_str(&format!(
            "  oracle: {} truth key(s) vs {} merged, {} departed window(s)\n",
            series_for("ow_accuracy_truth_keys_total", &query),
            series_for("ow_accuracy_merged_keys_total", &query),
            series_for("ow_accuracy_oracle_departed_total", &query),
        ));
    }
    let mut sketches: Vec<String> = named("ow_sketch_occupancy_permille")
        .iter()
        .map(|m| label_of(m, "sketch"))
        .collect();
    sketches.sort();
    for sketch in sketches {
        let per_sketch = |name: &str| -> u64 {
            named(name)
                .iter()
                .find(|m| label_of(m, "sketch") == sketch)
                .map_or(0, |m| value_of(m))
        };
        out.push_str(&format!(
            "  sketch {sketch}: occupancy {}‰, {} collision(s), {} eviction(s), \
             {} decode failure(s), {} saturation(s)\n",
            per_sketch("ow_sketch_occupancy_permille"),
            per_sketch("ow_sketch_hash_collisions_total"),
            per_sketch("ow_sketch_heavy_evicts_total"),
            per_sketch("ow_sketch_decode_failures_total"),
            per_sketch("ow_sketch_saturations_total"),
        ));
    }
    out.push('\n');
    out
}

/// Render a validated flight-recorder dump: the freeze header, the
/// alert timeline, and the tail of the black-box entry ring.
fn render_flightrec(doc: &Value, entries_shown: usize) -> Result<String, String> {
    let run = doc.field("run").and_then(Value::as_str).unwrap_or("?");
    let reason = doc
        .field("freeze_reason")
        .and_then(Value::as_str)
        .ok_or("missing freeze_reason")?;
    let at = doc
        .field("frozen_at_ns")
        .and_then(Value::as_u64)
        .unwrap_or(0);
    let dropped = doc
        .field("entries_dropped")
        .and_then(Value::as_u64)
        .unwrap_or(0);
    let entries = doc
        .field("entries")
        .and_then(Value::items)
        .ok_or("missing entries")?;
    let traces = doc.field("traces").and_then(Value::items).unwrap_or(&[]);
    let timeline = doc.field("timeline").and_then(Value::items).unwrap_or(&[]);
    let registry = doc
        .field("registry")
        .and_then(|r| r.field("metrics"))
        .and_then(Value::items)
        .unwrap_or(&[]);

    let mut out = String::new();
    out.push_str(&format!("run: {run} — FLIGHT RECORDER POST-MORTEM\n"));
    out.push_str(&format!("frozen at: {at}ns\nreason: {reason}\n"));
    out.push_str(&format!(
        "captured: {} entries ({dropped} evicted), {} metrics, {} trace(s)\n\n",
        entries.len(),
        registry.len(),
        traces.len()
    ));
    if !timeline.is_empty() {
        out.push_str("== alert timeline ==\n");
        for a in timeline {
            let code = a.field("code").and_then(Value::as_str).unwrap_or("?");
            let rule = a.field("rule").and_then(Value::as_str).unwrap_or("?");
            let entity = a.field("entity").and_then(Value::as_str).unwrap_or("?");
            let state = a.field("state").and_then(Value::as_str).unwrap_or("?");
            let sev = a.field("severity").and_then(Value::as_str).unwrap_or("?");
            let at_ns = a.field("at_ns").and_then(Value::as_u64).unwrap_or(0);
            let value = a.field("value").and_then(Value::as_u64).unwrap_or(0);
            let threshold = a.field("threshold").and_then(Value::as_u64).unwrap_or(0);
            out.push_str(&format!(
                "{at_ns:>12}ns  {code}  {rule} {state} for {entity} ({sev}): value {value} vs threshold {threshold}\n"
            ));
        }
        out.push('\n');
    }
    if !entries.is_empty() && entries_shown > 0 {
        let tail = &entries[entries.len().saturating_sub(entries_shown)..];
        out.push_str(&format!(
            "== black box (last {} of {}) ==\n",
            tail.len(),
            entries.len()
        ));
        for e in tail {
            let at_ns = e.field("at_ns").and_then(Value::as_u64).unwrap_or(0);
            let kind = e.field("kind").and_then(Value::as_str).unwrap_or("?");
            let detail = e.field("detail").and_then(Value::as_str).unwrap_or("");
            out.push_str(&format!("{at_ns:>12}ns  {kind:<6}  {detail}\n"));
        }
    }
    Ok(out)
}

/// Summarize the fleet gauges (`ow_fleet_switches_live`,
/// `ow_fleet_windows_inflight{worker=…}`) when a snapshot carries them;
/// empty for non-fleet runs.
fn render_fleet(metrics: &[Value]) -> String {
    let live = metrics
        .iter()
        .find(|m| m.field("name").and_then(Value::as_str) == Some("ow_fleet_switches_live"));
    let inflight: Vec<&Value> = metrics
        .iter()
        .filter(|m| m.field("name").and_then(Value::as_str) == Some("ow_fleet_windows_inflight"))
        .collect();
    if live.is_none() && inflight.is_empty() {
        return String::new();
    }
    let mut out = String::from("== fleet ==\n");
    if let Some(m) = live {
        let v = m.field("value").and_then(Value::as_u64).unwrap_or(0);
        out.push_str(&format!("switches live: {v}\n"));
    }
    if !inflight.is_empty() {
        let total: u64 = inflight
            .iter()
            .map(|m| m.field("value").and_then(Value::as_u64).unwrap_or(0))
            .sum();
        out.push_str(&format!(
            "windows in flight: {total} across {} worker(s)\n",
            inflight.len()
        ));
    }
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_gauges_render_a_fleet_section() {
        let obs = ow_obs::Obs::new();
        obs.gauge("ow_fleet_switches_live", &[]).set(30);
        obs.gauge("ow_fleet_windows_inflight", &[("worker", "0")])
            .set(3);
        obs.gauge("ow_fleet_windows_inflight", &[("worker", "1")])
            .set(4);
        let doc = parse(&obs.report("fleet").to_json()).expect("report parses");
        let rendered = render(&doc, 0, None).expect("snapshot renders");
        assert!(rendered.contains("== fleet =="));
        assert!(rendered.contains("switches live: 30"));
        assert!(rendered.contains("windows in flight: 7 across 2 worker(s)"));
    }

    #[test]
    fn non_fleet_snapshots_render_no_fleet_section() {
        let obs = ow_obs::Obs::new();
        obs.counter("ow_controller_sessions_total", &[]).inc();
        let doc = parse(&obs.report("plain").to_json()).expect("report parses");
        let rendered = render(&doc, 0, None).expect("snapshot renders");
        assert!(!rendered.contains("== fleet =="));
        assert!(!rendered.contains("== health =="));
    }

    #[test]
    fn corrupted_snapshots_are_rejected_not_skipped() {
        let obs = ow_obs::Obs::new();
        obs.counter("ow_test_events_total", &[]).inc();
        obs.event(ow_obs::Event::new("progress", "ok"));
        let good = obs.report("unit").to_json();
        render(&parse(&good).unwrap(), 5, None).expect("pristine report renders");

        // An unknown metric kind (a `summary` from some other system)
        // must fail, not silently drop the series.
        let bad_kind = good.replace("\"counter\"", "\"summary\"");
        let err = render(&parse(&bad_kind).unwrap(), 5, None).unwrap_err();
        assert!(err.contains("unrecognized kind 'summary'"), "{err}");

        // An unrecognized top-level section means the artifact is not
        // the schema this renderer understands.
        let bad_section = good.replacen("\"run\"", "\"generator\"", 1);
        let err = render(&parse(&bad_section).unwrap(), 5, None).unwrap_err();
        assert!(err.contains("unrecognized top-level section"), "{err}");

        // A journal event with an unknown level is malformed.
        let bad_level = good.replace("\"Info\"", "\"Trace\"");
        let err = render(&parse(&bad_level).unwrap(), 5, None).unwrap_err();
        assert!(err.contains("unknown level 'Trace'"), "{err}");

        // A histogram stripped of its bucket detail is malformed even
        // when no histogram table would be printed.
        let obs2 = ow_obs::Obs::new();
        obs2.histogram("ow_test_latency", &[])
            .record(ow_common::time::Duration::from_micros(3));
        let hist = obs2.report("unit").to_json();
        let stripped = hist.replace("\"kind\": \"histogram\"", "\"kind\": \"gauge\"");
        let err = render(&parse(&stripped).unwrap(), 5, None).unwrap_err();
        assert!(err.contains("carries histogram detail"), "{err}");
    }

    #[test]
    fn health_metrics_render_a_health_section() {
        use ow_obs::{Cmp, FlightRecorderConfig, MetricSelector, Rule, RuleSet, Severity, Signal};
        let obs = ow_obs::Obs::new();
        let engine = obs.install_health(
            RuleSet::new(vec![Rule::new(
                "OW-HEALTH-998",
                "unit_rule",
                MetricSelector::new("ow_test_depth", &[]),
                Signal::Value,
                Cmp::Above,
                10,
                Severity::Warning,
            )
            .entity("unit")])
            .unwrap(),
            FlightRecorderConfig::default(),
        );
        obs.gauge("ow_test_depth", &[]).set(50);
        engine.tick(ow_common::time::Instant(1_000));
        let doc = parse(&obs.report("unit").to_json()).expect("report parses");
        let rendered = render(&doc, 0, None).expect("snapshot renders");
        assert!(rendered.contains("== health =="), "{rendered}");
        assert!(
            rendered.contains("fleet score: 750/1000 (DEGRADED)"),
            "{rendered}"
        );
        assert!(
            rendered.contains("alerts fired: 1 (1 warning)"),
            "{rendered}"
        );
        assert!(rendered.contains("unit: 750/1000"), "{rendered}");
    }

    #[test]
    fn accuracy_metrics_render_an_accuracy_section() {
        use ow_common::afr::FlowRecord;
        use ow_common::block::RecordBlock;
        use ow_common::flowkey::FlowKey;
        let obs = ow_obs::Obs::new();
        let acc = obs.install_accuracy(ow_obs::AccuracyConfig::default());
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
        let doc = parse(&obs.report("unit").to_json()).expect("report parses");
        let rendered = render(&doc, 0, None).expect("snapshot renders");
        assert!(rendered.contains("== accuracy =="), "{rendered}");
        assert!(
            rendered.contains(
                "query 'heavy_hitter': precision 1000‰ recall 1000‰ aare 0‰ over 1 window(s)"
            ),
            "{rendered}"
        );
        assert!(
            rendered.contains("oracle: 2 truth key(s) vs 2 merged, 0 departed window(s)"),
            "{rendered}"
        );
        assert!(
            rendered.contains("sketch mv: occupancy 875‰, 4 collision(s)"),
            "{rendered}"
        );
    }

    #[test]
    fn section_flag_renders_exactly_one_section() {
        let obs = ow_obs::Obs::new();
        obs.gauge("ow_fleet_switches_live", &[]).set(8);
        obs.counter("ow_test_events_total", &[]).inc();
        obs.histogram("ow_test_latency", &[])
            .record(ow_common::time::Duration::from_micros(3));
        obs.event(ow_obs::Event::new("progress", "ok"));
        let doc = parse(&obs.report("unit").to_json()).expect("report parses");
        let fleet_only = render(&doc, 20, Some("fleet")).expect("renders");
        assert!(fleet_only.contains("== fleet =="), "{fleet_only}");
        assert!(
            !fleet_only.contains("== counters & gauges =="),
            "{fleet_only}"
        );
        assert!(!fleet_only.contains("== histograms"), "{fleet_only}");
        assert!(!fleet_only.contains("== journal"), "{fleet_only}");
        assert!(!fleet_only.contains("run:"), "{fleet_only}");
        let journal_only = render(&doc, 20, Some("journal")).expect("renders");
        assert!(journal_only.contains("== journal"), "{journal_only}");
        assert!(!journal_only.contains("== fleet =="), "{journal_only}");
        // A snapshot with no accuracy scorer renders an empty accuracy
        // section — the filter is exact, not an error.
        let accuracy_only = render(&doc, 20, Some("accuracy")).expect("renders");
        assert_eq!(accuracy_only, "");
    }

    #[test]
    fn flight_recorder_dump_renders_end_to_end() {
        use ow_obs::{Cmp, FlightRecorderConfig, MetricSelector, Rule, RuleSet, Severity, Signal};
        let obs = ow_obs::Obs::new();
        let engine = obs.install_health(
            RuleSet::new(vec![Rule::new(
                "OW-HEALTH-999",
                "unit_critical",
                MetricSelector::new("ow_test_wedged", &[]),
                Signal::Value,
                Cmp::Above,
                0,
                Severity::Critical,
            )
            .entity("unit")])
            .unwrap(),
            FlightRecorderConfig::default(),
        );
        obs.gauge("ow_test_wedged", &[]).set(2);
        engine.tick(ow_common::time::Instant(5_000));
        let dump = engine.flight_dump("unit").expect("critical froze the box");
        let doc = parse(&dump.to_json()).expect("dump parses");
        ow_obs::validate_flightrec_json(&doc).expect("dump validates");
        let rendered = render_flightrec(&doc, 10).expect("dump renders");
        assert!(
            rendered.contains("FLIGHT RECORDER POST-MORTEM"),
            "{rendered}"
        );
        assert!(rendered.contains("OW-HEALTH-999"), "{rendered}");
        assert!(rendered.contains("== alert timeline =="), "{rendered}");
        assert!(rendered.contains("== black box"), "{rendered}");
    }
}
