//! Causal span tracing for the C&R pipeline.
//!
//! Aggregate metrics (PR 4) answer "how often" and "how long on
//! average"; they cannot answer *"where did window W's 40 ms go?"*.
//! This module adds the missing causal layer:
//!
//! * [`Span`] — one named virtual-clock interval with a trace id, a
//!   span id, and an optional parent id. All timestamps are discrete
//!   event-clock nanoseconds ([`ow_common::time`]), never wall-clock,
//!   so two runs with the same seed produce identical trees.
//! * [`Tracer`] — the shared recorder. One mutex-guarded allocation
//!   table hands out *sequential* ids, which buys two properties for
//!   free: byte-identical reports under a fixed spawn order, and a
//!   trivial acyclicity proof (`parent < id` always, enforced at
//!   insertion).
//! * [`TraceContext`] — the propagation key. The switch publishes it
//!   into the [`Tracer`] both sides already record into
//!   ([`Tracer::publish_context`]) when a window's batch is generated
//!   and retires it at ack / OS-read / eviction; the controller looks
//!   it up by sub-window when the session closes, so no message
//!   carries it and no drop, dup or reordering can lose it.
//! * `critical_path` — the analyser: per-name self-time, the
//!   longest blocking chain from the root, the fraction of window
//!   wall latency attributed to named child spans, and SLO/deadline
//!   violations.
//! * [`TraceReport`] — the deterministic `results/trace_smoke.json`
//!   form, with [`TraceReport::check`] for the tree invariants the
//!   types cannot carry.
//!
//! The span vocabulary mirrors the §8 lifecycle: a `window` root
//! covers `cr_wait` → `collect` → `reset` on the switch side, then
//! `retransmit_round` / `os_read` recovery spans and a `merge` span
//! (with per-shard `shard_insert` children) reconstructed by the
//! controller from its [`ow_common::metrics::ReliabilityMetrics`] and
//! retry policy.

use std::collections::{BTreeMap, HashMap};

use parking_lot::Mutex;
use serde::Serialize;

use ow_common::time::Duration;

/// A window's trace context: enough for whichever side handles the
/// window next to file its spans under the originating window's tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct TraceContext {
    /// The trace this window's lifecycle belongs to.
    pub trace_id: u64,
    /// The root (`window`) span id.
    pub root: u64,
    /// The switch-side `collect` span id — retransmission spans parent
    /// here, because a retransmit replays *collection* output.
    pub collect: u64,
    /// Virtual-clock nanosecond at which the switch finished generating
    /// the batch (end of `reset`); the controller anchors its recovery
    /// timeline at this instant.
    pub anchor_ns: u64,
}

/// One completed span: a named virtual-clock interval inside a trace.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Span {
    /// Span id, unique across the whole [`Tracer`]; ids are allocated
    /// sequentially, so `parent < id` always holds (acyclicity by
    /// construction).
    pub id: u64,
    /// Parent span id; `None` only for the trace root.
    pub parent: Option<u64>,
    /// Phase name (`"window"`, `"cr_wait"`, `"collect"`, `"reset"`,
    /// `"retransmit_round"`, `"os_read"`, `"merge"`, `"shard_insert"`,
    /// `"retransmit_replay"`).
    pub name: String,
    /// Which side recorded it (`"switch"` / `"controller"`).
    pub side: String,
    /// Merge shard, for `shard_insert` spans.
    pub shard: Option<u32>,
    /// Virtual-clock start (nanoseconds).
    pub start_ns: u64,
    /// Virtual-clock end (nanoseconds, `>= start_ns`).
    pub end_ns: u64,
}

impl Span {
    /// The span's duration in virtual nanoseconds.
    pub(crate) fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One `WindowEngine` transition observed while the window's trace was
/// active — the FSM's footprint inside the causal tree.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct PhaseMark {
    /// Side that applied the transition (`"switch"` / `"controller"`).
    pub side: String,
    /// The event's stable name ([`ow_common::engine::WindowEvent::name`]).
    pub event: String,
    /// Phase name before the event.
    pub from: String,
    /// Phase name after the event.
    pub to: String,
}

#[derive(Debug)]
struct TraceData {
    subwindow: u32,
    root: u64,
    spans: Vec<Span>,
    marks: Vec<PhaseMark>,
}

#[derive(Debug, Default)]
struct TracerInner {
    next_id: u64,
    traces: BTreeMap<u64, TraceData>,
    /// Sub-window → currently active trace (latest wins on reuse).
    active: HashMap<u32, u64>,
    /// Sub-window → the context its switch published, until retired.
    contexts: HashMap<u32, TraceContext>,
}

/// The shared span recorder.
///
/// Lock-cheap by the same standard as the registry: recording a span is
/// one short mutex-guarded `Vec::push` — no allocation-heavy work under
/// the lock, and nothing on the per-packet fast path records spans at
/// all (only per-window lifecycle steps do, a handful per window).
#[derive(Debug, Default)]
pub struct Tracer {
    inner: Mutex<TracerInner>,
}

impl Tracer {
    /// A tracer with no traces.
    pub(crate) fn new() -> Tracer {
        Tracer::default()
    }

    /// Open a new trace for `subwindow` with a root span named
    /// `"window"` on `side`, starting (and provisionally ending) at
    /// `start_ns`. Returns the new trace id (= root span id). The
    /// sub-window's active-trace slot is repointed here, so later
    /// `Tracer::mark`s land in this trace.
    pub fn start_window(&self, subwindow: u32, side: &str, start_ns: u64) -> u64 {
        let mut inner = self.inner.lock();
        inner.next_id += 1;
        let id = inner.next_id;
        inner.traces.insert(
            id,
            TraceData {
                subwindow,
                root: id,
                spans: vec![Span {
                    id,
                    parent: None,
                    name: "window".to_string(),
                    side: side.to_string(),
                    shard: None,
                    start_ns,
                    end_ns: start_ns,
                }],
                marks: Vec::new(),
            },
        );
        inner.active.insert(subwindow, id);
        id
    }

    /// Record one completed child span inside `trace_id`. Returns the
    /// new span id, or `None` when the trace is unknown or `parent` is
    /// not an existing span of this trace (misparented spans are
    /// refused, never silently adopted).
    #[allow(clippy::too_many_arguments)]
    pub fn span(
        &self,
        trace_id: u64,
        parent: u64,
        name: &str,
        side: &str,
        shard: Option<u32>,
        start_ns: u64,
        end_ns: u64,
    ) -> Option<u64> {
        let mut inner = self.inner.lock();
        inner.next_id += 1;
        let id = inner.next_id;
        let trace = inner.traces.get_mut(&trace_id)?;
        if !trace.spans.iter().any(|s| s.id == parent) {
            return None;
        }
        trace.spans.push(Span {
            id,
            parent: Some(parent),
            name: name.to_string(),
            side: side.to_string(),
            shard,
            start_ns,
            end_ns: end_ns.max(start_ns),
        });
        Some(id)
    }

    /// Extend the trace's root span to end at `end_ns` (monotonic: the
    /// root never shrinks). Called by the controller when the window
    /// merges.
    pub fn finish_window(&self, trace_id: u64, end_ns: u64) {
        let mut inner = self.inner.lock();
        if let Some(trace) = inner.traces.get_mut(&trace_id) {
            let root = trace.root;
            if let Some(span) = trace.spans.iter_mut().find(|s| s.id == root) {
                span.end_ns = span.end_ns.max(end_ns);
            }
        }
    }

    /// Record an engine transition against `subwindow`'s active trace;
    /// a no-op when no trace is active (e.g. engines running without
    /// tracing, or transitions after release).
    pub(crate) fn mark(&self, subwindow: u32, side: &str, event: &str, from: &str, to: &str) {
        let mut inner = self.inner.lock();
        let Some(trace_id) = inner.active.get(&subwindow).copied() else {
            return;
        };
        if let Some(trace) = inner.traces.get_mut(&trace_id) {
            trace.marks.push(PhaseMark {
                side: side.to_string(),
                event: event.to_string(),
                from: from.to_string(),
                to: to.to_string(),
            });
        }
    }

    /// The active trace id for `subwindow`, if any.
    pub fn active_trace(&self, subwindow: u32) -> Option<u64> {
        self.inner.lock().active.get(&subwindow).copied()
    }

    /// Publish `subwindow`'s context (the switch, once the window's
    /// batch is generated) for whoever handles the window next.
    pub fn publish_context(&self, subwindow: u32, ctx: TraceContext) {
        self.inner.lock().contexts.insert(subwindow, ctx);
    }

    /// The context published for `subwindow`, unless already retired.
    pub fn context(&self, subwindow: u32) -> Option<TraceContext> {
        self.inner.lock().contexts.get(&subwindow).copied()
    }

    /// Retire `subwindow`'s context (the switch, at ack / OS-read /
    /// eviction): later lookups find nothing and record no span.
    pub fn retire_context(&self, subwindow: u32) -> Option<TraceContext> {
        self.inner.lock().contexts.remove(&subwindow)
    }
}

/// Per-trace critical-path analysis (see `critical_path`).
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct CriticalPath {
    /// Root span duration — the window's wall (virtual-clock) latency.
    pub wall_ns: u64,
    /// Fraction (‰) of `wall_ns` covered by named non-root spans;
    /// `1000` when the root is zero-length (nothing to attribute).
    pub attributed_permille: u64,
    /// Longest blocking chain of span names, root first: at each step
    /// the child whose *subtree* finishes last (ties: longer span,
    /// then smaller id).
    pub chain: Vec<String>,
    /// Aggregate self-time (span minus its descendants' coverage) per
    /// span name, sorted by name.
    pub self_time_ns: Vec<(String, u64)>,
    /// Whether `wall_ns` exceeded the report's SLO deadline.
    pub slo_violated: bool,
}

/// Total length covered by `intervals` after clipping each to
/// `[lo, hi]` and merging overlaps.
fn covered_ns(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.retain_mut(|(s, e)| {
        *s = (*s).max(lo);
        *e = (*e).min(hi);
        s < e
    });
    intervals.sort_unstable();
    let mut total = 0u64;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        match &mut cur {
            Some((_, ce)) if s <= *ce => *ce = (*ce).max(e),
            _ => {
                if let Some((cs, ce)) = cur {
                    total += ce - cs;
                }
                cur = Some((s, e));
            }
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Analyse one span tree.
///
/// * **Self-time** per span is its duration minus the merged overlap
///   of its descendants (clipped to the span's own interval),
///   aggregated by name — exclusive time: the part of the span no
///   deeper span explains.
/// * **Attribution** is the fraction of the root interval covered by
///   *any* non-root span of the trace — the share of window latency
///   the tree explains causally. Retransmission spans parent to the
///   `collect` span but lie outside its interval, so attribution is
///   computed against the root interval, not the parent chain.
/// * The **chain** follows, from the root, the child whose subtree
///   finishes last (ties broken toward the longer span, then the
///   smaller id) — the sequence that blocked the window's completion,
///   even when the blocking span nests under an earlier phase (a
///   retransmission round under `collect`).
///
/// `slo` is an optional deadline on the root duration.
pub(crate) fn critical_path(spans: &[Span], root: u64, slo: Option<Duration>) -> CriticalPath {
    let by_id: HashMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let mut children: HashMap<u64, Vec<&Span>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push(s);
        }
    }

    let (root_start, root_end) = match by_id.get(&root) {
        Some(r) => (r.start_ns, r.end_ns),
        None => (0, 0),
    };
    let wall_ns = root_end.saturating_sub(root_start);

    // Intervals of every *descendant*, per span — not just direct
    // children, because recovery spans parent to `collect` while lying
    // inside the root's tail, and they must still explain that tail.
    let mut descendants: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        let mut up = s.parent;
        while let Some(pid) = up {
            descendants
                .entry(pid)
                .or_default()
                .push((s.start_ns, s.end_ns));
            up = by_id.get(&pid).and_then(|p| p.parent);
        }
    }

    let mut self_time: BTreeMap<String, u64> = BTreeMap::new();
    for s in spans {
        let overlap = covered_ns(
            descendants.get(&s.id).cloned().unwrap_or_default(),
            s.start_ns,
            s.end_ns,
        );
        *self_time.entry(s.name.clone()).or_default() += s.duration_ns().saturating_sub(overlap);
    }

    let non_root: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.id != root)
        .map(|s| (s.start_ns, s.end_ns))
        .collect();
    let attributed_permille = (covered_ns(non_root, root_start, root_end) * 1000)
        .checked_div(wall_ns)
        .unwrap_or(1000);

    // Latest finish time anywhere in each span's subtree. Ids are
    // sequential with parent < id, so one descending pass folds every
    // child into its parent before the parent is read.
    let mut subtree_end: BTreeMap<u64, u64> = spans.iter().map(|s| (s.id, s.end_ns)).collect();
    let mut descending: Vec<&Span> = spans.iter().collect();
    descending.sort_unstable_by_key(|s| std::cmp::Reverse(s.id));
    for s in descending {
        if let Some(p) = s.parent {
            let e = subtree_end.get(&s.id).copied().unwrap_or(s.end_ns);
            if let Some(pe) = subtree_end.get_mut(&p) {
                *pe = (*pe).max(e);
            }
        }
    }

    let mut chain = Vec::new();
    let mut cursor = root;
    while let Some(span) = by_id.get(&cursor) {
        chain.push(span.name.clone());
        let next = children.get(&cursor).and_then(|ks| {
            ks.iter()
                .copied()
                .max_by(|a, b| {
                    let (ea, eb) = (subtree_end[&a.id], subtree_end[&b.id]);
                    (ea, a.duration_ns(), std::cmp::Reverse(a.id)).cmp(&(
                        eb,
                        b.duration_ns(),
                        std::cmp::Reverse(b.id),
                    ))
                })
                .map(|s| s.id)
        });
        match next {
            Some(id) => cursor = id,
            None => break,
        }
    }

    CriticalPath {
        wall_ns,
        attributed_permille,
        chain,
        self_time_ns: self_time.into_iter().collect(),
        slo_violated: slo.is_some_and(|d| wall_ns > d.as_nanos()),
    }
}

/// One trace in the on-disk report: the span tree plus the engine
/// transitions observed while it was active and its critical path.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct TraceSummary {
    /// Trace id (= root span id).
    pub trace_id: u64,
    /// The traced sub-window.
    pub subwindow: u32,
    /// Root span id.
    pub root: u64,
    /// Every span, sorted by id.
    pub spans: Vec<Span>,
    /// Engine transitions in recording order.
    pub transitions: Vec<PhaseMark>,
    /// The critical-path analysis of this tree.
    pub critical_path: CriticalPath,
}

/// The deterministic on-disk trace report (`results/trace_smoke.json`):
/// every trace sorted by id, each with its critical path pre-computed.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct TraceReport {
    /// Name of the run (e.g. `obs_smoke`).
    pub run: String,
    /// SLO deadline applied to every trace's root duration, if any.
    pub slo_deadline_ns: Option<u64>,
    /// Traces in id order.
    pub traces: Vec<TraceSummary>,
}

impl TraceReport {
    /// Capture every trace in `tracer`, analysing each against `slo`.
    ///
    /// Roots of unfinished traces are extended to the latest child end
    /// so the wall latency is well-defined even when the controller
    /// never acknowledged (e.g. an evicted window).
    pub fn capture(run: &str, tracer: &Tracer, slo: Option<Duration>) -> TraceReport {
        let inner = tracer.inner.lock();
        let traces = inner
            .traces
            .values()
            .map(|t| {
                let mut spans = t.spans.clone();
                spans.sort_unstable_by_key(|s| s.id);
                let max_end = spans.iter().map(|s| s.end_ns).max().unwrap_or(0);
                if let Some(root) = spans.iter_mut().find(|s| s.id == t.root) {
                    root.end_ns = root.end_ns.max(max_end);
                }
                TraceSummary {
                    trace_id: t.root,
                    subwindow: t.subwindow,
                    root: t.root,
                    critical_path: critical_path(&spans, t.root, slo),
                    spans,
                    transitions: t.marks.clone(),
                }
            })
            .collect();
        TraceReport {
            run: run.to_string(),
            slo_deadline_ns: slo.map(|d| d.as_nanos()),
            traces,
        }
    }

    /// Pretty-printed JSON (the byte-stable form the determinism check
    /// compares).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("trace report serializes")
    }

    /// Write the report to `path` and its `render`ed
    /// form beside it as `<stem>.txt`, creating parent directories.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        crate::render::write_artifact(path, self.to_json(), self.render())
    }

    /// What the types do not already guarantee about a report: at least
    /// one trace; per trace exactly one parentless span and it is the
    /// root, every parent an earlier span of the same trace
    /// (`parent < id` — acyclic by construction), well-ordered
    /// intervals, and a non-empty critical-path chain.
    pub fn check(&self) -> Result<(), String> {
        if self.traces.is_empty() {
            return Err("trace report has no traces".to_string());
        }
        for trace in &self.traces {
            let (trace_id, root) = (trace.trace_id, trace.root);
            let mut ids = std::collections::HashSet::new();
            let mut roots = 0usize;
            for span in &trace.spans {
                let id = span.id;
                if span.end_ns < span.start_ns {
                    return Err(format!("span {id} ends before it starts"));
                }
                match span.parent {
                    None if id != root => {
                        return Err(format!("trace {trace_id}: span {id} has no parent"));
                    }
                    None => roots += 1,
                    Some(p) if p >= id => {
                        return Err(format!("span {id} parents forward to {p} (cycle risk)"));
                    }
                    Some(p) if !ids.contains(&p) => {
                        return Err(format!("span {id} is orphaned (parent {p} unknown)"));
                    }
                    Some(_) => {}
                }
                ids.insert(id);
            }
            if roots != 1 {
                return Err(format!("trace {trace_id} has {roots} roots (want 1)"));
            }
            if trace.critical_path.chain.is_empty() {
                return Err(format!("trace {trace_id} has an empty critical path"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_tracer() -> (Tracer, u64) {
        let t = Tracer::new();
        let root = t.start_window(3, "switch", 1_000);
        let collect = t
            .span(root, root, "collect", "switch", None, 1_100, 1_400)
            .unwrap();
        t.span(root, root, "cr_wait", "switch", None, 1_000, 1_100)
            .unwrap();
        t.span(root, root, "reset", "switch", None, 1_400, 1_500)
            .unwrap();
        t.span(
            root,
            collect,
            "retransmit_round",
            "controller",
            None,
            1_500,
            1_700,
        )
        .unwrap();
        t.finish_window(root, 1_700);
        (t, root)
    }

    #[test]
    fn ids_are_sequential_and_parents_precede_children() {
        let (t, root) = demo_tracer();
        let report = TraceReport::capture("unit", &t, None);
        let spans = &report.traces[0].spans;
        assert_eq!(spans[0].id, root);
        for pair in spans.windows(2) {
            assert!(pair[0].id < pair[1].id);
        }
        for s in spans {
            if let Some(p) = s.parent {
                assert!(p < s.id, "span {} parents forward", s.id);
            }
        }
    }

    #[test]
    fn misparented_and_unknown_spans_are_refused() {
        let t = Tracer::new();
        let root = t.start_window(0, "switch", 0);
        assert!(t.span(root, 999, "x", "switch", None, 0, 1).is_none());
        assert!(t.span(999, root, "x", "switch", None, 0, 1).is_none());
    }

    #[test]
    fn critical_path_attributes_covered_time() {
        let (t, _root) = demo_tracer();
        let report = TraceReport::capture("unit", &t, Some(Duration::from_nanos(500)));
        let cp = &report.traces[0].critical_path;
        assert_eq!(cp.wall_ns, 700);
        // cr_wait+collect+reset+retransmit_round tile [1000,1700] fully.
        assert_eq!(cp.attributed_permille, 1000);
        assert_eq!(cp.chain, vec!["window", "collect", "retransmit_round"]);
        assert!(cp.slo_violated, "700ns wall > 500ns deadline");
        // Root self-time is zero: children explain the whole window.
        let window_self = cp
            .self_time_ns
            .iter()
            .find(|(n, _)| n == "window")
            .unwrap()
            .1;
        assert_eq!(window_self, 0);
        // The retransmit span lies outside its collect parent, so
        // collect keeps its full self-time.
        let collect_self = cp
            .self_time_ns
            .iter()
            .find(|(n, _)| n == "collect")
            .unwrap()
            .1;
        assert_eq!(collect_self, 300);
    }

    #[test]
    fn zero_length_root_attributes_fully() {
        let t = Tracer::new();
        let root = t.start_window(9, "switch", u64::MAX);
        let report = TraceReport::capture("unit", &t, None);
        let cp = &report.traces[0].critical_path;
        assert_eq!(cp.wall_ns, 0);
        assert_eq!(cp.attributed_permille, 1000);
        assert_eq!(cp.chain, vec!["window"]);
        assert_eq!(root, report.traces[0].root);
    }

    #[test]
    fn marks_record_against_the_active_trace_only() {
        let t = Tracer::new();
        t.mark(5, "switch", "signal_fired", "open", "terminated");
        assert!(
            TraceReport::capture("unit", &t, None).traces.is_empty(),
            "no active trace, mark dropped"
        );
        let root = t.start_window(5, "switch", 0);
        t.mark(5, "switch", "signal_fired", "open", "terminated");
        let report = TraceReport::capture("unit", &t, None);
        assert_eq!(report.traces[0].transitions.len(), 1);
        assert_eq!(report.traces[0].transitions[0].event, "signal_fired");
        assert_eq!(t.active_trace(5), Some(root));
    }

    #[test]
    fn own_report_passes_the_check() {
        let (t, _) = demo_tracer();
        let report = TraceReport::capture("unit", &t, Some(Duration::from_micros(1)));
        report.check().expect("own report validates");
    }

    #[test]
    fn validator_rejects_orphans_and_forward_parents() {
        let (t, _) = demo_tracer();
        let good = TraceReport::capture("unit", &t, None);
        let last = good.traces[0].spans.len() - 1;

        let mut orphan = good.clone();
        orphan.traces[0].spans[last].id = 99;
        orphan.traces[0].spans[last].parent = Some(98);
        let err = orphan.check().unwrap_err();
        assert!(err.contains("orphaned"), "{err}");

        let mut forward = good.clone();
        forward.traces[0].spans[1].parent = Some(99);
        let err = forward.check().unwrap_err();
        assert!(err.contains("parents forward"), "{err}");

        let mut two_roots = good.clone();
        two_roots.traces[0].spans[last].parent = None;
        let err = two_roots.check().unwrap_err();
        assert!(err.contains("has no parent"), "{err}");

        let mut backwards = good.clone();
        backwards.traces[0].spans[last].end_ns = 0;
        assert!(backwards.check().unwrap_err().contains("ends before"));

        let mut no_chain = good;
        no_chain.traces[0].critical_path.chain.clear();
        assert!(no_chain
            .check()
            .unwrap_err()
            .contains("empty critical path"));
    }

    #[test]
    fn same_operations_same_bytes() {
        let (a, _) = demo_tracer();
        let (b, _) = demo_tracer();
        assert_eq!(
            TraceReport::capture("unit", &a, None).to_json(),
            TraceReport::capture("unit", &b, None).to_json()
        );
    }

    #[test]
    fn interval_union_merges_overlaps() {
        assert_eq!(covered_ns(vec![(0, 10), (5, 15)], 0, 20), 15);
        assert_eq!(covered_ns(vec![(0, 10), (12, 15)], 0, 20), 13);
        assert_eq!(covered_ns(vec![(0, 100)], 10, 20), 10, "clipped");
        assert_eq!(covered_ns(vec![], 0, 20), 0);
    }
}
