//! End-to-end causal span tracing under heavy loss.
//!
//! Runs the instrumented obs-smoke pipeline at 30% AFR loss and asserts
//! the tentpole guarantees of the span-tracing subsystem: every
//! collected window yields exactly one single-rooted span tree with no
//! orphans, retransmission spans parent to the window's original
//! `collect` span (the [`ow_obs::TraceContext`] the switch published
//! into the shared tracer needs no surviving message), the critical
//! path attributes
//! ≥95% of the window's virtual wall time to named spans, and two
//! same-seed runs serialize to byte-identical reports.

use std::collections::{HashMap, HashSet};

use omniwindow::experiments::obs_smoke::{self, ObsSmokeConfig};
use ow_common::afr::FlowRecord;
use ow_common::block::RecordBlock;
use ow_common::flowkey::FlowKey;
use ow_common::time::Duration;
use ow_controller::live::{ReliableLiveController, ReliableMsg};
use ow_controller::reliability::RetryPolicy;
use ow_obs::{Obs, TraceContext, TraceReport};

fn lossy_cfg() -> ObsSmokeConfig {
    ObsSmokeConfig {
        seed: 7,
        loss: 0.30,
    }
}

fn capture(cfg: &ObsSmokeConfig) -> TraceReport {
    let out = obs_smoke::run(cfg);
    TraceReport::capture(
        "trace_e2e",
        out.obs.tracer(),
        Some(Duration::from_millis(10)),
    )
}

#[test]
fn every_window_yields_a_complete_single_rooted_span_tree() {
    let report = capture(&lossy_cfg());
    assert!(
        report.traces.len() >= 2,
        "the trace terminates several sub-windows"
    );
    for trace in &report.traces {
        let ids: HashSet<u64> = trace.spans.iter().map(|s| s.id).collect();
        let roots: Vec<_> = trace.spans.iter().filter(|s| s.parent.is_none()).collect();
        assert_eq!(roots.len(), 1, "sub-window {}: one root", trace.subwindow);
        assert_eq!(roots[0].id, trace.trace_id);
        assert_eq!(roots[0].name, "window");
        for span in &trace.spans {
            if let Some(parent) = span.parent {
                assert!(
                    ids.contains(&parent),
                    "sub-window {}: span {} ('{}') is orphaned",
                    trace.subwindow,
                    span.id,
                    span.name
                );
                assert!(parent < span.id, "ids are causal: parent precedes child");
            }
            assert!(span.end_ns >= span.start_ns);
        }
        // The switch-side phases all made it into the tree.
        for name in ["cr_wait", "collect", "reset"] {
            assert!(
                trace.spans.iter().any(|s| s.name == name),
                "sub-window {}: missing '{name}' span",
                trace.subwindow
            );
        }
        // The lifecycle marks followed the FSM through to merge.
        let events: Vec<&str> = trace.transitions.iter().map(|m| m.event.as_str()).collect();
        for event in [
            "signal_fired",
            "cr_scheduled",
            "collect_started",
            "batch_generated",
        ] {
            assert!(
                events.contains(&event),
                "sub-window {}: missing '{event}' transition",
                trace.subwindow
            );
        }
    }
}

#[test]
fn retransmit_spans_parent_to_the_original_collect_span() {
    let report = capture(&lossy_cfg());
    let mut rounds_seen = 0usize;
    for trace in &report.traces {
        let collect = trace
            .spans
            .iter()
            .find(|s| s.name == "collect")
            .unwrap_or_else(|| panic!("sub-window {} has a collect span", trace.subwindow));
        for round in trace.spans.iter().filter(|s| s.name == "retransmit_round") {
            rounds_seen += 1;
            assert_eq!(
                round.parent,
                Some(collect.id),
                "sub-window {}: retransmit round must hang off the original \
                 collect span (context published through the tracer)",
                trace.subwindow
            );
            assert_eq!(round.side, "controller");
        }
        // The controller merged every traced window under its root.
        let merge = trace
            .spans
            .iter()
            .find(|s| s.name == "merge")
            .unwrap_or_else(|| panic!("sub-window {} merged", trace.subwindow));
        assert_eq!(merge.parent, Some(trace.trace_id));
    }
    assert!(
        rounds_seen >= report.traces.len(),
        "at 30% loss with one forced drop per sub-window, every session \
         retransmits at least once"
    );
}

#[test]
fn critical_path_attributes_at_least_95_percent_of_wall_time() {
    let report = capture(&lossy_cfg());
    for trace in &report.traces {
        let cp = &trace.critical_path;
        assert!(
            cp.attributed_permille >= 950,
            "sub-window {}: only {}‰ of {}ns wall attributed",
            trace.subwindow,
            cp.attributed_permille,
            cp.wall_ns
        );
        assert!(!cp.chain.is_empty());
        assert_eq!(cp.chain[0], "window");
    }
    // The deterministically escalated session blows the 10ms SLO; the
    // ordinary sessions stay inside it.
    let violated = report
        .traces
        .iter()
        .filter(|t| t.critical_path.slo_violated)
        .count();
    assert_eq!(violated, 1, "exactly the escalated window violates the SLO");
}

#[test]
fn same_seed_runs_serialize_byte_identically_and_validate() {
    let cfg = lossy_cfg();
    let (a, b) = (capture(&cfg), capture(&cfg));
    assert_eq!(
        a.to_json(),
        b.to_json(),
        "same seed ⇒ byte-identical trace report"
    );
    a.check().expect("report passes the span-tree check");
}

#[test]
fn traces_are_disjoint_per_window_and_cover_all_collected_windows() {
    let cfg = lossy_cfg();
    let out = obs_smoke::run(&cfg);
    let report = TraceReport::capture("trace_e2e", out.obs.tracer(), None);
    let mut seen: HashMap<u32, u64> = HashMap::new();
    let mut all_ids: HashSet<u64> = HashSet::new();
    for trace in &report.traces {
        assert!(
            seen.insert(trace.subwindow, trace.trace_id).is_none(),
            "one trace per sub-window"
        );
        for span in &trace.spans {
            assert!(
                all_ids.insert(span.id),
                "span ids are globally unique across traces"
            );
        }
    }
    // Every session the controller completed has a trace.
    assert_eq!(
        report.traces.len() as u64,
        out.obs
            .snapshot()
            .value("ow_controller_sessions_total", &[]),
        "every completed session left a span tree"
    );
}

/// Mid-window switch departure: one switch vanishes after a partial
/// stream (its session must release, not wedge), while a surviving
/// switch whose retransmit back-channel is dead must still merge via
/// the OS-read escalation — and both windows' recovery-timeline traces
/// stay single-rooted and complete.
#[test]
fn departed_and_escalated_windows_leave_complete_single_rooted_traces() {
    let obs = Obs::new();
    let batch: Vec<FlowRecord> = (0..4)
        .map(|i| {
            let mut rec = FlowRecord::frequency(FlowKey::src_ip(100 + i), 10, 0);
            rec.seq = i;
            rec
        })
        .collect();
    let os_batch = batch.clone();
    let ctl = ReliableLiveController::spawn_sharded_obs(
        8,
        64,
        RetryPolicy::default(),
        // Dead back-channel: every retransmission round returns nothing,
        // forcing the surviving session to escalate.
        Box::new(|_, _| Vec::new()),
        Box::new(move |sw| {
            let mut full = os_batch.clone();
            for rec in &mut full {
                rec.subwindow = sw;
            }
            (full, Duration::from_millis(2))
        }),
        2,
        Some(&obs),
    );

    // The switch side: open each window's trace, record its collect
    // span and publish the context into the shared tracer.
    let tracer = obs.tracer().clone();
    let publish_ctx = |sw: u32| {
        let trace = tracer.start_window(sw, "switch", 0);
        let collect = tracer
            .span(trace, trace, "collect", "switch", None, 0, 1)
            .expect("collect span under a live trace");
        let ctx = TraceContext {
            trace_id: trace,
            collect,
            anchor_ns: 1,
        };
        tracer.publish_context(sw, ctx);
    };

    // Sub-window 0: announced, half-streamed, then its switch departs.
    publish_ctx(0);
    ctl.sender
        .send(ReliableMsg::Announce {
            subwindow: 0,
            announced: batch.len() as u32,
        })
        .unwrap();
    ctl.sender
        .send(ReliableMsg::AfrBlock(RecordBlock::from_records(
            0,
            &batch[..2],
        )))
        .unwrap();
    ctl.sender
        .send(ReliableMsg::Depart { subwindow: 0 })
        .unwrap();

    // Sub-window 1: announced, one first-pass survivor, end-of-stream —
    // recovery must run its rounds dry and escalate to the OS read.
    publish_ctx(1);
    ctl.sender
        .send(ReliableMsg::Announce {
            subwindow: 1,
            announced: batch.len() as u32,
        })
        .unwrap();
    let mut first = batch[0];
    first.subwindow = 1;
    ctl.sender
        .send(ReliableMsg::AfrBlock(RecordBlock::from_records(
            1,
            &[first],
        )))
        .unwrap();
    ctl.sender
        .send(ReliableMsg::EndOfStream { subwindow: 1 })
        .unwrap();

    ctl.sender.send(ReliableMsg::Shutdown).unwrap();
    let handle = ctl.handle.clone();
    let metrics = ctl.join();

    // The departed session was abandoned; the escalated one merged.
    assert_eq!(metrics.departed, 1);
    assert_eq!(metrics.escalations, 1);
    assert_eq!(handle.subwindows(), vec![1], "only the survivor merged");

    let snap = obs.snapshot();
    assert_eq!(snap.value("ow_controller_departed_sessions_total", &[]), 1);
    assert_eq!(snap.value("ow_controller_sessions_total", &[]), 1);
    assert_eq!(
        snap.value("ow_common_engine_released_total", &[("side", "controller")]),
        1,
        "the departed window's FSM reached Released, not a wedged recovery state"
    );

    // Both traces are single-rooted, orphan-free, and closed.
    let report = TraceReport::capture("trace_e2e", obs.tracer(), None);
    assert_eq!(report.traces.len(), 2, "one closed trace per window");
    for trace in &report.traces {
        let ids: HashSet<u64> = trace.spans.iter().map(|s| s.id).collect();
        let roots: Vec<_> = trace.spans.iter().filter(|s| s.parent.is_none()).collect();
        assert_eq!(roots.len(), 1, "sub-window {}: one root", trace.subwindow);
        for span in &trace.spans {
            if let Some(parent) = span.parent {
                assert!(ids.contains(&parent), "orphaned span '{}'", span.name);
            }
        }
        let names: Vec<&str> = trace.spans.iter().map(|s| s.name.as_str()).collect();
        if trace.subwindow == 0 {
            // The departure closed the tree with a tombstone span and
            // never fabricated a merge.
            let departed = trace
                .spans
                .iter()
                .find(|s| s.name == "departed")
                .expect("departed window records the abandonment");
            assert_eq!(departed.parent, Some(trace.trace_id));
            assert_eq!(departed.side, "controller");
            assert!(!names.contains(&"merge"), "a departed window never merges");
        } else {
            // The escalated window's recovery timeline is all there:
            // every dry retransmission round, the OS read, the merge.
            let collect = trace
                .spans
                .iter()
                .find(|s| s.name == "collect")
                .expect("survivor keeps its collect span");
            let rounds: Vec<_> = trace
                .spans
                .iter()
                .filter(|s| s.name == "retransmit_round")
                .collect();
            assert!(!rounds.is_empty(), "escalation is preceded by dry rounds");
            assert!(rounds.iter().all(|r| r.parent == Some(collect.id)));
            assert!(names.contains(&"os_read"), "escalation span missing");
            assert!(names.contains(&"merge"));
        }
    }
}
