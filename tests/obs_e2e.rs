//! End-to-end observability: one `ow-obs` registry attached to the
//! whole lossy sharded C&R pipeline (the acceptance scenario — 4 merge
//! shards, 10% AFR loss), checked for mirror-accuracy against the
//! controller's own metrics and for byte-identical determinism; and the
//! journal's sub-window-tagged events, checked as the causal record of
//! each window's life (collected, then merged or departed exactly once,
//! with one OS read per escalation).

use std::sync::{Arc, Mutex};

use omniwindow::experiments::obs_smoke::{self, ObsSmokeConfig};
use ow_common::afr::FlowRecord;
use ow_common::block::RecordBlock;
use ow_common::flowkey::{FlowKey, KeyKind};
use ow_common::packet::{Packet, TcpFlags};
use ow_common::time::{Duration, Instant};
use ow_controller::live::{ReliableLiveController, ReliableMsg};
use ow_controller::reliability::RetryPolicy;
use ow_netsim::fleet::{self, ChurnEvent, ChurnKind, FleetConfig};
use ow_obs::{Event, Obs};
use ow_sketch::CountMin;
use ow_switch::app::FrequencyApp;
use ow_switch::{Switch, SwitchConfig, SwitchEvent};

fn acceptance_cfg() -> ObsSmokeConfig {
    ObsSmokeConfig {
        seed: 7,
        loss: 0.10,
    }
}

#[test]
fn lossy_sharded_run_snapshot_meets_acceptance() {
    let out = obs_smoke::run(&acceptance_cfg());
    let snap = out.obs.snapshot();

    // Per-shard queue-depth gauges: one per shard, settled to zero.
    for shard in 0..4u32 {
        let gauge = snap
            .get(
                "ow_controller_shard_queue_depth",
                &[("shard", &shard.to_string())],
            )
            .unwrap_or_else(|| panic!("queue-depth gauge for shard {shard} missing"));
        assert_eq!(gauge.kind, "gauge");
        assert_eq!(gauge.value, 0, "shard {shard} queue drained at join");
    }

    // The retransmission loop ran and the registry mirrors it.
    let rounds = snap.value("ow_controller_retransmit_rounds", &[]);
    assert!(rounds > 0, "lossy run must use retransmission rounds");
    assert_eq!(rounds, out.metrics.retransmit_rounds);

    // C&R phase-duration histograms carry virtual-clock percentiles on
    // both sides of the pipeline.
    let recovery = snap
        .get("ow_controller_cr_phase_duration", &[("phase", "recovery")])
        .expect("controller recovery histogram");
    let h = recovery.histogram.as_ref().expect("histogram detail");
    assert!(h.count > 0);
    assert!(h.p50 > 0 && h.p99 >= h.p50, "virtual-clock percentiles");
    let collect = snap
        .get("ow_switch_cr_phase_duration", &[("phase", "collect")])
        .expect("switch collect histogram");
    assert!(collect.histogram.as_ref().expect("histogram detail").count > 0);

    // The dead back-channel sub-window escalated, and the registry's
    // escalation counter equals `join()`'s ReliabilityMetrics.
    assert!(out.metrics.escalations > 0, "forced escalation happened");
    assert_eq!(
        snap.value("ow_controller_escalations_total", &[]),
        out.metrics.escalations
    );

    // The switch's engine reports through the same registry. The
    // controller keeps no window FSM: its record is its session counts.
    assert!(snap.value("ow_common_engine_transitions_total", &[("side", "switch")]) > 0);
    let controller_side = [("side", "controller")];
    assert!(snap
        .get("ow_common_engine_transitions_total", &controller_side)
        .is_none());
    assert!(snap.value("ow_controller_sessions_total", &[]) > 0);
    assert_eq!(snap.value("ow_controller_departed_sessions_total", &[]), 0);
}

#[test]
fn fleet_run_exposes_fleet_gauges() {
    let obs = Obs::new();
    let mut cfg = FleetConfig {
        switches: 16,
        workers: 3,
        afr_loss: 0.20,
        seed: 11,
        ..FleetConfig::default()
    };
    // Crash one switch 100µs into its second window's stream (its
    // stagger offset is seed-derived, so aim relative to it) and let
    // another leave gracefully near the end.
    let crash_at = 1_000 + cfg.stagger_ns(2) / 1_000 + 100;
    cfg.churn = vec![
        ChurnEvent {
            at: Duration::from_micros(crash_at),
            switch: 2,
            kind: ChurnKind::Crash,
        },
        ChurnEvent {
            at: Duration::from_micros(3_800),
            switch: 5,
            kind: ChurnKind::Leave,
        },
    ];
    let report = fleet::run(&cfg, &obs);
    assert!(report.all_windows_accounted());
    assert!(report.departed_windows > 0, "the crash departed a window");

    let snap = obs.snapshot();

    // Membership gauge: 16 switches minus the crash and the leave.
    let live = snap
        .get("ow_fleet_switches_live", &[])
        .expect("fleet membership gauge present");
    assert_eq!(live.kind, "gauge");
    assert_eq!(live.value, 14);

    // Per-worker in-flight gauges: present for every worker, settled to
    // zero once every window merged or departed.
    for worker in 0..3u32 {
        let g = snap
            .get(
                "ow_fleet_windows_inflight",
                &[("worker", &worker.to_string())],
            )
            .unwrap_or_else(|| panic!("in-flight gauge for worker {worker} missing"));
        assert_eq!(g.kind, "gauge");
        assert_eq!(g.value, 0, "worker {worker} still shows in-flight windows");
    }

    // The departure path reported through the same registry.
    assert_eq!(
        snap.value("ow_controller_departed_sessions_total", &[]),
        report.departed_windows
    );

    // Fleet gauges reach the rendered report.
    let text = obs.report("fleet").render();
    let want = "== fleet ==\nswitches live: 14\nwindows in flight: 0 across 3 worker(s)\n";
    assert!(text.contains(want), "{text}");
}

#[test]
fn same_seed_twice_is_byte_identical() {
    let a = obs_smoke::run(&acceptance_cfg());
    let b = obs_smoke::run(&acceptance_cfg());
    assert_eq!(
        a.obs.report("obs_e2e").to_json(),
        b.obs.report("obs_e2e").to_json(),
        "same seed must reproduce the snapshot byte for byte"
    );
    assert_eq!(a.metrics, b.metrics);
    assert_eq!(a.merged_flows, b.merged_flows);
}

#[test]
fn different_seed_changes_the_fault_pattern_not_the_merge() {
    let a = obs_smoke::run(&acceptance_cfg());
    let b = obs_smoke::run(&ObsSmokeConfig {
        seed: 8,
        ..acceptance_cfg()
    });
    // Loss pattern differs, but recovery always completes the batches:
    // the merged view and announced totals agree across seeds.
    assert_eq!(a.merged_flows, b.merged_flows);
    assert_eq!(a.metrics.announced, b.metrics.announced);
}

/// The sub-windows of the journal's `kind` events, in journal order.
fn subwindows_of(events: &[Event], kind: &str) -> Vec<u32> {
    (events.iter().filter(|e| e.kind == kind))
        .map(|e| {
            e.subwindow
                .expect("lifecycle events carry their sub-window")
        })
        .collect()
}

/// The count a `session_complete` message gives just before `unit`
/// ("… after 2 retransmit round(s), 1 escalation(s)").
fn count_before(message: &str, unit: &str) -> u64 {
    let head = &message[..message
        .find(unit)
        .expect("session_complete names the count")];
    head.rsplit(' ').next().unwrap().parse().unwrap()
}

/// The count a journal message gives just after `verb` ("merged 30
/// AFRs …", "collected 30 AFRs …").
fn count_after(message: &str, verb: &str) -> u64 {
    let tail = message
        .strip_prefix(verb)
        .expect("message starts with its verb");
    tail.split(' ').next().unwrap().parse().unwrap()
}

/// `(sub-window, retransmit rounds, escalations)` of each completed
/// session, in journal order.
fn sessions(events: &[Event]) -> Vec<(u32, u64, u64)> {
    (events.iter().filter(|e| e.kind == "session_complete"))
        .map(|e| {
            let rounds = count_before(&e.message, " retransmit round(s)");
            let escalations = count_before(&e.message, " escalation(s)");
            (e.subwindow.unwrap(), rounds, escalations)
        })
        .collect()
}

/// Each collected sub-window's switch FSM walks `signal_fired →
/// cr_scheduled → collect_started → batch_generated`, and its session
/// ends merged exactly once: at 30% loss every session retransmits,
/// and only the dead-back-channel sub-window escalates.
#[test]
fn every_collected_subwindow_walks_its_fsm_and_merges_exactly_once() {
    let out = obs_smoke::run(&ObsSmokeConfig {
        seed: 7,
        loss: 0.30,
    });
    let events = out.obs.journal().events();
    let collected = subwindows_of(&events, "cr_session");
    assert!(
        collected.len() >= 2,
        "the trace terminates several sub-windows"
    );
    assert!(collected.windows(2).all(|w| w[0] < w[1]), "one C&R each");
    for &sw in &collected {
        let walk: Vec<&str> = (events.iter())
            .filter(|e| e.kind == "fsm_transition" && e.subwindow == Some(sw))
            .filter(|e| e.message.ends_with("(switch)"))
            .filter_map(|e| e.phase.as_deref())
            .collect();
        assert_eq!(
            walk,
            ["terminated", "cr_wait", "collecting", "collected"],
            "sub-window {sw}"
        );
    }

    let mut merged = subwindows_of(&events, "session_complete");
    merged.sort_unstable();
    assert_eq!(merged, collected, "every collected sub-window merges once");
    assert!(subwindows_of(&events, "switch_departed").is_empty());
    let snap = out.obs.snapshot();
    assert_eq!(
        snap.value("ow_controller_sessions_total", &[]),
        collected.len() as u64
    );

    let sessions = sessions(&events);
    for &(sw, rounds, _) in &sessions {
        assert!(
            rounds >= 1,
            "sub-window {sw}: a forced drop is retransmitted"
        );
    }
    let escalated: Vec<u32> = (sessions.iter().filter(|s| s.2 > 0)).map(|s| s.0).collect();
    assert_eq!(
        escalated,
        [collected[1]],
        "only the dead back-channel escalates"
    );
    assert_eq!(out.metrics.escalations, 1);

    // What each session says it merged is its whole batch, the
    // escalated one's OS-read rows included.
    let sizes = |kind: &str, verb: &str| -> Vec<(u32, u64)> {
        let mut sizes: Vec<(u32, u64)> = (events.iter().filter(|e| e.kind == kind))
            .map(|e| (e.subwindow.unwrap(), count_after(&e.message, verb)))
            .collect();
        sizes.sort_unstable();
        sizes
    };
    assert_eq!(
        sizes("session_complete", "merged "),
        sizes("cr_session", "collected ")
    );
}

/// Mid-window switch departure: one switch vanishes after a partial
/// stream (its session must release, not wedge, and never merge), while
/// a surviving switch whose retransmit back-channel is dead must still
/// merge via the OS-read escalation.
#[test]
fn departed_and_escalated_windows_each_end_exactly_once() {
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
    let send = |msg| ctl.sender.send(msg).unwrap();

    // Sub-window 0: announced, half-streamed, then its switch departs.
    let announced = batch.len() as u32;
    send(ReliableMsg::Announce {
        subwindow: 0,
        announced,
    });
    send(ReliableMsg::AfrBlock(RecordBlock::from_records(
        0,
        &batch[..2],
    )));
    send(ReliableMsg::Depart { subwindow: 0 });

    // Sub-window 1: announced, one first-pass survivor, end-of-stream —
    // recovery must run its rounds dry and escalate to the OS read.
    send(ReliableMsg::Announce {
        subwindow: 1,
        announced,
    });
    let mut first = batch[0];
    first.subwindow = 1;
    send(ReliableMsg::AfrBlock(RecordBlock::from_records(
        1,
        &[first],
    )));
    send(ReliableMsg::EndOfStream { subwindow: 1 });
    send(ReliableMsg::Shutdown);
    let handle = ctl.handle.clone();
    let metrics = ctl.join();

    // The departed session was abandoned; the escalated one merged.
    assert_eq!(metrics.departed, 1);
    assert_eq!(metrics.escalations, 1);
    assert_eq!(handle.subwindows(), vec![1], "only the survivor merged");
    let events = obs.journal().events();
    assert_eq!(subwindows_of(&events, "switch_departed"), [0]);
    let sessions = sessions(&events);
    assert_eq!(sessions.len(), 1, "a departed window never merges");
    let (sw, rounds, escalations) = sessions[0];
    assert_eq!((sw, escalations), (1, 1));
    assert!(rounds >= 1, "escalation is preceded by dry rounds");

    let snap = obs.snapshot();
    // Each announced window ended exactly once: one merged, one departed
    // and released, none left wedged in recovery.
    assert_eq!(snap.value("ow_controller_departed_sessions_total", &[]), 1);
    assert_eq!(snap.value("ow_controller_sessions_total", &[]), 1);
}

/// A real switch behind the back-channel: the sub-window whose
/// retransmissions are all lost merges after exactly one `os_read` on
/// the switch, and no other session reads the switch OS.
#[test]
fn an_escalated_session_reads_the_switch_os_exactly_once() {
    let obs = Obs::new();
    let app = |s| FrequencyApp::new(CountMin::new(2, 1024, s), KeyKind::SrcIp, false);
    let cfg = SwitchConfig {
        fk_capacity: 256,
        expected_flows: 1024,
        ..SwitchConfig::default()
    };
    let mut switch = Switch::new_unchecked(cfg, app(1), app(2));
    switch.attach_obs(&obs);
    let mut events = Vec::new();
    for ms in (5..400).step_by(5) {
        let src = 1 + (ms as u32 % 13);
        let p = Packet::tcp(Instant::from_millis(ms), src, 9, 1, 80, TcpFlags::ack(), 64);
        switch.process_into(p, &mut events);
    }
    events.extend(switch.flush());
    let batches: Vec<(u32, Vec<FlowRecord>)> = (events.into_iter())
        .filter_map(|e| match e {
            SwitchEvent::AfrBatch {
                subwindow, outcome, ..
            } => Some((subwindow, outcome.afrs)),
            _ => None,
        })
        .collect();
    assert!(batches.len() >= 3);

    let dead = batches[1].0;
    let switch = Arc::new(Mutex::new(switch));
    let (replay, read) = (Arc::clone(&switch), Arc::clone(&switch));
    let ctl = ReliableLiveController::spawn_sharded_obs(
        3,
        64,
        RetryPolicy {
            max_rounds: 2,
            ..RetryPolicy::default()
        },
        Box::new(move |sw, seqs| {
            if sw == dead {
                return Vec::new();
            }
            replay.lock().unwrap().handle_retransmit_request(sw, seqs)
        }),
        Box::new(move |sw| {
            let mut switch = read.lock().unwrap();
            switch.os_read_terminated(sw).expect("batch retained")
        }),
        2,
        Some(&obs),
    );
    for (subwindow, afrs) in &batches {
        let (subwindow, announced) = (*subwindow, afrs.len() as u32);
        let survivors: Vec<FlowRecord> = afrs.iter().copied().filter(|r| r.seq != 0).collect();
        let send = |msg| ctl.sender.send(msg).unwrap();
        send(ReliableMsg::Announce {
            subwindow,
            announced,
        });
        send(ReliableMsg::AfrBlock(RecordBlock::from_records(
            subwindow, &survivors,
        )));
        send(ReliableMsg::EndOfStream { subwindow });
    }
    let metrics = ctl.join();

    let events = obs.journal().events();
    let sessions = sessions(&events);
    assert_eq!(sessions.len(), batches.len());
    let os_reads = subwindows_of(&events, "os_read");
    for &(sw, rounds, escalations) in &sessions {
        assert!(
            rounds >= 1,
            "sub-window {sw}: its dropped seq 0 is repaired"
        );
        let reads = os_reads.iter().filter(|&&r| r == sw).count() as u64;
        assert_eq!(reads, escalations, "sub-window {sw}");
    }
    assert_eq!(os_reads, [dead]);
    assert_eq!(metrics.escalations, 1);
    assert_eq!(switch.lock().unwrap().engine().rejected(), 0);
}
