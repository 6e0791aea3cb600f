//! Edge-case integration tests: multi-ingress consistency, AFR loss and
//! retransmission, hopping windows, and the Exp#9 path-length extension.

use std::collections::HashMap;

use ow_common::afr::{AttrValue, FlowRecord};
use ow_common::block::RecordBlock;
use ow_common::flowkey::{FlowKey, KeyKind};
use ow_common::packet::{Packet, TcpFlags};
use ow_common::time::{Duration, Instant};
use ow_controller::collector::{CollectionSession, SessionStatus};
use ow_controller::live::{ReliableLiveController, ReliableMsg};
use ow_controller::reliability::{AfrTransport, ReliabilityDriver, RetryPolicy};
use ow_controller::table::MergeTable;
use ow_controller::wire::{decode_batch, encode_batch};
use ow_netsim::{FaultConfig, LossyChannel, PacketClass};
use ow_sketch::CountMin;
use ow_switch::app::FrequencyApp;
use ow_switch::signal::WindowSignal;
use ow_switch::{Switch, SwitchConfig, SwitchEvent};
use ow_verify::verified_switch;

type App = FrequencyApp<CountMin>;

fn mk_switch(first_hop: bool) -> Switch<App> {
    let app = |s| FrequencyApp::new(CountMin::new(2, 8192, s), KeyKind::SrcIp, false);
    verified_switch(
        SwitchConfig {
            first_hop,
            fk_capacity: 4096,
            expected_flows: 16 * 1024,
            signal: WindowSignal::Timeout(Duration::from_millis(100)),
            ..SwitchConfig::default()
        },
        app(1),
        app(2),
    )
    .expect("pipeline verifies")
}

fn pkt(src: u32, ms: u64) -> Packet {
    Packet::tcp(Instant::from_millis(ms), src, 9, 1, 80, TcpFlags::ack(), 64)
}

fn batch_counts(events: &[SwitchEvent], key: FlowKey) -> HashMap<u32, u64> {
    let mut out = HashMap::new();
    for e in events {
        if let SwitchEvent::AfrBatch {
            subwindow, outcome, ..
        } = e
        {
            let v = outcome
                .afrs
                .iter()
                .find(|r| r.key == key)
                .map(|r| r.attr.scalar() as u64)
                .unwrap_or(0);
            out.insert(*subwindow, v);
        }
    }
    out
}

/// Figure 4's scenario with *two* ingress switches: packets from a
/// fast-forwarded ingress push the transit switch ahead, yet packets
/// stamped by the slower ingress (an older sub-window) are still
/// measured in their stamped sub-window via the preservation horizon.
#[test]
fn two_ingresses_one_transit_stay_consistent() {
    let mut ingress_a = mk_switch(true);
    let mut ingress_b = mk_switch(true);
    let mut transit = mk_switch(false);

    // Ingress A's flow runs 0–400 ms; ingress B's runs 80–480 ms, so at
    // any moment their current sub-windows disagree around boundaries.
    let mut downstream: Vec<(u64, Packet)> = Vec::new();
    for i in 0..100u64 {
        let ta = i * 4; // 0..400ms
        for e in ingress_a.process(pkt(1, ta)) {
            if let SwitchEvent::Forward(p) = e {
                downstream.push((ta * 1_000_000 + 10_000, p)); // +10µs link
            }
        }
        let tb = 80 + i * 4; // 80..480ms
        for e in ingress_b.process(pkt(2, tb)) {
            if let SwitchEvent::Forward(p) = e {
                downstream.push((tb * 1_000_000 + 25_000, p)); // +25µs link
            }
        }
    }
    // Interleave by arrival time at the transit switch.
    downstream.sort_by_key(|(at, _)| *at);

    let mut transit_events = Vec::new();
    for (at, mut p) in downstream {
        p.ts = Instant::from_nanos(at);
        transit.process_into(p, &mut transit_events);
    }
    transit_events.extend(transit.flush());

    // No packet was demoted to a latency spike…
    assert_eq!(transit.latency_spikes(), 0);

    // …and the transit switch's per-sub-window counts equal the union of
    // both ingresses' counts (consistency across the fan-in).
    let mut a_events = Vec::new();
    a_events.extend(ingress_a.flush());
    let mut b_events = Vec::new();
    b_events.extend(ingress_b.flush());

    let transit_1 = batch_counts(&transit_events, FlowKey::src_ip(1));
    let transit_2 = batch_counts(&transit_events, FlowKey::src_ip(2));
    // Flow 1: 25 packets per 100 ms sub-window (i*4ms spacing).
    for (sw, v) in &transit_1 {
        if *v > 0 {
            assert_eq!(*v, 25, "flow 1 sub-window {sw}");
        }
    }
    // Flow 2 likewise, shifted by 80 ms (split 20/25/25/25/5).
    let total_2: u64 = transit_2.values().sum();
    assert_eq!(total_2, 100, "flow 2 total across sub-windows");
}

/// The §8 reliability path end-to-end over the wire codec: 20 % of AFR
/// report packets are lost in transit; the session detects exactly the
/// missing sequence ids, the "switch" retransmits them, and the merged
/// result is identical to the lossless run.
#[test]
fn afr_loss_detected_and_retransmitted() {
    let mut sw = mk_switch(true);
    let mut packets = Vec::new();
    for src in 1..=50u32 {
        for i in 0..(src as u64 % 7 + 1) {
            packets.push(pkt(src, 10 + i));
        }
    }
    packets.sort_by_key(|p| p.ts);
    for p in packets {
        sw.process(p);
    }
    let events = sw.flush();
    let (subwindow, afrs) = events
        .iter()
        .find_map(|e| match e {
            SwitchEvent::AfrBatch {
                subwindow, outcome, ..
            } => Some((*subwindow, outcome.afrs.clone())),
            _ => None,
        })
        .expect("one batch");
    assert_eq!(afrs.len(), 50);

    // Serialise the batch as the switch would send it; drop every 5th
    // record in transit.
    let wire = encode_batch(&afrs);
    let received = decode_batch(wire).unwrap();
    let mut session = CollectionSession::new(subwindow, afrs.len() as u32);
    for (i, r) in received.iter().enumerate() {
        if i % 5 != 4 {
            session.receive(*r).unwrap();
        }
    }
    assert_eq!(session.status(), SessionStatus::Collecting);

    // The controller asks for exactly the dropped sequence ids…
    let missing = session.missing();
    assert_eq!(missing.len(), 10);
    assert!(missing.iter().all(|seq| seq % 5 == 4));

    // …the switch retransmits them (again over the wire)…
    let retransmit: Vec<_> = afrs
        .iter()
        .filter(|r| missing.contains(&r.seq))
        .copied()
        .collect();
    for r in decode_batch(encode_batch(&retransmit)).unwrap() {
        session.receive(r).unwrap();
    }
    assert_eq!(session.status(), SessionStatus::Complete);
    assert_eq!(session.retransmissions(), 1);

    // …and the merged table matches the lossless ground truth.
    let mut lossy = MergeTable::new();
    lossy.insert_batch(subwindow, session.into_batch());
    let mut lossless = MergeTable::new();
    lossless.insert_batch(subwindow, afrs.clone());
    for r in &afrs {
        assert_eq!(lossy.get(&r.key), lossless.get(&r.key));
    }
}

/// Run a one-sub-window trace and return the switch (still retaining
/// the batch for retransmission) plus the batch it produced.
fn switch_with_one_batch() -> (Switch<App>, u32, Vec<FlowRecord>) {
    let mut sw = mk_switch(true);
    let mut packets = Vec::new();
    for src in 1..=20u32 {
        for i in 0..(src as u64 % 4 + 1) {
            packets.push(pkt(src, 10 + i));
        }
    }
    packets.sort_by_key(|p| p.ts);
    for p in packets {
        sw.process(p);
    }
    let events = sw.flush();
    let (subwindow, afrs) = events
        .iter()
        .find_map(|e| match e {
            SwitchEvent::AfrBatch {
                subwindow, outcome, ..
            } => Some((*subwindow, outcome.afrs.clone())),
            _ => None,
        })
        .expect("one batch");
    (sw, subwindow, afrs)
}

/// The retransmission request itself is lost: the round yields nothing,
/// the timeout fires again, and the next round's request reaches the
/// switch's retransmit buffer and completes the session.
#[test]
fn lost_retransmission_request_is_retried() {
    struct FlakyRequestPath<'a> {
        switch: &'a mut Switch<App>,
        initial: Vec<FlowRecord>,
        swallowed: u32,
        requests_seen: u32,
    }
    impl AfrTransport for FlakyRequestPath<'_> {
        fn initial_afrs(&mut self, _sw: u32) -> Vec<FlowRecord> {
            std::mem::take(&mut self.initial)
        }
        fn request_retransmit(&mut self, sw: u32, seqs: &[u32]) -> Vec<FlowRecord> {
            self.requests_seen += 1;
            if self.requests_seen <= self.swallowed {
                return Vec::new(); // the request died in the fabric
            }
            self.switch.handle_retransmit_request(sw, seqs)
        }
        fn os_read(&mut self, _sw: u32) -> (Vec<FlowRecord>, Duration) {
            panic!("must recover without escalating");
        }
    }

    let (mut sw, subwindow, afrs) = switch_with_one_batch();
    // Half the initial stream is lost.
    let initial: Vec<FlowRecord> = afrs.iter().filter(|r| r.seq % 2 == 0).copied().collect();
    let mut transport = FlakyRequestPath {
        switch: &mut sw,
        initial,
        swallowed: 1,
        requests_seen: 0,
    };
    let out = ReliabilityDriver::new(RetryPolicy::default()).collect(
        &mut transport,
        subwindow,
        afrs.len() as u32,
    );
    assert_eq!(out.batch, afrs);
    assert!(!out.escalated);
    assert_eq!(transport.requests_seen, 2);
    assert_eq!(out.metrics.retransmit_rounds, 2);
    // The second round waited longer than the first (exponential backoff).
    let policy = RetryPolicy::default();
    assert_eq!(
        out.metrics.wall_clock,
        policy.timeout_for_round(1) + policy.timeout_for_round(2)
    );
}

/// A duplicated trigger packet announces the same sub-window twice —
/// and once more after it merged; the controller opens one session,
/// counts the sub-window once, and the merged result is unaffected.
#[test]
fn duplicate_trigger_packet_is_idempotent() {
    let (_sw, subwindow, afrs) = switch_with_one_batch();

    // Force the fault channel to duplicate every trigger clone.
    let mut cfg = FaultConfig::lossless(42);
    cfg.trigger.duplicate = 1.0;
    let mut channel = LossyChannel::new(cfg);
    let trigger_copies = channel.transmit_one(PacketClass::Trigger, subwindow);
    assert_eq!(trigger_copies.len(), 2, "channel duplicates the trigger");

    let mut expected = MergeTable::new();
    expected.insert_batch(subwindow, afrs.clone());
    // The one threaded reliable end-to-end run: same outcome whether
    // one shard or eight fold it.
    for shards in [1usize, 8] {
        let store = afrs.clone();
        let ctl = ReliableLiveController::spawn_sharded_obs(
            4,
            64,
            RetryPolicy::default(),
            Box::new(move |_, seqs: &[u32]| seqs.iter().map(|&s| store[s as usize]).collect()),
            Box::new(|_| panic!("no escalation expected")),
            shards,
            None,
        );
        for &sw in &trigger_copies {
            ctl.sender
                .send(ReliableMsg::Announce {
                    subwindow: sw,
                    announced: afrs.len() as u32,
                })
                .unwrap();
        }
        ctl.sender
            .send(ReliableMsg::AfrBlock(RecordBlock::from_records(
                subwindow,
                &afrs[3..],
            )))
            .unwrap();
        ctl.sender
            .send(ReliableMsg::EndOfStream { subwindow })
            .unwrap();
        // A third clone of the trigger straggles in after the session
        // merged: it must not re-open the sub-window and merge it again.
        ctl.sender
            .send(ReliableMsg::Announce {
                subwindow,
                announced: afrs.len() as u32,
            })
            .unwrap();
        let handle = ctl.handle.clone();
        let metrics = ctl.join();
        assert_eq!(handle.shard_count(), shards);
        assert_eq!(handle.subwindows(), vec![subwindow]);

        // One session, announced counted once, table exact.
        assert_eq!(metrics.announced, afrs.len() as u64);
        assert_eq!(
            (metrics.first_pass, metrics.recovered),
            (afrs.len() as u64 - 3, 3)
        );
        assert_eq!(handle.snapshot(), expected.snapshot(), "{shards} shards");
    }
}

/// A retransmitted AFR crosses its original in flight: both arrive. The
/// session stays idempotent, the duplicate is counted and discarded, and
/// the batch is exact.
#[test]
fn retransmitted_afr_crossing_original_is_discarded() {
    struct CrossingPath {
        store: Vec<FlowRecord>,
        straggler: FlowRecord,
    }
    impl AfrTransport for CrossingPath {
        fn initial_afrs(&mut self, _sw: u32) -> Vec<FlowRecord> {
            // seq 1's original is "delayed", not lost: it shows up later.
            self.store.iter().filter(|r| r.seq != 1).copied().collect()
        }
        fn request_retransmit(&mut self, _sw: u32, seqs: &[u32]) -> Vec<FlowRecord> {
            // The replay arrives together with the delayed original.
            let mut out: Vec<FlowRecord> = seqs.iter().map(|&s| self.store[s as usize]).collect();
            out.push(self.straggler);
            out
        }
        fn os_read(&mut self, _sw: u32) -> (Vec<FlowRecord>, Duration) {
            panic!("no escalation expected");
        }
    }

    let (_sw, subwindow, afrs) = switch_with_one_batch();
    let mut transport = CrossingPath {
        straggler: afrs[1],
        store: afrs.clone(),
    };
    let out = ReliabilityDriver::new(RetryPolicy::default()).collect(
        &mut transport,
        subwindow,
        afrs.len() as u32,
    );
    assert_eq!(out.batch, afrs, "exactly one copy of each seq survives");
    assert_eq!(out.metrics.recovered, 1);
    assert_eq!(out.metrics.duplicates, 1, "the crossed copy was discarded");
    assert_eq!(out.metrics.retransmit_rounds, 1);
}

/// Every retransmission round fails; after `max_rounds` the controller
/// escalates to the switch-OS read, which charges its (much larger)
/// latency but always completes the batch.
#[test]
fn escalation_after_max_rounds_reads_switch_os() {
    struct DeadBackchannel<'a> {
        switch: &'a mut Switch<App>,
        initial: Vec<FlowRecord>,
    }
    impl AfrTransport for DeadBackchannel<'_> {
        fn initial_afrs(&mut self, _sw: u32) -> Vec<FlowRecord> {
            std::mem::take(&mut self.initial)
        }
        fn request_retransmit(&mut self, _sw: u32, _seqs: &[u32]) -> Vec<FlowRecord> {
            Vec::new() // every round is lost
        }
        fn os_read(&mut self, sw: u32) -> (Vec<FlowRecord>, Duration) {
            self.switch.os_read_terminated(sw).expect("retained")
        }
    }

    let (mut sw, subwindow, afrs) = switch_with_one_batch();
    let initial: Vec<FlowRecord> = afrs.iter().take(2).copied().collect();
    let policy = RetryPolicy {
        max_rounds: 3,
        ..RetryPolicy::default()
    };
    let mut transport = DeadBackchannel {
        switch: &mut sw,
        initial,
    };
    let out = ReliabilityDriver::new(policy).collect(&mut transport, subwindow, afrs.len() as u32);
    assert_eq!(out.batch, afrs);
    assert!(out.escalated);
    assert_eq!(out.metrics.retransmit_rounds, 3);
    assert_eq!(out.metrics.escalations, 1);
    // The OS path dominates the wall clock: far beyond the waited
    // timeouts (3 rounds ≤ 3 × max_timeout = 15 ms; the OS read of this
    // region costs hundreds of milliseconds).
    let timeouts = (1..=3).fold(Duration::ZERO, |acc, r| acc + policy.timeout_for_round(r));
    assert!(out.metrics.wall_clock > timeouts + Duration::from_millis(100));
    // The escalation consumed the retained copy.
    assert!(
        sw.retransmit_buffer().retained().is_empty()
            || !sw.retransmit_buffer().retained().contains(&subwindow)
    );
}

/// Hopping windows (slide larger than one sub-window but smaller than
/// the window): G2's "move forward by any distance", directly from the
/// same sub-windows.
#[test]
fn hopping_windows_from_subwindows() {
    use omniwindow::app::HeavyHitterApp;
    use omniwindow::config::WindowConfig;
    use omniwindow::mechanisms::{run_ideal, run_omniwindow, Mode};
    use ow_trace::Trace;

    // Window 500 ms hopping by 200 ms over 100 ms sub-windows.
    let cfg = WindowConfig::new(
        Duration::from_millis(500),
        Duration::from_millis(200),
        Duration::from_millis(100),
    )
    .unwrap();
    assert_eq!(cfg.subwindows_per_slide(), 2);

    let mut packets = Vec::new();
    for i in 0..120u64 {
        packets.push(pkt(7, i * 10)); // 10 packets / 100ms, 1.2s
    }
    let trace = Trace {
        packets,
        duration: Duration::from_millis(1_200),
    };
    let app = HeavyHitterApp::mv(45);

    let ideal = run_ideal(&app, &trace, &cfg, Mode::Sliding);
    let ow = run_omniwindow(&app, &trace, &cfg, Mode::Sliding, 64 * 1024, 3);
    // Positions: starts at 0,200,400,600 ms (700 ms start would exceed).
    assert_eq!(ideal.len(), 4);
    assert_eq!(ow.len(), 4);
    let key = pkt(7, 0).five_tuple();
    for (i, o) in ideal.iter().zip(ow.iter()) {
        // 50 packets per 500 ms window ≥ 45 → reported at every position.
        assert_eq!(i.reported.contains(&key), o.reported.contains(&key));
        assert!(o.reported.contains(&key));
    }
}

/// The Exp#9 extension: local-clock precision decays with path length;
/// OmniWindow's stamps do not.
#[test]
fn consistency_error_amplifies_with_hops() {
    use omniwindow::experiments::exp9_consistency::{run_hop_sweep, Exp9Config};
    let cfg = Exp9Config {
        flows: 120,
        pkts_per_flow: 25,
        ..Exp9Config::default()
    };
    let sweep = run_hop_sweep(&cfg, 64, &[2, 4]);
    assert_eq!(sweep.len(), 2);
    for p in &sweep {
        assert_eq!(p.omniwindow_precision, 1.0, "{} hops", p.hops);
    }
    assert!(
        sweep[1].local_clock_precision < sweep[0].local_clock_precision,
        "{} → {}",
        sweep[0].local_clock_precision,
        sweep[1].local_clock_precision
    );
}

/// Out-of-order arrival at a transit switch within the preservation
/// horizon: the straggler is measured in its stamped sub-window, and the
/// AFR batch for that sub-window includes it.
#[test]
fn straggler_counted_in_its_stamped_subwindow() {
    let mut transit = mk_switch(false);
    let mut events = Vec::new();
    // Sub-window 1 packets arrive…
    for i in 0..10u64 {
        let mut p = pkt(5, 110 + i);
        p.ow.subwindow = 1;
        transit.process_into(p, &mut events);
    }
    // …then the switch is pushed to sub-window 2…
    let mut p2 = pkt(6, 210);
    p2.ow.subwindow = 2;
    transit.process_into(p2, &mut events);
    // …and a straggler stamped 1 arrives 800 µs later — before the
    // delayed C&R (cr_wait = 1 ms) reclaims sub-window 1's region, so the
    // preservation horizon still holds it.
    let mut late = pkt(5, 210);
    late.ts = Instant::from_micros(210_800);
    late.ow.subwindow = 1;
    transit.process_into(late, &mut events);

    events.extend(transit.flush());
    let counts = batch_counts(&events, FlowKey::src_ip(5));
    assert_eq!(counts.get(&1), Some(&11), "straggler joined sub-window 1");
}

/// A denial test for the AttrValue protocol: merging mismatched patterns
/// through the whole pipeline is rejected, not silently corrupted.
#[test]
fn mismatched_attr_patterns_rejected_everywhere() {
    let mut a = AttrValue::Frequency(1);
    assert!(a.merge(&AttrValue::Max(2)).is_err());
    let mut b = AttrValue::Signed(1);
    assert!(b.merge(&AttrValue::Frequency(1)).is_err());
    assert!(b.unmerge_frequency(&AttrValue::Signed(1)).is_err());
}
