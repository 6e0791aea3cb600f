//! Cross-crate integration tests: the full protocol path from packets
//! through the switch model to the controller's merged results.

use ow_common::afr::AttrValue;
use ow_common::flowkey::{FlowKey, KeyKind};
use ow_common::packet::{Packet, TcpFlags};
use ow_common::time::{Duration, Instant};
use ow_controller::collector::{CollectionSession, SessionStatus};
use ow_controller::reliability::{ReliabilityDriver, RetryPolicy};
use ow_controller::table::MergeTable;
use ow_netsim::{FaultConfig, LossyChannel, PacketClass};
use ow_sketch::CountMin;
use ow_switch::app::FrequencyApp;
use ow_switch::signal::WindowSignal;
use ow_switch::{Switch, SwitchConfig, SwitchEvent};
use ow_verify::verified_switch;

type App = FrequencyApp<CountMin>;

fn mk_switch(first_hop: bool, fk_capacity: usize) -> Switch<App> {
    let app = |s| FrequencyApp::new(CountMin::new(2, 8192, s), KeyKind::SrcIp, false);
    verified_switch(
        SwitchConfig {
            first_hop,
            fk_capacity,
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

/// Drive a trace through the switch, feed every AFR batch through a
/// reliability session into the merge table, and return the table.
fn run_pipeline(switch: &mut Switch<App>, packets: Vec<Packet>) -> MergeTable {
    let mut table = MergeTable::new();
    let mut events = Vec::new();
    for p in packets {
        switch.process_into(p, &mut events);
    }
    events.extend(switch.flush());

    let mut announced: std::collections::HashMap<u32, u32> = std::collections::HashMap::new();
    for e in &events {
        if let SwitchEvent::Trigger {
            ended,
            tracked_keys,
            ..
        } = e
        {
            announced.insert(*ended, *tracked_keys);
        }
    }
    for e in events {
        if let SwitchEvent::AfrBatch {
            subwindow, outcome, ..
        } = e
        {
            // The reliability path: a session checks the batch against
            // the trigger's announced key count before merging.
            let expect = announced.get(&subwindow).copied().unwrap_or(0);
            let mut session =
                CollectionSession::new(subwindow, expect.min(outcome.afrs.len() as u32));
            for afr in &outcome.afrs {
                session.receive(*afr).expect("AFR for right sub-window");
            }
            assert_eq!(session.status(), SessionStatus::Complete);
            table.insert_batch(subwindow, session.into_batch());
        }
    }
    table
}

#[test]
fn end_to_end_counts_are_exact_without_contention() {
    let mut sw = mk_switch(true, 4096);
    let mut packets = Vec::new();
    // Host 5 sends 37 packets per sub-window for 5 sub-windows; host 6
    // sends 3 per sub-window.
    for s in 0..5u64 {
        for i in 0..37 {
            packets.push(pkt(5, s * 100 + 1 + i * 2));
        }
        for i in 0..3 {
            packets.push(pkt(6, s * 100 + 50 + i));
        }
    }
    packets.sort_by_key(|p| p.ts);
    let table = run_pipeline(&mut sw, packets);

    assert_eq!(
        table.get(&FlowKey::src_ip(5)),
        Some(AttrValue::Frequency(37 * 5))
    );
    assert_eq!(
        table.get(&FlowKey::src_ip(6)),
        Some(AttrValue::Frequency(15))
    );
    // Threshold query over the merged window.
    let heavy = table.flows_over(100.0);
    assert_eq!(heavy.len(), 1);
    assert_eq!(heavy[0].0, FlowKey::src_ip(5));
}

#[test]
fn overflow_keys_still_produce_afrs() {
    // fk_buffer of 2: keys overflow to the controller (Algorithm 1
    // lines 5-6) yet every flow's AFR must still be generated.
    let mut sw = mk_switch(true, 2);
    let mut packets = Vec::new();
    for src in 1..=10u32 {
        for i in 0..5 {
            packets.push(pkt(src, 10 + i));
        }
    }
    packets.sort_by_key(|p| p.ts);
    let table = run_pipeline(&mut sw, packets);
    for src in 1..=10u32 {
        assert_eq!(
            table.get(&FlowKey::src_ip(src)),
            Some(AttrValue::Frequency(5)),
            "flow {src}"
        );
    }
}

#[test]
fn boundary_flow_crosses_threshold_only_after_merging() {
    // The paper's §4.1 example end-to-end: 60 packets in one sub-window
    // and 80 in the next; threshold 100.
    let mut sw = mk_switch(true, 4096);
    let mut packets = Vec::new();
    for i in 0..60u64 {
        packets.push(pkt(42, 30 + i));
    }
    for i in 0..80u64 {
        packets.push(pkt(42, 110 + i));
    }
    let table = run_pipeline(&mut sw, packets);
    assert_eq!(
        table.get(&FlowKey::src_ip(42)),
        Some(AttrValue::Frequency(140))
    );
    assert!(!table.flows_over(100.0).is_empty());
}

#[test]
fn transit_switch_agrees_with_first_hop() {
    // Two switches in series: the first stamps, the second adopts. Both
    // must attribute every packet to the same sub-window.
    let mut first = mk_switch(true, 4096);
    let mut second = mk_switch(false, 4096);

    let mut first_batches: std::collections::HashMap<u32, u64> = Default::default();
    let mut second_batches: std::collections::HashMap<u32, u64> = Default::default();

    let mut downstream = Vec::new();
    for s in 0..4u64 {
        for i in 0..25 {
            let p = pkt(7, s * 100 + 1 + i * 3);
            for e in first.process(p) {
                match e {
                    SwitchEvent::Forward(fp) => downstream.push(fp),
                    SwitchEvent::AfrBatch {
                        subwindow, outcome, ..
                    } => {
                        let v = outcome
                            .afrs
                            .iter()
                            .find(|r| r.key == FlowKey::src_ip(7))
                            .map(|r| r.attr.scalar() as u64)
                            .unwrap_or(0);
                        first_batches.insert(subwindow, v);
                    }
                    _ => {}
                }
            }
        }
    }
    for e in first.flush() {
        if let SwitchEvent::AfrBatch {
            subwindow, outcome, ..
        } = e
        {
            let v = outcome
                .afrs
                .iter()
                .find(|r| r.key == FlowKey::src_ip(7))
                .map(|r| r.attr.scalar() as u64)
                .unwrap_or(0);
            first_batches.insert(subwindow, v);
        }
    }

    // Downstream packets arrive 30µs later (transit delay) — without the
    // embedded stamp, boundary packets would shift sub-windows.
    for mut p in downstream {
        p.ts += Duration::from_micros(30);
        for e in second.process(p) {
            if let SwitchEvent::AfrBatch {
                subwindow, outcome, ..
            } = e
            {
                let v = outcome
                    .afrs
                    .iter()
                    .find(|r| r.key == FlowKey::src_ip(7))
                    .map(|r| r.attr.scalar() as u64)
                    .unwrap_or(0);
                second_batches.insert(subwindow, v);
            }
        }
    }
    for e in second.flush() {
        if let SwitchEvent::AfrBatch {
            subwindow, outcome, ..
        } = e
        {
            let v = outcome
                .afrs
                .iter()
                .find(|r| r.key == FlowKey::src_ip(7))
                .map(|r| r.attr.scalar() as u64)
                .unwrap_or(0);
            second_batches.insert(subwindow, v);
        }
    }

    // Same per-sub-window counts on both switches — the consistency
    // guarantee that makes network-wide telemetry interpretable.
    for (sw, v1) in &first_batches {
        let v2 = second_batches.get(sw).copied().unwrap_or(0);
        assert_eq!(*v1, v2, "sub-window {sw}: {v1} upstream vs {v2} downstream");
    }
}

/// The controller's end of a lossy fabric: the switch's retransmit
/// handlers spliced behind an `ow-netsim` fault channel. Initial AFR
/// streams are pre-transmitted (lowest priority, lossy); retransmission
/// requests and their replies cross the channel too; the OS read is the
/// reliable fallback.
struct LossySwitchTransport<'a> {
    switch: &'a mut Switch<App>,
    channel: LossyChannel,
    initial: std::collections::HashMap<u32, Vec<ow_common::afr::FlowRecord>>,
}

impl ow_controller::reliability::AfrTransport for LossySwitchTransport<'_> {
    fn initial_afrs(&mut self, subwindow: u32) -> Vec<ow_common::afr::FlowRecord> {
        self.initial.remove(&subwindow).unwrap_or_default()
    }
    fn request_retransmit(
        &mut self,
        subwindow: u32,
        seqs: &[u32],
    ) -> Vec<ow_common::afr::FlowRecord> {
        // The request packet itself can be lost.
        if self
            .channel
            .transmit_one(PacketClass::RetransmitRequest, ())
            .is_empty()
        {
            return Vec::new();
        }
        let replayed = self.switch.handle_retransmit_request(subwindow, seqs);
        self.channel.transmit(PacketClass::RetransmitData, replayed)
    }
    fn os_read(&mut self, subwindow: u32) -> (Vec<ow_common::afr::FlowRecord>, Duration) {
        self.switch
            .os_read_terminated(subwindow)
            .expect("switch retains unacknowledged batches")
    }
}

#[test]
fn lossy_channel_recovers_byte_identical_merge_table() {
    // CI varies this seed across a small matrix (see ci.yml); any value
    // must converge to the loss-free result.
    let seed_offset: u64 = std::env::var("OW_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);

    let mk_packets = || {
        let mut packets = Vec::new();
        for s in 0..6u64 {
            for src in 1..=40u32 {
                for i in 0..(1 + src as u64 % 5) {
                    packets.push(pkt(src, s * 100 + 1 + i * 7 + src as u64 % 13));
                }
            }
        }
        packets.sort_by_key(|p| p.ts);
        packets
    };

    // Reference: the same trace through an identical switch with a
    // perfect channel.
    let mut reference: Vec<(u32, Vec<ow_common::afr::FlowRecord>)> = Vec::new();
    let mut sw = mk_switch(true, 4096);
    let mut events = Vec::new();
    for p in mk_packets() {
        sw.process_into(p, &mut events);
    }
    events.extend(sw.flush());
    for e in events {
        if let SwitchEvent::AfrBatch {
            subwindow, outcome, ..
        } = e
        {
            reference.push((subwindow, outcome.afrs));
        }
    }
    let mut loss_free = MergeTable::new();
    for (subwindow, afrs) in &reference {
        loss_free.insert_batch(*subwindow, afrs.clone());
    }

    for (i, loss) in [0.01f64, 0.10, 0.30].into_iter().enumerate() {
        let mut sw = mk_switch(true, 4096);
        let mut events = Vec::new();
        for p in mk_packets() {
            sw.process_into(p, &mut events);
        }
        events.extend(sw.flush());

        let mut batches = Vec::new();
        for e in events {
            if let SwitchEvent::AfrBatch {
                subwindow, outcome, ..
            } = e
            {
                batches.push((subwindow, outcome.afrs));
            }
        }

        // Drop `loss` of the AFR clones; the recovery path is reliable
        // except at 30 %, where requests get lost too.
        let mut cfg = FaultConfig::afr_loss(0xFA_u64 + i as u64 + seed_offset * 101, loss);
        if loss >= 0.30 {
            cfg.retransmit_request.loss = 0.2;
            cfg.retransmit_data.loss = 0.1;
        }
        let mut channel = LossyChannel::new(cfg);
        let mut initial = std::collections::HashMap::new();
        for (subwindow, afrs) in &batches {
            initial.insert(
                *subwindow,
                channel.transmit(PacketClass::AfrReport, afrs.clone()),
            );
        }

        let mut transport = LossySwitchTransport {
            switch: &mut sw,
            channel,
            initial,
        };
        let driver = ReliabilityDriver::new(RetryPolicy::default());
        let mut table = MergeTable::new();
        let mut total = ow_common::metrics::ReliabilityMetrics::default();
        for (idx, (subwindow, afrs)) in batches.iter().enumerate() {
            let out = driver.collect(&mut transport, *subwindow, afrs.len() as u32);
            // The recovered batch is byte-identical on the wire to the
            // loss-free batch of the reference run.
            assert_eq!(
                ow_controller::wire::encode_batch(&out.batch),
                ow_controller::wire::encode_batch(&reference[idx].1),
                "loss {loss}: sub-window {subwindow} batch diverged"
            );
            transport.switch.ack_collection(*subwindow);
            total.merge(&out.metrics);
            table.insert_batch(*subwindow, out.batch);
        }

        // The merged tables agree exactly: same sub-windows, same flows,
        // same merged values.
        assert_eq!(table.subwindows(), loss_free.subwindows(), "loss {loss}");
        assert_eq!(table.len(), loss_free.len(), "loss {loss}");
        let mut lossy_flows = table.flows_over(0.0);
        let mut free_flows = loss_free.flows_over(0.0);
        lossy_flows.sort_by_key(|(k, _)| k.as_u128());
        free_flows.sort_by_key(|(k, _)| k.as_u128());
        assert_eq!(lossy_flows, free_flows, "loss {loss}");

        // The reliability loop did real, observable work.
        assert_eq!(
            total.announced,
            reference.iter().map(|(_, b)| b.len() as u64).sum::<u64>()
        );
        if loss >= 0.10 {
            assert!(total.retransmit_rounds > 0, "loss {loss}: no rounds");
            assert!(total.recovered > 0, "loss {loss}: nothing recovered");
            assert!(
                total.wall_clock > Duration::ZERO,
                "loss {loss}: recovery cost no time"
            );
            assert!(total.first_pass_loss() > 0.0, "loss {loss}");
        }
        assert!(
            total.first_pass + total.recovered <= total.announced,
            "loss {loss}: counters overflow the announced total"
        );
    }
}

#[test]
fn header_stamps_survive_wire_roundtrip() {
    // The sub-window stamp must survive serialisation between switches.
    let mut first = mk_switch(true, 1024);
    let p = pkt(9, 250);
    let forwarded = first
        .process(p)
        .into_iter()
        .find_map(|e| match e {
            SwitchEvent::Forward(fp) => Some(fp),
            _ => None,
        })
        .expect("forwarded");
    assert_eq!(forwarded.ow.subwindow, 2);
    let wire = forwarded.ow.encode();
    let decoded = ow_common::packet::OwHeader::decode(wire).unwrap();
    assert_eq!(decoded, forwarded.ow);
}
