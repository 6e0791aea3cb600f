//! The §8 reliability loop, end to end: a trace runs through the switch
//! model, the AFR clones cross a seeded lossy channel, and the
//! controller's reliability driver repairs every batch — by exact-seq
//! retransmission when the backchannel works, by a (slow, charged)
//! switch-OS read when it doesn't — until the merged window equals the
//! loss-free result exactly.
//!
//! Run with: `cargo run --release --example lossy_afr_recovery`
//! Options:  `-- [--loss 0.3] [--seed 7] [--dead-backchannel]`

use std::collections::HashMap;

use ow_common::afr::FlowRecord;
use ow_common::flowkey::KeyKind;
use ow_common::metrics::ReliabilityMetrics;
use ow_common::packet::{Packet, TcpFlags};
use ow_common::time::{Duration, Instant};
use ow_controller::reliability::{AfrTransport, ReliabilityDriver, RetryPolicy};
use ow_controller::table::MergeTable;
use ow_netsim::{FaultConfig, LossyChannel, PacketClass};
use ow_sketch::CountMin;
use ow_switch::app::FrequencyApp;
use ow_switch::signal::WindowSignal;
use ow_switch::{Switch, SwitchConfig, SwitchEvent};
use ow_verify::verified_switch;

type App = FrequencyApp<CountMin>;

fn mk_switch() -> Switch<App> {
    let app = |s| FrequencyApp::new(CountMin::new(2, 8192, s), KeyKind::SrcIp, false);
    verified_switch(
        SwitchConfig {
            first_hop: true,
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

fn trace() -> Vec<Packet> {
    let mut packets = Vec::new();
    for s in 0..6u64 {
        for src in 1..=40u32 {
            for i in 0..(1 + src as u64 % 5) {
                packets.push(Packet::tcp(
                    Instant::from_millis(s * 100 + 1 + i * 7 + src as u64 % 13),
                    src,
                    9,
                    1,
                    80,
                    TcpFlags::ack(),
                    64,
                ));
            }
        }
    }
    packets.sort_by_key(|p| p.ts);
    packets
}

fn collect_batches(sw: &mut Switch<App>) -> Vec<(u32, Vec<FlowRecord>)> {
    let mut events = Vec::new();
    for p in trace() {
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
    batches
}

/// The switch's retransmit handlers behind the fault channel. With
/// `dead_backchannel` every retransmission request is swallowed, so the
/// driver must fall back to the switch-OS read.
struct Transport<'a> {
    switch: &'a mut Switch<App>,
    channel: LossyChannel,
    initial: HashMap<u32, Vec<FlowRecord>>,
    dead_backchannel: bool,
}

impl AfrTransport for Transport<'_> {
    fn initial_afrs(&mut self, subwindow: u32) -> Vec<FlowRecord> {
        self.initial.remove(&subwindow).unwrap_or_default()
    }
    fn request_retransmit(&mut self, subwindow: u32, seqs: &[u32]) -> Vec<FlowRecord> {
        if self.dead_backchannel
            || self
                .channel
                .transmit_one(PacketClass::RetransmitRequest, ())
                .is_empty()
        {
            return Vec::new();
        }
        let replayed = self.switch.handle_retransmit_request(subwindow, seqs);
        self.channel.transmit(PacketClass::RetransmitData, replayed)
    }
    fn os_read(&mut self, subwindow: u32) -> (Vec<FlowRecord>, Duration) {
        self.switch
            .os_read_terminated(subwindow)
            .expect("switch retains unacknowledged batches")
    }
}

fn main() {
    let mut loss = 0.30f64;
    let mut seed = 7u64;
    let mut dead_backchannel = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--loss" => {
                let v = args.next().unwrap_or_default();
                loss = match v.parse() {
                    Ok(x) if (0.0..1.0).contains(&x) => x,
                    _ => {
                        eprintln!("error: --loss needs a rate in [0, 1), got {v:?}");
                        std::process::exit(2);
                    }
                };
            }
            "--seed" => {
                let v = args.next().unwrap_or_default();
                seed = match v.parse() {
                    Ok(x) => x,
                    _ => {
                        eprintln!("error: --seed needs a u64, got {v:?}");
                        std::process::exit(2);
                    }
                };
            }
            "--dead-backchannel" => dead_backchannel = true,
            other => {
                eprintln!("error: unknown option {other:?}");
                eprintln!("usage: lossy_afr_recovery [--loss 0.3] [--seed 7] [--dead-backchannel]");
                std::process::exit(2);
            }
        }
    }

    // Loss-free reference run.
    let reference = collect_batches(&mut mk_switch());
    let mut loss_free = MergeTable::new();
    for (subwindow, afrs) in &reference {
        loss_free.insert_batch(*subwindow, afrs.clone());
    }

    // Lossy run: the identical switch, but every AFR clone crosses the
    // fault channel (and at high loss the recovery path is lossy too).
    let mut sw = mk_switch();
    let batches = collect_batches(&mut sw);
    let mut cfg = FaultConfig::afr_loss(seed, loss);
    cfg.afr.duplicate = 0.05;
    cfg.afr.reorder = 0.10;
    if loss >= 0.30 {
        cfg.retransmit_request.loss = 0.2;
        cfg.retransmit_data.loss = 0.1;
    }
    let mut channel = LossyChannel::new(cfg);
    let mut initial = HashMap::new();
    for (subwindow, afrs) in &batches {
        initial.insert(
            *subwindow,
            channel.transmit(PacketClass::AfrReport, afrs.clone()),
        );
    }

    println!(
        "— AFR recovery over a lossy channel (loss {:.0}%, seed {seed}{}) —",
        loss * 100.0,
        if dead_backchannel {
            ", dead backchannel"
        } else {
            ""
        }
    );
    let mut transport = Transport {
        switch: &mut sw,
        channel,
        initial,
        dead_backchannel,
    };
    let driver = ReliabilityDriver::new(RetryPolicy::default());
    let mut table = MergeTable::new();
    let mut total = ReliabilityMetrics::default();
    for (subwindow, afrs) in &batches {
        let out = driver.collect(&mut transport, *subwindow, afrs.len() as u32);
        println!(
            "  sub-window {subwindow}: {} announced, {} first pass, {} recovered in {} round(s){}, {:>7} to complete",
            out.metrics.announced,
            out.metrics.first_pass,
            out.metrics.recovered,
            out.metrics.retransmit_rounds,
            if out.escalated { " + OS read" } else { "" },
            format!("{:.1}ms", out.metrics.wall_clock.as_millis_f64()),
        );
        transport.switch.ack_collection(*subwindow);
        total.merge(&out.metrics);
        table.insert_batch(*subwindow, out.batch);
    }

    let drops = transport.channel.stats().total_dropped();
    println!("\nchannel dropped {drops} packets across all classes");
    println!(
        "totals: {} AFRs announced, {:.1}% lost on first pass, {} recovered, \
         {} retransmission request(s), {} escalation(s), {:.1}ms total recovery time",
        total.announced,
        total.first_pass_loss() * 100.0,
        total.recovered,
        total.retransmit_requests,
        total.escalations,
        total.wall_clock.as_millis_f64(),
    );

    // The merged window must equal the loss-free one exactly.
    let mut lossy_flows = table.flows_over(0.0);
    let mut free_flows = loss_free.flows_over(0.0);
    lossy_flows.sort_by_key(|(k, _)| k.as_u128());
    free_flows.sort_by_key(|(k, _)| k.as_u128());
    assert_eq!(table.subwindows(), loss_free.subwindows());
    assert_eq!(lossy_flows, free_flows);
    println!(
        "merged table identical to the loss-free run ({} flows, {} sub-windows) ✓",
        table.len(),
        table.subwindows().len()
    );
}
