//! A literal walk through OmniWindow's switch protocol: Algorithm 1
//! (flowkey tracking), the trigger packet, Algorithm 2 (AFR generation
//! by recirculating collection packets), and the in-switch reset (§4.3)
//! — followed by the same flow end-to-end through the composed
//! [`ow_switch::Switch`] and a live threaded controller.
//!
//! Run with: `cargo run --release --example switch_protocol`

use ow_common::block::RecordBlock;
use ow_common::flowkey::KeyKind;
use ow_common::packet::{OwFlag, Packet, TcpFlags};
use ow_common::time::{Duration, Instant};
use ow_controller::live::{DataPlaneMsg, LiveController};
use ow_sketch::CountMin;
use ow_switch::app::{DataPlaneApp, FrequencyApp};
use ow_switch::collect::{make_collection_packets, PacketCollector, PassResult};
use ow_switch::flowkey::FlowkeyTracker;
use ow_switch::signal::WindowSignal;
use ow_switch::{SwitchConfig, SwitchEvent};
use ow_verify::verified_switch;

fn main() {
    // ------------------------------------------------------------------
    // Part 1: Algorithm 2, one recirculation pass at a time.
    // ------------------------------------------------------------------
    println!("— Algorithm 2, literally —");
    let mut app = FrequencyApp::new(CountMin::new(2, 256, 1), KeyKind::SrcIp, false);
    let mut tracker = FlowkeyTracker::new(16, 64, 2);
    for (src, n) in [(10u32, 3u64), (20, 7), (30, 1)] {
        for _ in 0..n {
            let p = Packet::tcp(Instant::ZERO, src, 99, 1, 80, TcpFlags::ack(), 64);
            app.update(&p);
        }
        tracker.track(&ow_common::flowkey::FlowKey::src_ip(src));
    }
    println!("sub-window tracked {} flowkeys", tracker.total_tracked());

    let mut pc = PacketCollector::new(0);
    let mut pkts = make_collection_packets(1, 0, Instant::ZERO);
    let p = &mut pkts[0];
    loop {
        match pc.pass(p, &mut app, &tracker) {
            PassResult::Report { key, afr_value, .. } => println!(
                "  collection pass {}: AFR {{key: {}, count: {}}} cloned to controller",
                pc.enumerated(),
                key,
                afr_value
            ),
            PassResult::BecameReset => {
                println!("  enumeration done → packet converted to clear packet");
                assert_eq!(p.ow.flag, OwFlag::Reset);
            }
            PassResult::ResetPass { index } => {
                if index == 0 || (index + 1) % 128 == 0 {
                    println!("  reset pass clears index {index} of every register");
                }
            }
            PassResult::Done => break,
        }
    }
    println!(
        "  reset swept {} slots; state cleared ✓\n",
        pc.reset_passes()
    );

    // ------------------------------------------------------------------
    // Part 2: the composed switch feeding a live threaded controller.
    // ------------------------------------------------------------------
    println!("— Composed switch + live controller —");
    let mk_app = |s| FrequencyApp::new(CountMin::new(2, 4096, s), KeyKind::SrcIp, false);
    let mut switch = verified_switch(
        SwitchConfig {
            signal: WindowSignal::Timeout(Duration::from_millis(100)),
            fk_capacity: 1024,
            expected_flows: 4096,
            ..SwitchConfig::default()
        },
        mk_app(1),
        mk_app(2),
    )
    .expect("pipeline verifies");
    let controller = LiveController::spawn_sharded_obs(5, 64, 1, None);

    // 4 sub-windows of traffic: host 77 sends 40 packets per sub-window.
    let mut events = Vec::new();
    for sw in 0..4u64 {
        for i in 0..40 {
            let ts = Instant::from_millis(sw * 100 + 2 + i * 2);
            for src in [77, 1000 + i as u32] {
                let p = Packet::tcp(ts, src, 9, 1, 80, TcpFlags::ack(), 64);
                switch.process_into(p, &mut events);
            }
        }
    }
    events.extend(switch.flush());

    let mut batches = 0;
    for e in events {
        match e {
            SwitchEvent::Trigger {
                ended,
                tracked_keys,
                ..
            } => {
                println!("  trigger: sub-window {ended} ended with {tracked_keys} keys");
            }
            SwitchEvent::AfrBatch {
                subwindow, outcome, ..
            } => {
                println!(
                    "  C&R for sub-window {subwindow}: {} AFRs in {} (+ reset {})",
                    outcome.afrs.len(),
                    outcome.collect_time,
                    outcome.reset_time
                );
                controller
                    .sender
                    .send(DataPlaneMsg::AfrBlock {
                        block: RecordBlock::from_records(subwindow, &outcome.afrs),
                        seal: true,
                    })
                    .unwrap();
                batches += 1;
            }
            _ => {}
        }
    }
    let handle = controller.handle.clone();
    let processed = controller.join();
    assert_eq!(processed, batches);

    let heavy = handle.flows_over(100.0);
    println!(
        "  live table merged {} flows; ≥100 packets across the window: {:?}",
        handle.merged_flows(),
        heavy
            .iter()
            .map(|(k, v)| format!("{k} = {v}"))
            .collect::<Vec<_>>()
    );
    // Host 77 sent 160 packets across four sub-windows — only the merge
    // across sub-windows can see that.
    assert_eq!(heavy.len(), 1);
    println!("\nfull protocol round-trip verified ✓");
}
