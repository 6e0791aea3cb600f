//! Variable-size windows: examining a suspicious flow's whole lifetime
//! (the §2 workflow that motivates requirement G1).
//!
//! A sliding window flags suspicious flows; because the controller
//! retains per-sub-window AFR batches, each flagged flow can then be
//! examined over a window sized to *its own* lifetime — different flows,
//! different window sizes, no re-measurement.
//!
//! Run with: `cargo run --release --example suspicious_lifetime`

use omniwindow::lifetime::LifetimeInspector;
use ow_common::afr::FlowRecord;
use ow_common::flowkey::{FlowKey, KeyKind};
use ow_common::packet::{Packet, TcpFlags};
use ow_common::time::{Duration, Instant};
use ow_sketch::CountMin;
use ow_switch::app::FrequencyApp;
use ow_switch::signal::WindowSignal;
use ow_switch::{SwitchConfig, SwitchEvent};
use ow_verify::verified_switch;

fn main() {
    // Two "suspicious" flows with different lifetimes among background:
    // flow A bursts for 250 ms, flow B trickles for 800 ms.
    let mut packets = Vec::new();
    for i in 0..150u64 {
        packets.push(Packet::tcp(
            Instant::from_nanos(100_000_000 + i * 250_000_000 / 150),
            0xAA,
            9,
            1,
            80,
            TcpFlags::ack(),
            64,
        ));
    }
    for i in 0..160u64 {
        packets.push(Packet::tcp(
            Instant::from_nanos(50_000_000 + i * 5_000_000),
            0xBB,
            9,
            1,
            80,
            TcpFlags::ack(),
            64,
        ));
    }
    for f in 0..50u32 {
        for s in 0..9u64 {
            packets.push(Packet::tcp(
                Instant::from_millis(s * 100 + (f as u64) % 90),
                1000 + f,
                9,
                1,
                80,
                TcpFlags::ack(),
                64,
            ));
        }
    }
    packets.sort_by_key(|p| p.ts);

    // Run the switch; retain every AFR batch in a lifetime inspector.
    let app = |s| FrequencyApp::new(CountMin::new(2, 8192, s), KeyKind::SrcIp, false);
    let mut switch = verified_switch(
        SwitchConfig {
            signal: WindowSignal::Timeout(Duration::from_millis(100)),
            fk_capacity: 4096,
            expected_flows: 8192,
            ..SwitchConfig::default()
        },
        app(1),
        app(2),
    )
    .expect("pipeline verifies");
    let mut inspector = LifetimeInspector::new();
    let mut batches: Vec<(u32, Vec<FlowRecord>)> = Vec::new();
    let mut events = Vec::new();
    for p in packets {
        switch.process_into(p, &mut events);
    }
    events.extend(switch.flush());
    for e in events {
        if let SwitchEvent::AfrBatch {
            subwindow, outcome, ..
        } = e
        {
            batches.push((subwindow, outcome.afrs.clone()));
            inspector.insert_batch(subwindow, outcome.afrs);
        }
    }
    println!(
        "retained {} sub-window batches at the controller",
        batches.len()
    );

    // Detection: any flow with ≥ 100 packets in some sub-window span of 3.
    let mut suspicious = [FlowKey::src_ip(0xAA), FlowKey::src_ip(0xBB)];
    suspicious.sort_by_key(|k| k.as_u128());

    // Lifetime examination: per-flow variable-size windows.
    println!("\nper-flow lifetime windows:");
    for lt in inspector.lifetimes(suspicious.iter()) {
        println!(
            "  {}: sub-windows {}..={} (span {} = a {}ms window), total {:.0} packets",
            lt.key,
            lt.first_subwindow,
            lt.last_subwindow,
            lt.span(),
            lt.span() * 100,
            lt.merged.scalar()
        );
        let bars: Vec<String> = lt
            .timeline
            .iter()
            .map(|(sw, v)| format!("sw{sw}:{v:.0}"))
            .collect();
        println!("    timeline: {}", bars.join("  "));
    }

    let a = inspector.lifetime(&FlowKey::src_ip(0xAA)).unwrap();
    let b = inspector.lifetime(&FlowKey::src_ip(0xBB)).unwrap();
    assert!(a.span() < b.span(), "flow A's window must be shorter");
    assert_eq!(a.merged.scalar() as u64, 150);
    assert_eq!(b.merged.scalar() as u64, 160);
    println!("\ntwo suspicious flows, two different window sizes — no re-measurement ✓");
}
