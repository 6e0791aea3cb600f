//! The instrumented lossy C&R smoke run: `tests/obs_e2e.rs` asserts on
//! it, and the `ow-smoke` binary writes its snapshot.
//!
//! One [`ow_obs::Obs`] handle is attached to the whole pipeline: a
//! verified switch generates AFR batches (recording its collect/reset
//! histograms and lifecycle events), the batches cross a seeded lossy
//! channel, and a sharded [`ReliableLiveController`] repairs them while
//! folding every session's [`ReliabilityMetrics`] into the registry.
//! Everything recorded is a function of the virtual clock and the
//! channel seed, so two runs with the same [`ObsSmokeConfig`] produce
//! byte-identical snapshots.

use std::collections::HashMap;

use ow_common::afr::FlowRecord;
use ow_common::block::RecordBlock;
use ow_common::flowkey::KeyKind;
use ow_common::metrics::ReliabilityMetrics;
use ow_common::packet::{Packet, TcpFlags};
use ow_common::time::{Duration, Instant};
use ow_controller::live::{ReliableLiveController, ReliableMsg};
use ow_controller::reliability::RetryPolicy;
use ow_netsim::{FaultConfig, LossyChannel, PacketClass};
use ow_obs::Obs;
use ow_sketch::CountMin;
use ow_switch::app::FrequencyApp;
use ow_switch::signal::WindowSignal;
use ow_switch::{Switch, SwitchConfig, SwitchEvent};
use ow_verify::verified_switch;

type App = FrequencyApp<CountMin>;

/// Configuration of the instrumented smoke run.
#[derive(Debug, Clone)]
pub struct ObsSmokeConfig {
    /// Seed of the lossy channel's RNG (fixes the whole fault pattern).
    pub seed: u64,
    /// AFR-report loss rate on the data channel.
    pub loss: f64,
}

/// Merge shards of the live controller.
const SHARDS: usize = 4;

/// Sub-windows per sliding window.
const WINDOW_SUBWINDOWS: usize = 3;

/// Channel and shard-queue depth of the live controller;
/// `fleet_smoke::judge_obs_smoke` sizes the health catalog with it.
pub const QUEUE_DEPTH: usize = 256;

impl Default for ObsSmokeConfig {
    fn default() -> ObsSmokeConfig {
        ObsSmokeConfig {
            seed: 7,
            loss: 0.10,
        }
    }
}

/// What the run produced.
#[derive(Debug)]
pub struct ObsSmokeOutcome {
    /// The registry + journal the whole pipeline recorded into.
    pub obs: Obs,
    /// `join()`'s aggregate, for cross-checking against the registry.
    pub metrics: ReliabilityMetrics,
    /// Flows in the final merged view.
    pub merged_flows: usize,
}

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
    for s in 0..5u64 {
        for src in 1..=30u32 {
            for i in 0..(1 + src as u64 % 4) {
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

/// Run the instrumented pipeline end to end and hand back the
/// observability handle plus the controller's own aggregate.
pub fn run(cfg: &ObsSmokeConfig) -> ObsSmokeOutcome {
    let obs = Obs::new();

    // Switch side: attach the registry before any collection runs.
    let mut sw = mk_switch();
    sw.attach_obs(&obs);
    let batches = collect_batches(&mut sw);
    assert!(batches.len() >= 2, "trace must terminate ≥ 2 sub-windows");

    // Replay stores for the back-channel, keyed by (sub-window, seq).
    let by_seq: HashMap<u32, HashMap<u32, FlowRecord>> = batches
        .iter()
        .map(|(sw, afrs)| (*sw, afrs.iter().map(|r| (r.seq, *r)).collect()))
        .collect();
    let os_store: HashMap<u32, Vec<FlowRecord>> = batches.iter().cloned().collect();

    // The second sub-window's back-channel is dead: with the retry
    // budget capped it deterministically escalates to the OS path.
    let escalate = batches[1].0;

    let ctl = ReliableLiveController::spawn_sharded_obs(
        WINDOW_SUBWINDOWS,
        QUEUE_DEPTH,
        RetryPolicy {
            max_rounds: 2,
            ..RetryPolicy::default()
        },
        Box::new(move |swid, seqs| {
            if swid == escalate {
                return Vec::new();
            }
            let batch = &by_seq[&swid];
            seqs.iter().filter_map(|s| batch.get(s).copied()).collect()
        }),
        Box::new(move |swid| (os_store[&swid].clone(), Duration::from_millis(40))),
        SHARDS,
        Some(&obs),
    );

    // Stream every batch through the lossy channel. On top of the
    // seeded random loss, one AFR per sub-window is force-dropped so
    // the recovery loop provably runs for every session at any seed.
    let mut channel = LossyChannel::new(FaultConfig::afr_loss(cfg.seed, cfg.loss));
    for (subwindow, afrs) in &batches {
        let (subwindow, announced) = (*subwindow, afrs.len() as u32);
        let mut delivered = channel.transmit(PacketClass::AfrReport, afrs.clone());
        delivered.retain(|r| r.seq != 0);
        let block = RecordBlock::from_records(subwindow, &delivered);
        ctl.sender
            .send(ReliableMsg::Announce {
                subwindow,
                announced,
            })
            .unwrap();
        ctl.sender.send(ReliableMsg::AfrBlock(block)).unwrap();
        ctl.sender
            .send(ReliableMsg::EndOfStream { subwindow })
            .unwrap();
    }
    let handle = ctl.handle.clone();
    let metrics = ctl.join();
    ObsSmokeOutcome {
        obs,
        metrics,
        merged_flows: handle.merged_flows(),
    }
}
