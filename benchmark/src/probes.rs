//! Out-of-band probes: layer functions the harness cannot time in place
//! (they run inside `Switch::process` or on the controller's threads),
//! called directly on the harness thread over the workload's own keys and
//! blocks. They stand in until the program records spans of its own.

use std::hint::black_box;
use std::time::Instant;

use omniwindow::app::HeavyHitterApp;
use omniwindow::config::WindowConfig;
use omniwindow::mechanisms::{run_omniwindow, Mode};
use ow_common::afr::FlowRecord;
use ow_common::block::{RecordBlock, ShardScatter};
use ow_common::flowkey::FlowKey;
use ow_common::hash::ShardPartition;
use ow_common::packet::Packet;
use ow_common::time::Duration;
use ow_controller::reliability::{AfrTransport, ReliabilityDriver, RetryPolicy};
use ow_controller::table::MergeTable;
use ow_netsim::{FaultConfig, LossyChannel, PacketClass};
use ow_sketch::traits::FrequencySketch;
use ow_sketch::{CountMin, MvSketch};
use ow_switch::flowkey::FlowkeyTracker;
use ow_trace::Trace;

use crate::pipeline::{records_of, Plan};
use crate::stats::median;
use crate::workload::{Workload, CHUNK};

/// Packets whose keys feed the switch and sketch probes.
const KEY_SAMPLE: usize = 1_000_000;
/// Packets the `core` probe runs the README's library call over.
const CORE_SAMPLE: usize = 1_000_000;
/// Sliding windows' worth of sub-windows the controller probes replay.
const WINDOWS_REPLAYED: usize = 4;
/// Passes per probe; the report is the median pass.
const PASSES: usize = 5;
/// Sub-window memory the README's library example passes.
const README_SUBWINDOW_MEMORY: usize = 256 * 1024;

#[derive(Debug, Default, Clone, Copy)]
pub struct ProbeResults {
    pub track_ns_per_key: f64,
    pub cm_update_ns: f64,
    pub cm_query_ns: f64,
    pub mv_update_ns: f64,
    pub scatter_ns_per_record: f64,
    pub fold_ns_per_record: f64,
    pub evict_us_p50: f64,
    pub collect_ns_per_record: f64,
    pub run_omniwindow_ns_per_pkt: f64,
}

/// Median over [`PASSES`] of `pass()`'s nanoseconds, divided by `units`.
fn ns_per_unit(units: usize, mut pass: impl FnMut() -> u64) -> f64 {
    let per_pass: Vec<f64> = (0..PASSES).map(|_| pass() as f64).collect();
    median(&per_pass) / units.max(1) as f64
}

fn timed(work: impl FnOnce()) -> u64 {
    let t = Instant::now();
    work();
    t.elapsed().as_nanos() as u64
}

fn switch_and_sketch_probes(w: &Workload, seed: u64, keys: &[FlowKey], out: &mut ProbeResults) {
    let per_subwindow = (w.packets / w.subwindows() as usize).max(1);
    let mut tracker = FlowkeyTracker::new(w.fk_capacity, w.expected_flows, seed);
    out.track_ns_per_key = ns_per_unit(keys.len(), || {
        timed(|| {
            for run in keys.chunks(per_subwindow) {
                for k in run {
                    black_box(tracker.track(k));
                }
                tracker.reset();
            }
        })
    });

    let mut cm = CountMin::new(4, 65_536, seed);
    out.cm_update_ns = ns_per_unit(keys.len(), || {
        timed(|| keys.iter().for_each(|k| cm.update(k, 1)))
    });
    out.cm_query_ns = ns_per_unit(keys.len(), || {
        timed(|| {
            black_box(keys.iter().map(|k| cm.query(k)).sum::<u64>());
        })
    });

    let mut mv = MvSketch::with_memory(4, README_SUBWINDOW_MEMORY, seed);
    out.mv_update_ns = ns_per_unit(keys.len(), || {
        timed(|| keys.iter().for_each(|k| mv.update(k, 1)))
    });
}

/// Replay the first sub-windows the way the router and the shard worker
/// do: scatter each shipped block at one shard, fold what it emits, evict
/// once the window is full.
fn controller_probes(w: &Workload, batches: &[Vec<FlowRecord>], out: &mut ProbeResults) {
    let records: usize = batches.iter().map(Vec::len).sum();
    let shipped: Vec<Vec<RecordBlock>> = batches
        .iter()
        .enumerate()
        .map(|(sw, afrs)| {
            afrs.chunks(CHUNK)
                .map(|c| RecordBlock::from_records(sw as u32, c))
                .collect()
        })
        .collect();

    let mut scatter_ns = Vec::new();
    let mut fold_ns = Vec::new();
    let mut evict_ns = Vec::new();
    for _ in 0..PASSES {
        let mut scatter = ShardScatter::new(ShardPartition::new(1), CHUNK);
        let mut table = MergeTable::with_capacity(4096);
        let (mut scattering, mut folding) = (0u64, 0u64);
        for (sw, blocks) in shipped.iter().enumerate() {
            let mut emitted = Vec::new();
            scattering += timed(|| {
                scatter.begin(sw as u32);
                for b in blocks {
                    scatter.push_block(b, |_, block, open| emitted.push((block, open)));
                }
                scatter.seal(|_, block, open| emitted.push((block, open)));
            });
            folding += timed(|| {
                for (block, open) in emitted {
                    table.insert_block(block, open);
                }
            });
            if sw >= w.span {
                evict_ns.push(timed(|| {
                    black_box(table.evict_oldest());
                }) as f64);
            }
        }
        scatter_ns.push(scattering as f64);
        fold_ns.push(folding as f64);
    }
    out.scatter_ns_per_record = median(&scatter_ns) / records.max(1) as f64;
    out.fold_ns_per_record = median(&fold_ns) / records.max(1) as f64;
    out.evict_us_p50 = median(&evict_ns) / 1e3;
}

/// The reliability driver's view of the probe's sub-windows: the first
/// pass is what survived the workload's AFR channel (everything, on a
/// lossless workload).
struct ReplayTransport<'a> {
    batches: &'a [Vec<FlowRecord>],
    survivors: Vec<Vec<FlowRecord>>,
    back: Option<LossyChannel>,
}

impl AfrTransport for ReplayTransport<'_> {
    fn initial_afrs(&mut self, subwindow: u32) -> Vec<FlowRecord> {
        std::mem::take(&mut self.survivors[subwindow as usize])
    }

    fn request_retransmit(&mut self, subwindow: u32, seqs: &[u32]) -> Vec<FlowRecord> {
        let batch = &self.batches[subwindow as usize];
        let replay = seqs.iter().map(|&s| batch[s as usize]).collect();
        match &mut self.back {
            Some(ch) => ch.transmit(PacketClass::RetransmitData, replay),
            None => replay,
        }
    }

    fn os_read(&mut self, subwindow: u32) -> (Vec<FlowRecord>, Duration) {
        (self.batches[subwindow as usize].clone(), Duration::ZERO)
    }
}

fn reliability_probe(w: &Workload, seed: u64, batches: &[Vec<FlowRecord>], out: &mut ProbeResults) {
    let records: usize = batches.iter().map(Vec::len).sum();
    let driver = ReliabilityDriver::new(RetryPolicy::default());
    let seeds = w.seeds(seed);
    out.collect_ns_per_record = ns_per_unit(records, || {
        let mut afr = LossyChannel::new(
            w.faults
                .map_or_else(|| FaultConfig::lossless(seed), |f| f.afr_channel(&seeds)),
        );
        let mut transport = ReplayTransport {
            batches,
            survivors: batches
                .iter()
                .map(|b| afr.transmit(PacketClass::AfrReport, b.clone()))
                .collect(),
            back: w.faults.map(|f| LossyChannel::new(f.back_channel(&seeds))),
        };
        timed(|| {
            for (sw, batch) in batches.iter().enumerate() {
                black_box(driver.collect(&mut transport, sw as u32, batch.len() as u32));
            }
        })
    });
}

/// The README's library call — `run_omniwindow(HeavyHitterApp::mv, Sliding)`
/// — over the head of the workload's trace.
fn core_probe(w: &Workload, packets: &[Packet], out: &mut ProbeResults) {
    let head = &packets[..packets.len().min(CORE_SAMPLE)];
    let Some(last) = head.last() else { return };
    let subwindow = Duration::from_millis(w.subwindow_ms);
    let covered = last.ts.as_nanos() / subwindow.as_nanos() + 1;
    let trace = Trace {
        packets: head.to_vec(),
        duration: subwindow.saturating_mul(covered),
    };
    let cfg = WindowConfig::new(
        subwindow.saturating_mul(w.span as u64),
        subwindow,
        subwindow,
    )
    .expect("the workload's window geometry is valid");
    let app = HeavyHitterApp::mv(w.threshold as u64);
    out.run_omniwindow_ns_per_pkt = ns_per_unit(head.len(), || {
        timed(|| {
            black_box(run_omniwindow(
                &app,
                &trace,
                &cfg,
                Mode::Sliding,
                README_SUBWINDOW_MEMORY,
                42,
            ));
        })
    });
}

pub fn run(w: &Workload, seed: u64, packets: &[Packet], plan: &Plan) -> ProbeResults {
    let mut out = ProbeResults::default();
    let keys: Vec<FlowKey> = packets
        .iter()
        .take(KEY_SAMPLE)
        .map(Packet::five_tuple)
        .collect();
    switch_and_sketch_probes(w, seed, &keys, &mut out);
    let replayed = (WINDOWS_REPLAYED * w.span).min(plan.batches.len());
    let batches: Vec<Vec<FlowRecord>> = (0..replayed).map(|sw| records_of(plan, sw)).collect();
    controller_probes(w, &batches, &mut out);
    reliability_probe(w, seed, &batches, &mut out);
    core_probe(w, packets, &mut out);
    out
}
