//! One repetition: packets in, answers out.
//!
//! The feeder thread owns a fresh verified switch and a fresh controller,
//! feeds the shared trace packet by packet, ships every AFR batch through
//! [`Feeder::ship`], and at the scheduled windows waits for the controller,
//! queries it and keeps the answer for the check that follows the clock.

use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex};
use std::time::{Duration as WallDuration, Instant};

use ow_common::afr::{AttrValue, FlowRecord};
use ow_common::block::RecordBlock;
use ow_common::flowkey::{FlowKey, KeyKind};
use ow_common::metrics::ReliabilityMetrics;
use ow_common::packet::Packet;
use ow_common::time::Duration;
use ow_controller::live::{
    DataPlaneMsg, LiveController, LiveHandle, ReliableLiveController, ReliableMsg,
};
use ow_controller::reliability::RetryPolicy;
use ow_controller::wire;
use ow_netsim::{LossyChannel, PacketClass};
use ow_obs::Obs;
use ow_sketch::CountMin;
use ow_switch::app::FrequencyApp;
use ow_switch::signal::WindowSignal;
use ow_switch::{Switch, SwitchConfig, SwitchEvent};
use ow_verify::verified_switch;

use crate::alloc;
use crate::oracle::{Batch, TruthBuilder};
use crate::spans::{Layer, Recorder};
use crate::workload::{Workload, CHUNK, QUEUE_DEPTH};

/// The data-plane program every workload deploys.
pub type App = FrequencyApp<CountMin>;

/// Merge shards, passed explicitly: the box has two cores, so the shard
/// sweep is flat and not a dimension of this benchmark.
const SHARDS: usize = 1;
/// A window that is not ready after this long counts as failed.
const READY_TIMEOUT: WallDuration = WallDuration::from_secs(5);
/// Latency charged to an OS read on the lossy workload (virtual time).
const OS_READ_LATENCY: Duration = Duration::from_millis(2);

/// A fresh first-hop switch: Count-Min 4 × 65536 on five-tuples, timeout
/// signal of one sub-window.
pub fn build_switch(w: &Workload, seed: u64) -> Switch<App> {
    let seed = w.seeds(seed).switch;
    let app = || FrequencyApp::new(CountMin::new(4, 65_536, seed), KeyKind::FiveTuple, false);
    let cfg = SwitchConfig {
        first_hop: true,
        signal: WindowSignal::Timeout(Duration::from_millis(w.subwindow_ms)),
        fk_capacity: w.fk_capacity,
        expected_flows: w.expected_flows,
        seed,
        ..SwitchConfig::default()
    };
    verified_switch(cfg, app(), app()).expect("the benchmark's pipeline passes static verification")
}

/// What the discovery warm-up learns by driving the switch alone.
#[derive(Debug, PartialEq)]
pub struct Plan {
    /// Packet indices whose `process` call returned `Trigger` or `AfrBatch`;
    /// timed repetitions read the clock only there.
    pub boundaries: Vec<u32>,
    /// Every emitted AFR batch, by sub-window.
    pub batches: Vec<Batch>,
    /// Flows truly over the threshold in each queried window.
    pub truth: HashMap<u32, HashSet<FlowKey>>,
}

fn capture(batches: &mut Vec<Batch>, subwindow: u32, afrs: &[FlowRecord]) {
    assert_eq!(
        subwindow as usize,
        batches.len(),
        "sub-windows are collected in order, none skipped"
    );
    batches.push(
        afrs.iter()
            .map(|r| match r.attr {
                AttrValue::Frequency(n) => (r.key, n),
                other => panic!("frequency app emitted {other:?}"),
            })
            .collect(),
    );
}

/// Drive a fresh switch over `packets`, recording where sub-windows end,
/// what they emit, and what the packets truly counted to.
pub fn discover(w: &Workload, seed: u64, packets: &[Packet]) -> Plan {
    let mut switch = build_switch(w, seed);
    let mut boundaries = Vec::new();
    let mut batches = Vec::new();
    let mut truth = TruthBuilder::new(w);
    for (i, p) in packets.iter().enumerate() {
        let mut boundary = false;
        for ev in switch.process(*p) {
            match ev {
                SwitchEvent::Forward(p) => truth.packet(p.five_tuple(), p.ow.subwindow),
                SwitchEvent::Trigger { .. } => boundary = true,
                SwitchEvent::AfrBatch {
                    subwindow, outcome, ..
                } => {
                    boundary = true;
                    capture(&mut batches, subwindow, &outcome.afrs);
                }
                SwitchEvent::OverflowKey(_) | SwitchEvent::LatencySpike(_) => {}
            }
        }
        if boundary {
            boundaries.push(i as u32);
        }
    }
    for ev in switch.flush() {
        if let SwitchEvent::AfrBatch {
            subwindow, outcome, ..
        } = ev
        {
            capture(&mut batches, subwindow, &outcome.afrs);
        }
    }
    Plan {
        boundaries,
        batches,
        truth: truth.finish(),
    }
}

/// The AFR batch of `plan`'s sub-window `subwindow`, as the switch emitted it.
pub fn records_of(plan: &Plan, subwindow: usize) -> Vec<FlowRecord> {
    plan.batches[subwindow]
        .iter()
        .enumerate()
        .map(|(seq, &(key, n))| FlowRecord {
            key,
            attr: AttrValue::Frequency(n),
            subwindow: subwindow as u32,
            seq: seq as u32,
        })
        .collect()
}

/// Batches the lossy workload's switch retains for retransmission, as
/// `fleet::run` keeps them: the router thread reads what the feeder stored.
type Retained = Arc<Mutex<HashMap<u32, Vec<FlowRecord>>>>;

enum Controller {
    Plain(LiveController),
    Reliable {
        ctl: ReliableLiveController,
        channel: Box<LossyChannel>,
        retained: Retained,
    },
}

impl Controller {
    fn spawn(w: &Workload, seed: u64, obs: Option<&Obs>) -> Controller {
        let Some(faults) = w.faults else {
            return Controller::Plain(LiveController::spawn_sharded_obs(
                w.span,
                QUEUE_DEPTH,
                SHARDS,
                obs,
            ));
        };
        let seeds = w.seeds(seed);
        let retained: Retained = Arc::new(Mutex::new(HashMap::new()));
        let (for_retransmit, for_os_read) = (retained.clone(), retained.clone());
        let mut back = LossyChannel::new(faults.back_channel(&seeds));
        let ctl = ReliableLiveController::spawn_sharded_obs(
            w.span,
            QUEUE_DEPTH,
            RetryPolicy::default(),
            Box::new(move |sw, seqs| {
                if (sw + 1) % faults.dead_backchannel_every == 0 {
                    return Vec::new();
                }
                let replay: Vec<FlowRecord> = {
                    let store = for_retransmit.lock().expect("retained-batch lock");
                    let batch = &store[&sw];
                    seqs.iter().map(|&s| batch[s as usize]).collect()
                };
                back.transmit(PacketClass::RetransmitData, replay)
            }),
            Box::new(move |sw| {
                let store = for_os_read.lock().expect("retained-batch lock");
                (store[&sw].clone(), OS_READ_LATENCY)
            }),
            SHARDS,
            obs,
        );
        Controller::Reliable {
            ctl,
            channel: Box::new(LossyChannel::new(faults.afr_channel(&seeds))),
            retained,
        }
    }

    fn handle(&self) -> &LiveHandle {
        match self {
            Controller::Plain(c) => &c.handle,
            Controller::Reliable { ctl, .. } => &ctl.handle,
        }
    }

    /// Shut down, wait for the router and the shard worker, and return the
    /// reliability counters (zero on the plain path).
    fn join(self) -> ReliabilityMetrics {
        match self {
            Controller::Plain(c) => {
                c.join();
                ReliabilityMetrics::default()
            }
            Controller::Reliable { ctl, .. } => ctl.join(),
        }
    }
}

/// Counts the program exports through an attached `Obs` (traced run only).
#[derive(Debug, Clone, Copy, Default)]
pub struct ObsCounts {
    pub queue_depth_peak: u64,
    pub queue_records_peak: u64,
    pub blocks_routed: u64,
    pub backpressure_dropped: u64,
}

impl ObsCounts {
    fn read(obs: &Obs) -> ObsCounts {
        let shard = [("shard", "0")];
        ObsCounts {
            queue_depth_peak: obs.gauge("ow_controller_shard_queue_depth", &shard).peak(),
            queue_records_peak: obs
                .gauge("ow_controller_shard_queue_records", &shard)
                .peak(),
            blocks_routed: obs.counter("ow_controller_blocks_total", &[]).get(),
            backpressure_dropped: obs
                .counter("ow_controller_backpressure_dropped_total", &[])
                .get(),
        }
    }
}

/// Everything one repetition measured and produced.
#[derive(Debug, Default)]
pub struct RepOutput {
    pub packets: u64,
    /// First `process` call → final fold returned.
    pub wall_ns: u64,
    /// `verified_switch` build time (outside `wall_ns`).
    pub build_switch_ns: u64,
    /// Per queried window: boundary call start → `flows_over` returned.
    pub ready_ns: Vec<u64>,
    /// Per queried window: the `flows_over` call alone.
    pub query_ns: Vec<u64>,
    pub snapshot_ns: Vec<u64>,
    /// The answers themselves, checked after the clock stops.
    pub answers: Vec<(u32, Vec<(FlowKey, f64)>)>,
    pub snapshot_flows: Vec<(u32, usize)>,
    pub final_fold: Vec<(FlowKey, AttrValue)>,
    pub final_flows: u64,
    pub subwindows_shipped: u32,
    pub records: u64,
    pub wire_bytes: u64,
    pub overflow_keys: u64,
    pub latency_spikes: u64,
    pub ready_timeouts: u64,
    /// `Trigger`/`AfrBatch` events at an index discovery did not list.
    pub stray_boundaries: u64,
    pub reliability: ReliabilityMetrics,
    /// Allocations and bytes on the feeder thread inside `switch.update`
    /// spans, and the packets those spans fed (traced run only).
    pub update_allocs: u64,
    pub update_alloc_bytes: u64,
    pub update_packets: u64,
    pub obs: Option<ObsCounts>,
}

struct Feeder<'a> {
    w: &'a Workload,
    rec: &'a mut Recorder,
    ctl: Controller,
    out: RepOutput,
}

/// An open `switch.update` span: a run of packets between two boundaries.
struct UpdateRun {
    start: Option<Instant>,
    first_packet: usize,
    allocs: (u64, u64),
}

impl UpdateRun {
    fn open(rec: &Recorder, first_packet: usize) -> UpdateRun {
        UpdateRun {
            start: rec.now(),
            first_packet,
            allocs: if rec.is_on() { alloc::counts() } else { (0, 0) },
        }
    }

    fn close(self, f: &mut Feeder<'_>, next_packet: usize) {
        let fed = (next_packet - self.first_packet) as u64;
        if f.rec.is_on() {
            // Read before the span is stored: the recorder allocates too.
            let (allocs, bytes) = alloc::counts();
            f.out.update_allocs += allocs - self.allocs.0;
            f.out.update_alloc_bytes += bytes - self.allocs.1;
            f.out.update_packets += fed;
        }
        f.rec.close(Layer::SwitchUpdate, self.start, fed);
    }
}

impl Feeder<'_> {
    /// Move one block from the switch side to the controller: bytes really
    /// cross a buffer, the channel is in-process. This is the single place
    /// a later change to the wire format of a block plugs in.
    fn ship_chunk(&mut self, subwindow: u32, chunk: &[FlowRecord], seal: bool) {
        let n = chunk.len() as u64;
        let t = self.rec.now();
        let bytes = wire::encode_batch(chunk);
        let t = self.rec.close(Layer::WireEncode, t, n);
        self.out.wire_bytes += bytes.len() as u64;
        let decoded = wire::decode_batch(bytes).expect("a just-encoded batch decodes");
        let t = self.rec.close(Layer::WireDecode, t, n);
        let block = RecordBlock::from_records(subwindow, &decoded);
        let t = self.rec.close(Layer::BlockBuild, t, n);
        // A send fails only if the controller is gone; the fold check that
        // follows the clock reports that.
        match &self.ctl {
            Controller::Plain(c) => {
                let _ = c.sender.send(DataPlaneMsg::AfrBlock { block, seal });
            }
            Controller::Reliable { ctl, .. } => {
                let _ = ctl.sender.send(ReliableMsg::AfrBlock(block));
            }
        }
        self.rec.close(Layer::ControllerSend, t, n);
    }

    /// Ship one sub-window's AFR batch in blocks of at most [`CHUNK`] records.
    fn ship(&mut self, subwindow: u32, afrs: Vec<FlowRecord>) {
        self.out.subwindows_shipped += 1;
        self.out.records += afrs.len() as u64;
        let arrived = match &mut self.ctl {
            Controller::Plain(_) => afrs,
            Controller::Reliable {
                ctl,
                channel,
                retained,
            } => {
                let t = self.rec.now();
                let survivors = channel.transmit(PacketClass::AfrReport, afrs.clone());
                self.rec.close(Layer::NetsimChannel, t, afrs.len() as u64);
                let announced = afrs.len() as u32;
                // Sub-windows already folded can no longer be asked for.
                let folded = ctl.handle.subwindows().last().copied();
                {
                    let mut store = retained.lock().expect("retained-batch lock");
                    store.retain(|&sw, _| folded.is_none_or(|f| sw > f));
                    store.insert(subwindow, afrs);
                }
                let t = self.rec.now();
                let _ = ctl.sender.send(ReliableMsg::Announce {
                    subwindow,
                    announced,
                });
                self.rec.close(Layer::ControllerSend, t, 0);
                survivors
            }
        };
        if arrived.is_empty() && matches!(self.ctl, Controller::Plain(_)) {
            self.ship_chunk(subwindow, &[], true);
        }
        let chunks = arrived.len().div_ceil(CHUNK);
        for (c, chunk) in arrived.chunks(CHUNK).enumerate() {
            self.ship_chunk(subwindow, chunk, c + 1 == chunks);
        }
        if let Controller::Reliable { ctl, .. } = &self.ctl {
            // The mark wakes the router for its recovery loop; on two cores
            // the feeder may sit out that whole turn inside this call.
            let t = self.rec.now();
            let _ = ctl.sender.send(ReliableMsg::EndOfStream { subwindow });
            self.rec.close(Layer::ControllerSend, t, 0);
        }
    }

    /// Yield-spin until the controller holds exactly the window ending at
    /// `subwindow`. The eviction of `subwindow - span` is queued behind all
    /// of `subwindow`'s blocks, so at one shard this is exact completeness.
    fn wait_ready(&mut self, subwindow: u32) {
        let t = self.rec.now();
        let oldest = subwindow + 1 - self.w.span as u32;
        let deadline = Instant::now() + READY_TIMEOUT;
        loop {
            let held = self.ctl.handle().subwindows();
            if held.first() == Some(&oldest) && held.last() == Some(&subwindow) {
                break;
            }
            if Instant::now() > deadline {
                self.out.ready_timeouts += 1;
                break;
            }
            std::thread::yield_now();
        }
        self.rec.close(Layer::ControllerReadyWait, t, 0);
    }

    /// Wait for, query and (on schedule) snapshot the window ending at
    /// `subwindow`; `call_start` is when the call that closed it began.
    fn query_window(&mut self, subwindow: u32, call_start: Instant) {
        self.wait_ready(subwindow);
        let q0 = Instant::now();
        let answer = self.ctl.handle().flows_over(self.w.threshold);
        let q1 = Instant::now();
        self.rec
            .span(Layer::ControllerFlowsOver, q0, q1, answer.len() as u64);
        self.out.query_ns.push((q1 - q0).as_nanos() as u64);
        self.out.ready_ns.push((q1 - call_start).as_nanos() as u64);
        self.out.answers.push((subwindow, answer));
        if self.w.is_snapshot_window(subwindow) {
            let snapshot = self.ctl.handle().snapshot();
            let s1 = Instant::now();
            self.rec
                .span(Layer::ControllerSnapshot, q1, s1, snapshot.len() as u64);
            self.out.snapshot_ns.push((s1 - q1).as_nanos() as u64);
            self.out.snapshot_flows.push((subwindow, snapshot.len()));
        }
    }

    /// Handle what one `process`/`flush` call returned. `boundary` carries
    /// the call's start and (when tracing) end for a call discovery listed.
    fn on_events(
        &mut self,
        events: Vec<SwitchEvent>,
        boundary: Option<(Instant, Option<Instant>)>,
    ) {
        let mut batches = Vec::new();
        let mut triggered = false;
        for ev in events {
            match ev {
                SwitchEvent::Forward(_) | SwitchEvent::LatencySpike(_) => {}
                SwitchEvent::OverflowKey(_) => self.out.overflow_keys += 1,
                SwitchEvent::Trigger { .. } => triggered = true,
                SwitchEvent::AfrBatch {
                    subwindow, outcome, ..
                } => batches.push((subwindow, outcome.afrs)),
            }
        }
        if !triggered && batches.is_empty() {
            return;
        }
        let call_start = match boundary {
            Some((start, end)) => {
                if let Some(end) = end {
                    let records: usize = batches.iter().map(|(_, afrs)| afrs.len()).sum();
                    let layer = if batches.is_empty() {
                        Layer::SwitchTrigger
                    } else {
                        Layer::SwitchCr
                    };
                    self.rec.span(layer, start, end, records as u64);
                }
                start
            }
            None => {
                self.out.stray_boundaries += 1;
                Instant::now()
            }
        };
        for (subwindow, afrs) in batches {
            self.ship(subwindow, afrs);
            if self.w.is_query_window(subwindow) {
                self.query_window(subwindow, call_start);
            }
        }
    }
}

/// Run one repetition over `packets`. `boundaries` comes from [`discover`].
/// When `rec` is on, spans are recorded and the controller gets an `Obs` to
/// export its own counts through.
pub fn run_rep(
    w: &Workload,
    seed: u64,
    packets: &[Packet],
    boundaries: &[u32],
    rec: &mut Recorder,
    rep: u32,
) -> RepOutput {
    let t = Instant::now();
    let mut switch = build_switch(w, seed);
    let build_switch_ns = t.elapsed().as_nanos() as u64;
    let obs = rec.is_on().then(Obs::new);
    let mut f = Feeder {
        w,
        ctl: Controller::spawn(w, seed, obs.as_ref()),
        rec,
        out: RepOutput {
            packets: packets.len() as u64,
            build_switch_ns,
            ..RepOutput::default()
        },
    };

    let start = Instant::now();
    f.rec.begin_rep(rep, start);
    let mut upcoming = boundaries.iter().map(|&b| b as usize);
    let mut next_boundary = upcoming.next();
    let mut run = UpdateRun::open(f.rec, 0);
    for (i, p) in packets.iter().enumerate() {
        if next_boundary == Some(i) {
            run.close(&mut f, i);
            let call_start = Instant::now();
            let events = switch.process(*p);
            let call_end = f.rec.now();
            f.on_events(events, Some((call_start, call_end)));
            next_boundary = upcoming.next();
            run = UpdateRun::open(f.rec, i + 1);
        } else {
            let events = switch.process(*p);
            if events.len() > 1 {
                f.on_events(events, None);
            }
        }
    }
    run.close(&mut f, packets.len());
    let call_start = Instant::now();
    let events = switch.flush();
    let call_end = f.rec.now();
    f.on_events(events, Some((call_start, call_end)));

    let handle = f.ctl.handle().clone();
    let t = f.rec.now();
    f.out.reliability = f.ctl.join();
    f.rec.close(Layer::ControllerDrain, t, 0);
    let s0 = Instant::now();
    let fold = handle.snapshot();
    let end = Instant::now();
    f.rec
        .span(Layer::ControllerSnapshot, s0, end, fold.len() as u64);
    f.rec.end_rep(end, packets.len() as u64);

    let mut out = f.out;
    out.snapshot_ns.push((end - s0).as_nanos() as u64);
    out.wall_ns = (end - start).as_nanos() as u64;
    out.final_flows = fold.len() as u64;
    out.final_fold = fold;
    out.latency_spikes = switch.latency_spikes();
    out.obs = obs.as_ref().map(ObsCounts::read);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{digest, Oracle};
    use crate::workload::WORKLOADS;

    /// A workload's shape at a hundredth of its packets and flows.
    fn tiny(index: usize) -> Workload {
        WORKLOADS[index].scaled_down(100)
    }

    fn fold_digest(w: &Workload, seed: u64) -> (u64, RepOutput) {
        let trace = w.build_trace(seed);
        let plan = discover(w, seed, &trace.packets);
        let out = run_rep(
            w,
            seed,
            &trace.packets,
            &plan.boundaries,
            &mut Recorder::new(false),
            0,
        );
        assert_eq!(out.stray_boundaries, 0);
        assert_eq!(out.ready_timeouts, 0);
        let oracle = Oracle::build(w, &plan.batches);
        assert_eq!(digest(&out.final_fold), oracle.final_digest);
        assert_eq!(out.answers.len(), oracle.answers.len());
        for (subwindow, answer) in &out.answers {
            assert_eq!(Some(answer), oracle.answers.get(subwindow));
        }
        (oracle.final_digest, out)
    }

    #[test]
    fn discovery_is_identical_across_two_warm_ups() {
        let w = tiny(2);
        let trace = w.build_trace(3);
        let first = discover(&w, 3, &trace.packets);
        assert_eq!(first.batches.len(), w.subwindows() as usize);
        assert!(first.boundaries.len() >= first.batches.len());
        assert_eq!(first, discover(&w, 3, &trace.packets));
    }

    #[test]
    fn same_seed_same_digest_and_another_seed_another() {
        let w = tiny(2);
        let (a, _) = fold_digest(&w, 1);
        let (b, _) = fold_digest(&w, 1);
        let (c, _) = fold_digest(&w, 2);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn lossy_fold_equals_the_lossless_fold() {
        let w = tiny(3);
        // `fold_digest` compares against the oracle, which folds the
        // batches as emitted — before any loss.
        let (_, out) = fold_digest(&w, 1);
        let r = out.reliability;
        assert!(r.first_pass < r.announced, "the channel dropped AFRs");
        assert!(r.recovered > 0, "retransmission repaired some of the loss");
        assert!(r.escalations >= 2, "dead back-channels force OS reads");
    }

    #[test]
    fn traced_repetition_tiles_its_wall_time() {
        let w = tiny(1);
        let trace = w.build_trace(1);
        let plan = discover(&w, 1, &trace.packets);
        let mut rec = Recorder::new(true);
        let out = run_rep(&w, 1, &trace.packets, &plan.boundaries, &mut rec, 5);
        let ledgers = crate::spans::ledgers(rec.spans());
        assert_eq!(ledgers.len(), 1);
        assert_eq!(ledgers[0].rep, 5);
        assert!((ledgers[0].share_sum() - 1.0).abs() < 1e-9);
        assert_eq!(ledgers[0].units(Layer::SwitchUpdate), out.update_packets);
        assert_eq!(ledgers[0].units(Layer::WireEncode), out.records);
        assert!(out.obs.is_some_and(|o| o.blocks_routed > 0));
    }
}
