//! Fast collection and reset (§4): AFR generation (Algorithm 2), the
//! in-switch reset (§4.3), and the timing of every collection path the
//! paper compares in Exp#6/Exp#8.
//!
//! Two layers:
//!
//! * [`collect_and_reset`] — the *functional* engine used by
//!   the window mechanisms: queries the terminated region for every
//!   tracked flowkey, produces the AFR batch, resets the region, and
//!   charges the configured path's latency.
//! * [`PacketCollector`] — a literal interpreter of Algorithm 2: feeds
//!   `Collection` packets through the pipeline one recirculation at a
//!   time, maintaining the enumeration counter, cloning each AFR's
//!   report to the controller, and converting the packets to `Reset`
//!   clears at the end. Used by protocol-level tests and the
//!   `switch_protocol` example to show the mechanism exactly as
//!   published.

use std::collections::BTreeMap;

use ow_common::afr::FlowRecord;
use ow_common::block::RecordBlock;
use ow_common::flowkey::{packed_order, FlowKey};
use ow_common::packet::{OwFlag, OwHeader, Packet};
use ow_common::time::{Duration, Instant};

use crate::app::DataPlaneApp;
use crate::flowkey::FlowkeyTracker;
use crate::latency;

/// Which collection path to charge (the Exp#6 variants).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollectMode {
    /// Conventional switch-OS read of the full state (the baseline).
    SwitchOs,
    /// Control-plane collection: the controller injects *every* flowkey.
    ControlPlane,
    /// Data-plane collection: all keys are in `fk_buffer`, enumerated by
    /// recirculating packets.
    DataPlane,
    /// OmniWindow's hybrid: buffered keys enumerated in-switch, overflow
    /// keys injected by the controller.
    Hybrid,
}

/// Collection configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CollectConfig {
    /// Path to charge.
    pub mode: CollectMode,
    /// Simultaneously recirculating collection packets (paper: 3 without
    /// RDMA — DPDK cannot absorb more — and 16 with RDMA).
    pub recirc_packets: usize,
    /// Whether the RDMA optimisation is on (§7).
    pub rdma: bool,
}

impl Default for CollectConfig {
    fn default() -> Self {
        CollectConfig {
            mode: CollectMode::Hybrid,
            recirc_packets: 3,
            rdma: false,
        }
    }
}

/// Result of one sub-window's collect-and-reset.
#[derive(Debug, Clone)]
pub struct CollectOutcome {
    /// The AFR batch for the terminated sub-window (deduplicated keys,
    /// sequence-numbered for the reliability mechanism).
    pub afrs: Vec<FlowRecord>,
    /// Keys enumerated inside the data plane.
    pub keys_from_dataplane: usize,
    /// Keys injected from the controller.
    pub keys_injected: usize,
    /// Time to generate and collect all AFRs (data-plane + control-plane).
    pub collect_time: Duration,
    /// Time for the in-switch (or OS) reset.
    pub reset_time: Duration,
}

/// Collect the terminated region's AFRs and reset it.
///
/// `app` and `tracker` are the *inactive* region's state. `subwindow`
/// is the terminated sub-window number. Returns the AFR batch and the
/// charged latencies.
pub fn collect_and_reset<A: DataPlaneApp>(
    app: &mut A,
    tracker: &mut FlowkeyTracker,
    subwindow: u32,
    cfg: CollectConfig,
) -> CollectOutcome {
    // Assemble the key set: structure-resident keys, buffered keys,
    // and controller-held overflow keys.
    let mut arrived: Vec<FlowKey> = app.self_tracked_keys();
    let self_tracked = arrived.len();
    arrived.extend_from_slice(tracker.buffered());
    arrived.extend_from_slice(tracker.overflowed());
    // Ascending packed key, one entry per distinct key. Equal keys come
    // out in arrival order, so `dedup_by_key` keeps the first arrival.
    let mut order = packed_order(arrived.iter().map(|k| k.as_u128()).zip(0u32..));
    order.dedup_by_key(|&mut (packed, _)| packed);
    let keys: Vec<FlowKey> = order.iter().map(|&(_, i)| arrived[i as usize]).collect();
    // The index is 32 bytes an arrival: freed here, the batch below is
    // allocated over it instead of raising the heap's high-water mark
    // (measured on `hh_steady`'s snapshot, DESIGN.md §4o).
    drop((order, arrived));

    let (from_dataplane, injected) = match cfg.mode {
        CollectMode::SwitchOs => (0, 0),
        CollectMode::ControlPlane => (0, keys.len()),
        CollectMode::DataPlane => (keys.len(), 0),
        CollectMode::Hybrid => {
            let buffered = tracker.buffered().len() + self_tracked;
            let buffered = buffered.min(keys.len());
            (buffered, keys.len() - buffered)
        }
    };

    // Generate the AFRs (the query operation of Algorithm 2 line 8).
    let afrs: Vec<FlowRecord> = keys
        .iter()
        .enumerate()
        .map(|(i, k)| FlowRecord {
            key: *k,
            attr: app.query(k),
            subwindow,
            seq: i as u32,
        })
        .collect();

    // Charge the path's latency. AFR reports stream back to the
    // controller *while* the switch enumerates / the controller
    // injects, so the receive cost overlaps generation: the total is
    // the trigger round trip plus the max of (generation+injection)
    // and receive.
    let receive = latency::receive(afrs.len(), cfg.rdma);
    let m = app.meta();
    let collect_time = match cfg.mode {
        CollectMode::SwitchOs => latency::os_read(m.register_arrays, m.cells_per_array),
        CollectMode::ControlPlane => {
            latency::TRIGGER_RTT + latency::inject(injected, cfg.rdma).max(receive)
        }
        CollectMode::DataPlane => {
            latency::TRIGGER_RTT
                + latency::recirc_enumeration(from_dataplane, cfg.recirc_packets).max(receive)
        }
        CollectMode::Hybrid => {
            let inject_time = if cfg.rdma {
                latency::rdma_inject(injected)
            } else {
                latency::inject(injected, false)
            };
            let generation =
                latency::recirc_enumeration(from_dataplane, cfg.recirc_packets) + inject_time;
            latency::TRIGGER_RTT + generation.max(receive)
        }
    };

    // Reset: clear packets sweep every register index once; one pass
    // clears the same index of all arrays (§4.3), so array count does
    // not multiply the time. The OS path is linear in arrays (Exp#8).
    let reset_time = match cfg.mode {
        CollectMode::SwitchOs => latency::os_reset(m.register_arrays, m.cells_per_array),
        _ => latency::recirc_enumeration(m.cells_per_array, cfg.recirc_packets),
    };

    // Perform the functional reset.
    app.reset();
    tracker.reset();

    CollectOutcome {
        afrs,
        keys_from_dataplane: from_dataplane,
        keys_injected: injected,
        collect_time,
        reset_time,
    }
}

/// Switch-side retention of terminated AFR batches (§8, "Reliability of
/// AFRs").
///
/// [`collect_and_reset`] destroys the region state the moment
/// the batch is generated, so the AFRs themselves are the only copy the
/// switch still has. They are parked here — indexed by sub-window, as a
/// columnar [`RecordBlock`] (28 bytes a scalar record instead of a
/// 112-byte row), in cheap DRAM on the switch CPU — until the controller
/// either confirms completeness (`RetransmitBuffer::release`) or gives
/// up on the fast path and reads the whole batch back
/// (`RetransmitBuffer::full_batch`,
/// the OS-path escalation). Retransmission requests replay exactly the
/// requested sequence ids.
///
/// The buffer holds at most `capacity` sub-windows (0 = unbounded);
/// beyond that the oldest batch is evicted, modelling bounded switch-CPU
/// memory. An eviction before release means that sub-window can no
/// longer be repaired; `retain` returns the evicted sub-windows.
#[derive(Debug, Clone, Default)]
pub struct RetransmitBuffer {
    batches: BTreeMap<u32, RecordBlock>,
    capacity: usize,
}

impl RetransmitBuffer {
    /// A buffer retaining at most `capacity` sub-windows (0 = unbounded).
    pub(crate) fn new(capacity: usize) -> RetransmitBuffer {
        RetransmitBuffer {
            batches: BTreeMap::new(),
            capacity,
        }
    }

    /// Park a freshly generated batch, evicting the oldest retained
    /// sub-windows if the buffer is over capacity. Returns the evicted
    /// sub-windows (oldest first) so the caller can retire their
    /// lifecycle state; with `capacity == 0` (unbounded) the eviction
    /// path provably never runs and the result is always empty.
    pub(crate) fn retain(&mut self, subwindow: u32, afrs: &[FlowRecord]) -> Vec<u32> {
        self.batches
            .insert(subwindow, RecordBlock::from_records(subwindow, afrs));
        if self.capacity == 0 {
            return Vec::new();
        }
        let mut evicted = Vec::new();
        while self.batches.len() > self.capacity {
            let oldest = *self.batches.keys().next().expect("non-empty");
            self.batches.remove(&oldest);
            evicted.push(oldest);
        }
        evicted
    }

    /// Replay the requested sequence ids of `subwindow`. Unknown ids and
    /// sub-windows no longer retained yield nothing (the controller's
    /// timeout, not an error, handles that).
    ///
    /// [`collect_and_reset`] numbers a batch `0..n`, so a seq
    /// is its own index; a batch with gaps (seqs still ascending) is
    /// binary-searched instead.
    pub(crate) fn retransmit(&self, subwindow: u32, seqs: &[u32]) -> Vec<FlowRecord> {
        let Some(batch) = self.batches.get(&subwindow) else {
            return Vec::new();
        };
        let ids = batch.seqs();
        seqs.iter()
            .filter_map(|&seq| match ids.get(seq as usize) {
                Some(&id) if id == seq => Some(seq as usize),
                _ => ids.binary_search(&seq).ok(),
            })
            .map(|i| batch.record(i))
            .collect()
    }

    /// The full retained batch of `subwindow` (the OS-path readback).
    pub(crate) fn full_batch(&self, subwindow: u32) -> Option<&RecordBlock> {
        self.batches.get(&subwindow)
    }

    /// Drop a batch the controller has confirmed complete.
    pub(crate) fn release(&mut self, subwindow: u32) {
        self.batches.remove(&subwindow);
    }

    /// Sub-windows currently retained, oldest first.
    pub fn retained(&self) -> Vec<u32> {
        self.batches.keys().copied().collect()
    }
}

// ---------------------------------------------------------------------
// Literal Algorithm 2 interpreter.
// ---------------------------------------------------------------------

/// A literal packet-level interpreter of Algorithm 2 + §4.3: drives
/// `Collection` packets through the pipeline, producing `AfrReport`
/// clones and finally `Reset` sweeps.
#[derive(Debug)]
pub struct PacketCollector {
    counter: usize,
    reset_counter: usize,
    subwindow: u32,
}

/// What the pipeline did with one special packet pass.
#[derive(Debug, Clone, PartialEq)]
pub enum PassResult {
    /// The packet generated an AFR: the clone to send to the controller,
    /// the AFR it carries, and whether the original recirculates
    /// (Algorithm 2 lines 7–11).
    Report {
        /// `AfrReport` clone for the controller, stamped with the
        /// sub-window and the AFR's seq.
        clone: Packet,
        /// The AFR's flow key.
        key: FlowKey,
        /// The AFR's attribute value.
        afr_value: u64,
        /// The original packet, already recirculated (mutated in place).
        recirculate: bool,
    },
    /// Enumeration finished: the packet converted to a `Reset` clear
    /// packet and recirculates for in-switch reset (lines 4–6).
    BecameReset,
    /// A reset pass cleared one index; packet keeps recirculating.
    ResetPass {
        /// Index cleared in every register array this pass.
        index: usize,
    },
    /// Reset finished; the packet is dropped.
    Done,
}

impl PacketCollector {
    /// Start a collection for `subwindow`.
    pub fn new(subwindow: u32) -> PacketCollector {
        PacketCollector {
            counter: 0,
            reset_counter: 0,
            subwindow,
        }
    }

    /// Process one pipeline pass of a special packet `p` against the
    /// terminated region (`app`, `tracker`).
    pub fn pass<A: DataPlaneApp>(
        &mut self,
        p: &mut Packet,
        app: &mut A,
        tracker: &FlowkeyTracker,
    ) -> PassResult {
        match p.ow.flag {
            OwFlag::Collection => {
                let index = self.counter;
                self.counter += 1;
                let buffered = tracker.buffered();
                if index >= buffered.len() {
                    // Line 5–6: convert to clear packet for in-switch reset.
                    p.ow.flag = OwFlag::Reset;
                    return PassResult::BecameReset;
                }
                self.report(p, app, buffered[index], index as u32, true)
            }
            OwFlag::InjectKey => {
                // Controller-injected key, carried in the packet's own
                // five-tuple: query and report, no recirculation.
                let key = p.key(app.key_kind());
                self.report(p, app, key, p.ow.seq, false)
            }
            OwFlag::Reset => {
                let index = self.reset_counter;
                let cells = app.meta().cells_per_array;
                if index >= cells {
                    return PassResult::Done;
                }
                self.reset_counter += 1;
                // The functional model clears the whole region when the
                // sweep completes; each pass represents clearing `index`
                // across all arrays in one pipeline transit.
                if self.reset_counter >= cells {
                    app.reset();
                }
                PassResult::ResetPass { index }
            }
            _ => PassResult::Done,
        }
    }

    /// Query `key` and clone `p` into the `AfrReport` that carries it.
    fn report<A: DataPlaneApp>(
        &self,
        p: &Packet,
        app: &A,
        key: FlowKey,
        seq: u32,
        recirculate: bool,
    ) -> PassResult {
        let clone = Packet {
            ow: OwHeader {
                subwindow: self.subwindow,
                flag: OwFlag::AfrReport,
                seq,
            },
            ..*p
        };
        PassResult::Report {
            clone,
            key,
            afr_value: app.query(&key).scalar() as u64,
            recirculate,
        }
    }

    /// How many enumeration passes have run.
    pub fn enumerated(&self) -> usize {
        self.counter
    }

    /// How many reset passes have run.
    pub fn reset_passes(&self) -> usize {
        self.reset_counter
    }
}

/// Build the special collection packets the controller injects (fewer
/// than 20 in the paper; Exp#5/Exp#7 use 16).
pub fn make_collection_packets(n: usize, subwindow: u32, now: Instant) -> Vec<Packet> {
    (0..n)
        .map(|i| {
            let mut p = Packet::udp(now, 0, 0, 0, 0, 64);
            p.ow = OwHeader {
                subwindow,
                flag: OwFlag::Collection,
                seq: i as u32,
            };
            p
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::FrequencyApp;
    use ow_common::afr::{AttrValue, DistinctBitmap};
    use ow_common::flowkey::KeyKind;
    use ow_common::packet::TcpFlags;
    use ow_sketch::CountMin;

    type App = FrequencyApp<CountMin>;

    fn app(seed: u64) -> App {
        FrequencyApp::new(CountMin::new(2, 128, seed), KeyKind::SrcIp, false)
    }

    fn feed(app: &mut App, tracker: &mut FlowkeyTracker, srcs: &[(u32, u64)]) {
        for &(src, n) in srcs {
            for _ in 0..n {
                let p = Packet::tcp(Instant::ZERO, src, 9, 1, 80, TcpFlags::ack(), 64);
                app.update(&p);
            }
            tracker.track(&FlowKey::src_ip(src));
        }
    }

    #[test]
    fn functional_collection_yields_all_afrs() {
        let mut a = app(1);
        let mut t = FlowkeyTracker::new(2, 100, 2); // force overflow
        feed(&mut a, &mut t, &[(1, 5), (2, 3), (3, 7)]);
        let out = collect_and_reset(&mut a, &mut t, 4, CollectConfig::default());
        assert_eq!(out.afrs.len(), 3);
        assert_eq!(out.keys_from_dataplane, 2);
        assert_eq!(out.keys_injected, 1);
        let find = |src: u32| {
            out.afrs
                .iter()
                .find(|r| r.key == FlowKey::src_ip(src))
                .expect("AFR present")
        };
        assert_eq!(find(1).attr, AttrValue::Frequency(5));
        assert_eq!(find(3).attr, AttrValue::Frequency(7));
        assert!(out.afrs.iter().all(|r| r.subwindow == 4));
        // Sequence ids are dense for the reliability check.
        let mut seqs: Vec<u32> = out.afrs.iter().map(|r| r.seq).collect();
        seqs.sort_unstable();
        assert_eq!(seqs, vec![0, 1, 2]);
    }

    #[test]
    fn collection_resets_state() {
        let mut a = app(3);
        let mut t = FlowkeyTracker::new(10, 100, 4);
        feed(&mut a, &mut t, &[(1, 5)]);
        collect_and_reset(&mut a, &mut t, 0, CollectConfig::default());
        assert_eq!(a.query(&FlowKey::src_ip(1)), AttrValue::Frequency(0));
        assert_eq!(t.total_tracked(), 0);
    }

    fn afr(seq: u32, sw: u32) -> FlowRecord {
        let mut r = FlowRecord::frequency(FlowKey::src_ip(seq + 1), seq as u64 + 1, sw);
        r.seq = seq;
        r
    }

    #[test]
    fn retransmit_buffer_replays_exact_seq_ids() {
        let mut buf = RetransmitBuffer::new(0);
        let batch: Vec<FlowRecord> = (0..5).map(|s| afr(s, 7)).collect();
        buf.retain(7, &batch);
        let got = buf.retransmit(7, &[1, 3, 9]);
        assert_eq!(got.len(), 2, "unknown seq 9 is skipped");
        assert_eq!(got[0].seq, 1);
        assert_eq!(got[1].seq, 3);
        assert_eq!(buf.full_batch(7).unwrap().len(), 5);
        assert!(buf.retransmit(8, &[0]).is_empty(), "unknown sub-window");
        buf.release(7);
        assert!(buf.full_batch(7).is_none());
        assert!(buf.retransmit(7, &[1]).is_empty());
    }

    #[test]
    fn retransmit_indexes_like_the_linear_scan() {
        let linear = |batch: &[FlowRecord], seqs: &[u32]| -> Vec<FlowRecord> {
            seqs.iter()
                .filter_map(|&s| batch.iter().find(|r| r.seq == s).copied())
                .collect()
        };
        // Every tenth seq of a dense 20 000-record batch, then ids past
        // its end.
        let dense: Vec<FlowRecord> = (0..20_000).map(|s| afr(s, 3)).collect();
        let mut seqs: Vec<u32> = (0..2_000).map(|i| i * 10 + 7).collect();
        seqs.extend([20_000, 99_999, u32::MAX]);
        let mut buf = RetransmitBuffer::new(0);
        buf.retain(3, &dense);
        let got = buf.retransmit(3, &seqs);
        assert_eq!(got.len(), 2_000);
        assert_eq!(got, linear(&dense, &seqs));
        // A batch with gaps (seq != index) goes through the binary search.
        let gappy: Vec<FlowRecord> = (0..500).map(|s| afr(s * 3 + 1, 4)).collect();
        buf.retain(4, &gappy);
        let seqs: Vec<u32> = (0..1_600).collect();
        let got = buf.retransmit(4, &seqs);
        assert_eq!(got.len(), 500);
        assert_eq!(got, linear(&gappy, &seqs));
    }

    #[test]
    fn retained_block_replays_mixed_records_unchanged() {
        let mut conns = DistinctBitmap::with_logical_bits(64);
        conns.insert_hash(0xABCD);
        let mut distinct = conns;
        distinct.insert_hash(0x1234_5678);
        let batch: Vec<FlowRecord> = (0..9u32)
            .map(|seq| {
                let attr = match seq % 3 {
                    0 => AttrValue::Frequency(seq as u64 * 7),
                    1 => AttrValue::Distinction(distinct),
                    _ => AttrValue::ConnBytes {
                        conns,
                        bytes: 1_500 + seq as u64,
                    },
                };
                FlowRecord {
                    key: FlowKey::five_tuple(seq, !seq, 80, 443, 6),
                    attr,
                    subwindow: 5,
                    seq,
                }
            })
            .collect();
        let mut buf = RetransmitBuffer::new(0);
        buf.retain(5, &batch);
        let all: Vec<u32> = (0..9).collect();
        assert_eq!(buf.retransmit(5, &all), batch);
        assert_eq!(buf.full_batch(5).unwrap().to_records(), batch);
        assert_eq!(buf.retransmit(5, &[8, 2]), vec![batch[8], batch[2]]);
    }

    #[test]
    fn retransmit_buffer_evicts_oldest_beyond_capacity() {
        let mut buf = RetransmitBuffer::new(2);
        let mut reported = Vec::new();
        for sw in 0..4u32 {
            reported.extend(buf.retain(sw, &[afr(0, sw)]));
        }
        assert_eq!(buf.retained(), vec![2, 3]);
        assert_eq!(reported, vec![0, 1], "evictions are reported oldest first");
        assert!(buf.full_batch(0).is_none());
    }

    #[test]
    fn unbounded_buffer_never_evicts() {
        // retransmit_depth: 0 is documented as "unbounded"; the eviction
        // path must provably never fire in that mode, however many
        // sub-windows pile up unacknowledged.
        let mut buf = RetransmitBuffer::new(0);
        for sw in 0..512u32 {
            assert!(buf.retain(sw, &[afr(0, sw)]).is_empty());
        }
        assert_eq!(buf.retained().len(), 512);
        assert!(buf.full_batch(0).is_some(), "oldest batch still retained");
    }

    #[test]
    fn hybrid_beats_cpc_and_approaches_dpc() {
        // The Exp#6 ordering: DPC < OW < CPC (all far below OS).
        let mk = || {
            let mut a = app(5);
            let mut t = FlowkeyTracker::new(500, 2000, 6);
            for i in 0..1000u32 {
                let p = Packet::tcp(Instant::ZERO, i, 9, 1, 80, TcpFlags::ack(), 64);
                a.update(&p);
                t.track(&FlowKey::src_ip(i));
            }
            (a, t)
        };
        let run = |mode| {
            let (mut a, mut t) = mk();
            collect_and_reset(
                &mut a,
                &mut t,
                0,
                CollectConfig {
                    mode,
                    recirc_packets: 3,
                    rdma: false,
                },
            )
            .collect_time
        };
        let os = run(CollectMode::SwitchOs);
        let cpc = run(CollectMode::ControlPlane);
        let dpc = run(CollectMode::DataPlane);
        let ow = run(CollectMode::Hybrid);
        assert!(dpc < ow, "dpc {dpc} !< ow {ow}");
        assert!(ow < cpc, "ow {ow} !< cpc {cpc}");
        assert!(cpc < os, "cpc {cpc} !< os {os}");
    }

    #[test]
    fn rdma_reduces_hybrid_time() {
        let mk = || {
            let a = app(7);
            let mut t = FlowkeyTracker::new(500, 2000, 8);
            for i in 0..1000u32 {
                t.track(&FlowKey::src_ip(i));
            }
            (a.clone(), t)
        };
        let (mut a1, mut t1) = mk();
        let plain = collect_and_reset(&mut a1, &mut t1, 0, CollectConfig::default()).collect_time;
        let (mut a2, mut t2) = mk();
        let rdma = collect_and_reset(
            &mut a2,
            &mut t2,
            0,
            CollectConfig {
                mode: CollectMode::Hybrid,
                recirc_packets: 16,
                rdma: true,
            },
        )
        .collect_time;
        assert!(rdma < plain, "rdma {rdma} !< plain {plain}");
    }

    #[test]
    fn packet_collector_runs_algorithm_2_literally() {
        let mut a = app(9);
        let mut t = FlowkeyTracker::new(10, 100, 10);
        feed(&mut a, &mut t, &[(1, 2), (2, 4)]);

        let mut pc = PacketCollector::new(3);
        let mut pkts = make_collection_packets(1, 3, Instant::ZERO);
        let p = &mut pkts[0];

        // Pass 1: AFR for the first buffered key.
        let r1 = pc.pass(p, &mut a, &t);
        match r1 {
            PassResult::Report {
                clone,
                key,
                afr_value,
                recirculate,
            } => {
                assert!(recirculate);
                assert_eq!(clone.ow.flag, OwFlag::AfrReport);
                assert_eq!(key, FlowKey::src_ip(1));
                assert_eq!(afr_value, 2);
                assert_eq!(clone.ow.subwindow, 3);
            }
            other => panic!("expected report, got {other:?}"),
        }
        // Pass 2: second key.
        match pc.pass(p, &mut a, &t) {
            PassResult::Report { key, afr_value, .. } => {
                assert_eq!(key, FlowKey::src_ip(2));
                assert_eq!(afr_value, 4);
            }
            other => panic!("expected report, got {other:?}"),
        }
        // Pass 3: enumeration exhausted → becomes a clear packet.
        assert_eq!(pc.pass(p, &mut a, &t), PassResult::BecameReset);
        assert_eq!(p.ow.flag, OwFlag::Reset);

        // Reset passes sweep every register index, then the packet drops.
        let n = a.meta().cells_per_array;
        for i in 0..n {
            assert_eq!(pc.pass(p, &mut a, &t), PassResult::ResetPass { index: i });
        }
        assert_eq!(pc.pass(p, &mut a, &t), PassResult::Done);
        // State is cleared after the sweep.
        assert_eq!(a.query(&FlowKey::src_ip(2)), AttrValue::Frequency(0));
    }

    #[test]
    fn inject_key_packets_are_answered_without_recirculation() {
        let mut a = app(11);
        let t = FlowkeyTracker::new(10, 100, 12);
        for _ in 0..6 {
            let p = Packet::tcp(Instant::ZERO, 42, 9, 1, 80, TcpFlags::ack(), 64);
            a.update(&p);
        }
        let mut pc = PacketCollector::new(0);
        // The injected key is the packet's five-tuple, projected onto the
        // app's `SrcIp` key.
        let mut p = Packet::udp(Instant::ZERO, 42, 9, 1, 80, 64);
        p.ow.flag = OwFlag::InjectKey;
        p.ow.seq = 17;
        match pc.pass(&mut p, &mut a, &t) {
            PassResult::Report {
                clone,
                key,
                afr_value,
                recirculate,
            } => {
                assert!(!recirculate);
                assert_eq!(key, FlowKey::src_ip(42));
                assert_eq!(afr_value, 6);
                assert_eq!(clone.ow.flag, OwFlag::AfrReport);
                assert_eq!(clone.ow.seq, 17);
            }
            other => panic!("expected report, got {other:?}"),
        }
    }
}
