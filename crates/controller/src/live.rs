//! A live, threaded switch→controller deployment with a sharded merge
//! path: the data plane and the controller on different processors,
//! connected by a message stream.
//!
//! * A **router thread** receives columnar [`RecordBlock`]s over a
//!   bounded channel and hands each message to the shared `Router`
//!   (`router.rs`), which drives every window's lifecycle and scatters
//!   the records by flow-key hash into per-shard blocks — one queue
//!   send per *block*. A single record is a block of one; there is no
//!   per-record message.
//! * **`N` shard workers** (`N` is the constructor's `shards`
//!   argument) each fold their disjoint key slice into their own
//!   lock-protected [`MergeTable`], read concurrently through
//!   [`LiveHandle`].
//!
//! The two controllers are thin front-ends (channel + thread + one
//! `match`) over that one router: [`LiveController`] streams blocks to
//! the shards as they arrive, [`ReliableLiveController`] holds each
//! sub-window in a session until the §8 loop has made it complete.
//!
//! Back-pressure blocks and never drops: `sender.send` waits when the
//! router queue is full (as a NIC queue would), and the router's sends
//! into the shard queues wait the same way — no ingest path loses a
//! record.

use std::sync::Arc;
use std::thread::JoinHandle;

use crossbeam::channel::{bounded, Sender};
use parking_lot::RwLock;

use ow_common::afr::{AttrValue, FlowRecord};
use ow_common::block::RecordBlock;
use ow_common::flowkey::{sort_by_packed_key, FlowKey};
use ow_common::metrics::ReliabilityMetrics;
use ow_common::time::Duration;
use ow_obs::Obs;

use crate::reliability::RetryPolicy;
use crate::router::Router;
use crate::table::MergeTable;

/// Shared handle for querying the live sharded merge tables. Each query
/// takes the shard read locks one at a time, so a query concurrent with
/// ingest sees an eventually-consistent view; after `join()` it is final.
#[derive(Debug, Clone)]
pub struct LiveHandle {
    pub(crate) tables: Vec<Arc<RwLock<MergeTable>>>,
}

impl LiveHandle {
    /// Every shard's answer to `query`, in canonical (ascending packed
    /// key) order — independent of the shard count. Each shard answers
    /// in that order already, so one shard's answer is the answer; several
    /// are concatenated and put in packed-key order (the key slices are
    /// disjoint, so that order is total).
    fn fold<T>(&self, query: impl Fn(&MergeTable) -> Vec<(FlowKey, T)>) -> Vec<(FlowKey, T)> {
        if let [table] = &self.tables[..] {
            return query(&table.read());
        }
        let mut out: Vec<(FlowKey, T)> =
            self.tables.iter().flat_map(|t| query(&t.read())).collect();
        sort_by_packed_key(&mut out, |(k, _)| *k);
        out
    }

    /// Flows whose merged scalar is at least `threshold`, right now.
    pub fn flows_over(&self, threshold: f64) -> Vec<(FlowKey, f64)> {
        self.fold(|t| t.flows_over(threshold))
    }

    /// Flows currently merged (key slices are disjoint: a plain sum).
    pub fn merged_flows(&self) -> usize {
        self.tables.iter().map(|t| t.read().len()).sum()
    }

    /// The sub-windows currently contributing to the table. Every shard
    /// holds the same list (empty slices keep them aligned): shard 0's.
    pub fn subwindows(&self) -> Vec<u32> {
        self.tables[0].read().subwindows()
    }

    /// The deterministic final fold: `wire::encode_merged` of it yields
    /// bytes independent of the shard count.
    pub fn snapshot(&self) -> Vec<(FlowKey, AttrValue)> {
        self.fold(MergeTable::snapshot)
    }
}

/// A message from the data plane to the controller.
#[derive(Debug, Clone)]
pub enum DataPlaneMsg {
    /// One columnar block of a sub-window's AFR stream. A sub-window's
    /// blocks arrive contiguously; `seal` marks its last block and
    /// completes the sub-window. A block for a *different* sub-window
    /// (or `Shutdown`) also seals whatever stream is open, so a lost
    /// seal flag delays but never wedges a sub-window.
    AfrBlock {
        /// The stream's columnar records (all one sub-window).
        block: RecordBlock,
        /// Whether this is the sub-window's final block.
        seal: bool,
    },
    /// End of stream: the controller thread drains and exits.
    Shutdown,
}

/// The running controller: its input channel, query handle, and router
/// thread (which owns the shard worker pool).
pub struct LiveController {
    /// Send AFR blocks (and finally `Shutdown`) here. `send` blocks
    /// when the queue is full — back-pressure, not loss.
    pub sender: Sender<DataPlaneMsg>,
    /// Concurrent query access.
    pub handle: LiveHandle,
    thread: JoinHandle<u64>,
}

impl LiveController {
    /// Spawn a controller maintaining a sliding window of
    /// `window_subwindows` sub-windows over `shards` merge shards;
    /// `queue_depth` bounds every channel. It reports into `obs` (a
    /// detached one when `None`): engine transitions, per-shard queue
    /// gauges, routed blocks/records and completed sub-windows
    /// (`ow_controller_batches_total`).
    pub fn spawn_sharded_obs(
        window_subwindows: usize,
        queue_depth: usize,
        shards: usize,
        obs: Option<&Obs>,
    ) -> LiveController {
        let (sender, rx) = bounded(queue_depth);
        let obs = obs.cloned().unwrap_or_default();
        let (mut router, handle) = Router::new(window_subwindows, queue_depth, shards, &obs, None);
        let thread = std::thread::spawn(move || {
            while let Ok(msg) = rx.recv() {
                match msg {
                    DataPlaneMsg::AfrBlock { block, seal } => router.stream_block(block, seal),
                    DataPlaneMsg::Shutdown => break,
                }
            }
            router.shutdown().0
        });
        LiveController {
            sender,
            handle,
            thread,
        }
    }

    /// Signal shutdown and wait for the router and every shard worker;
    /// returns the number of sub-windows routed.
    pub fn join(self) -> u64 {
        let _ = self.sender.send(DataPlaneMsg::Shutdown);
        self.thread.join().expect("controller thread panicked")
    }
}

/// A message on the reliability-aware live path. Unlike
/// [`DataPlaneMsg`], bursts need not be contiguous (every row is
/// individually droppable on the wire) and each sub-window is bracketed
/// by an announcement and an end-of-stream mark.
#[derive(Debug, Clone)]
pub enum ReliableMsg {
    /// Trigger-packet announcement: `announced` AFRs are coming for
    /// `subwindow`. A duplicate (the fabric cloned the trigger) is
    /// idempotent, while the session is open and after it merged.
    Announce {
        /// The terminated sub-window.
        subwindow: u32,
        /// How many AFRs its batch holds.
        announced: u32,
    },
    /// The switch finished emitting `subwindow`'s initial stream; the
    /// controller may now run the recovery loop and merge.
    EndOfStream {
        /// The sub-window whose stream ended.
        subwindow: u32,
    },
    /// A burst of AFR report clones for one sub-window — whatever
    /// survived the lossy channel, in arrival order (possibly before
    /// its announcement, possibly after its sub-window merged).
    AfrBlock(RecordBlock),
    /// The switch owning `subwindow` left the fleet (crash churn)
    /// before its stream completed: the partial batch is never merged,
    /// the `WindowFsm` is released instead of wedging in a recovery
    /// loop against a dead peer, and late clones are dropped.
    Depart {
        /// The sub-window whose switch disappeared.
        subwindow: u32,
    },
    /// End of input: finalize every open session, then exit.
    Shutdown,
}

/// Controller→switch retransmission back-channel: `(subwindow, missing
/// seq ids) → replayed AFRs` (empty when request or replies were lost).
pub(crate) type RetransmitFn = Box<dyn FnMut(u32, &[u32]) -> Vec<FlowRecord> + Send>;

/// The OS-path escalation: `subwindow → (full batch, charged latency)`.
pub(crate) type OsReadFn = Box<dyn FnMut(u32) -> (Vec<FlowRecord>, Duration) + Send>;

/// A [`LiveController`] variant that tolerates AFR loss: per-sub-window
/// [`CollectionSession`](crate::CollectionSession)s check completeness
/// against the announced count and a
/// [`ReliabilityDriver`](crate::ReliabilityDriver) runs the §8 recovery
/// loop through the caller's callbacks before anything is merged. Only
/// complete batches ever reach the shard tables.
pub struct ReliableLiveController {
    /// Send announcements, AFR blocks, end-of-stream marks, then
    /// `Shutdown`. `send` blocks when the queue is full.
    pub sender: Sender<ReliableMsg>,
    /// Concurrent query access.
    pub handle: LiveHandle,
    thread: JoinHandle<ReliabilityMetrics>,
}

impl ReliableLiveController {
    /// Spawn the controller over `shards` merge shards; `retransmit`
    /// and `os_read` are the back-channel to the switch. On top of what
    /// [`LiveController::spawn_sharded_obs`] reports, every completed
    /// session folds its [`ReliabilityMetrics`] into the registry, ticks
    /// `ow_controller_sessions_total` and leaves a `session_complete`
    /// journal event tagged with its sub-window.
    #[allow(clippy::too_many_arguments)]
    pub fn spawn_sharded_obs(
        window_subwindows: usize,
        queue_depth: usize,
        policy: RetryPolicy,
        retransmit: RetransmitFn,
        os_read: OsReadFn,
        shards: usize,
        obs: Option<&Obs>,
    ) -> ReliableLiveController {
        let (sender, rx) = bounded(queue_depth);
        let obs = obs.cloned().unwrap_or_default();
        let recovery = Some((policy, retransmit, os_read));
        let (mut router, handle) =
            Router::new(window_subwindows, queue_depth, shards, &obs, recovery);
        let thread = std::thread::spawn(move || {
            while let Ok(msg) = rx.recv() {
                match msg {
                    ReliableMsg::Announce {
                        subwindow,
                        announced,
                    } => router.announce(subwindow, announced),
                    ReliableMsg::AfrBlock(block) => router.afr_block(block),
                    ReliableMsg::EndOfStream { subwindow } => router.end_of_stream(subwindow),
                    ReliableMsg::Depart { subwindow } => router.depart(subwindow),
                    ReliableMsg::Shutdown => break,
                }
            }
            router.shutdown().1
        });
        ReliableLiveController {
            sender,
            handle,
            thread,
        }
    }

    /// Signal shutdown and wait for the router and every shard worker;
    /// returns the reliability counters folded across all sessions.
    pub fn join(self) -> ReliabilityMetrics {
        let _ = self.sender.send(ReliableMsg::Shutdown);
        self.thread.join().expect("controller thread panicked")
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use super::*;
    use crate::wire::encode_merged;

    fn block(sw: u32, flows: std::ops::Range<u32>, n: u64) -> RecordBlock {
        let afrs: Vec<FlowRecord> = flows
            .map(|i| FlowRecord::frequency(FlowKey::src_ip(i), n, sw))
            .collect();
        RecordBlock::from_records(sw, &afrs)
    }

    fn sealed(sw: u32, flows: std::ops::Range<u32>, n: u64) -> DataPlaneMsg {
        DataPlaneMsg::AfrBlock {
            block: block(sw, flows, n),
            seal: true,
        }
    }

    fn seq_batch(sw: u32, n: u32) -> Vec<FlowRecord> {
        (0..n)
            .map(|seq| {
                let mut r = FlowRecord::frequency(FlowKey::src_ip(seq + 1), seq as u64 + 1, sw);
                r.seq = seq;
                r
            })
            .collect()
    }

    /// The single-table reference fold: each sub-window inserted whole
    /// into one [`MergeTable`], sliding over `span` sub-windows.
    fn reference_fold(span: usize, subwindows: &[(u32, Vec<FlowRecord>)]) -> bytes::Bytes {
        let mut table = MergeTable::new();
        for (i, (sw, afrs)) in subwindows.iter().enumerate() {
            table.insert_batch(*sw, afrs.clone());
            if i >= span {
                table.evict_oldest();
            }
        }
        encode_merged(&table.snapshot())
    }

    type Link = (RetryPolicy, RetransmitFn, OsReadFn);

    /// A router on the reliable path (no router thread, no channel).
    fn reliable_router(span: usize, shards: usize, obs: &Obs, link: Link) -> (Router, LiveHandle) {
        Router::new(span, 64, shards, obs, Some(link))
    }

    /// A back-channel replaying faithfully from `store`; escalation is
    /// a test failure.
    fn faithful(store: HashMap<u32, Vec<FlowRecord>>) -> Link {
        (
            RetryPolicy::default(),
            Box::new(move |sw, seqs| seqs.iter().map(|&s| store[&sw][s as usize]).collect()),
            Box::new(|_| panic!("no escalation expected")),
        )
    }

    /// A back-channel that must never be used.
    fn untouched(why: &'static str) -> Link {
        (
            RetryPolicy::default(),
            Box::new(move |_, _| panic!("retransmit: {why}")),
            Box::new(move |_| panic!("OS read: {why}")),
        )
    }

    fn store_of(subwindows: std::ops::Range<u32>, n: u32) -> HashMap<u32, Vec<FlowRecord>> {
        subwindows.map(|sw| (sw, seq_batch(sw, n))).collect()
    }

    /// Announce `sw`, stream the survivors of its batch as one block,
    /// and mark the end of the stream.
    fn run_session(
        router: &mut Router,
        batch: &[FlowRecord],
        survives: impl Fn(&FlowRecord) -> bool,
    ) {
        let sw = batch[0].subwindow;
        let survivors: Vec<FlowRecord> = batch.iter().copied().filter(|r| survives(r)).collect();
        router.announce(sw, batch.len() as u32);
        router.afr_block(RecordBlock::from_records(sw, &survivors));
        router.end_of_stream(sw);
    }

    #[test]
    fn live_pipeline_merges_and_slides() {
        let obs = Obs::new();
        let (mut router, handle) = Router::new(2, 16, 1, &obs, None);
        router.stream_block(block(0, 0..10, 60), true);
        router.stream_block(block(1, 0..10, 80), true);
        // Slide: sub-window 2 evicts sub-window 0.
        router.stream_block(block(2, 0..10, 5), true);
        assert_eq!(router.shutdown().0, 3);
        let merged = obs.snapshot().value("ow_controller_batches_total", &[]);
        assert_eq!(merged, 3, "the plain path counts sealed sub-windows");
        assert_eq!(handle.subwindows(), vec![1, 2]);
        // 80 + 5 per flow: sub-window 0's 60 is gone.
        assert_eq!(handle.flows_over(85.0).len(), 10);
        assert!(handle.flows_over(86.0).is_empty());
    }

    #[test]
    fn shutdown_without_traffic() {
        let ctl = LiveController::spawn_sharded_obs(5, 4, 1, None);
        assert_eq!(ctl.join(), 0);
    }

    #[test]
    fn sharded_live_controller_is_byte_identical_to_single_shard() {
        let subwindows: Vec<(u32, Vec<FlowRecord>)> = (0..6u32)
            .map(|sw| (sw, block(sw, 0..40, (sw as u64 + 1) * 7).to_records()))
            .collect();
        let reference = reference_fold(3, &subwindows);
        for shards in [1usize, 2, 4, 8] {
            let ctl = LiveController::spawn_sharded_obs(3, 16, shards, None);
            for sw in 0..6u32 {
                ctl.sender
                    .send(sealed(sw, 0..40, (sw as u64 + 1) * 7))
                    .unwrap();
            }
            let h = ctl.handle.clone();
            assert_eq!(ctl.join(), 6);
            assert_eq!(h.subwindows(), vec![3, 4, 5]);
            assert_eq!(
                encode_merged(&h.snapshot()),
                reference,
                "{shards} shards diverged from the single-table fold"
            );
            let snap = h.snapshot();
            assert_eq!(snap.len(), 40);
            assert!(snap
                .iter()
                .all(|(_, v)| *v == AttrValue::Frequency(7 * (4 + 5 + 6))));
        }
    }

    #[test]
    fn reliable_controller_repairs_lossy_stream() {
        let store = store_of(0..2, 10);
        let (mut router, handle) = reliable_router(2, 1, &Obs::new(), faithful(store.clone()));
        for sw in 0..2u32 {
            // Drop every third AFR from the initial stream.
            run_session(&mut router, &store[&sw], |r| r.seq % 3 != 0);
        }
        let (sessions, metrics) = router.shutdown();
        assert_eq!(sessions, 2);
        // Despite the losses both sub-windows merged complete: every
        // flow's two-sub-window sum is exact.
        assert_eq!(handle.merged_flows(), 10);
        let snap = handle.snapshot();
        for seq in 0..10u32 {
            let merged = snap.iter().find(|(k, _)| *k == FlowKey::src_ip(seq + 1));
            assert_eq!(
                merged.map(|(_, v)| *v),
                Some(AttrValue::Frequency(2 * (seq as u64 + 1)))
            );
        }
        assert_eq!(metrics.announced, 20);
        assert_eq!(metrics.first_pass, 12);
        assert_eq!(metrics.recovered, 8);
        assert!(metrics.retransmit_rounds >= 2);
        assert_eq!(metrics.escalations, 0);
    }

    #[test]
    fn reliable_controller_handles_reordered_and_duplicated_control_msgs() {
        let batch = seq_batch(4, 5);
        let link = faithful(HashMap::from([(4, batch.clone())]));
        let (mut router, handle) = reliable_router(4, 1, &Obs::new(), link);
        // An AFR races ahead of its announcement and arrives twice; the
        // trigger arrives twice too (duplicated clone).
        router.afr_block(RecordBlock::from_records(4, &batch[1..2]));
        router.afr_block(RecordBlock::from_records(4, &batch[1..2]));
        assert_eq!(router.sessions.early_records(), 2);
        router.announce(4, 5);
        router.announce(4, 5);
        assert_eq!(router.sessions.early_records(), 0);
        router.afr_block(RecordBlock::from_records(4, &batch[3..4]));
        // End-of-stream mark lost: shutdown finalizes the session.
        let (_, metrics) = router.shutdown();
        assert_eq!(handle.merged_flows(), 5);
        assert_eq!(metrics.first_pass, 2);
        assert_eq!(metrics.duplicates, 1);
        assert_eq!(metrics.recovered, 3);
    }

    #[test]
    fn late_trigger_and_late_block_cannot_reopen_a_merged_subwindow() {
        // A duplicated trigger that arrives *after* its session merged
        // must not open a second session (which shutdown would finalize
        // through a full retransmit and merge again), and a late block
        // must not be parked in `early` forever.
        let batch = seq_batch(0, 5);
        let link = faithful(HashMap::from([(0, batch.clone())]));
        let obs = Obs::new();
        let (mut router, handle) = reliable_router(4, 1, &obs, link);
        run_session(&mut router, &batch, |_| true);
        assert!(router.sessions.is_closed(0));
        router.announce(0, 5);
        router.afr_block(RecordBlock::from_records(0, &batch[0..3]));
        router.end_of_stream(0);
        assert_eq!(router.sessions.early_records(), 0, "late block leaked");
        let (sessions, metrics) = router.shutdown();
        assert_eq!(sessions, 1);
        assert_eq!(handle.subwindows(), vec![0]);
        for (_, merged) in handle.flows_over(0.0) {
            assert!(merged <= 5.0, "a flow merged twice: {merged}");
        }
        assert_eq!((metrics.announced, metrics.recovered), (5, 0));
        assert_eq!(metrics.duplicates, 3, "late rows are charged as duplicates");
        let snap = obs.snapshot();
        assert_eq!(snap.value("ow_controller_afr_duplicates_total", &[]), 3);
    }

    #[test]
    fn reliable_controller_escalates_when_backchannel_dead() {
        let batch = seq_batch(0, 3);
        let os_batch = batch.clone();
        let policy = RetryPolicy {
            max_rounds: 2,
            ..RetryPolicy::default()
        };
        let link: Link = (
            policy,
            // The back-channel loses every request.
            Box::new(|_, _| Vec::new()),
            Box::new(move |_| (os_batch.clone(), Duration::from_millis(40))),
        );
        let (mut router, handle) = reliable_router(1, 1, &Obs::new(), link);
        run_session(&mut router, &batch, |_| false);
        let (_, metrics) = router.shutdown();
        assert_eq!(handle.merged_flows(), 3);
        assert_eq!(metrics.escalations, 1);
        assert_eq!(metrics.retransmit_rounds, 2);
        assert!(metrics.wall_clock >= Duration::from_millis(40));
    }

    #[test]
    fn departed_session_is_abandoned_not_wedged() {
        let obs = Obs::new();
        let batch = seq_batch(3, 8);
        // A departed switch can answer nothing; neither callback may
        // ever run for the abandoned window.
        let link = untouched("the switch departed");
        let (mut router, handle) = reliable_router(4, 2, &obs, link);
        router.announce(3, 8);
        // Part of the initial stream arrives, then the switch crashes.
        router.afr_block(RecordBlock::from_records(3, &batch[0..3]));
        router.depart(3);
        // Late clones and a duplicated announcement hit the tombstone
        // instead of resurrecting a session that could never complete.
        router.afr_block(RecordBlock::from_records(3, &batch[4..5]));
        router.announce(3, 8);
        assert_eq!(router.sessions.early_records(), 0);
        let (sessions, metrics) = router.shutdown();
        assert_eq!(sessions, 0);
        assert_eq!(handle.merged_flows(), 0, "partial batch never merges");
        assert_eq!(metrics.departed, 1);
        assert_eq!(metrics.first_pass, 3);
        assert_eq!(metrics.escalations, 0);

        let snap = obs.snapshot();
        assert_eq!(snap.value("ow_controller_departed_sessions_total", &[]), 1);
        assert_eq!(snap.value("ow_controller_sessions_total", &[]), 0);
        // The FSM went Collected → Released via switch_departed: the
        // engine released it rather than leaving it in a recovery phase.
        assert_eq!(
            snap.value("ow_common_engine_released_total", &[("side", "controller")]),
            1
        );
        let departs: Vec<_> = obs
            .journal()
            .events()
            .into_iter()
            .filter(|e| e.kind == "switch_departed")
            .collect();
        assert_eq!(departs.len(), 1);
        assert_eq!(departs[0].subwindow, Some(3));
    }

    #[test]
    fn sharded_reliable_controller_matches_single_shard() {
        // The one threaded reliable run: a lossy initial stream through
        // the real channel and router thread at every shard count.
        let store = store_of(0..4, 25);
        let subwindows: Vec<(u32, Vec<FlowRecord>)> =
            (0..4u32).map(|sw| (sw, store[&sw].clone())).collect();
        let reference = reference_fold(2, &subwindows);
        for shards in [1usize, 2, 4, 8] {
            let replay = store.clone();
            let ctl = ReliableLiveController::spawn_sharded_obs(
                2,
                64,
                RetryPolicy::default(),
                Box::new(move |sw, seqs| seqs.iter().map(|&s| replay[&sw][s as usize]).collect()),
                Box::new(|_| panic!("no escalation expected")),
                shards,
                None,
            );
            for sw in 0..4u32 {
                ctl.sender
                    .send(ReliableMsg::Announce {
                        subwindow: sw,
                        announced: 25,
                    })
                    .unwrap();
                let survivors: Vec<FlowRecord> = store[&sw]
                    .iter()
                    .copied()
                    .filter(|r| r.seq % 4 != 1)
                    .collect();
                ctl.sender
                    .send(ReliableMsg::AfrBlock(RecordBlock::from_records(
                        sw, &survivors,
                    )))
                    .unwrap();
                ctl.sender
                    .send(ReliableMsg::EndOfStream { subwindow: sw })
                    .unwrap();
            }
            let h = ctl.handle.clone();
            let m = ctl.join();
            assert_eq!(h.subwindows(), vec![2, 3]);
            assert_eq!(
                encode_merged(&h.snapshot()),
                reference,
                "{shards} shards diverged from the single-table fold"
            );
            assert_eq!((m.first_pass, m.recovered), (76, 24));
        }
    }

    #[test]
    fn obs_attached_reliable_controller_mirrors_join_metrics() {
        let obs = Obs::new();
        let store = store_of(0..3, 12);
        let (mut router, _) = reliable_router(2, 4, &obs, faithful(store.clone()));
        for sw in 0..3u32 {
            run_session(&mut router, &store[&sw], |r| r.seq % 2 == 0);
        }
        let (_, metrics) = router.shutdown();
        let snap = obs.snapshot();

        // The registry mirrors the router's fold, counter for counter.
        assert_eq!(
            snap.value("ow_controller_retransmit_rounds", &[]),
            metrics.retransmit_rounds
        );
        assert_eq!(
            snap.value("ow_controller_afr_first_pass_total", &[]),
            metrics.first_pass
        );
        assert_eq!(
            snap.value("ow_controller_afr_recovered_total", &[]),
            metrics.recovered
        );
        assert_eq!(
            snap.value("ow_controller_escalations_total", &[]),
            metrics.escalations
        );
        assert_eq!(snap.value("ow_controller_sessions_total", &[]), 3);
        assert!(metrics.retransmit_rounds >= 1, "lossy run must retransmit");

        // Engine transitions flowed through the sink: each of the 3
        // sessions is inserted at Merged; the first is Acked on slide.
        assert_eq!(
            snap.value(
                "ow_common_engine_transitions_total",
                &[("side", "controller")]
            ),
            1
        );

        // Per-shard queue-depth gauges exist for all 4 shards and read
        // zero after shutdown (every send was matched by a dequeue).
        for shard in 0..4u32 {
            assert_eq!(
                snap.value(
                    "ow_controller_shard_queue_depth",
                    &[("shard", &shard.to_string())]
                ),
                0,
                "shard {shard} gauge must settle to 0 after shutdown"
            );
        }

        // The C&R recovery-phase histogram saw one virtual-clock sample
        // per session.
        let recovery = snap
            .get("ow_controller_cr_phase_duration", &[("phase", "recovery")])
            .expect("recovery histogram registered");
        let histogram = recovery.histogram.as_ref().expect("histogram detail");
        assert_eq!(histogram.count, 3);
        assert_eq!(histogram.sum, metrics.wall_clock.as_nanos());

        // Each session also left a structured journal record.
        let complete: Vec<_> = obs
            .journal()
            .events()
            .into_iter()
            .filter(|e| e.kind == "session_complete")
            .collect();
        assert_eq!(complete.len(), 3);
        assert_eq!(complete[0].subwindow, Some(0));
        assert_eq!(complete[0].phase.as_deref(), Some("merged"));
    }

    #[test]
    fn shutdown_merges_a_raced_lossy_session_exactly_once() {
        let obs = Obs::new();
        let batch = seq_batch(7, 6);
        let link = faithful(HashMap::from([(7, batch.clone())]));
        let (mut router, handle) = reliable_router(1, 2, &obs, link);
        // A lossy burst races its announcement and the end-of-stream
        // mark is lost: shutdown finalizes the session.
        let survivors: Vec<FlowRecord> = batch.iter().copied().filter(|r| r.seq % 2 == 0).collect();
        router.afr_block(RecordBlock::from_records(7, &survivors));
        router.announce(7, 6);
        let (sessions, metrics) = router.shutdown();
        assert_eq!(sessions, 1);
        assert!(metrics.retransmit_rounds >= 1, "lossy run must retransmit");
        assert_eq!(metrics.escalations, 0);
        assert_eq!(handle.subwindows(), vec![7]);
        let complete: Vec<_> = (obs.journal().events().into_iter())
            .filter(|e| e.kind == "session_complete")
            .map(|e| (e.subwindow, e.phase))
            .collect();
        assert_eq!(complete, vec![(Some(7), Some("merged".to_string()))]);
    }

    #[test]
    fn block_stream_matches_batch_path_byte_for_byte() {
        // A workload delivered as chunked block streams (with a lost
        // seal flag on the last sub-window, repaired by shutdown) must
        // merge exactly as the single-table fold of whole sub-windows.
        let subwindows: Vec<(u32, Vec<FlowRecord>)> = (0..5u32)
            .map(|sw| (sw, block(sw, 0..60, (sw as u64 + 1) * 3).to_records()))
            .collect();
        let reference = reference_fold(3, &subwindows);
        for shards in [1usize, 4] {
            let (mut router, h) = Router::new(3, 64, shards, &Obs::new(), None);
            for (sw, afrs) in &subwindows {
                let chunks: Vec<&[FlowRecord]> = afrs.chunks(17).collect();
                for (i, chunk) in chunks.iter().enumerate() {
                    // The last sub-window's seal flag is "lost": the
                    // next sub-window's first block (or shutdown) must
                    // seal it implicitly.
                    let seal = i + 1 == chunks.len() && *sw != 4;
                    router.stream_block(RecordBlock::from_records(*sw, chunk), seal);
                }
            }
            assert_eq!(router.shutdown().0, 5);
            assert_eq!(h.subwindows(), vec![2, 3, 4]);
            assert_eq!(
                encode_merged(&h.snapshot()),
                reference,
                "{shards}-shard block stream diverged from the single-table fold"
            );
        }
    }

    #[test]
    fn reliable_block_bursts_match_per_record_stream() {
        // Lossy bursts (one duplicated whole) and the same survivors as
        // one-row blocks both converge on the single-table fold of the
        // complete batches, with identical accounting.
        let store = store_of(0..3, 40);
        let subwindows: Vec<(u32, Vec<FlowRecord>)> =
            (0..3u32).map(|sw| (sw, store[&sw].clone())).collect();
        let reference = reference_fold(2, &subwindows);
        let run = |burst: usize| {
            let (mut router, handle) = reliable_router(2, 4, &Obs::new(), faithful(store.clone()));
            for sw in 0..3u32 {
                router.announce(sw, 40);
                let survivors: Vec<FlowRecord> = store[&sw]
                    .iter()
                    .copied()
                    .filter(|r| r.seq % 5 != 2)
                    .collect();
                for chunk in survivors.chunks(burst).chain(survivors[0..9].chunks(burst)) {
                    router.afr_block(RecordBlock::from_records(sw, chunk));
                }
                router.end_of_stream(sw);
            }
            let (_, metrics) = router.shutdown();
            (encode_merged(&handle.snapshot()), metrics)
        };
        let (rows, m1) = run(1);
        let (bursts, m2) = run(9);
        assert_eq!(bursts, reference, "bursts diverged from the reference");
        assert_eq!(
            rows, reference,
            "one-row blocks diverged from the reference"
        );
        assert_eq!(m2.first_pass, m1.first_pass);
        assert_eq!(m2.duplicates, m1.duplicates);
        assert_eq!(m2.recovered, m1.recovered);
        assert_eq!(m1.duplicates, 27, "three duplicated 9-record bursts");
    }

    #[test]
    fn early_block_waits_for_its_announcement() {
        // A whole block races ahead of its announcement: it must buffer
        // (as a block) and fold in once the announcement lands.
        let batch = seq_batch(6, 8);
        let link = untouched("the stream is complete");
        let (mut router, handle) = reliable_router(2, 2, &Obs::new(), link);
        router.afr_block(RecordBlock::from_records(6, &batch));
        assert_eq!(router.sessions.early_records(), 8);
        router.announce(6, 8);
        assert_eq!(router.sessions.early_records(), 0);
        let (_, metrics) = router.shutdown();
        assert_eq!(handle.merged_flows(), 8);
        assert_eq!(metrics.first_pass, 8);
        assert_eq!(metrics.recovered, 0);
    }

    #[test]
    fn block_and_record_counters_reconcile_after_join() {
        // 3 sub-windows × 12 records over 4 shards: every record routed
        // is counted, blocks_total counts one open block per (shard,
        // sub-window) at this scale, and the queued-records gauges
        // settle to zero once the workers drain.
        let obs = Obs::new();
        let store = store_of(0..3, 12);
        let (mut router, _) = reliable_router(2, 4, &obs, faithful(store.clone()));
        for sw in 0..3u32 {
            run_session(&mut router, &store[&sw], |_| true);
        }
        let _ = router.shutdown();
        let snap = obs.snapshot();
        assert_eq!(snap.value("ow_controller_records_total", &[]), 36);
        assert_eq!(
            snap.value("ow_controller_blocks_total", &[]),
            12,
            "one block per shard per sub-window at this scale"
        );
        for shard in 0..4u32 {
            assert_eq!(
                snap.value(
                    "ow_controller_shard_queue_records",
                    &[("shard", &shard.to_string())]
                ),
                0,
                "shard {shard} queued-records gauge must settle to 0"
            );
        }
    }

    #[test]
    fn queries_concurrent_with_ingest() {
        let ctl = LiveController::spawn_sharded_obs(3, 64, 1, None);
        let handle = ctl.handle.clone();
        let reader = std::thread::spawn(move || {
            let mut max_seen = 0;
            for _ in 0..200 {
                max_seen = max_seen.max(handle.merged_flows());
                std::thread::yield_now();
            }
            max_seen
        });
        for sw in 0..20u32 {
            ctl.sender.send(sealed(sw, 0..50, 1)).unwrap();
        }
        let _ = reader.join().unwrap();
        let final_handle = ctl.handle.clone();
        assert_eq!(ctl.join(), 20);
        // Final state spans the last 3 sub-windows.
        assert_eq!(final_handle.subwindows(), vec![17, 18, 19]);
    }
}
