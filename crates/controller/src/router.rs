//! The controller's router: the one place a sub-window's AFRs become a
//! merged window.
//!
//! [`Router`] owns the shard worker pool, the [`WindowEngine`] tracking
//! every window's lifecycle, the merged-order deque behind the single
//! slide/evict sweep, and an always-present [`Obs`] (a detached one
//! nobody exports when the front-end's caller attached none). The
//! front-ends in [`crate::live`] call one method per message: the plain
//! path streams blocks through the scatter as they arrive; the reliable
//! path holds a sub-window in [`Sessions`] until the §8 loop has
//! completed it, then scatters it whole. No method touches a channel or
//! a clock, so unit tests drive the router synchronously.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;
use std::thread::JoinHandle;

use crossbeam::channel::{bounded, Sender};
use parking_lot::RwLock;

use ow_common::block::{RecordBlock, ShardScatter, DEFAULT_BLOCK_CAPACITY};
use ow_common::engine::{WindowEngine, WindowEvent, WindowFsm, WindowPhase};
use ow_common::hash::ShardPartition;
use ow_common::metrics::ReliabilityMetrics;
use ow_obs::{Counter, Event, Gauge, Obs};

use crate::collector::CollectionSession;
use crate::live::{LiveHandle, OsReadFn, RetransmitFn};
use crate::reliability::{FnTransport, ReliabilityDriver, RetryPolicy};
use crate::table::MergeTable;

/// A message from the router to one shard worker.
enum ShardMsg {
    /// One scattered block of this shard's slice of a sub-window
    /// (possibly empty — every shard sees every sub-window so evictions
    /// stay aligned). `open` flags the sub-window's first block on this
    /// shard: it starts a new evictable unit.
    Block { block: RecordBlock, open: bool },
    /// Sliding-window advance: retire the oldest sub-window.
    Evict,
    /// Drain and exit.
    Shutdown,
}

/// The shard worker pool: `N` threads, each folding its disjoint key
/// slice into its own merge table.
struct ShardPool {
    tables: Vec<Arc<RwLock<MergeTable>>>,
    senders: Vec<Sender<ShardMsg>>,
    workers: Vec<JoinHandle<()>>,
    partition: ShardPartition,
    /// Per shard, `ow_controller_shard_queue_depth` (messages) and
    /// `ow_controller_shard_queue_records` (rows): raised on send,
    /// lowered by the worker on dequeue — what is still queued; zero
    /// after `shutdown()`.
    queue_gauges: Vec<(Gauge, Gauge)>,
    /// `ow_controller_blocks_total` / `ow_controller_records_total`.
    routed: (Counter, Counter),
}

impl ShardPool {
    fn spawn(shards: usize, queue_depth: usize, obs: &Obs) -> ShardPool {
        let mut pool = ShardPool {
            tables: Vec::with_capacity(shards),
            senders: Vec::with_capacity(shards),
            workers: Vec::with_capacity(shards),
            partition: ShardPartition::new(shards),
            queue_gauges: Vec::with_capacity(shards),
            routed: (
                obs.counter("ow_controller_blocks_total", &[]),
                obs.counter("ow_controller_records_total", &[]),
            ),
        };
        for shard in 0..shards {
            let label = shard.to_string();
            let gauge = |name| obs.gauge(name, &[("shard", &label)]);
            let depth = gauge("ow_controller_shard_queue_depth");
            let records = gauge("ow_controller_shard_queue_records");
            pool.queue_gauges.push((depth.clone(), records.clone()));
            // Pre-sized: the open-addressing fast path starts at a few
            // thousand slots so steady-state ingest never rehashes.
            let table = Arc::new(RwLock::new(MergeTable::with_capacity(4096)));
            pool.tables.push(table.clone());
            let (tx, rx) = bounded(queue_depth.max(1));
            pool.senders.push(tx);
            pool.workers.push(std::thread::spawn(move || {
                while let Ok(msg) = rx.recv() {
                    depth.dec();
                    match msg {
                        ShardMsg::Block { block, open } => {
                            records.sub(block.len() as u64);
                            table.write().insert_block(block, open);
                        }
                        ShardMsg::Evict => {
                            table.write().evict_oldest();
                        }
                        ShardMsg::Shutdown => break,
                    }
                }
            }));
        }
        pool
    }

    /// Send one scattered block to its shard worker. Blocking send: a
    /// full worker queue back-pressures the router rather than dropping.
    fn send_block(&self, shard: usize, block: RecordBlock, open: bool) {
        let rows = block.len() as u64;
        self.queue_gauges[shard].0.inc();
        self.queue_gauges[shard].1.add(rows);
        self.routed.0.inc();
        self.routed.1.add(rows);
        let _ = self.senders[shard].send(ShardMsg::Block { block, open });
    }

    /// Send a payload-free control message to every shard.
    fn broadcast(&self, msg: fn() -> ShardMsg) {
        for (tx, (depth, _)) in self.senders.iter().zip(&self.queue_gauges) {
            depth.inc();
            let _ = tx.send(msg());
        }
    }

    /// Stop the workers and wait for their queues to drain, so every
    /// insert is visible once the router returns.
    fn shutdown(self) {
        self.broadcast(|| ShardMsg::Shutdown);
        drop(self.senders);
        for w in self.workers {
            let _ = w.join();
        }
    }
}

/// One open session and the counters it has accumulated so far.
type OpenSession = (CollectionSession, ReliabilityMetrics);

/// Everything the reliable path remembers per sub-window. None of it
/// expires yet; this is where bounded-state gauges will read.
#[derive(Default)]
pub(crate) struct Sessions {
    /// Announced sub-windows still collecting.
    open: HashMap<u32, OpenSession>,
    /// Blocks that raced ahead of their announcement, as they arrived.
    early: HashMap<u32, Vec<RecordBlock>>,
    /// Tombstones: sub-windows that merged, or whose switch departed.
    /// Late clones of their trigger or AFRs are dropped instead of
    /// re-opening a session that would merge twice or never complete.
    closed: HashSet<u32>,
}

impl Sessions {
    /// Whether `subwindow` already merged or departed.
    pub(crate) fn is_closed(&self, subwindow: u32) -> bool {
        self.closed.contains(&subwindow)
    }

    /// Records parked ahead of an announcement that has not arrived.
    #[cfg(test)]
    pub(crate) fn early_records(&self) -> usize {
        self.early.values().flatten().map(RecordBlock::len).sum()
    }

    /// Tombstone `subwindow` and hand back what was held for it.
    fn close(&mut self, subwindow: u32) -> Option<OpenSession> {
        self.closed.insert(subwindow);
        self.early.remove(&subwindow);
        self.open.remove(&subwindow)
    }
}

fn feed(entry: &mut OpenSession, block: &RecordBlock) {
    if let Ok((fresh, dups)) = entry.0.receive_block(block) {
        entry.1.first_pass += fresh;
        entry.1.duplicates += dups;
    }
}

/// See the module docs.
pub(crate) struct Router {
    pool: ShardPool,
    engine: WindowEngine,
    /// Merged sub-windows, oldest first; the slide sweep pops the front.
    merged_order: VecDeque<u32>,
    window_subwindows: usize,
    obs: Obs,
    /// Sub-windows merged so far, and the same count as a registry
    /// series (`ow_controller_batches_total` on the plain path,
    /// `ow_controller_sessions_total` on the reliable one).
    merged: (u64, Counter),
    scatter: ShardScatter,
    /// The plain path's open stream: its sub-window.
    stream: Option<u32>,
    pub(crate) sessions: Sessions,
    /// The §8 loop's retry schedule and back-channel to the switch;
    /// `None` on the plain path, which never opens a session.
    recovery: Option<(RetryPolicy, RetransmitFn, OsReadFn)>,
    total: ReliabilityMetrics,
}

impl Router {
    /// Spawn the shard pool; build the router and the query handle over
    /// its tables. `recovery` puts the router on the reliable path.
    pub(crate) fn new(
        window_subwindows: usize,
        queue_depth: usize,
        shards: usize,
        obs: &Obs,
        recovery: Option<(RetryPolicy, RetransmitFn, OsReadFn)>,
    ) -> (Router, LiveHandle) {
        let merged_series = match recovery {
            Some(_) => "ow_controller_sessions_total",
            None => "ow_controller_batches_total",
        };
        let pool = ShardPool::spawn(shards, queue_depth, obs);
        let handle = LiveHandle {
            tables: pool.tables.clone(),
        };
        let mut engine = WindowEngine::new();
        engine.set_sink(obs.engine_sink("controller"));
        let router = Router {
            scatter: ShardScatter::new(pool.partition, DEFAULT_BLOCK_CAPACITY),
            pool,
            engine,
            merged_order: VecDeque::new(),
            window_subwindows,
            merged: (0, obs.counter(merged_series, &[])),
            obs: obs.clone(),
            stream: None,
            sessions: Sessions::default(),
            recovery,
            total: ReliabilityMetrics::default(),
        };
        (router, handle)
    }

    /// Scatter `block` into the sub-window the scatter has open.
    fn route(&mut self, block: &RecordBlock) {
        let pool = &self.pool;
        self.scatter
            .push_block(block, |shard, b, open| pool.send_block(shard, b, open));
    }

    /// `subwindow` is complete: flush the scatter's remainders, count
    /// it, and slide — every sub-window past the span is released from
    /// the engine and evicted from every shard.
    fn seal(&mut self, subwindow: u32) {
        let pool = &self.pool;
        self.scatter
            .seal(|shard, b, open| pool.send_block(shard, b, open));
        self.merged.0 += 1;
        self.merged.1.inc();
        self.merged_order.push_back(subwindow);
        while self.merged_order.len() > self.window_subwindows {
            let oldest = self.merged_order.pop_front().expect("non-empty");
            if self.engine.phase(oldest) == Some(WindowPhase::Merged) {
                let _ = self.engine.apply(oldest, WindowEvent::Acked);
            }
            self.pool.broadcast(|| ShardMsg::Evict);
        }
    }

    /// [`DataPlaneMsg::AfrBlock`](crate::live::DataPlaneMsg): scattered
    /// as it arrives. There is no loss to repair on the plain path, so a
    /// complete stream is a merged sub-window.
    pub(crate) fn stream_block(&mut self, block: RecordBlock, seal: bool) {
        let subwindow = block.subwindow();
        if self.stream.is_some_and(|open| open != subwindow) {
            self.seal_stream();
        }
        if self.stream.is_none() {
            self.scatter.begin(subwindow);
            self.stream = Some(subwindow);
        }
        self.route(&block);
        if seal {
            self.seal_stream();
        }
    }

    fn seal_stream(&mut self) {
        let Some(subwindow) = self.stream.take() else {
            return;
        };
        self.engine.insert(WindowFsm::announced(subwindow));
        if self.engine.phase(subwindow) == Some(WindowPhase::Collected) {
            let _ = self.engine.apply(subwindow, WindowEvent::StreamComplete);
        }
        self.seal(subwindow);
    }

    /// [`ReliableMsg::Announce`](crate::live::ReliableMsg): a duplicate
    /// re-finds the open session; one for a closed sub-window is dropped.
    pub(crate) fn announce(&mut self, subwindow: u32, announced: u32) {
        let s = &mut self.sessions;
        if s.is_closed(subwindow) {
            return;
        }
        let entry = s.open.entry(subwindow).or_insert_with(|| {
            let metrics = ReliabilityMetrics {
                announced: announced as u64,
                ..Default::default()
            };
            (CollectionSession::new(subwindow, announced), metrics)
        });
        for block in s.early.remove(&subwindow).unwrap_or_default() {
            feed(entry, &block);
        }
    }

    /// [`ReliableMsg::AfrBlock`](crate::live::ReliableMsg): parked if it
    /// raced its announcement. Rows for a closed sub-window are late
    /// redundant copies: dropped, and charged as duplicates.
    pub(crate) fn afr_block(&mut self, block: RecordBlock) {
        let (s, subwindow) = (&mut self.sessions, block.subwindow());
        if s.is_closed(subwindow) {
            let rows = block.len() as u64;
            self.total.duplicates += rows;
            let late = self.obs.counter("ow_controller_afr_duplicates_total", &[]);
            late.add(rows);
            return;
        }
        match s.open.get_mut(&subwindow) {
            Some(entry) => feed(entry, &block),
            None => s.early.entry(subwindow).or_default().push(block),
        }
    }

    /// [`ReliableMsg::EndOfStream`](crate::live::ReliableMsg): run the
    /// §8 loop until the batch is complete, then merge it. A mark for a
    /// sub-window with no open session is ignored.
    pub(crate) fn end_of_stream(&mut self, subwindow: u32) {
        let Some((policy, retransmit, os_read)) = self.recovery.as_mut() else {
            return;
        };
        if !self.sessions.open.contains_key(&subwindow) {
            return;
        }
        let Some((mut session, mut metrics)) = self.sessions.close(subwindow) else {
            return;
        };
        let mut link = FnTransport {
            retransmit,
            os_read,
        };
        ReliabilityDriver::new(*policy).complete_session(&mut session, &mut metrics, &mut link);
        self.total.merge(&metrics);
        self.obs.fold_reliability(&metrics);
        let detail = format!(
            "merged {} AFRs (first pass {}, recovered {}) after {} retransmit round(s), \
             {} escalation(s)",
            metrics.first_pass + metrics.recovered,
            metrics.first_pass,
            metrics.recovered,
            metrics.retransmit_rounds,
            metrics.escalations,
        );
        let event = Event::new("session_complete", detail);
        self.obs.event(event.subwindow(subwindow).phase("merged"));
        // The session's FSM arrives at Merged through the §8 loop; the
        // engine tracks it until slide-eviction.
        self.engine.insert(*session.fsm());
        // Score the recovered answer against the accuracy oracle (when
        // installed) before it is scattered.
        let block = session.into_block();
        if let Some(acc) = self.obs.accuracy() {
            acc.score_block(&block);
        }
        self.scatter.begin(subwindow);
        self.route(&block);
        self.seal(subwindow);
    }

    /// [`ReliableMsg::Depart`](crate::live::ReliableMsg): the partial
    /// batch dies with the session; only lifecycle bookkeeping survives.
    pub(crate) fn depart(&mut self, subwindow: u32) {
        if self.sessions.is_closed(subwindow) {
            return;
        }
        let session = self.sessions.close(subwindow);
        // The merged answer will never arrive; release the oracle's
        // truth entry for this window.
        if let Some(acc) = self.obs.accuracy() {
            acc.window_departed(subwindow);
        }
        let Some((session, mut metrics)) = session else {
            return;
        };
        metrics.departed = 1;
        self.total.merge(&metrics);
        self.obs.fold_reliability(&metrics);
        self.engine.insert(*session.fsm());
        let _ = self.engine.apply(subwindow, WindowEvent::SwitchDeparted);
        let detail = format!(
            "abandoned after {} of {} AFRs: switch left the fleet mid-window",
            metrics.first_pass, metrics.announced,
        );
        let event = Event::new("switch_departed", detail);
        self.obs.event(event.subwindow(subwindow).phase("released"));
    }

    /// Seal a stream left open and complete every open session (one
    /// whose end-of-stream mark was lost still merges: the recovery loop
    /// fetches whatever the first pass missed), then stop the shard
    /// workers and wait for them to drain. Returns the sub-windows
    /// merged and the reliability counters folded across all sessions.
    pub(crate) fn shutdown(mut self) -> (u64, ReliabilityMetrics) {
        self.seal_stream();
        let mut rest: Vec<u32> = self.sessions.open.keys().copied().collect();
        rest.sort_unstable();
        for subwindow in rest {
            self.end_of_stream(subwindow);
        }
        self.pool.shutdown();
        (self.merged.0, self.total)
    }
}
