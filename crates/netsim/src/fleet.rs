//! Fleet-scale simulation: hundreds of switches against a sharded
//! controller tier.
//!
//! Exp#9 stops at two switches; a production deployment is a *fleet*.
//! This module scales the C&R pipeline to 100–1000 switches served by
//! `N` controller workers (each a `ReliableLiveController` with its own
//! shard pool), with three mechanisms the two-switch model never needed:
//!
//! * **Consistent worker assignment** — each switch is mapped to a
//!   worker by rendezvous (highest-random-weight) hashing over
//!   [`mix64`], so adding or removing workers moves only the minimal
//!   set of switches and every run of the same config assigns
//!   identically.
//! * **Phase staggering** — every switch gets a deterministic per-switch
//!   offset within the sub-window period, de-spiking the announce/AFR
//!   bursts that a synchronized fleet would fire at each window
//!   boundary (the Laminar-style pipelined feeding pattern).
//! * **Failure domains and churn** — per-link [`FaultConfig`]-style
//!   loss plus *rack-correlated* loss bursts (every switch in a rack
//!   degrades together for an interval), and mid-window switch
//!   join/leave/crash churn. A graceful leave drains its in-flight
//!   windows; a crash abandons them through the controller's
//!   `Depart` path, driving their `WindowFsm`s to `Released` instead of
//!   wedging a recovery loop against a dead peer.
//!
//! Everything is virtual-time and seed-driven: the event schedule is
//! computed up front and replayed in sorted order, per-switch loss draws
//! come from per-switch seeded [`LossyChannel`]s, and each worker's
//! router consumes its messages in a deterministic order — so a fixed
//! [`FleetConfig`] reproduces the same [`FleetReport`] byte for byte
//! (the property the chaos suite and the CI determinism gate pin down).

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::{Arc, Mutex};

use ow_common::afr::{AttrValue, FlowRecord};
use ow_common::block::RecordBlock;
use ow_common::flowkey::FlowKey;
use ow_common::hash::mix64;
use ow_common::metrics::ReliabilityMetrics;
use ow_common::time::{Duration, Instant};
use ow_controller::live::{ReliableLiveController, ReliableMsg};
use ow_controller::reliability::RetryPolicy;
use ow_obs::{Cmp, Counter, Gauge, MetricSelector, Obs, Rule, RuleSet, Severity, Signal};

use ow_sketch::traits::{FrequencySketch, InvertibleSketch};
use ow_sketch::MvSketch;

use crate::fault::{FaultConfig, FaultStats, LossyChannel, PacketClass};

/// Bits of the global sub-window id reserved for the switch-local
/// window index; the rest carry the switch id.
const LOCAL_BITS: u32 = 8;

/// How many surviving AFR clones one wire block carries. Smaller than
/// the controller's scatter capacity: the fleet models NIC-sized bursts,
/// and a lost burst should not erase a whole sub-window.
const FLEET_BLOCK_CAPACITY: usize = 256;

/// AFRs per per-switch sub-window batch.
pub(crate) const RECORDS_PER_WINDOW: u32 = 24;

/// Flow-key population the synthetic batches draw from (keys are
/// shared fleet-wide, so merges overlap across switches).
pub(crate) const POPULATION: u32 = 64;

/// Virtual length of one sub-window period.
pub(crate) const SUBWINDOW_LEN: Duration = Duration::from_millis(1);

/// Switches per rack (the correlated failure domain).
pub(crate) const RACK_SIZE: u32 = 8;

/// Channel and shard-queue depth of every worker's controller; callers
/// judging a fleet run with the controller health catalog pass it this.
pub const QUEUE_DEPTH: usize = 256;

/// Salt for the rendezvous assignment weights (fixed so the assignment
/// is a pure function of `(switch, workers)`).
const ASSIGN_SALT: u64 = 0x6f77_666c_6565_7431;

/// Salt for per-switch stagger offsets.
const STAGGER_SALT: u64 = 0x6f77_7374_6167_6731;

/// Salt for the synthetic per-window workload.
const WORKLOAD_SALT: u64 = 0x6f77_776f_726b_6c64;

/// Namespace a switch-local sub-window into the fleet-global id one
/// controller worker keys its sessions by.
///
/// # Panics
/// Panics when `local` ≥ 2⁸ or `switch` ≥ 2²⁴ (the packing bounds).
pub(crate) fn global_subwindow(switch: u32, local: u32) -> u32 {
    assert!(
        local < (1 << LOCAL_BITS),
        "local window {local} out of range"
    );
    assert!(
        switch < (1 << (32 - LOCAL_BITS)),
        "switch {switch} out of range"
    );
    (switch << LOCAL_BITS) | local
}

/// Rendezvous (highest-random-weight) assignment of a switch to one of
/// `workers` controller workers: deterministic, uniform, and minimally
/// disruptive when the worker count changes.
///
/// # Panics
/// Panics when `workers` is zero.
pub(crate) fn worker_of(switch: u32, workers: usize) -> usize {
    assert!(workers > 0, "a fleet needs at least one worker");
    (0..workers)
        .max_by_key(|&w| mix64(ASSIGN_SALT ^ ((switch as u64) << 32) ^ w as u64))
        .expect("workers > 0")
}

/// What a churn event does to its switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnKind {
    /// The switch joins the fleet at the event time (it is absent — no
    /// windows scheduled — before then).
    Join,
    /// Graceful leave: no new windows start, but windows already
    /// announced drain to completion (their streams finish).
    Leave,
    /// Crash: windows already announced but not yet end-of-streamed are
    /// abandoned through the controller's `Depart` path; nothing else
    /// from this switch is ever heard again.
    Crash,
}

/// One mid-run membership change.
#[derive(Debug, Clone, Copy)]
pub struct ChurnEvent {
    /// Virtual time of the change.
    pub at: Duration,
    /// The switch joining, leaving, or crashing.
    pub switch: u32,
    /// What happens.
    pub kind: ChurnKind,
}

/// A rack-correlated loss burst: every switch in `rack` transmits its
/// AFR streams at `loss` for events inside `[from, until)`.
#[derive(Debug, Clone, Copy)]
pub struct RackBurst {
    /// The failure domain (rack index, `switch / RACK_SIZE`).
    pub rack: u32,
    /// Burst start (inclusive, virtual time).
    pub from: Duration,
    /// Burst end (exclusive, virtual time).
    pub until: Duration,
    /// AFR loss probability during the burst.
    pub loss: f64,
}

/// Configuration of one fleet run.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Fleet size (switch count), < 2²⁴.
    pub switches: u32,
    /// Controller workers the fleet is rendezvous-hashed onto.
    pub workers: usize,
    /// Merge shards per worker.
    pub shards_per_worker: usize,
    /// Sub-windows each switch terminates over the run, < 2⁸.
    pub local_windows: u32,
    /// Baseline per-link AFR-stream loss probability.
    pub afr_loss: f64,
    /// Rack-level loss bursts.
    pub bursts: Vec<RackBurst>,
    /// Membership churn schedule.
    pub churn: Vec<ChurnEvent>,
    /// Force every Nth started window's retransmission back-channel
    /// dead (recovery must escalate to the OS read); 0 disables.
    pub escalate_every: u32,
    /// When set to `(rows, width)`, each switch announces the
    /// heavy-hitter view recovered from an MV-Sketch of that geometry
    /// instead of its exact batch — modelling a data plane whose sketch
    /// is the only record of the window. An undersized geometry loses
    /// flows *before* the channel, which only the accuracy observatory
    /// (not transport health) can see. `None` announces exact batches.
    pub sketch_feed: Option<(usize, usize)>,
    /// Seed driving stagger offsets, workloads, and loss draws.
    pub seed: u64,
}

impl Default for FleetConfig {
    fn default() -> FleetConfig {
        FleetConfig {
            switches: 32,
            workers: 4,
            shards_per_worker: 2,
            local_windows: 4,
            afr_loss: 0.10,
            bursts: Vec::new(),
            churn: Vec::new(),
            escalate_every: 0,
            sketch_feed: None,
            seed: 1,
        }
    }
}

/// The failure domain of a switch.
fn rack_of(switch: u32) -> u32 {
    switch / RACK_SIZE
}

impl FleetConfig {
    /// The deterministic per-switch phase offset within the sub-window
    /// period (the de-spiking stagger).
    pub fn stagger_ns(&self, switch: u32) -> u64 {
        let period = SUBWINDOW_LEN.as_nanos();
        mix64(STAGGER_SALT ^ self.seed ^ switch as u64) % period
    }

    /// When `switch` announces its `local`-th sub-window.
    fn announce_ns(&self, switch: u32, local: u32) -> u64 {
        local as u64 * SUBWINDOW_LEN.as_nanos() + self.stagger_ns(switch)
    }

    /// When `switch` finishes streaming its `local`-th sub-window.
    fn eos_ns(&self, switch: u32, local: u32) -> u64 {
        self.announce_ns(switch, local) + SUBWINDOW_LEN.as_nanos() / 2
    }

    /// The lossless single-worker control run used as the merge-identity
    /// baseline: identical fleet, workloads, stagger, and churn
    /// schedule, but zero loss and one worker. The surviving window set
    /// is schedule-determined (announcements travel reliably), so the
    /// baseline merges exactly the windows the chaotic run merges.
    pub fn lossless_baseline(&self) -> FleetConfig {
        FleetConfig {
            workers: 1,
            shards_per_worker: 1,
            afr_loss: 0.0,
            bursts: Vec::new(),
            escalate_every: 0,
            ..self.clone()
        }
    }

    /// The synthetic AFR batch of `(switch, local)`: deterministic keys
    /// over the shared population, seq-numbered for the §8 loop.
    pub(crate) fn workload(&self, switch: u32, local: u32) -> Vec<FlowRecord> {
        let global = global_subwindow(switch, local);
        (0..RECORDS_PER_WINDOW)
            .map(|i| {
                let draw = mix64(WORKLOAD_SALT ^ self.seed ^ ((global as u64) << 16) ^ i as u64);
                let key = (draw % POPULATION as u64) as u32;
                let count = 1 + (draw >> 32) % 100;
                let mut rec = FlowRecord::frequency(FlowKey::src_ip(key), count, global);
                rec.seq = i;
                rec
            })
            .collect()
    }

    /// The batch `(switch, local)` actually announces: the exact
    /// workload unless [`FleetConfig::sketch_feed`] is set, in which
    /// case the window passes through an MV-Sketch of that geometry and
    /// the announced records are its recovered heavy-hitter candidates
    /// with their estimated counts. The sketch's quality readings go to
    /// `obs` as `ow_sketch_*{sketch="mv"}`: its occupancy, and its
    /// collision and eviction tallies (each window's sketch is fresh, so
    /// the tallies are this window's).
    pub(crate) fn announced_batch(
        &self,
        exact: &[FlowRecord],
        global: u32,
        obs: &Obs,
    ) -> Vec<FlowRecord> {
        let Some((rows, width)) = self.sketch_feed else {
            return exact.to_vec();
        };
        let mut mv = MvSketch::new(rows, width, self.seed ^ u64::from(global));
        for rec in exact {
            mv.update(&rec.key, rec.attr.scalar().round() as u64);
        }
        // `candidates()` is sorted and deduped, so the derived batch —
        // and everything downstream of it — is deterministic.
        let mut batch: Vec<FlowRecord> = mv
            .candidates()
            .into_iter()
            .map(|key| FlowRecord::frequency(key, mv.query(&key), global))
            .collect();
        for (i, rec) in batch.iter_mut().enumerate() {
            rec.seq = i as u32;
        }
        let label = [("sketch", "mv")];
        obs.gauge("ow_sketch_occupancy_permille", &label)
            .set(mv.occupancy_permille());
        obs.counter("ow_sketch_hash_collisions_total", &label)
            .add(mv.collisions());
        obs.counter("ow_sketch_heavy_evicts_total", &label)
            .add(mv.heavy_evicts());
        batch
    }
}

/// What happens at one scheduled instant of the fleet run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FleetEventKind {
    Join,
    Announce,
    Eos,
    Leave,
    Crash,
}

/// One entry of the precomputed, totally ordered event schedule.
#[derive(Debug, Clone, Copy)]
struct FleetEvent {
    at_ns: u64,
    /// Tie-break rank so same-instant events replay in a fixed order
    /// (joins first, then traffic, then departures).
    rank: u8,
    switch: u32,
    local: u32,
    kind: FleetEventKind,
}

/// Per-switch membership interval derived from the churn schedule.
#[derive(Debug, Clone, Copy)]
struct Presence {
    /// First instant the switch is live.
    from_ns: u64,
    /// First instant the switch is gone (`u64::MAX` = never leaves).
    until_ns: u64,
    crashes: bool,
}

/// Outcome of a fleet run.
#[derive(Debug)]
pub struct FleetReport {
    /// Fleet size the run was configured with.
    pub switches: u32,
    /// Controller workers.
    pub workers: usize,
    /// Windows whose announcement was sent (started lifecycles).
    pub started_windows: u64,
    /// Windows that merged complete batches.
    pub merged_windows: u64,
    /// Windows abandoned because their switch crashed mid-window.
    pub departed_windows: u64,
    /// Started windows per worker, in worker order.
    pub per_worker_started: Vec<u64>,
    /// Reliability counters folded across every worker.
    pub metrics: ReliabilityMetrics,
    /// Per-class delivery counters summed over every per-link channel.
    pub fault_stats: FaultStats,
    /// The fleet-wide merged view, folded across workers in canonical
    /// (ascending packed key) order — `encode_merged` on this is the
    /// byte-identity witness against the lossless baseline.
    pub merged: Vec<(FlowKey, AttrValue)>,
}

impl FleetReport {
    /// Every started window ended its lifecycle: merged or released via
    /// departure, nothing wedged in between.
    pub fn all_windows_accounted(&self) -> bool {
        self.started_windows == self.merged_windows + self.departed_windows
    }
}

/// Build the totally ordered event schedule for `cfg`.
fn schedule(cfg: &FleetConfig) -> (Vec<FleetEvent>, HashMap<u32, Presence>) {
    let mut presence: HashMap<u32, Presence> = (0..cfg.switches)
        .map(|s| {
            (
                s,
                Presence {
                    from_ns: 0,
                    until_ns: u64::MAX,
                    crashes: false,
                },
            )
        })
        .collect();
    for ev in &cfg.churn {
        assert!(ev.switch < cfg.switches, "churn references unknown switch");
        let p = presence.get_mut(&ev.switch).expect("bounded above");
        match ev.kind {
            ChurnKind::Join => p.from_ns = p.from_ns.max(ev.at.as_nanos()),
            ChurnKind::Leave => {
                p.until_ns = p.until_ns.min(ev.at.as_nanos());
            }
            ChurnKind::Crash => {
                if ev.at.as_nanos() <= p.until_ns {
                    p.until_ns = ev.at.as_nanos();
                    p.crashes = true;
                }
            }
        }
    }

    let mut events: Vec<FleetEvent> = Vec::new();
    for (&switch, p) in &presence {
        if p.from_ns > 0 {
            events.push(FleetEvent {
                at_ns: p.from_ns,
                rank: 0,
                switch,
                local: 0,
                kind: FleetEventKind::Join,
            });
        }
        if p.until_ns != u64::MAX {
            events.push(FleetEvent {
                at_ns: p.until_ns,
                rank: 3,
                switch,
                local: 0,
                kind: if p.crashes {
                    FleetEventKind::Crash
                } else {
                    FleetEventKind::Leave
                },
            });
        }
        for local in 0..cfg.local_windows {
            let announce = cfg.announce_ns(switch, local);
            if announce < p.from_ns || announce >= p.until_ns {
                continue;
            }
            events.push(FleetEvent {
                at_ns: announce,
                rank: 1,
                switch,
                local,
                kind: FleetEventKind::Announce,
            });
            let eos = cfg.eos_ns(switch, local);
            // A crash swallows the unfinished stream (the crash event
            // departs it); a graceful leave lets it drain.
            if !(p.crashes && eos >= p.until_ns) {
                events.push(FleetEvent {
                    at_ns: eos,
                    rank: 2,
                    switch,
                    local,
                    kind: FleetEventKind::Eos,
                });
            }
        }
    }
    events.sort_by_key(|e| (e.at_ns, e.rank, e.switch, e.local));
    (events, presence)
}

/// Run the fleet to completion and fold the outcome.
///
/// Every worker reports through `obs` (per-shard queue depth,
/// reliability folds, lifecycle transitions) and the run maintains the
/// fleet gauges: `ow_fleet_switches_live` tracks
/// membership through churn, and `ow_fleet_windows_inflight{worker=…}`
/// counts announced-but-unfinished windows per worker (both settle to
/// their final values deterministically). Counter and histogram totals
/// are deterministic per seed; journal *interleaving* across workers is
/// not, so determinism checks compare the report, not the journal.
pub fn run(cfg: &FleetConfig, obs: &Obs) -> FleetReport {
    assert!(cfg.switches > 0, "a fleet needs switches");
    let (events, presence) = schedule(cfg);

    // The switch-OS retained copies: every announced batch, keyed by
    // global sub-window. Workers read it from their router threads; the
    // channel send ordering makes each insert visible before the worker
    // can ask for it. Crash churn never mutates this map — windows whose
    // stream finished before the crash still recover from retained data.
    let store: Arc<Mutex<HashMap<u32, Vec<FlowRecord>>>> = Arc::new(Mutex::new(HashMap::new()));
    // Windows whose retransmission back-channel is forced dead (the
    // escalation drill), fixed before any worker starts.
    let dead: Arc<HashSet<u32>> = {
        let mut dead = HashSet::new();
        if cfg.escalate_every > 0 {
            let mut ordinal = 0u32;
            for ev in &events {
                if ev.kind == FleetEventKind::Announce {
                    ordinal += 1;
                    if ordinal % cfg.escalate_every == 0 {
                        dead.insert(global_subwindow(ev.switch, ev.local));
                    }
                }
            }
        }
        Arc::new(dead)
    };

    // Per-worker window counts size each worker's sliding span so no
    // window is evicted before shutdown (the fleet compares *complete*
    // merged views; sliding retention is exercised elsewhere).
    let mut per_worker_started = vec![0u64; cfg.workers];
    for ev in &events {
        if ev.kind == FleetEventKind::Announce {
            per_worker_started[worker_of(ev.switch, cfg.workers)] += 1;
        }
    }

    let workers: Vec<ReliableLiveController> = (0..cfg.workers)
        .map(|w| {
            let retrans_store = store.clone();
            let retrans_dead = dead.clone();
            let os_store = store.clone();
            ReliableLiveController::spawn_sharded_obs(
                (per_worker_started[w] as usize).max(1) + 1,
                QUEUE_DEPTH,
                RetryPolicy::default(),
                Box::new(move |sw, seqs| {
                    if retrans_dead.contains(&sw) {
                        return Vec::new();
                    }
                    let store = retrans_store.lock().expect("store lock");
                    let batch = &store[&sw];
                    seqs.iter().map(|&s| batch[s as usize]).collect()
                }),
                Box::new(move |sw| {
                    let store = os_store.lock().expect("store lock");
                    (store[&sw].clone(), Duration::from_millis(2))
                }),
                cfg.shards_per_worker.max(1),
                Some(obs),
            )
        })
        .collect();

    let live_gauge = obs.gauge("ow_fleet_switches_live", &[]);
    let inflight_gauges: Vec<Gauge> = (0..cfg.workers)
        .map(|w| obs.gauge("ow_fleet_windows_inflight", &[("worker", &w.to_string())]))
        .collect();
    let initially_live = presence.values().filter(|p| p.from_ns == 0).count();
    live_gauge.set(initially_live as u64);
    // Health-engine inputs: crash liveness (leaves
    // are expected churn, crashes are faults), and per-rack offered/
    // dropped AFR counters for correlated-degradation detection. All
    // maintained on the replay thread, so totals are deterministic.
    let rack_count = cfg.switches.div_ceil(RACK_SIZE);
    let crash_counter = obs.counter("ow_fleet_switch_crashes_total", &[]);
    let rack_counters: Vec<(Counter, Counter)> = (0..rack_count)
        .map(|r| {
            let r = r.to_string();
            (
                obs.counter("ow_fleet_rack_offered_total", &[("rack", &r)]),
                obs.counter("ow_fleet_rack_dropped_total", &[("rack", &r)]),
            )
        })
        .collect();
    // The accuracy observatory's feeder side: the oracle receives every
    // exact batch before loss and before any sketch compression.
    let accuracy = obs.accuracy();

    // Per-switch lossy links: a baseline channel plus a degraded burst
    // channel, both privately seeded so the draw sequences are fixed by
    // the schedule alone.
    let mut channels: HashMap<u32, (LossyChannel, LossyChannel)> = (0..cfg.switches)
        .map(|s| {
            let base = LossyChannel::new(FaultConfig::afr_loss(
                cfg.seed ^ mix64(s as u64),
                cfg.afr_loss,
            ));
            let burst_loss = cfg
                .bursts
                .iter()
                .find(|b| b.rack == rack_of(s))
                .map_or(cfg.afr_loss, |b| b.loss);
            let burst = LossyChannel::new(FaultConfig::afr_loss(
                cfg.seed ^ mix64(s as u64 | 1 << 40),
                burst_loss,
            ));
            (s, (base, burst))
        })
        .collect();
    let in_burst = |switch: u32, at_ns: u64| {
        cfg.bursts.iter().any(|b| {
            b.rack == rack_of(switch) && at_ns >= b.from.as_nanos() && at_ns < b.until.as_nanos()
        })
    };

    // Replay the schedule: every message lands on its worker in this
    // deterministic order.
    let mut started = 0u64;
    let mut departed = 0u64;
    let mut inflight: HashMap<u32, Vec<(u32, usize)>> = HashMap::new();
    for ev in &events {
        let worker = worker_of(ev.switch, cfg.workers);
        match ev.kind {
            FleetEventKind::Join => live_gauge.inc(),
            FleetEventKind::Announce => {
                let global = global_subwindow(ev.switch, ev.local);
                let exact = cfg.workload(ev.switch, ev.local);
                if let Some(acc) = &accuracy {
                    acc.feed_truth(global, &exact);
                }
                let batch = cfg.announced_batch(&exact, global, obs);
                store
                    .lock()
                    .expect("store lock")
                    .insert(global, batch.clone());
                workers[worker]
                    .sender
                    .send(ReliableMsg::Announce {
                        subwindow: global,
                        announced: batch.len() as u32,
                    })
                    .expect("worker alive");
                let (base, burst) = channels.get_mut(&ev.switch).expect("declared switch");
                let channel = if in_burst(ev.switch, ev.at_ns) {
                    burst
                } else {
                    base
                };
                // Whatever survived the channel travels in columnar
                // bursts: one queue send per block, not per record.
                let offered = batch.len() as u64;
                let survivors = channel.transmit(PacketClass::AfrReport, batch);
                let (offered_total, dropped_total) = &rack_counters[rack_of(ev.switch) as usize];
                offered_total.add(offered);
                dropped_total.add(offered - survivors.len() as u64);
                for chunk in survivors.chunks(FLEET_BLOCK_CAPACITY) {
                    workers[worker]
                        .sender
                        .send(ReliableMsg::AfrBlock(RecordBlock::from_records(
                            global, chunk,
                        )))
                        .expect("worker alive");
                }
                started += 1;
                inflight
                    .entry(ev.switch)
                    .or_default()
                    .push((global, worker));
                inflight_gauges[worker].inc();
            }
            FleetEventKind::Eos => {
                let global = global_subwindow(ev.switch, ev.local);
                workers[worker]
                    .sender
                    .send(ReliableMsg::EndOfStream { subwindow: global })
                    .expect("worker alive");
                if let Some(open) = inflight.get_mut(&ev.switch) {
                    open.retain(|&(g, _)| g != global);
                }
                inflight_gauges[worker].dec();
            }
            FleetEventKind::Leave => live_gauge.dec(),
            FleetEventKind::Crash => {
                live_gauge.dec();
                crash_counter.inc();
                for (global, w) in inflight.remove(&ev.switch).unwrap_or_default() {
                    workers[w]
                        .sender
                        .send(ReliableMsg::Depart { subwindow: global })
                        .expect("worker alive");
                    departed += 1;
                    inflight_gauges[w].dec();
                }
            }
        }
    }

    // Drain the tier and fold the outcome.
    let mut metrics = ReliabilityMetrics::default();
    let mut merged_windows = 0u64;
    let mut folded: BTreeMap<u128, (FlowKey, AttrValue)> = BTreeMap::new();
    for ctl in workers {
        let handle = ctl.handle.clone();
        metrics.merge(&ctl.join());
        merged_windows += handle.subwindows().len() as u64;
        for (key, value) in handle.snapshot() {
            match folded.entry(key.as_u128()) {
                std::collections::btree_map::Entry::Occupied(mut e) => {
                    e.get_mut()
                        .1
                        .merge(&value)
                        .expect("one merge kind per key in the fleet workload");
                }
                std::collections::btree_map::Entry::Vacant(e) => {
                    e.insert((key, value));
                }
            }
        }
    }
    let mut fault_stats = FaultStats::default();
    for (base, burst) in channels.values() {
        fault_stats.merge(base.stats());
        fault_stats.merge(burst.stats());
    }
    // Evaluate the health engine (when installed) at the settle point:
    // after every worker has drained and joined, counter totals and
    // final gauge values — accuracy scores included, each window having
    // been scored by the worker that merged it — are deterministic per
    // seed. Journal *interleaving* across workers is not, which is
    // exactly why the fleet ticks at settle instead of mid-replay.
    if let Some(health) = obs.health() {
        let settle_ns = events.last().map_or(0, |e| e.at_ns) + SUBWINDOW_LEN.as_nanos();
        health.tick(Instant(settle_ns));
    }
    FleetReport {
        switches: cfg.switches,
        workers: cfg.workers,
        started_windows: started,
        merged_windows,
        departed_windows: departed,
        per_worker_started,
        metrics,
        fault_stats,
        merged: folded.into_values().collect(),
    }
}

/// Rack-degradation threshold (‰ of offered AFRs dropped) for
/// `OW-HEALTH-302`: comfortably above the 30% heavy-loss steady state,
/// comfortably below a bursting rack's drop rate.
pub(crate) const RACK_DEGRADED_PERMILLE: u64 = 500;

/// The fleet rule catalog (`OW-HEALTH-3xx`) for runs driven through
/// [`run`]. Evaluated at the post-drain settle tick, so every signal
/// reads settled, deterministic totals.
///
/// | code | rule | signal |
/// |------|------|--------|
/// | `OW-HEALTH-301` | `fleet_switch_crash` | any crash departure (graceful leaves stay silent) |
/// | `OW-HEALTH-302` | `rack_degraded` | per-rack dropped/offered ratio above `RACK_DEGRADED_PERMILLE` |
/// | `OW-HEALTH-303` | `fleet_window_wedged` | in-flight windows left after the fleet drained (**critical**) |
pub fn fleet_health_rules() -> RuleSet {
    RuleSet::new(vec![
        Rule::new(
            "OW-HEALTH-301",
            "fleet_switch_crash",
            MetricSelector::new("ow_fleet_switch_crashes_total", &[]),
            Signal::Value,
            Cmp::Above,
            0,
            Severity::Warning,
        )
        .entity("fleet"),
        Rule::new(
            "OW-HEALTH-302",
            "rack_degraded",
            MetricSelector::new("ow_fleet_rack_dropped_total", &[]),
            Signal::RatioPermille {
                denominator: MetricSelector::new("ow_fleet_rack_offered_total", &[]),
            },
            Cmp::Above,
            RACK_DEGRADED_PERMILLE,
            Severity::Warning,
        )
        .group_by("rack")
        .entity("rack"),
        Rule::new(
            "OW-HEALTH-303",
            "fleet_window_wedged",
            MetricSelector::new("ow_fleet_windows_inflight", &[]),
            Signal::Value,
            Cmp::Above,
            0,
            Severity::Critical,
        )
        .entity("fleet"),
    ])
    .expect("fleet rule catalog validates")
}

#[cfg(test)]
mod tests {
    use super::*;
    use ow_obs::AlertEvent;
    use std::collections::BTreeSet;

    #[test]
    fn rendezvous_assignment_is_stable_and_minimally_disruptive() {
        let before: Vec<usize> = (0..256).map(|s| worker_of(s, 8)).collect();
        // Deterministic.
        assert_eq!(
            before,
            (0..256).map(|s| worker_of(s, 8)).collect::<Vec<_>>()
        );
        // Every worker serves someone.
        for w in 0..8 {
            assert!(before.contains(&w), "worker {w} unused");
        }
        // Growing the tier only moves switches *onto* the new worker.
        let after: Vec<usize> = (0..256).map(|s| worker_of(s, 9)).collect();
        let moved = before
            .iter()
            .zip(&after)
            .filter(|(b, a)| b != a)
            .collect::<Vec<_>>();
        assert!(!moved.is_empty(), "the new worker takes some load");
        assert!(
            moved.iter().all(|(_, &a)| a == 8),
            "moves only target the new worker"
        );
    }

    #[test]
    fn global_subwindow_round_trips() {
        for switch in [0u32, 1, 511, (1 << 23) - 1] {
            for local in [0u32, 1, 255] {
                let global = global_subwindow(switch, local);
                assert_eq!(global >> LOCAL_BITS, switch);
                assert_eq!(global & ((1 << LOCAL_BITS) - 1), local);
            }
        }
    }

    #[test]
    fn stagger_spreads_the_fleet_across_the_period() {
        let cfg = FleetConfig {
            switches: 128,
            ..FleetConfig::default()
        };
        let offsets: HashSet<u64> = (0..cfg.switches).map(|s| cfg.stagger_ns(s)).collect();
        assert!(
            offsets.len() > 100,
            "128 switches landed on only {} distinct offsets",
            offsets.len()
        );
        let period = SUBWINDOW_LEN.as_nanos();
        assert!(offsets.iter().all(|&o| o < period));
    }

    #[test]
    fn small_lossless_fleet_merges_every_window() {
        let cfg = FleetConfig {
            switches: 8,
            workers: 2,
            local_windows: 3,
            afr_loss: 0.0,
            ..FleetConfig::default()
        };
        let report = run(&cfg, &Obs::new());
        assert_eq!(report.started_windows, 24);
        assert_eq!(report.merged_windows, 24);
        assert_eq!(report.departed_windows, 0);
        assert!(report.all_windows_accounted());
        assert!(report.metrics.lossless());
        assert_eq!(report.metrics.announced, 24 * 24);
        assert_eq!(report.per_worker_started.iter().sum::<u64>(), 24);
    }

    #[test]
    fn crash_churn_departs_only_unfinished_windows() {
        let cfg = FleetConfig {
            switches: 4,
            workers: 2,
            local_windows: 4,
            afr_loss: 0.0,
            // Crash switch 1 mid-run: whatever it announced without
            // finishing departs; everything else merges.
            churn: vec![ChurnEvent {
                at: Duration::from_micros(1_700),
                switch: 1,
                kind: ChurnKind::Crash,
            }],
            ..FleetConfig::default()
        };
        let report = run(&cfg, &Obs::new());
        assert!(report.all_windows_accounted());
        assert!(
            report.started_windows < 16,
            "the crash cancels later windows"
        );
        assert_eq!(report.metrics.departed, report.departed_windows);
    }

    #[test]
    fn same_seed_reproduces_the_report() {
        let cfg = FleetConfig {
            switches: 16,
            workers: 3,
            afr_loss: 0.2,
            escalate_every: 5,
            churn: vec![
                ChurnEvent {
                    at: Duration::from_micros(1_200),
                    switch: 3,
                    kind: ChurnKind::Crash,
                },
                ChurnEvent {
                    at: Duration::from_micros(2_500),
                    switch: 9,
                    kind: ChurnKind::Leave,
                },
            ],
            ..FleetConfig::default()
        };
        let a = run(&cfg, &Obs::new());
        let b = run(&cfg, &Obs::new());
        assert_eq!(a.started_windows, b.started_windows);
        assert_eq!(a.merged_windows, b.merged_windows);
        assert_eq!(a.departed_windows, b.departed_windows);
        assert_eq!(a.metrics, b.metrics);
        assert_eq!(a.fault_stats, b.fault_stats);
        assert_eq!(a.merged, b.merged);
    }

    #[test]
    fn lossless_fleet_with_health_engine_raises_no_alerts() {
        let obs = Obs::new();
        let engine = obs.install_health(fleet_health_rules());
        let cfg = FleetConfig {
            switches: 8,
            workers: 2,
            local_windows: 2,
            afr_loss: 0.0,
            ..FleetConfig::default()
        };
        let report = run(&cfg, &obs);
        assert!(report.metrics.lossless());
        // The false-positive gate: a clean fleet fires nothing.
        assert!(engine.timeline().is_empty(), "{:?}", engine.timeline());
        assert!(!engine.frozen());
        let snap = obs.snapshot();
        assert_eq!(snap.value("ow_health_fleet_score", &[]), 1000);
        assert_eq!(
            snap.value("ow_health_entity_score", &[("entity", "fleet")]),
            1000,
            "settle tick ran"
        );
    }

    #[test]
    fn crash_and_rack_burst_fire_exactly_their_fleet_rules() {
        let obs = Obs::new();
        let engine = obs.install_health(fleet_health_rules());
        let cfg = FleetConfig {
            switches: 16,
            workers: 2,
            local_windows: 3,
            afr_loss: 0.0,
            // Rack 1 (switches 8..16) degrades to 90% loss for the
            // whole run; rack 0 stays clean.
            bursts: vec![RackBurst {
                rack: 1,
                from: Duration::ZERO,
                until: Duration::from_millis(100),
                loss: 0.9,
            }],
            churn: vec![ChurnEvent {
                at: Duration::from_micros(1_700),
                switch: 2,
                kind: ChurnKind::Crash,
            }],
            ..FleetConfig::default()
        };
        let report = run(&cfg, &obs);
        assert!(report.all_windows_accounted());
        let pairs = |alerts: &[AlertEvent]| -> BTreeSet<(String, String)> {
            (alerts.iter())
                .map(|a| (a.code.clone(), a.entity.clone()))
                .collect()
        };
        let settled = pairs(&engine.timeline());
        let fired: Vec<(&str, &str)> = (settled.iter())
            .map(|(c, e)| (c.as_str(), e.as_str()))
            .collect();
        assert!(fired.contains(&("OW-HEALTH-301", "fleet")), "{fired:?}");
        assert!(fired.contains(&("OW-HEALTH-302", "rack:1")), "{fired:?}");
        // Precision: the healthy rack does not fire, nothing wedged.
        assert!(!fired.contains(&("OW-HEALTH-302", "rack:0")), "{fired:?}");
        assert!(
            !fired.iter().any(|(c, _)| *c == "OW-HEALTH-303"),
            "{fired:?}"
        );
        assert!(!engine.frozen(), "no critical rule fired");
        // A window still in flight after the fleet drained is wedged:
        // critical, so the next tick fires it beside every rule the
        // settled totals still breach, and freezes the black box.
        obs.gauge("ow_fleet_windows_inflight", &[("worker", "0")])
            .set(1);
        let wedged = pairs(&engine.tick(Instant::from_millis(200)).alerts);
        let new: Vec<(&str, &str)> = (wedged.difference(&settled))
            .map(|(c, e)| (c.as_str(), e.as_str()))
            .collect();
        assert_eq!(new, [("OW-HEALTH-303", "fleet")]);
        assert!(wedged.is_superset(&settled), "{wedged:?}");
        assert!(engine.frozen());
    }
}
