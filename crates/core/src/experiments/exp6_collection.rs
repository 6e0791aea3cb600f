//! Exp#6 (Figure 11): time of AFR generation and collection.
//!
//! Compares the seven collection paths on the paper's setup — a
//! Count-Min instance with 128 KB per state array and 1–4 hash
//! functions, 64 K flowkeys, 32 K cached in the data-plane array:
//!
//! * OS — conventional switch-OS read of the full sketch,
//! * CPC / CPC* — control-plane collection (inject all 64 K keys),
//! * DPC / DPC* — data-plane collection (enumerate all 64 K keys),
//! * OW / OW* — the hybrid (32 K enumerated + 32 K injected);
//!
//! starred variants use the RDMA optimisation with 16 recirculating
//! packets (3 without RDMA — DPDK cannot absorb more).

use serde::Serialize;

use ow_common::flowkey::{FlowKey, KeyKind};
use ow_common::packet::{Packet, TcpFlags};
use ow_common::time::Instant;
use ow_sketch::CountMin;
use ow_switch::app::{DataPlaneApp, FrequencyApp};
use ow_switch::collect::{collect_and_reset, CollectConfig, CollectMode};
use ow_switch::flowkey::FlowkeyTracker;

/// One (method, hash-count) measurement.
#[derive(Debug, Clone, Serialize)]
pub struct CollectionTime {
    /// Method label (OS, CPC, DPC, OW, CPC*, DPC*, OW*).
    pub method: String,
    /// Number of Count-Min hash functions (1–4).
    pub hashes: usize,
    /// Modelled collection time in milliseconds.
    pub millis: f64,
    /// AFRs produced (sanity: all methods collect every key).
    pub afrs: usize,
}

/// The whole experiment.
#[derive(Debug, Clone, Serialize)]
pub struct Exp6Result {
    /// All (method, hashes) cells of Figure 11.
    pub times: Vec<CollectionTime>,
}

/// Keys in the sub-window (paper: 64 K).
pub(crate) const TOTAL_KEYS: usize = 64 * 1024;
/// Keys cached in the data-plane flowkey array for the hybrid (32 K).
pub(crate) const CACHED_KEYS: usize = 32 * 1024;
/// Count-Min state array size (128 KB of 4-byte counters per array).
pub(crate) const ARRAY_BYTES: usize = 128 * 1024;

fn build_state(
    hashes: usize,
    fk_capacity: usize,
    keys: usize,
    seed: u64,
) -> (FrequencyApp<CountMin>, FlowkeyTracker) {
    let mut app = FrequencyApp::new(
        CountMin::new(hashes, ARRAY_BYTES / 4, seed),
        KeyKind::SrcIp,
        false,
    );
    let mut tracker = FlowkeyTracker::new(fk_capacity, keys, seed ^ 0x66);
    for i in 0..keys as u32 {
        let pkt = Packet::tcp(Instant::ZERO, i + 1, 9, 1, 80, TcpFlags::ack(), 64);
        app.update(&pkt);
        tracker.track(&FlowKey::src_ip(i + 1));
    }
    (app, tracker)
}

/// Run Exp#6: every method × 1–4 hash functions.
pub fn run(seed: u64) -> Exp6Result {
    run_sized(TOTAL_KEYS, CACHED_KEYS, seed)
}

/// Run with custom key counts (tests use smaller populations).
pub fn run_sized(total_keys: usize, cached_keys: usize, seed: u64) -> Exp6Result {
    let mut times = Vec::new();
    let methods: [(&str, CollectMode, usize, bool, usize); 7] = [
        // (label, mode, recirc packets, rdma, fk capacity)
        ("OS", CollectMode::SwitchOs, 0, false, total_keys),
        ("CPC", CollectMode::ControlPlane, 0, false, total_keys),
        ("DPC", CollectMode::DataPlane, 3, false, total_keys),
        ("OW", CollectMode::Hybrid, 3, false, cached_keys),
        ("CPC*", CollectMode::ControlPlane, 0, true, total_keys),
        ("DPC*", CollectMode::DataPlane, 16, true, total_keys),
        ("OW*", CollectMode::Hybrid, 16, true, cached_keys),
    ];
    for hashes in 1..=4usize {
        for (label, mode, recirc, rdma, fk) in methods {
            let (mut app, mut tracker) = build_state(hashes, fk, total_keys, seed);
            let out = collect_and_reset(
                &mut app,
                &mut tracker,
                0,
                CollectConfig {
                    mode,
                    recirc_packets: recirc,
                    rdma,
                },
            );
            times.push(CollectionTime {
                method: label.to_string(),
                hashes,
                millis: out.collect_time.as_millis_f64(),
                afrs: out.afrs.len(),
            });
        }
    }
    Exp6Result { times }
}

impl Exp6Result {
    /// Mean time of a method across hash counts, in ms.
    pub fn mean_ms(&self, method: &str) -> f64 {
        let v: Vec<f64> = self
            .times
            .iter()
            .filter(|t| t.method == method)
            .map(|t| t.millis)
            .collect();
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    }
}
