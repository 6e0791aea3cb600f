//! Exp#9 (Figure 14): consistency under clock deviation.
//!
//! Two switches run LossRadar on a lossy link. The sub-window of each
//! packet is decided either by OmniWindow's consistency model (stamped
//! once at the first hop, honoured downstream) or by each switch's
//! local, PTP-synchronised clock with a deviation of 2–512 µs. Under
//! local clocks, packets near sub-window boundaries are digested into
//! different sub-windows on the two switches and decode as phantom
//! losses — precision collapses as the deviation grows, while the
//! consistency model stays at 100%.

use std::collections::{HashMap, HashSet};

use serde::Serialize;

use ow_common::flowkey::FlowKey;
use ow_common::packet::{Packet, TcpFlags};
use ow_common::time::{Duration, Instant};
use ow_netsim::lossradar::{loss_report, packet_id, LossRadarMeter, WindowAssign};
use ow_netsim::sim::{Link, NetSim, NodeConfig};

/// One (mode, deviation) precision measurement.
#[derive(Debug, Clone, Serialize)]
pub struct ConsistencyPoint {
    /// "OmniWindow" or "LocalClock".
    pub mode: String,
    /// Clock deviation in microseconds.
    pub deviation_us: u64,
    /// Precision of the flow-level loss report.
    pub precision: f64,
    /// Recall of the flow-level loss report.
    pub recall: f64,
    /// Flows reported lossy.
    pub reported: usize,
    /// Flows that truly lost packets.
    pub truth: usize,
}

/// The whole experiment.
#[derive(Debug, Clone, Serialize)]
pub struct Exp9Result {
    /// All points of Figure 14.
    pub points: Vec<ConsistencyPoint>,
}

/// Workload parameters for the two-switch LossRadar deployment.
#[derive(Debug, Clone)]
pub struct Exp9Config {
    /// Distinct flows.
    pub flows: usize,
    /// Packets per flow.
    pub pkts_per_flow: usize,
    /// Trace duration.
    pub duration: Duration,
    /// Sub-window length.
    pub subwindow: Duration,
    /// Link loss probability.
    pub loss_prob: f64,
    /// IBLT cells per sub-window digest.
    pub iblt_cells: usize,
    /// Clock deviations to sweep (µs).
    pub deviations_us: Vec<u64>,
    /// Seed.
    pub seed: u64,
}

impl Default for Exp9Config {
    fn default() -> Self {
        Exp9Config {
            flows: 400,
            pkts_per_flow: 50,
            duration: Duration::from_millis(1_000),
            subwindow: Duration::from_millis(10),
            loss_prob: 0.01,
            iblt_cells: 4096,
            deviations_us: vec![2, 4, 8, 16, 32, 64, 128, 256, 512],
            seed: 0xE9,
        }
    }
}

/// Build the measurement trace: `flows` flows, each with an intrinsic
/// per-packet sequence number in the OmniWindow header (standing in for
/// the packet-content identifiers LossRadar hashes).
fn build_trace(cfg: &Exp9Config) -> Vec<Packet> {
    let mut packets = Vec::with_capacity(cfg.flows * cfg.pkts_per_flow);
    let dur = cfg.duration.as_nanos();
    let gap = dur / cfg.pkts_per_flow as u64;
    for f in 0..cfg.flows as u32 {
        for s in 0..cfg.pkts_per_flow as u64 {
            // Uniform arrival within each inter-packet gap, so packets
            // cover the whole trace (and its sub-window boundaries).
            let jitter = ow_common::hash::mix64(cfg.seed ^ ((f as u64) << 20) ^ s) % gap.max(1);
            let ts = Instant::from_nanos((s * gap + jitter).min(dur - 1));
            let mut p = Packet::tcp(
                ts,
                0x0B00_0000 + f,
                0x0C00_0000 + (f % 16),
                1000 + (f % 40_000) as u16,
                80,
                TcpFlags::ack(),
                256,
            );
            p.ow.seq = s as u32;
            packets.push(p);
        }
    }
    packets.sort_by_key(|p| p.ts);
    packets
}

/// Run the trace along a path of switches with the given clock offsets:
/// the first hop stamps each packet's sub-window and digests it, the last
/// hop digests what arrives, and the loss report between the two is
/// scored against the flows whose packets the links truly dropped.
fn run_path(
    cfg: &Exp9Config,
    assign: WindowAssign,
    deviation_us: u64,
    offsets_ns: &[i64],
    links: &[Link],
    seed: u64,
) -> ConsistencyPoint {
    let trace = build_trace(cfg);
    // Map every possible packet id to its flow for report attribution.
    let mut id_to_flow: HashMap<u128, FlowKey> = HashMap::new();
    for p in &trace {
        id_to_flow.insert(packet_id(&p.five_tuple(), p.ow.seq), p.five_tuple());
    }

    let mut up = LossRadarMeter::new(assign, cfg.subwindow, cfg.iblt_cells, cfg.seed);
    let mut down = LossRadarMeter::new(assign, cfg.subwindow, cfg.iblt_cells, cfg.seed);
    let nodes = offsets_ns
        .iter()
        .map(|&clock_offset_ns| NodeConfig { clock_offset_ns })
        .collect();
    let mut sim = NetSim::path(nodes, links.to_vec(), seed);
    let last = offsets_ns.len() - 1;

    let sub_ns = cfg.subwindow.as_nanos();
    sim.run(&trace, |hop, _idx, pkt, local| {
        if hop == 0 {
            // First hop determines and embeds the sub-window (Lamport
            // stamp); its local clock is the reference.
            pkt.ow.subwindow = (local.as_nanos() / sub_ns) as u32;
            up.digest(pkt, local, pkt.ow.seq);
        } else if hop == last {
            down.digest(pkt, local, pkt.ow.seq);
        }
    });

    // Ground truth: flows that actually lost a packet on a link.
    let truth: HashSet<FlowKey> = sim
        .drops()
        .iter()
        .map(|d| trace[d.pkt_idx].five_tuple())
        .collect();

    // Decode: flows of reported-missing packet ids. Unknown ids (peeling
    // artefacts) count as false reports against a synthetic key.
    let lost_ids = loss_report(up, down);
    let mut reported: HashSet<FlowKey> = HashSet::new();
    for (i, id) in lost_ids.iter().enumerate() {
        match id_to_flow.get(id) {
            Some(f) => {
                reported.insert(*f);
            }
            None => {
                reported.insert(FlowKey::src_ip(0xFFFF_0000 + i as u32));
            }
        }
    }

    let pr = ow_common::metrics::precision_recall(&reported, &truth);
    ConsistencyPoint {
        mode: match assign {
            WindowAssign::Embedded => "OmniWindow".to_string(),
            WindowAssign::LocalClock => "LocalClock".to_string(),
        },
        deviation_us,
        precision: pr.precision,
        recall: pr.recall,
        reported: reported.len(),
        truth: truth.len(),
    }
}

/// Run Exp#9.
pub fn run(cfg: &Exp9Config) -> Exp9Result {
    let mut points = Vec::new();
    for &dev in &cfg.deviations_us {
        let offsets_ns = [0, dev as i64 * 1_000];
        let link = [Link {
            delay: Duration::from_micros(5),
            jitter: Duration::ZERO,
            loss_prob: cfg.loss_prob,
        }];
        for assign in [WindowAssign::Embedded, WindowAssign::LocalClock] {
            points.push(run_path(
                cfg,
                assign,
                dev,
                &offsets_ns,
                &link,
                cfg.seed ^ dev,
            ));
        }
    }
    Exp9Result { points }
}

/// One point of the path-length extension.
#[derive(Debug, Clone, Serialize)]
pub struct HopPoint {
    /// Switches on the path.
    pub hops: usize,
    /// Local-clock precision (OmniWindow stays at 1.0 by construction).
    pub local_clock_precision: f64,
    /// OmniWindow precision.
    pub omniwindow_precision: f64,
}

/// Extension of Exp#9: the paper remarks that "such measurement error is
/// amplified as the number of switches along the packet transmission
/// path increases" — per-hop clock deviation *and* accumulated
/// transmission delay push more packets across sub-window boundaries.
/// This sweep measures loss-detection precision between the first and
/// last switch of an `n`-hop chain whose clocks deviate by
/// `deviation_us` each (alternating sign, the PTP worst case).
pub fn run_hop_sweep(cfg: &Exp9Config, deviation_us: u64, hops: &[usize]) -> Vec<HopPoint> {
    hops.iter()
        .map(|&n| {
            assert!(n >= 2, "a chain needs at least two switches");
            // Alternating-sign offsets: switch k deviates by ±k·dev
            // (worst-case accumulation across a PTP tree).
            let offsets_ns: Vec<i64> = (0..n)
                .map(|k| k as i64 * deviation_us as i64 * 1_000 * if k % 2 == 0 { 1 } else { -1 })
                .collect();
            // Loss only on the last link; earlier links add delay.
            let links: Vec<Link> = (0..n - 1)
                .map(|k| Link {
                    delay: Duration::from_micros(20),
                    jitter: Duration::ZERO,
                    loss_prob: if k + 2 == n { cfg.loss_prob } else { 0.0 },
                })
                .collect();
            let seed = cfg.seed ^ deviation_us ^ n as u64;
            let precision =
                |assign| run_path(cfg, assign, deviation_us, &offsets_ns, &links, seed).precision;
            HopPoint {
                hops: n,
                local_clock_precision: precision(WindowAssign::LocalClock),
                omniwindow_precision: precision(WindowAssign::Embedded),
            }
        })
        .collect()
}

impl Exp9Result {
    /// Precision of a mode at a deviation.
    pub fn precision(&self, mode: &str, deviation_us: u64) -> Option<f64> {
        self.points
            .iter()
            .find(|p| p.mode == mode && p.deviation_us == deviation_us)
            .map(|p| p.precision)
    }
}
