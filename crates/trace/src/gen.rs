//! Background-traffic generation: heavy-tailed flows with TCP structure.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ow_common::packet::{Packet, TcpFlags};
use ow_common::time::{Duration, Instant};
use ow_common::zipf::Zipf;

use crate::anomaly::Anomaly;

/// Fraction of flows that are TCP (the rest are UDP).
pub const TCP_FRACTION: f64 = 0.8;

/// Configuration of the synthetic background workload.
#[derive(Debug, Clone)]
pub struct TraceConfig {
    /// Total trace duration.
    pub duration: Duration,
    /// Number of distinct background flows active over the whole trace.
    pub flows: usize,
    /// Total background packets to generate.
    pub packets: usize,
    /// Zipf exponent for the flow popularity distribution.
    pub zipf_alpha: f64,
    /// RNG seed; all randomness derives from this.
    pub seed: u64,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            duration: Duration::from_millis(2_000),
            flows: 20_000,
            packets: 400_000,
            zipf_alpha: 1.05,
            seed: 0xCA1DA,
        }
    }
}

/// A generated trace: packets sorted by timestamp.
#[derive(Debug, Clone)]
pub struct Trace {
    /// Packets in non-decreasing timestamp order.
    pub packets: Vec<Packet>,
    /// Trace duration (copied from the config).
    pub duration: Duration,
}

impl Trace {
    /// Iterate over the packets.
    pub fn iter(&self) -> impl Iterator<Item = &Packet> {
        self.packets.iter()
    }

    /// Number of packets.
    pub fn len(&self) -> usize {
        self.packets.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.packets.is_empty()
    }
}

/// Builder combining background traffic with injected anomalies.
///
/// ```
/// use ow_trace::{TraceBuilder, TraceConfig, Anomaly, AnomalyKind};
/// use ow_common::time::{Duration, Instant};
///
/// let trace = TraceBuilder::new(TraceConfig {
///     duration: Duration::from_millis(500),
///     flows: 100,
///     packets: 2_000,
///     ..TraceConfig::default()
/// })
/// .with_anomaly(Anomaly {
///     kind: AnomalyKind::PortScan { ports: 50 },
///     id: 1,
///     start: Instant::from_millis(100),
///     duration: Duration::from_millis(200),
/// })
/// .build();
/// assert!(trace.len() > 2_000); // background + scan probes
/// ```
#[derive(Debug, Clone)]
pub struct TraceBuilder {
    config: TraceConfig,
    anomalies: Vec<Anomaly>,
}

/// The five-tuple assigned to background flow `id` (deterministic).
/// Exposed so tests and ground-truth computations can reference flows.
pub fn background_flow_tuple(id: u64, seed: u64) -> (u32, u32, u16, u16) {
    use ow_common::hash::mix64;
    let h = mix64(id.wrapping_mul(0x9E37_79B9).wrapping_add(seed));
    // Background hosts live in 10.0.0.0/8 to keep anomaly hosts
    // (injected in 192.168.0.0/16 and 172.16.0.0/12) disjoint.
    let src = 0x0A00_0000 | ((h >> 8) as u32 & 0x00FF_FFFF);
    let dst = 0x0A00_0000 | ((h >> 32) as u32 & 0x00FF_FFFF);
    let sport = 1024 + ((h >> 16) as u16 % 50_000);
    let dport = match (h >> 60) & 0x7 {
        0..=3 => 80,
        4 | 5 => 443,
        6 => 53,
        _ => 8080,
    };
    (src, dst, sport, dport)
}

impl TraceBuilder {
    /// Start building a trace with the given background configuration.
    pub fn new(config: TraceConfig) -> TraceBuilder {
        TraceBuilder {
            config,
            anomalies: Vec::new(),
        }
    }

    /// Add an anomaly to inject.
    pub fn with_anomaly(mut self, a: Anomaly) -> TraceBuilder {
        self.anomalies.push(a);
        self
    }

    /// Add several anomalies.
    pub fn with_anomalies(mut self, list: impl IntoIterator<Item = Anomaly>) -> TraceBuilder {
        self.anomalies.extend(list);
        self
    }

    /// Generate the final trace (background + anomalies, merged and
    /// sorted by timestamp; ties keep insertion order).
    pub fn build(self) -> Trace {
        let cfg = &self.config;
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut packets = Vec::with_capacity(cfg.packets + 1024 * self.anomalies.len());

        // --- Background flows -----------------------------------------
        // Each flow i (rank from Zipf) gets its share of the packet
        // budget; flow start/end times partition the duration so that
        // flows have realistic finite lifetimes.
        let zipf = Zipf::new(cfg.flows.max(1) as u64, cfg.zipf_alpha);
        let dur_ns = cfg.duration.as_nanos();

        // Draw per-packet flow ranks first, counting packets per flow.
        let mut per_flow: std::collections::BTreeMap<u64, u32> = std::collections::BTreeMap::new();
        for _ in 0..cfg.packets {
            *per_flow.entry(zipf.sample(&mut rng)).or_insert(0) += 1;
        }

        for (flow_id, count) in per_flow {
            let (src, dst, sport, dport) = background_flow_tuple(flow_id, cfg.seed);
            let is_tcp = (flow_id as f64 / cfg.flows as f64) < TCP_FRACTION
                || rng.gen::<f64>() < TCP_FRACTION * 0.2;

            // Flow lifetime: popular flows span most of the trace, small
            // flows are short-lived at a random offset.
            let life_frac = (count as f64 / 32.0).clamp(0.02, 1.0);
            let life_ns = ((dur_ns as f64) * life_frac) as u64;
            let start_ns = rng.gen_range(0..=(dur_ns - life_ns).max(1));

            if is_tcp {
                // SYN, data, FIN structure.
                let syn_ts = Instant::from_nanos(start_ns);
                packets.push(Packet::tcp(
                    syn_ts,
                    src,
                    dst,
                    sport,
                    dport,
                    TcpFlags::syn(),
                    64,
                ));
                let n_data = count.saturating_sub(2);
                for j in 0..n_data {
                    let frac = (j as u64 + 1) as f64 / (n_data as u64 + 2) as f64;
                    let jitter = rng.gen_range(0..1 + life_ns / (count as u64 + 1) / 2);
                    let ts = Instant::from_nanos(
                        (start_ns + (life_ns as f64 * frac) as u64 + jitter).min(dur_ns - 1),
                    );
                    let len = 64 + (rng.gen::<u16>() % 1400);
                    packets.push(Packet::tcp(
                        ts,
                        src,
                        dst,
                        sport,
                        dport,
                        TcpFlags::ack(),
                        len,
                    ));
                }
                if count >= 2 {
                    let fin_ts = Instant::from_nanos((start_ns + life_ns).min(dur_ns - 1));
                    packets.push(Packet::tcp(
                        fin_ts,
                        src,
                        dst,
                        sport,
                        dport,
                        TcpFlags::fin_ack(),
                        64,
                    ));
                }
            } else {
                for j in 0..count {
                    let frac = j as f64 / count.max(1) as f64;
                    let ts = Instant::from_nanos(
                        (start_ns + (life_ns as f64 * frac) as u64).min(dur_ns - 1),
                    );
                    let len = 64 + (rng.gen::<u16>() % 1200);
                    packets.push(Packet::udp(ts, src, dst, sport, dport, len));
                }
            }
        }

        // --- Anomalies --------------------------------------------------
        for (i, anomaly) in self.anomalies.iter().enumerate() {
            let mut arng = StdRng::seed_from_u64(cfg.seed ^ (0xA40A_0000 + i as u64));
            anomaly.inject(&mut packets, &mut arng);
        }

        packets.sort_by_key(|p| p.ts);
        Trace {
            packets,
            duration: cfg.duration,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ow_common::packet::{PROTO_TCP, PROTO_UDP};
    use std::collections::HashSet;

    fn small_config(seed: u64) -> TraceConfig {
        TraceConfig {
            duration: Duration::from_millis(500),
            flows: 2_000,
            packets: 20_000,
            zipf_alpha: 1.05,
            seed,
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let a = TraceBuilder::new(small_config(1)).build();
        let b = TraceBuilder::new(small_config(1)).build();
        assert_eq!(a.packets.len(), b.packets.len());
        assert_eq!(a.packets[..100], b.packets[..100]);
    }

    #[test]
    fn different_seeds_differ() {
        let a = TraceBuilder::new(small_config(1)).build();
        let b = TraceBuilder::new(small_config(2)).build();
        assert_ne!(a.packets[..50], b.packets[..50]);
    }

    #[test]
    fn sorted_by_timestamp() {
        let t = TraceBuilder::new(small_config(3)).build();
        for w in t.packets.windows(2) {
            assert!(w[0].ts <= w[1].ts);
        }
    }

    #[test]
    fn timestamps_within_duration() {
        let t = TraceBuilder::new(small_config(4)).build();
        let end = Instant::ZERO + t.duration;
        for p in &t.packets {
            assert!(p.ts < end, "packet at {} beyond duration", p.ts);
        }
    }

    #[test]
    fn flow_count_is_plausible() {
        let t = TraceBuilder::new(small_config(5)).build();
        let flows: HashSet<_> = t.packets.iter().map(|p| p.five_tuple()).collect();
        // Zipf sampling over 2000 flows should touch a large fraction.
        assert!(flows.len() > 500, "only {} flows", flows.len());
        assert!(flows.len() <= 2_000 + 10);
    }

    #[test]
    fn heavy_tail_exists() {
        let t = TraceBuilder::new(small_config(6)).build();
        let mut counts = std::collections::HashMap::new();
        for p in &t.packets {
            *counts.entry(p.five_tuple()).or_insert(0u64) += 1;
        }
        let max = counts.values().max().copied().unwrap_or(0);
        let mean = t.packets.len() as f64 / counts.len() as f64;
        assert!(
            max as f64 > mean * 20.0,
            "no elephants: max {max}, mean {mean:.1}"
        );
    }

    #[test]
    fn tcp_flows_have_syn_and_fin() {
        let t = TraceBuilder::new(small_config(7)).build();
        // Find a TCP flow with several packets and check structure.
        let mut by_flow: std::collections::HashMap<_, Vec<&Packet>> =
            std::collections::HashMap::new();
        for p in &t.packets {
            if p.proto == PROTO_TCP {
                by_flow.entry(p.five_tuple()).or_default().push(p);
            }
        }
        let mut checked = 0;
        for (_, pkts) in by_flow {
            if pkts.len() >= 3 {
                assert!(pkts.iter().any(|p| p.tcp_flags.is_pure_syn()));
                assert!(pkts.iter().any(|p| p.tcp_flags.has_fin()));
                checked += 1;
            }
            if checked > 20 {
                break;
            }
        }
        assert!(checked > 0, "no multi-packet TCP flows found");
    }

    #[test]
    fn udp_traffic_present() {
        let t = TraceBuilder::new(small_config(8)).build();
        assert!(t.packets.iter().any(|p| p.proto == PROTO_UDP));
    }

    #[test]
    fn packet_budget_roughly_met() {
        let cfg = small_config(9);
        let budget = cfg.packets;
        let t = TraceBuilder::new(cfg).build();
        // SYN/FIN overhead adds a bit; must be within 20%.
        let n = t.packets.len();
        assert!(n >= budget * 9 / 10 && n <= budget * 12 / 10, "count {n}");
    }
}
