//! Background-traffic generation: heavy-tailed flows with TCP structure.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ow_common::packet::{Packet, TcpFlags};
use ow_common::time::{Duration, Instant};
use ow_common::zipf::Zipf;

use crate::anomaly::Anomaly;

/// Fraction of flows that are TCP (the rest are UDP).
pub(crate) const TCP_FRACTION: f64 = 0.8;

/// Most time ranges [`TraceBuilder::build`] places packets through: a few
/// hundred sequential write heads, and a range of a multi-million-packet
/// trace (its scratch) still fits in L2.
const RANGES: usize = 512;

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
pub(crate) fn background_flow_tuple(id: u64, seed: u64) -> (u32, u32, u16, u16) {
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
    ///
    /// The packets are generated twice from the same RNG state, into one
    /// copy of the output: the first pass counts them into at most n/2
    /// time buckets (the index is monotone in `ts`), the second writes
    /// each into the next slot of its bucket's *range*, a run of buckets
    /// (at most 512 ranges), in generation order. Each range is
    /// then scattered by bucket into a scratch the size of the largest
    /// range, each small bucket is stably sorted there, and the range is
    /// copied back. A stable scatter of generation order followed by a
    /// stable sort of each bucket equals one stable sort of the whole
    /// generation order, in linear time, with ≤ 512 sequential write heads
    /// instead of one per bucket, and with one range-sized scratch
    /// instead of a second copy of the trace.
    pub fn build(self) -> Trace {
        let cfg = &self.config;
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let zipf = Zipf::new(cfg.flows.max(1) as u64, cfg.zipf_alpha);

        // Draw per-packet flow ranks (1..=flows) first, counting packets
        // per flow.
        let mut per_flow = vec![0u32; cfg.flows.max(1) + 1];
        for _ in 0..cfg.packets {
            per_flow[zipf.sample(&mut rng) as usize] += 1;
        }

        let mut anomalous = Vec::new();
        for (i, anomaly) in self.anomalies.iter().enumerate() {
            let mut arng = StdRng::seed_from_u64(cfg.seed ^ (0xA40A_0000 + i as u64));
            anomaly.inject(&mut anomalous, &mut arng);
        }

        // Background flows emit exactly their counted packets.
        let n = cfg.packets + anomalous.len();
        assert!(
            n < u32::MAX as usize,
            "a trace holds fewer than 2^32 packets"
        );
        let last_ns = anomalous
            .iter()
            .map(|p| p.ts.as_nanos())
            .fold(cfg.duration.as_nanos(), u64::max);
        // About n/2 buckets: the largest `ts >> shift` stays below n/2
        // rounded down to a power of two. A background packet lands past
        // the duration only in a trace shorter than 50 ns, hence the clamp.
        let bits = |x: u64| u64::BITS - x.leading_zeros();
        let shift = bits(last_ns)
            .saturating_sub(bits((n / 2).max(1) as u64) - 1)
            .min(u64::BITS - 1);
        let buckets = (last_ns >> shift) as usize + 1;
        let bucket = |p: &Packet| ((p.ts.as_nanos() >> shift) as usize).min(buckets - 1);

        // Pass 1: each bucket's size, then (exclusive prefix sum) its
        // first slot.
        let mut next = vec![0u32; buckets];
        background(cfg, &per_flow, &mut rng.clone(), |p| next[bucket(&p)] += 1);
        for p in &anomalous {
            next[bucket(p)] += 1;
        }
        let mut slot = 0;
        for c in &mut next {
            (*c, slot) = (slot, slot + *c);
        }

        // Ranges: runs of 2^range_shift buckets, at most RANGES of them;
        // `heads[r]` starts at range `r`'s first slot.
        let range_shift = bits(buckets as u64 - 1).saturating_sub(RANGES.trailing_zeros());
        let mut heads: Vec<u32> = next.iter().step_by(1 << range_shift).copied().collect();

        // Pass 2: background, then anomalies, each into its range's next
        // slot; afterwards `heads[r]` is where range `r` ends.
        let placeholder = Packet::udp(Instant::ZERO, 0, 0, 0, 0, 0);
        let mut packets = vec![placeholder; n];
        let mut place = |p: Packet| {
            let at = &mut heads[bucket(&p) >> range_shift];
            packets[*at as usize] = p;
            *at += 1;
        };
        background(cfg, &per_flow, &mut rng, &mut place);
        anomalous.into_iter().for_each(place);

        // Per range: scatter by bucket into the scratch (afterwards `next[b]`
        // is where bucket `b` ends), sort each bucket, copy the range back.
        let sizes = heads
            .iter()
            .scan(0, |lo, &hi| Some(hi - std::mem::replace(lo, hi)));
        let mut scratch = vec![placeholder; sizes.max().unwrap_or(0) as usize];
        let ranges = next.chunks_mut(1 << range_shift).zip(&heads);
        for (r, (ends, &hi)) in ranges.enumerate() {
            let (lo, first) = (ends[0] as usize, r << range_shift);
            let range = &mut packets[lo..hi as usize];
            for p in range.iter() {
                let at = &mut ends[bucket(p) - first];
                scratch[*at as usize - lo] = *p;
                *at += 1;
            }
            let mut start = 0;
            for &end in ends.iter() {
                let end = end as usize - lo;
                scratch[start..end].sort_by_key(|p| p.ts);
                start = end;
            }
            range.copy_from_slice(&scratch[..range.len()]);
        }
        Trace {
            packets,
            duration: cfg.duration,
        }
    }
}

/// Emit the background flows' packets, flow by flow in ascending rank,
/// given each rank's packet count (`per_flow[rank]`, rank 0 unused).
fn background(cfg: &TraceConfig, per_flow: &[u32], rng: &mut StdRng, mut emit: impl FnMut(Packet)) {
    // Each flow i (rank from Zipf) gets its share of the packet budget;
    // flow start/end times partition the duration so that flows have
    // realistic finite lifetimes.
    let dur_ns = cfg.duration.as_nanos();
    for (flow_id, &count) in per_flow.iter().enumerate() {
        if count == 0 {
            continue;
        }
        let flow_id = flow_id as u64;
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
            emit(Packet::tcp(
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
                emit(Packet::tcp(
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
                emit(Packet::tcp(
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
                emit(Packet::udp(ts, src, dst, sport, dport, len));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::anomaly::AnomalyKind;
    use ow_common::packet::{PROTO_TCP, PROTO_UDP};
    use proptest::prelude::*;
    use std::collections::HashSet;

    /// The definition `build` replaces: per-packet `BTreeMap` counts, every
    /// packet pushed in generation order, one stable sort by `ts`.
    fn build_reference(builder: TraceBuilder) -> Trace {
        let cfg = &builder.config;
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut packets = Vec::with_capacity(cfg.packets + 1024 * builder.anomalies.len());
        let zipf = Zipf::new(cfg.flows.max(1) as u64, cfg.zipf_alpha);
        let dur_ns = cfg.duration.as_nanos();
        let mut per_flow: std::collections::BTreeMap<u64, u32> = std::collections::BTreeMap::new();
        for _ in 0..cfg.packets {
            *per_flow.entry(zipf.sample(&mut rng)).or_insert(0) += 1;
        }
        for (flow_id, count) in per_flow {
            let (src, dst, sport, dport) = background_flow_tuple(flow_id, cfg.seed);
            let is_tcp = (flow_id as f64 / cfg.flows as f64) < TCP_FRACTION
                || rng.gen::<f64>() < TCP_FRACTION * 0.2;
            let life_frac = (count as f64 / 32.0).clamp(0.02, 1.0);
            let life_ns = ((dur_ns as f64) * life_frac) as u64;
            let start_ns = rng.gen_range(0..=(dur_ns - life_ns).max(1));
            if is_tcp {
                let syn = TcpFlags::syn();
                packets.push(Packet::tcp(
                    Instant::from_nanos(start_ns),
                    src,
                    dst,
                    sport,
                    dport,
                    syn,
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
                    let fin = TcpFlags::fin_ack();
                    packets.push(Packet::tcp(fin_ts, src, dst, sport, dport, fin, 64));
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
        for (i, anomaly) in builder.anomalies.iter().enumerate() {
            let mut arng = StdRng::seed_from_u64(cfg.seed ^ (0xA40A_0000 + i as u64));
            anomaly.inject(&mut packets, &mut arng);
        }
        packets.sort_by_key(|p| p.ts);
        Trace {
            packets,
            duration: cfg.duration,
        }
    }

    /// One anomaly of kind `kind` (0..10), sized by `size`, starting
    /// `start` and lasting `duration`.
    fn anomaly(kind: u8, size: usize, id: u32, start: Instant, duration: Duration) -> Anomaly {
        let kind = match kind {
            0 => AnomalyKind::NewTcpConns { conns: size },
            1 => AnomalyKind::SshBruteForce { attempts: size },
            2 => AnomalyKind::PortScan { ports: size },
            3 => AnomalyKind::Ddos { sources: size },
            4 => AnomalyKind::SynFlood { syns: size },
            5 => AnomalyKind::IncompleteFlows { flows: size },
            6 => AnomalyKind::Slowloris {
                conns: size,
                pkts_per_conn: 1 + size % 4,
            },
            7 => AnomalyKind::SuperSpreader { dsts: size },
            8 => AnomalyKind::HeavyFlow {
                pkts: size,
                pkt_len: 64 + size as u16,
            },
            _ => AnomalyKind::BoundaryBurst {
                pkts: size,
                boundary: start + duration,
                width: duration,
            },
        };
        Anomaly {
            kind,
            id,
            start,
            duration,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        /// `build` emits exactly the reference's packets in its order.
        #[test]
        fn build_equals_the_reference(
            seed in any::<u64>(),
            flows in prop_oneof![Just(1usize), 1usize..400],
            packets in prop_oneof![Just(0usize), 0usize..4_000],
            zipf_alpha in 0.3f64..1.5,
            ms in prop_oneof![Just(1u64), 1u64..400],
            // (kind, size, where it starts: 0 inside, 1 at the end, 2 after,
            // how far in, whether it is one instant: many equal timestamps)
            list in proptest::collection::vec(
                (0u8..10, 0usize..300, 0u8..3, 0u64..1_000, any::<bool>()),
                0..6,
            ),
        ) {
            let duration = Duration::from_millis(ms);
            let end_ns = duration.as_nanos();
            let anomalies = list.iter().enumerate().map(|(i, &(kind, size, at, permille, instant))| {
                let offset = end_ns * permille / 1_000;
                let start = Instant::from_nanos(match at {
                    0 => offset,
                    1 => end_ns,
                    _ => end_ns + offset,
                });
                let lasts = Duration::from_nanos(if instant { 1 } else { 1 + offset });
                anomaly(kind, size, i as u32, start, lasts)
            });
            let builder = TraceBuilder::new(TraceConfig {
                duration,
                flows,
                packets,
                zipf_alpha,
                seed,
            })
            .with_anomalies(anomalies);
            assert_equals_the_reference(builder);
        }
    }

    /// `build` against the reference on one trace, naming the first
    /// packet where they part.
    fn assert_equals_the_reference(builder: TraceBuilder) {
        let want = build_reference(builder.clone());
        let got = builder.build();
        assert_eq!(got.duration, want.duration);
        assert_eq!(got.packets.len(), want.packets.len());
        let first_difference = (0..got.packets.len()).find(|&i| got.packets[i] != want.packets[i]);
        assert_eq!(first_difference, None);
    }

    /// A benchmark workload's trace shape at its smoke size (packets and
    /// flows ÷ 20, at least 64 flows).
    fn smoke_shape(
        packets: usize,
        flows: usize,
        zipf_alpha: f64,
        ms: u64,
        seed: u64,
    ) -> TraceConfig {
        TraceConfig {
            duration: Duration::from_millis(ms),
            flows: (flows / 20).max(64),
            packets: packets / 20,
            zipf_alpha,
            seed,
        }
    }

    /// `hh_steady`, `flow_churn`, `window_query` and `lossy_recovery` (the
    /// last two share a shape, so they differ in seed).
    fn smoke_shapes() -> [TraceConfig; 4] {
        [
            smoke_shape(6_000_000, 4_000, 1.1, 10_000, 1),
            smoke_shape(2_000_000, 1_000_000, 0.4, 2_000, 2),
            smoke_shape(2_000_000, 200_000, 0.9, 2_000, 3),
            smoke_shape(2_000_000, 200_000, 0.9, 2_000, 4),
        ]
    }

    /// At these sizes a time range spans hundreds of buckets, not the
    /// handful the property's traces reach.
    #[test]
    fn build_equals_the_reference_on_the_benchmark_shapes() {
        for cfg in smoke_shapes() {
            let at = |permille| Instant::from_nanos(cfg.duration.as_nanos() * permille / 1_000);
            let anomalies = [
                anomaly(2, 2_000, 1, at(100), Duration::from_millis(50)),
                anomaly(9, 500, 2, at(600), Duration::from_nanos(1)),
            ];
            assert_equals_the_reference(TraceBuilder::new(cfg).with_anomalies(anomalies));
        }
    }

    /// Every packet at one instant: one bucket, so one range is the whole
    /// trace and the scratch is as long as the trace.
    #[test]
    fn build_equals_the_reference_at_one_instant() {
        let instant = Instant::from_millis(7);
        let anomalies = [2, 4, 8, 2]
            .iter()
            .enumerate()
            .map(|(i, &kind)| anomaly(kind, 5_000, i as u32, instant, Duration::from_nanos(1)));
        let builder = TraceBuilder::new(TraceConfig {
            duration: Duration::from_millis(10),
            flows: 1,
            packets: 0,
            zipf_alpha: 1.0,
            seed: 5,
        })
        .with_anomalies(anomalies);
        let trace = builder.clone().build();
        assert!(trace.packets.len() >= 4 * 5_000);
        assert!(trace.packets.iter().all(|p| p.ts == instant));
        assert_equals_the_reference(builder);
    }

    /// FNV-1a over every field of every packet, in trace order.
    fn digest(trace: &Trace) -> u64 {
        let mut h = 0xCBF2_9CE4_8422_2325u64;
        let mut fold = |bytes: &[u8]| {
            for &b in bytes {
                h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
            }
        };
        for p in &trace.packets {
            fold(&p.ts.as_nanos().to_le_bytes());
            fold(&p.src_ip.to_le_bytes());
            fold(&p.dst_ip.to_le_bytes());
            fold(&p.src_port.to_le_bytes());
            fold(&p.dst_port.to_le_bytes());
            fold(&[p.proto, p.tcp_flags.0, p.ow.flag as u8]);
            fold(&p.wire_len.to_le_bytes());
            fold(&p.ow.subwindow.to_le_bytes());
            fold(&p.ow.seq.to_le_bytes());
            fold(&p.app_tag.to_le_bytes());
        }
        h
    }

    /// The reference shares `Zipf`, the `rand` shim and the per-flow
    /// emission with `build`, so only a pinned digest sees them drift:
    /// `hh_steady`'s shape at smoke size with three anomalies.
    #[test]
    fn trace_contents_are_pinned() {
        let [cfg, ..] = smoke_shapes();
        let anomalies = [
            anomaly(
                4,
                3_000,
                1,
                Instant::from_millis(1_000),
                Duration::from_millis(500),
            ),
            anomaly(
                7,
                800,
                2,
                Instant::from_millis(4_000),
                Duration::from_millis(250),
            ),
            anomaly(
                9,
                1_200,
                3,
                Instant::from_millis(7_500),
                Duration::from_millis(5),
            ),
        ];
        let trace = TraceBuilder::new(cfg).with_anomalies(anomalies).build();
        assert_eq!(trace.packets.len(), 305_000);
        assert_eq!(format!("{:016x}", digest(&trace)), "04e661ca2161804c");
    }

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
