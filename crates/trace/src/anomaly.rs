//! Ground-truth anomaly injectors for the accuracy experiments.
//!
//! Each injector appends attack traffic to a packet vector. The anomaly
//! kinds mirror the seven Sonata queries of Table 1 plus the boundary
//! burst of Figure 1. The injected hosts live in dedicated prefixes
//! (`192.168.0.0/16` for attackers, `172.16.0.0/12` for victims) so
//! experiments can always recover which reported key was synthetic.

use rand::Rng;

use ow_common::packet::{Packet, TcpFlags};
use ow_common::time::{Duration, Instant};

/// Base address for injected attacker hosts.
pub const ATTACKER_NET: u32 = 0xC0A8_0000; // 192.168.0.0
/// Base address for injected victim hosts.
pub const VICTIM_NET: u32 = 0xAC10_0000; // 172.16.0.0

/// What kind of anomaly to inject.
#[derive(Debug, Clone, PartialEq)]
pub enum AnomalyKind {
    /// One host opens `conns` new TCP connections to distinct servers
    /// (query Q1). Attacker: `ATTACKER_NET + id`.
    NewTcpConns {
        /// Number of new connections to open.
        conns: usize,
    },
    /// SSH brute force against one victim (Q2): `attempts` short
    /// connections to port 22 from one source.
    SshBruteForce {
        /// Number of login attempts.
        attempts: usize,
    },
    /// Port scan against one victim (Q3): SYNs to `ports` distinct ports.
    PortScan {
        /// Number of distinct destination ports probed.
        ports: usize,
    },
    /// DDoS (Q4): `sources` distinct hosts hit one victim.
    Ddos {
        /// Number of attacking sources.
        sources: usize,
    },
    /// SYN flood (Q5): `syns` SYN packets without completing handshakes.
    SynFlood {
        /// Number of SYNs.
        syns: usize,
    },
    /// Incomplete-flow spike (Q6): `flows` connections that open (SYN)
    /// but never close (no FIN) toward one victim.
    IncompleteFlows {
        /// Number of never-completed flows.
        flows: usize,
    },
    /// Slowloris (Q7): `conns` long-lived connections to one victim, each
    /// trickling tiny packets — many connections, very few bytes each.
    Slowloris {
        /// Number of concurrent connections.
        conns: usize,
        /// Tiny packets sent per connection.
        pkts_per_conn: usize,
    },
    /// Super-spreader (Q8): one source contacts `dsts` distinct hosts.
    SuperSpreader {
        /// Number of distinct destinations contacted.
        dsts: usize,
    },
    /// Heavy flow (Q9/Q10): one five-tuple flow of `pkts` packets.
    HeavyFlow {
        /// Number of packets in the flow.
        pkts: usize,
        /// Bytes per packet.
        pkt_len: u16,
    },
    /// The Figure-1 pathology: a flow whose `pkts` packets form a burst
    /// centred exactly on `boundary`, half before and half after — a
    /// tumbling window sees two sub-threshold halves, a sliding window
    /// sees the full burst.
    BoundaryBurst {
        /// Packets in the burst.
        pkts: usize,
        /// The window boundary the burst straddles.
        boundary: Instant,
        /// Burst width (centred on the boundary).
        width: Duration,
    },
}

/// A configured anomaly instance: what, who, and when.
#[derive(Debug, Clone, PartialEq)]
pub struct Anomaly {
    /// The anomaly type and its magnitude parameters.
    pub kind: AnomalyKind,
    /// Instance id: selects distinct attacker/victim addresses so several
    /// anomalies of the same kind never share hosts.
    pub id: u32,
    /// When the anomaly starts.
    pub start: Instant,
    /// How long it lasts (ignored by `BoundaryBurst`, which derives its
    /// own span).
    pub duration: Duration,
}

impl Anomaly {
    /// The attacker address for this instance.
    pub fn attacker(&self) -> u32 {
        ATTACKER_NET + self.id
    }

    /// The victim address for this instance.
    pub fn victim(&self) -> u32 {
        VICTIM_NET + self.id
    }

    fn spread_ts(&self, i: usize, n: usize, rng: &mut impl Rng) -> Instant {
        let span = self.duration.as_nanos().max(1);
        let base = self.start.as_nanos();
        let jitter = rng.gen_range(0..(span / (n as u64 + 1)).max(1));
        Instant::from_nanos(base + span * i as u64 / n.max(1) as u64 + jitter)
    }

    /// Append this anomaly's packets to `out`.
    pub(crate) fn inject(&self, out: &mut Vec<Packet>, rng: &mut impl Rng) {
        let atk = self.attacker();
        let vic = self.victim();
        match self.kind {
            AnomalyKind::NewTcpConns { conns } => {
                for i in 0..conns {
                    let ts = self.spread_ts(i, conns, rng);
                    let dst = vic.wrapping_add((i as u32) << 4);
                    let sport = 10_000 + (i % 50_000) as u16;
                    out.push(Packet::tcp(ts, atk, dst, sport, 80, TcpFlags::syn(), 64));
                    out.push(Packet::tcp(
                        ts + Duration::from_micros(50),
                        atk,
                        dst,
                        sport,
                        80,
                        TcpFlags::ack(),
                        128,
                    ));
                }
            }
            AnomalyKind::SshBruteForce { attempts } => {
                for i in 0..attempts {
                    let ts = self.spread_ts(i, attempts, rng);
                    let sport = 20_000 + (i % 40_000) as u16;
                    out.push(Packet::tcp(ts, atk, vic, sport, 22, TcpFlags::syn(), 64));
                    out.push(Packet::tcp(
                        ts + Duration::from_micros(100),
                        atk,
                        vic,
                        sport,
                        22,
                        TcpFlags::ack(),
                        96,
                    ));
                    out.push(Packet::tcp(
                        ts + Duration::from_micros(500),
                        atk,
                        vic,
                        sport,
                        22,
                        TcpFlags::fin_ack(),
                        64,
                    ));
                }
            }
            AnomalyKind::PortScan { ports } => {
                for i in 0..ports {
                    let ts = self.spread_ts(i, ports, rng);
                    out.push(Packet::tcp(
                        ts,
                        atk,
                        vic,
                        31_337,
                        (1 + i % 65_000) as u16,
                        TcpFlags::syn(),
                        64,
                    ));
                }
            }
            AnomalyKind::Ddos { sources } => {
                for i in 0..sources {
                    let ts = self.spread_ts(i, sources, rng);
                    let src = ATTACKER_NET + 0x8000 + (self.id << 10) + i as u32;
                    out.push(Packet::udp(ts, src, vic, 4444, 53, 512));
                    out.push(Packet::udp(
                        ts + Duration::from_micros(30),
                        src,
                        vic,
                        4444,
                        53,
                        512,
                    ));
                }
            }
            AnomalyKind::SynFlood { syns } => {
                for i in 0..syns {
                    let ts = self.spread_ts(i, syns, rng);
                    // Spoofed sources: rotate through a small pool.
                    let src = ATTACKER_NET + 0xC000 + (i % 256) as u32;
                    out.push(Packet::tcp(
                        ts,
                        src,
                        vic,
                        (1024 + i % 60_000) as u16,
                        80,
                        TcpFlags::syn(),
                        64,
                    ));
                }
            }
            AnomalyKind::IncompleteFlows { flows } => {
                for i in 0..flows {
                    let ts = self.spread_ts(i, flows, rng);
                    let sport = (2048 + i % 60_000) as u16;
                    out.push(Packet::tcp(ts, atk, vic, sport, 443, TcpFlags::syn(), 64));
                    out.push(Packet::tcp(
                        ts + Duration::from_micros(80),
                        atk,
                        vic,
                        sport,
                        443,
                        TcpFlags::ack(),
                        200,
                    ));
                    // No FIN: the flow never completes.
                }
            }
            AnomalyKind::Slowloris {
                conns,
                pkts_per_conn,
            } => {
                for c in 0..conns {
                    let sport = (3000 + c % 60_000) as u16;
                    let src = atk.wrapping_add((c as u32 % 16) << 8);
                    for p in 0..pkts_per_conn {
                        let ts = self.spread_ts(c * pkts_per_conn + p, conns * pkts_per_conn, rng);
                        let flags = if p == 0 {
                            TcpFlags::syn()
                        } else {
                            TcpFlags::ack()
                        };
                        // Tiny payloads: the Slowloris signature.
                        out.push(Packet::tcp(ts, src, vic, sport, 80, flags, 60));
                    }
                }
            }
            AnomalyKind::SuperSpreader { dsts } => {
                for i in 0..dsts {
                    let ts = self.spread_ts(i, dsts, rng);
                    let dst = vic.wrapping_add(i as u32);
                    out.push(Packet::udp(ts, atk, dst, 5555, 8080, 128));
                }
            }
            AnomalyKind::HeavyFlow { pkts, pkt_len } => {
                for i in 0..pkts {
                    let ts = self.spread_ts(i, pkts, rng);
                    out.push(Packet::tcp(
                        ts,
                        atk,
                        vic,
                        7777,
                        80,
                        if i == 0 {
                            TcpFlags::syn()
                        } else {
                            TcpFlags::ack()
                        },
                        pkt_len,
                    ));
                }
            }
            AnomalyKind::BoundaryBurst {
                pkts,
                boundary,
                width,
            } => {
                let half = Duration::from_nanos(width.as_nanos() / 2);
                let start = boundary - half;
                for i in 0..pkts {
                    let off = width.as_nanos() * i as u64 / pkts.max(1) as u64;
                    let ts = start + Duration::from_nanos(off);
                    out.push(Packet::tcp(
                        ts,
                        atk,
                        vic,
                        8888,
                        80,
                        if i == 0 {
                            TcpFlags::syn()
                        } else {
                            TcpFlags::ack()
                        },
                        1400,
                    ));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::HashSet;

    fn run(kind: AnomalyKind) -> Vec<Packet> {
        let a = Anomaly {
            kind,
            id: 1,
            start: Instant::from_millis(100),
            duration: Duration::from_millis(200),
        };
        let mut out = Vec::new();
        a.inject(&mut out, &mut StdRng::seed_from_u64(7));
        out
    }

    #[test]
    fn port_scan_hits_distinct_ports() {
        let pkts = run(AnomalyKind::PortScan { ports: 500 });
        let ports: HashSet<u16> = pkts.iter().map(|p| p.dst_port).collect();
        assert_eq!(ports.len(), 500);
        assert!(pkts.iter().all(|p| p.tcp_flags.is_pure_syn()));
        assert!(pkts.iter().all(|p| p.dst_ip == VICTIM_NET + 1));
    }

    #[test]
    fn ddos_uses_distinct_sources() {
        let pkts = run(AnomalyKind::Ddos { sources: 300 });
        let srcs: HashSet<u32> = pkts.iter().map(|p| p.src_ip).collect();
        assert_eq!(srcs.len(), 300);
        assert!(pkts.iter().all(|p| p.dst_ip == VICTIM_NET + 1));
    }

    #[test]
    fn syn_flood_is_all_syn_no_fin() {
        let pkts = run(AnomalyKind::SynFlood { syns: 200 });
        assert_eq!(pkts.len(), 200);
        assert!(pkts.iter().all(|p| p.tcp_flags.is_pure_syn()));
    }

    #[test]
    fn ssh_brute_force_targets_port_22() {
        let pkts = run(AnomalyKind::SshBruteForce { attempts: 50 });
        assert!(pkts.iter().all(|p| p.dst_port == 22));
        let syns = pkts.iter().filter(|p| p.tcp_flags.is_pure_syn()).count();
        assert_eq!(syns, 50);
    }

    #[test]
    fn super_spreader_contacts_distinct_hosts() {
        let pkts = run(AnomalyKind::SuperSpreader { dsts: 400 });
        let dsts: HashSet<u32> = pkts.iter().map(|p| p.dst_ip).collect();
        assert_eq!(dsts.len(), 400);
        assert!(pkts.iter().all(|p| p.src_ip == ATTACKER_NET + 1));
    }

    #[test]
    fn incomplete_flows_never_fin() {
        let pkts = run(AnomalyKind::IncompleteFlows { flows: 60 });
        assert!(pkts.iter().all(|p| !p.tcp_flags.has_fin()));
        let syns = pkts.iter().filter(|p| p.tcp_flags.is_pure_syn()).count();
        assert_eq!(syns, 60);
    }

    #[test]
    fn slowloris_is_many_conns_tiny_packets() {
        let pkts = run(AnomalyKind::Slowloris {
            conns: 80,
            pkts_per_conn: 4,
        });
        assert_eq!(pkts.len(), 320);
        assert!(pkts.iter().all(|p| p.wire_len <= 64));
        let conns: HashSet<(u32, u16)> = pkts.iter().map(|p| (p.src_ip, p.src_port)).collect();
        assert_eq!(conns.len(), 80);
    }

    #[test]
    fn boundary_burst_straddles_boundary() {
        let boundary = Instant::from_millis(500);
        let pkts = run(AnomalyKind::BoundaryBurst {
            pkts: 100,
            boundary,
            width: Duration::from_millis(100),
        });
        let before = pkts.iter().filter(|p| p.ts < boundary).count();
        let after = pkts.len() - before;
        assert_eq!(pkts.len(), 100);
        // Half on each side (±5%).
        assert!((45..=55).contains(&before), "before={before}");
        assert!((45..=55).contains(&after), "after={after}");
    }

    #[test]
    fn timestamps_within_anomaly_span() {
        let a = Anomaly {
            kind: AnomalyKind::PortScan { ports: 100 },
            id: 3,
            start: Instant::from_millis(250),
            duration: Duration::from_millis(100),
        };
        let mut out = Vec::new();
        a.inject(&mut out, &mut StdRng::seed_from_u64(9));
        for p in &out {
            assert!(p.ts >= a.start);
            assert!(p.ts <= a.start + a.duration + Duration::from_millis(1));
        }
    }

    #[test]
    fn distinct_ids_use_distinct_hosts() {
        let a = Anomaly {
            kind: AnomalyKind::HeavyFlow {
                pkts: 10,
                pkt_len: 100,
            },
            id: 1,
            start: Instant::ZERO,
            duration: Duration::from_millis(10),
        };
        let b = Anomaly { id: 2, ..a.clone() };
        assert_ne!(a.attacker(), b.attacker());
        assert_ne!(a.victim(), b.victim());
    }
}
