//! A deterministic discrete-event simulator for multi-switch paths.
//!
//! Packets traverse a configured path of nodes; each hop invokes a
//! user-supplied handler with the packet and the node's *local* time
//! (global time plus the node's clock offset — the PTP deviation model
//! of Exp#9). Links add delay and jitter and can drop packets with a
//! configured probability; every drop is recorded so experiments have
//! exact loss ground truth.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ow_common::packet::Packet;
use ow_common::time::{Duration, Instant};

/// A node (switch) in the simulated path.
#[derive(Debug, Clone, Default)]
pub struct NodeConfig {
    /// Clock offset relative to global time. Positive = the node's clock
    /// runs ahead. Signed nanoseconds.
    pub clock_offset_ns: i64,
}

/// A link between consecutive path nodes.
#[derive(Debug, Clone)]
pub struct Link {
    /// Propagation + queueing delay.
    pub delay: Duration,
    /// Uniform jitter added on top of `delay` (0..jitter).
    pub jitter: Duration,
    /// Probability a packet is dropped on this link.
    pub loss_prob: f64,
}

impl Default for Link {
    fn default() -> Self {
        Link {
            delay: Duration::from_micros(10),
            jitter: Duration::from_micros(5),
            loss_prob: 0.0,
        }
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct Event {
    at: Instant,
    seq: u64,
    hop: usize,
    pkt_idx: usize,
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// A record of one packet dropped on a link (loss ground truth).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DropRecord {
    /// Index of the packet in the injected trace.
    pub pkt_idx: usize,
    /// The link (upstream hop index) where it was dropped.
    pub after_hop: usize,
    /// Global time of the drop.
    pub at: Instant,
}

/// The path simulator.
#[derive(Debug)]
pub struct NetSim {
    nodes: Vec<NodeConfig>,
    links: Vec<Link>,
    rng: StdRng,
    drops: Vec<DropRecord>,
}

impl NetSim {
    /// Build a linear path: `nodes[0] → link[0] → nodes[1] → …`.
    ///
    /// # Panics
    /// Panics unless `links.len() + 1 == nodes.len()`.
    pub fn path(nodes: Vec<NodeConfig>, links: Vec<Link>, seed: u64) -> NetSim {
        assert_eq!(
            links.len() + 1,
            nodes.len(),
            "a path of n nodes has n-1 links"
        );
        NetSim {
            nodes,
            links,
            rng: StdRng::seed_from_u64(seed),
            drops: Vec::new(),
        }
    }

    /// Packets dropped so far (ground truth).
    pub fn drops(&self) -> &[DropRecord] {
        &self.drops
    }

    /// Run `trace` through the path. For every hop the handler receives
    /// `(hop_index, packet_index, &mut Packet, local_time)`; the packet's
    /// `ts` field is also set to the hop's local arrival time before the
    /// call. Handler mutations to the OmniWindow header persist across
    /// hops (that is how stamps propagate).
    pub fn run<F>(&mut self, trace: &[Packet], mut handler: F)
    where
        F: FnMut(usize, usize, &mut Packet, Instant),
    {
        // Working copies of the packets (mutated across hops).
        let mut pkts: Vec<Packet> = trace.to_vec();
        let mut queue: BinaryHeap<Reverse<Event>> = BinaryHeap::new();
        let mut seq = 0u64;
        for (i, p) in trace.iter().enumerate() {
            queue.push(Reverse(Event {
                at: p.ts,
                seq,
                hop: 0,
                pkt_idx: i,
            }));
            seq += 1;
        }

        while let Some(Reverse(ev)) = queue.pop() {
            let pkt = &mut pkts[ev.pkt_idx];
            let local = {
                let offset = self.nodes[ev.hop].clock_offset_ns;
                let ns = ev.at.as_nanos() as i64 + offset;
                Instant::from_nanos(ns.max(0) as u64)
            };
            pkt.ts = local;
            handler(ev.hop, ev.pkt_idx, pkt, local);

            // Traverse the next link, if any.
            if ev.hop < self.links.len() {
                let link = &self.links[ev.hop];
                if self.rng.gen::<f64>() < link.loss_prob {
                    self.drops.push(DropRecord {
                        pkt_idx: ev.pkt_idx,
                        after_hop: ev.hop,
                        at: ev.at,
                    });
                    continue;
                }
                let jitter = if link.jitter.as_nanos() > 0 {
                    Duration::from_nanos(self.rng.gen_range(0..link.jitter.as_nanos()))
                } else {
                    Duration::ZERO
                };
                queue.push(Reverse(Event {
                    at: ev.at + link.delay + jitter,
                    seq,
                    hop: ev.hop + 1,
                    pkt_idx: ev.pkt_idx,
                }));
                seq += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ow_common::packet::TcpFlags;

    fn trace(n: usize) -> Vec<Packet> {
        (0..n)
            .map(|i| {
                Packet::tcp(
                    Instant::from_micros(i as u64 * 100),
                    i as u32,
                    99,
                    1,
                    80,
                    TcpFlags::ack(),
                    64,
                )
            })
            .collect()
    }

    fn two_nodes(loss: f64, offset_ns: i64) -> NetSim {
        NetSim::path(
            vec![
                NodeConfig::default(),
                NodeConfig {
                    clock_offset_ns: offset_ns,
                },
            ],
            vec![Link {
                delay: Duration::from_micros(10),
                jitter: Duration::ZERO,
                loss_prob: loss,
            }],
            42,
        )
    }

    #[test]
    fn every_packet_visits_both_hops_without_loss() {
        let mut sim = two_nodes(0.0, 0);
        let mut visits = [0u32; 2];
        sim.run(&trace(100), |hop, _, _, _| visits[hop] += 1);
        assert_eq!(visits, [100, 100]);
        assert!(sim.drops().is_empty());
    }

    #[test]
    fn loss_drops_packets_and_records_them() {
        let mut sim = two_nodes(0.3, 0);
        let mut visits = [0u32; 2];
        sim.run(&trace(1000), |hop, _, _, _| visits[hop] += 1);
        assert_eq!(visits[0], 1000);
        let arrived = visits[1] as usize;
        assert_eq!(arrived + sim.drops().len(), 1000);
        // ~30% loss, generous tolerance.
        assert!((200..400).contains(&sim.drops().len()));
    }

    #[test]
    fn clock_offset_shifts_local_time() {
        let mut sim = two_nodes(0.0, 500_000); // +500µs
        let mut downstream_times = Vec::new();
        sim.run(&trace(1), |hop, _, _, local| {
            if hop == 1 {
                downstream_times.push(local);
            }
        });
        // Arrival at hop 1: global 10µs + offset 500µs = 510µs local.
        assert_eq!(downstream_times[0], Instant::from_micros(510));
    }

    #[test]
    fn header_mutations_propagate_downstream() {
        let mut sim = two_nodes(0.0, 0);
        let mut seen = Vec::new();
        sim.run(&trace(3), |hop, idx, pkt, _| {
            if hop == 0 {
                pkt.ow.subwindow = 7 + idx as u32;
            } else {
                seen.push(pkt.ow.subwindow);
            }
        });
        assert_eq!(seen, vec![7, 8, 9]);
    }

    #[test]
    fn delivery_order_is_time_order() {
        let mut sim = two_nodes(0.0, 0);
        let mut last = Instant::ZERO;
        sim.run(&trace(50), |hop, _, _, local| {
            if hop == 1 {
                assert!(local >= last);
                last = local;
            }
        });
    }

    #[test]
    #[should_panic(expected = "n-1 links")]
    fn mismatched_path_panics() {
        let _ = NetSim::path(vec![NodeConfig::default()], vec![Link::default()], 1);
    }

    #[test]
    fn jitter_can_reorder_across_flows_but_events_stay_time_ordered() {
        // Large jitter relative to inter-packet gaps: downstream arrival
        // order may differ from injection order, but the simulator still
        // delivers events in non-decreasing local-time order.
        let mut sim = NetSim::path(
            vec![NodeConfig::default(), NodeConfig::default()],
            vec![Link {
                delay: Duration::from_micros(10),
                jitter: Duration::from_micros(500),
                loss_prob: 0.0,
            }],
            9,
        );
        let t: Vec<Packet> = (0..200)
            .map(|i| {
                Packet::tcp(
                    Instant::from_micros(i as u64 * 5),
                    i as u32,
                    99,
                    1,
                    80,
                    TcpFlags::ack(),
                    64,
                )
            })
            .collect();
        let mut arrivals = Vec::new();
        let mut last = Instant::ZERO;
        sim.run(&t, |hop, idx, _, local| {
            if hop == 1 {
                assert!(local >= last, "event times must be monotone");
                last = local;
                arrivals.push(idx);
            }
        });
        assert_eq!(arrivals.len(), 200);
        let reordered = arrivals.windows(2).filter(|w| w[1] < w[0]).count();
        assert!(reordered > 0, "500µs jitter over 5µs gaps must reorder");
    }

    #[test]
    fn multi_hop_chain_accumulates_delay_and_offsets() {
        let mut sim = NetSim::path(
            vec![
                NodeConfig { clock_offset_ns: 0 },
                NodeConfig {
                    clock_offset_ns: 1_000,
                },
                NodeConfig {
                    clock_offset_ns: -2_000,
                },
                NodeConfig {
                    clock_offset_ns: 3_000,
                },
            ],
            vec![
                Link {
                    delay: Duration::from_micros(10),
                    jitter: Duration::ZERO,
                    loss_prob: 0.0,
                };
                3
            ],
            3,
        );
        let t = vec![Packet::tcp(
            Instant::from_micros(100),
            1,
            2,
            3,
            4,
            TcpFlags::ack(),
            64,
        )];
        let mut locals = Vec::new();
        sim.run(&t, |_, _, _, local| locals.push(local.as_nanos()));
        // Hop k arrives at global 100µs + k·10µs, plus its clock offset.
        assert_eq!(
            locals,
            vec![100_000, 111_000, 118_000, 133_000],
            "local clocks disagree exactly by their offsets"
        );
    }
}
