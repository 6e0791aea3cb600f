//! Distributed-ML parameter-server traffic for the Exp#3 case study.
//!
//! The paper trains VGG19/CIFAR-10 on four hosts (one parameter server,
//! three workers) and tags every packet with the training-iteration
//! number; OmniWindow's user-defined signals then measure per-iteration
//! time. Gradients are compressed with a dynamic ratio that "starts from
//! 2 and doubles every 16 iterations until it reaches 2048".
//!
//! We synthesize the same traffic shape: per iteration, each worker
//! pushes `base_gradient_bytes / ratio` bytes to the server and pulls the
//! updated model back; the per-iteration wall time is dominated by the
//! transfer, so measured iteration times fall as the ratio doubles —
//! exactly the staircase of Figure 9.

use ow_common::packet::{Packet, TcpFlags};
use ow_common::time::{Duration, Instant};

/// Configuration of the synthetic training job.
#[derive(Debug, Clone)]
pub struct DmlConfig {
    /// Number of worker hosts (the paper uses 3 + 1 server).
    pub workers: usize,
    /// Training iterations to generate.
    pub iterations: u32,
    /// Uncompressed gradient size in bytes (VGG19 ≈ 550 MB; scaled down
    /// here — only the *shape* over iterations matters).
    pub base_gradient_bytes: u64,
}

/// Initial compression ratio (paper: 2).
pub(crate) const INITIAL_RATIO: u64 = 2;
/// Iterations between ratio doublings (paper: 16).
pub const DOUBLE_EVERY: u32 = 16;
/// Maximum ratio (paper: 2048).
pub(crate) const MAX_RATIO: u64 = 2048;
/// Link throughput used to derive transfer times, bytes/sec.
pub(crate) const LINK_BYTES_PER_SEC: u64 = 1_000_000_000;
/// Fixed per-iteration compute time (forward/backward pass).
pub(crate) const COMPUTE_TIME: Duration = Duration::from_millis(2);
/// MTU-sized payload per packet.
pub(crate) const MTU: u16 = 1400;

impl Default for DmlConfig {
    fn default() -> Self {
        DmlConfig {
            workers: 3,
            iterations: 160,
            base_gradient_bytes: 8 * 1024 * 1024,
        }
    }
}

/// Address of the parameter server.
pub const PS_ADDR: u32 = 0x0AFE_0001;
/// Address of worker `w`.
pub fn worker_addr(w: usize) -> u32 {
    0x0AFE_0010 + w as u32
}

/// The compression ratio in effect at `iteration` (0-based).
pub fn compression_ratio(iteration: u32) -> u64 {
    let doublings = iteration / DOUBLE_EVERY;
    INITIAL_RATIO
        .saturating_mul(1u64 << doublings.min(63))
        .min(MAX_RATIO)
}

/// Generate the parameter-server trace. Every packet's `app_tag` is the
/// 1-based iteration number (0 marks no tag), which is what the
/// user-defined window signal extracts.
pub fn generate(cfg: &DmlConfig) -> Vec<Packet> {
    let mut packets = Vec::new();
    let mut now = Instant::ZERO;
    for it in 0..cfg.iterations {
        let ratio = compression_ratio(it);
        let grad_bytes = (cfg.base_gradient_bytes / ratio).max(MTU as u64);
        let iter_tag = it + 1;

        // Workers push concurrently; iteration time = slowest worker.
        let mut iter_end = now;
        for w in 0..cfg.workers {
            let src = worker_addr(w);
            // Mild heterogeneity: worker w is (1 + w/10) slower.
            let eff_rate = LINK_BYTES_PER_SEC * 10 / (10 + w as u64);
            let n_pkts = grad_bytes.div_ceil(MTU as u64);
            let total_ns = grad_bytes * 1_000_000_000 / eff_rate;
            for i in 0..n_pkts {
                let ts = now + Duration::from_nanos(total_ns * i / n_pkts.max(1));
                let mut p = Packet::tcp(
                    ts,
                    src,
                    PS_ADDR,
                    9000 + w as u16,
                    5000,
                    if i == 0 {
                        TcpFlags::syn()
                    } else {
                        TcpFlags::ack()
                    },
                    MTU,
                );
                p.app_tag = iter_tag;
                packets.push(p);
            }
            // Model pull back (small, one packet burst).
            let done = now + Duration::from_nanos(total_ns);
            let mut pull = Packet::tcp(
                done,
                PS_ADDR,
                src,
                5000,
                9000 + w as u16,
                TcpFlags::ack(),
                MTU,
            );
            pull.app_tag = iter_tag;
            packets.push(pull);
            if done > iter_end {
                iter_end = done;
            }
        }
        now = iter_end + COMPUTE_TIME;
    }
    packets.sort_by_key(|p| p.ts);
    packets
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_follows_paper_schedule() {
        assert_eq!(compression_ratio(0), 2);
        assert_eq!(compression_ratio(15), 2);
        assert_eq!(compression_ratio(16), 4);
        assert_eq!(compression_ratio(32), 8);
        assert_eq!(compression_ratio(159), 1024);
        assert_eq!(compression_ratio(160), 2048);
        // Capped at max.
        assert_eq!(compression_ratio(10_000), 2048);
    }

    #[test]
    fn every_packet_is_tagged() {
        let cfg = DmlConfig {
            iterations: 8,
            base_gradient_bytes: 64 * 1024,
            ..DmlConfig::default()
        };
        let pkts = generate(&cfg);
        assert!(!pkts.is_empty());
        assert!(pkts.iter().all(|p| p.app_tag >= 1 && p.app_tag <= 8));
    }

    #[test]
    fn iteration_volume_shrinks_with_compression() {
        let cfg = DmlConfig {
            iterations: 32,
            base_gradient_bytes: 1024 * 1024,
            ..DmlConfig::default()
        };
        let pkts = generate(&cfg);
        let count = |it: u32| pkts.iter().filter(|p| p.app_tag == it).count();
        // Iteration 17 (ratio 4) carries half the packets of iteration 1
        // (ratio 2), ± the pull packets.
        let early = count(1);
        let late = count(17);
        assert!(
            (late as f64) < early as f64 * 0.6,
            "early {early} late {late}"
        );
    }

    #[test]
    fn iterations_do_not_interleave() {
        let cfg = DmlConfig {
            iterations: 6,
            base_gradient_bytes: 128 * 1024,
            ..DmlConfig::default()
        };
        let pkts = generate(&cfg);
        // Last packet of iteration i precedes first packet of i+1.
        for it in 1..6u32 {
            let last_i = pkts
                .iter()
                .filter(|p| p.app_tag == it)
                .map(|p| p.ts)
                .max()
                .unwrap();
            let first_next = pkts
                .iter()
                .filter(|p| p.app_tag == it + 1)
                .map(|p| p.ts)
                .min()
                .unwrap();
            assert!(
                last_i <= first_next,
                "iterations {it}/{} interleave",
                it + 1
            );
        }
    }

    #[test]
    fn workers_are_heterogeneous() {
        let cfg = DmlConfig {
            iterations: 1,
            base_gradient_bytes: 1024 * 1024,
            ..DmlConfig::default()
        };
        let pkts = generate(&cfg);
        let span = |w: usize| {
            let ts: Vec<_> = pkts
                .iter()
                .filter(|p| p.src_ip == worker_addr(w))
                .map(|p| p.ts)
                .collect();
            ts.iter()
                .max()
                .unwrap()
                .saturating_since(*ts.iter().min().unwrap())
        };
        // Worker 2 is slower than worker 0.
        assert!(span(2) > span(0));
    }
}
