//! Exp#7 (Figure 12): time of AFR aggregation, with and without SIMD.
//!
//! The "without SIMD" path merges one record at a time over 64-bit
//! per-record scalars (an `#[inline(never)]` per-element helper keeps
//! the optimiser from fusing it into SIMD — the same instructions a
//! record-at-a-time controller loop executes). The "with SIMD" path is
//! the optimised fast path: attributes kept in structure-of-arrays
//! 32-bit buffers (the AFR wire format) merged by auto-vectorised loops
//! — the portable stand-in for the paper's AVX-512 kernels.

use std::time::Instant;

use serde::Serialize;

use ow_controller::simd;

/// One (operation, variant) measurement.
#[derive(Debug, Clone, Serialize)]
pub struct AggregationTime {
    /// "sum" or "max".
    pub op: String,
    /// "scalar" or "simd".
    pub variant: String,
    /// Microseconds to merge all flows (best of several runs).
    pub micros: f64,
}

/// The whole experiment.
#[derive(Debug, Clone, Serialize)]
pub struct Exp7Result {
    /// Flows merged.
    pub flows: usize,
    /// The four bars of Figure 12.
    pub times: Vec<AggregationTime>,
}

fn best_of<F: FnMut() -> std::time::Duration>(reps: usize, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        best = best.min(f().as_secs_f64() * 1e6);
    }
    best
}

/// Run Exp#7 over `flows` flows (paper: 1 M).
pub fn run(flows: usize) -> Exp7Result {
    let reps = 15;
    let src32: Vec<u32> = (0..flows as u32)
        .map(|i| i.wrapping_mul(37) % 1000)
        .collect();
    let base32: Vec<u32> = (0..flows as u32).map(|i| i % 500).collect();
    // The record-at-a-time path stores 64-bit per-record scalars.
    let src64: Vec<u64> = src32.iter().map(|&v| v as u64).collect();
    let base64: Vec<u64> = base32.iter().map(|&v| v as u64).collect();

    let mut dst64 = base64.clone();
    let mut scalar_time = |f: &mut dyn FnMut(&mut [u64], &[u64])| -> std::time::Duration {
        dst64.copy_from_slice(&base64);
        let t = Instant::now();
        f(&mut dst64, &src64);
        let dt = t.elapsed();
        std::hint::black_box(&dst64);
        dt
    };
    let mut dst32 = base32.clone();
    let mut simd_time = |f: &mut dyn FnMut(&mut [u32], &[u32])| -> std::time::Duration {
        dst32.copy_from_slice(&base32);
        let t = Instant::now();
        f(&mut dst32, &src32);
        let dt = t.elapsed();
        std::hint::black_box(&dst32);
        dt
    };

    let times = vec![
        AggregationTime {
            op: "sum".into(),
            variant: "scalar".into(),
            micros: best_of(reps, || scalar_time(&mut |d, s| simd::sum_scalar(d, s))),
        },
        AggregationTime {
            op: "sum".into(),
            variant: "simd".into(),
            micros: best_of(reps, || {
                simd_time(&mut |d, s| simd::sum_vectorized_u32(d, s))
            }),
        },
        AggregationTime {
            op: "max".into(),
            variant: "scalar".into(),
            micros: best_of(reps, || scalar_time(&mut |d, s| simd::max_scalar(d, s))),
        },
        AggregationTime {
            op: "max".into(),
            variant: "simd".into(),
            micros: best_of(reps, || {
                simd_time(&mut |d, s| simd::max_vectorized_u32(d, s))
            }),
        },
    ];

    Exp7Result { flows, times }
}

impl Exp7Result {
    /// The measured µs for an (op, variant) bar.
    pub fn micros(&self, op: &str, variant: &str) -> Option<f64> {
        self.times
            .iter()
            .find(|t| t.op == op && t.variant == variant)
            .map(|t| t.micros)
    }

    /// Speedup (scalar / simd) for an operation.
    pub fn speedup(&self, op: &str) -> Option<f64> {
        Some(self.micros(op, "scalar")? / self.micros(op, "simd")?)
    }
}
