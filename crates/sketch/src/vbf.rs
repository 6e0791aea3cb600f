//! Vector Bloom Filter (Liu et al., TIFS'16) for super-point detection.
//!
//! The evaluation's second super-spreader structure (Exp#2, Q8): five
//! arrays, each containing 4096 bitmaps (the paper's configuration). A
//! source is indexed into one bitmap per array by a **bit slice of the
//! source address itself** — array `a` reads bits `[5a, 5a+12)` — and
//! each distinct destination sets one bit of the indexed bitmap. The
//! spread estimate is the minimum over the per-array linear-counting
//! estimates.
//!
//! The bit-slice indexing is what makes the VBF *invertible*: consecutive
//! slices overlap in 7 bits, so candidate source addresses can be
//! reconstructed by chaining hot cells whose overlapping bits agree
//! ([`VectorBloomFilter::candidates`]), with no stored keys at all.

use ow_common::flowkey::{sort_by_packed_key, FlowKey, KeyKind};
use ow_common::hash::HashFn;

use crate::traits::{SketchMeta, SpreadEstimator};

/// Bits per small bitmap (one per (array, index) cell).
pub const VBF_CELL_BITS: usize = 64;
/// Number of arrays (the paper's configuration).
pub(crate) const VBF_ARRAYS: usize = 5;
/// Cells per array: 2^12 = 4096 (the paper's configuration). Fixed —
/// the bit-slice geometry `[5a, 5a+12)` depends on it.
pub(crate) const VBF_CELLS: usize = 4096;
/// Bits of address each slice reads.
const SLICE_BITS: u32 = 12;
/// Slice stride: consecutive slices overlap in `12 − 5 = 7` bits.
const SLICE_STRIDE: u32 = 5;

/// A vector Bloom filter: 5 arrays × 4096 bitmaps × 64 bits (160 KB).
#[derive(Debug, Clone)]
pub struct VectorBloomFilter {
    bits: Vec<u64>, // VBF_ARRAYS * VBF_CELLS words
    element_hash: HashFn,
}

impl VectorBloomFilter {
    /// Create a VBF (the geometry is fixed by the invertible bit-slice
    /// scheme: 5 × 4096 × 64 bits).
    pub fn new(seed: u64) -> VectorBloomFilter {
        VectorBloomFilter {
            bits: vec![0; VBF_ARRAYS * VBF_CELLS],
            element_hash: HashFn::new(seed ^ 0xB7F0, 0),
        }
    }

    /// The 32-bit address the bit slices read. The VBF is defined over
    /// source addresses; other key kinds have no invertible encoding.
    fn address(key: &FlowKey) -> u32 {
        debug_assert_eq!(
            key.kind,
            KeyKind::SrcIp,
            "the Vector Bloom Filter indexes by source address"
        );
        key.src_ip
    }

    /// Index of the cell for `key` in array `a`: address bits
    /// `[5a, 5a+12)` (wrapping above bit 31 for the top slice).
    fn cell_index(addr: u32, a: usize) -> usize {
        let rot = addr.rotate_right(SLICE_STRIDE * a as u32);
        (rot & ((1 << SLICE_BITS) - 1)) as usize
    }

    /// The 64-bit cell bitmap backing the key's spread estimate (the
    /// min-estimate array's cell), exported at its native 64-bit logical
    /// size so the controller's merged estimate uses the right formula.
    pub fn cell_bitmap(&self, key: &FlowKey) -> ow_common::afr::DistinctBitmap {
        let addr = Self::address(key);
        let word = (0..VBF_ARRAYS)
            .map(|a| self.bits[a * VBF_CELLS + Self::cell_index(addr, a)])
            .min_by_key(|w| w.count_ones())
            .unwrap_or(0);
        let mut bm = ow_common::afr::DistinctBitmap::with_logical_bits(VBF_CELL_BITS as u32);
        bm.words[0] = word;
        bm
    }

    /// Reconstruct candidate super-point addresses: cells with at least
    /// `min_ones` set bits are *hot*; candidates are addresses whose five
    /// overlapping slices all land in hot cells. This is the VBF's
    /// inversion — no keys are stored anywhere.
    pub fn candidates(&self, min_ones: u32) -> Vec<FlowKey> {
        // Hot cell index sets per array.
        let hot: Vec<Vec<u32>> = (0..VBF_ARRAYS)
            .map(|a| {
                (0..VBF_CELLS as u32)
                    .filter(|&i| self.bits[a * VBF_CELLS + i as usize].count_ones() >= min_ones)
                    .collect()
            })
            .collect();

        // Chain join: a partial after arrays 0..=a fixes address bits
        // [0, 5a+12). Array a+1's slice covers [5a+5, 5a+17): its low 7
        // bits must match the partial's bits [5a+5, 5a+12), and its high
        // 5 bits extend the partial. The top slice wraps around bit 31,
        // so the final join also checks the wrapped bits.
        let mut partials: Vec<u32> = hot[0].clone();
        #[allow(clippy::needless_range_loop)] // `a` indexes both hot[] and the bit geometry
        for a in 1..VBF_ARRAYS {
            let low = (SLICE_STRIDE * a as u32) % 32;
            let mut next = Vec::new();
            for &p in &partials {
                for &idx in &hot[a] {
                    // Bits of the partial that this slice re-reads.
                    let fixed_bits = SLICE_BITS - SLICE_STRIDE; // 7
                    let expect = (p >> low) & ((1 << fixed_bits) - 1);
                    if idx & ((1 << fixed_bits) - 1) != expect {
                        continue;
                    }
                    let new_bits = idx >> fixed_bits; // 5 fresh bits
                    let candidate = p | (new_bits << (low + fixed_bits));
                    next.push(candidate);
                }
            }
            next.sort_unstable();
            next.dedup();
            partials = next;
        }
        // The last slice (a=4, bits [20,32)) fits exactly: no wrap check
        // needed with 5 slices × stride 5 + 12 = 32.
        let mut keys: Vec<FlowKey> = partials
            .into_iter()
            .filter(|&addr| {
                // Validate the full address against every array (removes
                // join artefacts).
                (0..VBF_ARRAYS).all(|a| {
                    self.bits[a * VBF_CELLS + Self::cell_index(addr, a)].count_ones() >= min_ones
                })
            })
            .map(FlowKey::src_ip)
            .collect();
        sort_by_packed_key(&mut keys, |k| *k);
        keys
    }
}

impl SpreadEstimator for VectorBloomFilter {
    fn update_element(&mut self, key: &FlowKey, element: u64) {
        let addr = Self::address(key);
        let bit = (self.element_hash.index_u64(element, VBF_CELL_BITS)) as u64;
        for a in 0..VBF_ARRAYS {
            let idx = a * VBF_CELLS + Self::cell_index(addr, a);
            self.bits[idx] |= 1u64 << bit;
        }
    }

    fn spread(&self, key: &FlowKey) -> u64 {
        let addr = Self::address(key);
        let m = VBF_CELL_BITS as f64;
        (0..VBF_ARRAYS)
            .map(|a| {
                let word = self.bits[a * VBF_CELLS + Self::cell_index(addr, a)];
                let zeros = (VBF_CELL_BITS as u32 - word.count_ones()) as f64;
                if zeros <= 0.0 {
                    m * m.ln()
                } else {
                    m * (m / zeros).ln()
                }
            })
            .fold(f64::INFINITY, f64::min)
            .round()
            .max(0.0) as u64
    }

    fn reset(&mut self) {
        self.bits.fill(0);
    }

    fn meta(&self) -> SketchMeta {
        SketchMeta {
            name: "VectorBloomFilter",
            memory_bytes: self.bits.len() * 8,
            register_arrays: VBF_ARRAYS,
            salus_per_packet: VBF_ARRAYS,
            hash_units: 1, // element hash only; indexing is bit slicing
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn src(i: u32) -> FlowKey {
        FlowKey::src_ip(i)
    }

    #[test]
    fn estimates_small_spreads_well() {
        let mut vbf = VectorBloomFilter::new(1);
        for d in 0..10u64 {
            vbf.update_element(&src(0x0A01_0203), d * 7 + 3);
        }
        let est = vbf.spread(&src(0x0A01_0203));
        assert!((6..=16).contains(&est), "estimate {est} far from 10");
    }

    #[test]
    fn duplicates_do_not_inflate() {
        let mut vbf = VectorBloomFilter::new(2);
        for _ in 0..100 {
            vbf.update_element(&src(5), 42);
        }
        assert!(vbf.spread(&src(5)) <= 2);
    }

    #[test]
    fn saturation_reports_large_spread() {
        let mut vbf = VectorBloomFilter::new(3);
        for d in 0..1000u64 {
            vbf.update_element(&src(9), d);
        }
        // 64-bit cells saturate near ln(64)·64 ≈ 266; a spreader must look
        // much larger than a normal host.
        assert!(vbf.spread(&src(9)) > 100);
    }

    #[test]
    fn unrelated_key_unaffected() {
        let mut vbf = VectorBloomFilter::new(4);
        for d in 0..50u64 {
            vbf.update_element(&src(0xDEAD_BEEF), d);
        }
        assert_eq!(vbf.spread(&src(0x0BAD_F00D)), 0);
    }

    #[test]
    fn reset_clears() {
        let mut vbf = VectorBloomFilter::new(5);
        vbf.update_element(&src(1), 1);
        vbf.reset();
        assert_eq!(vbf.spread(&src(1)), 0);
    }

    #[test]
    fn meta_matches_paper_config() {
        let vbf = VectorBloomFilter::new(6);
        assert_eq!(vbf.meta().memory_bytes, 5 * 4096 * 8);
        assert_eq!(vbf.meta().register_arrays, 5);
    }

    #[test]
    fn reconstruction_recovers_spreaders() {
        let mut vbf = VectorBloomFilter::new(7);
        let spreaders = [0x0A00_0001u32, 0xC0A8_1234, 0x7F31_AB09];
        for &s in &spreaders {
            for d in 0..200u64 {
                vbf.update_element(&src(s), d.wrapping_mul(0x9E37_79B9));
            }
        }
        // Light hosts must not appear.
        for i in 0..100u32 {
            vbf.update_element(&src(0x1000_0000 + i), 7);
        }
        let cands = vbf.candidates(40);
        for &s in &spreaders {
            assert!(cands.contains(&src(s)), "spreader {s:#x} not reconstructed");
        }
        // The join must not explode into thousands of artefacts.
        assert!(cands.len() < 50, "{} candidates", cands.len());
    }

    #[test]
    fn reconstruction_of_empty_filter_is_empty() {
        let vbf = VectorBloomFilter::new(8);
        assert!(vbf.candidates(1).is_empty());
    }
}
