//! Scalar vs vectorised AFR aggregation (Exp#7).
//!
//! The paper merges AFRs with AVX-512: one instruction sums/maxes many
//! AFRs' attributes at once. Portable Rust gets the same effect by
//! arranging attributes in structure-of-arrays buffers and writing the
//! merge as a chunked loop LLVM auto-vectorises. The bench compares the
//! deliberately scalar form (`*_scalar`, with an `#[inline(never)]`
//! per-element helper that defeats vectorisation) against the
//! vectorisable form — the same comparison as Figure 12.

/// Element-wise `dst[i] += src[i]` — scalar reference implementation.
///
/// The per-element helper is `#[inline(never)]` so the optimiser cannot
/// fuse the loop into SIMD; this stands in for the paper's non-AVX path.
pub fn sum_scalar(dst: &mut [u64], src: &[u64]) {
    assert_eq!(dst.len(), src.len(), "length mismatch");
    for i in 0..dst.len() {
        dst[i] = add_one(dst[i], src[i]);
    }
}

#[inline(never)]
fn add_one(a: u64, b: u64) -> u64 {
    a.wrapping_add(b)
}

/// Element-wise `dst[i] = max(dst[i], src[i])` — scalar reference.
pub fn max_scalar(dst: &mut [u64], src: &[u64]) {
    assert_eq!(dst.len(), src.len(), "length mismatch");
    for i in 0..dst.len() {
        dst[i] = max_one(dst[i], src[i]);
    }
}

#[inline(never)]
fn max_one(a: u64, b: u64) -> u64 {
    if a >= b {
        a
    } else {
        b
    }
}

/// Element-wise max — vectorisable implementation.
pub(crate) fn max_vectorized(dst: &mut [u64], src: &[u64]) {
    assert_eq!(dst.len(), src.len(), "length mismatch");
    for (d, s) in dst.iter_mut().zip(src.iter()) {
        *d = (*d).max(*s);
    }
}

/// Element-wise min — vectorisable implementation (completes the
/// max/min pattern pair; the paper's figure shows sum and max).
pub(crate) fn min_vectorized(dst: &mut [u64], src: &[u64]) {
    assert_eq!(dst.len(), src.len(), "length mismatch");
    for (d, s) in dst.iter_mut().zip(src.iter()) {
        *d = (*d).min(*s);
    }
}

/// Element-wise `dst[i] += src[i]` over 32-bit attributes — the wire
/// format of AFR flow attributes, and the layout the RDMA-collected
/// key-value table keeps, giving the vector unit twice the lanes.
pub fn sum_vectorized_u32(dst: &mut [u32], src: &[u32]) {
    assert_eq!(dst.len(), src.len(), "length mismatch");
    for (d, s) in dst.iter_mut().zip(src.iter()) {
        *d = d.wrapping_add(*s);
    }
}

/// Element-wise max over 32-bit attributes.
pub fn max_vectorized_u32(dst: &mut [u32], src: &[u32]) {
    assert_eq!(dst.len(), src.len(), "length mismatch");
    for (d, s) in dst.iter_mut().zip(src.iter()) {
        *d = (*d).max(*s);
    }
}

/// Element-wise saturating `dst[i] += src[i]` — vectorisable.
///
/// The merge algebra saturates frequency counters instead of wrapping
/// (a wrapped heavy hitter would vanish below the reporting threshold),
/// so the block-fold path needs a saturating lane kernel. Written as
/// compare-and-select over the wrapped sum, which LLVM turns into
/// vector `cmp` + `blend` — no branch in the loop body.
pub(crate) fn sum_saturating_vectorized(dst: &mut [u64], src: &[u64]) {
    assert_eq!(dst.len(), src.len(), "length mismatch");
    for (d, s) in dst.iter_mut().zip(src.iter()) {
        let sum = d.wrapping_add(*s);
        *d = if sum < *d { u64::MAX } else { sum };
    }
}

/// Sentinel slot id meaning "row does not participate in the fold"
/// (pattern mismatch rows on the block-insert fast path).
pub const SKIP_SLOT: u32 = u32::MAX;

/// Detect the longest run starting at `i` of non-skip slot ids that
/// are *strictly consecutive* (`slots[j+1] == slots[j] + 1`).
///
/// Consecutive slot ids are pairwise distinct, so the run's gather/fold
/// has no intra-run aliasing and can be delegated to the contiguous
/// vector kernels.
#[inline]
fn consecutive_run(slots: &[u32], i: usize) -> usize {
    let mut j = i;
    while j + 1 < slots.len() && slots[j] != SKIP_SLOT && slots[j + 1] == slots[j].wrapping_add(1) {
        j += 1;
    }
    j + 1 - i
}

/// Minimum consecutive-run length worth a vector-kernel dispatch.
const RUN_MIN: usize = 8;

macro_rules! fold_slots {
    ($name:ident, $scalar_op:expr, $vector_kernel:path, $doc:literal) => {
        #[doc = $doc]
        ///
        /// For each row `i`, folds `src[i]` into `dst[slots[i] as usize]`;
        /// rows whose slot is [`SKIP_SLOT`] are ignored. Runs of strictly
        /// consecutive slot ids (which cannot alias) of length ≥ 8 are
        /// delegated to the contiguous vector kernel; the remainder runs
        /// as a tight scalar loop.
        ///
        /// # Panics
        /// Panics when `slots` and `src` differ in length, or a non-skip
        /// slot is out of bounds for `dst`.
        pub(crate) fn $name(dst: &mut [u64], slots: &[u32], src: &[u64]) {
            assert_eq!(slots.len(), src.len(), "length mismatch");
            let op = $scalar_op;
            let mut i = 0;
            while i < slots.len() {
                let run = consecutive_run(slots, i);
                if run >= RUN_MIN {
                    let lo = slots[i] as usize;
                    $vector_kernel(&mut dst[lo..lo + run], &src[i..i + run]);
                    i += run;
                    continue;
                }
                for j in i..i + run {
                    let s = slots[j];
                    if s != SKIP_SLOT {
                        let d = &mut dst[s as usize];
                        *d = op(*d, src[j]);
                    }
                }
                i += run;
            }
        }
    };
}

fold_slots!(
    fold_slots_sum_saturating,
    |a: u64, b: u64| a.saturating_add(b),
    sum_saturating_vectorized,
    "Slot-indexed saturating-sum fold (frequency pattern)."
);
fold_slots!(
    fold_slots_max,
    |a: u64, b: u64| a.max(b),
    max_vectorized,
    "Slot-indexed max fold (max pattern)."
);
fold_slots!(
    fold_slots_min,
    |a: u64, b: u64| a.min(b),
    min_vectorized,
    "Slot-indexed min fold (min pattern)."
);

#[cfg(test)]
mod tests {
    use super::*;

    fn vecs(n: usize) -> (Vec<u64>, Vec<u64>) {
        let a: Vec<u64> = (0..n as u64).map(|i| i * 3 + 1).collect();
        let b: Vec<u64> = (0..n as u64).map(|i| i.wrapping_mul(7) % 100).collect();
        (a, b)
    }

    #[test]
    fn scalar_and_vectorized_sum_agree() {
        let (a, b) = vecs(1000);
        let mut d1 = a.clone();
        let mut d2 = a.clone();
        sum_scalar(&mut d1, &b);
        sum_saturating_vectorized(&mut d2, &b);
        assert_eq!(d1, d2);
        assert_eq!(d1[10], a[10] + b[10]);
    }

    #[test]
    fn scalar_and_vectorized_max_agree() {
        let (a, b) = vecs(1000);
        let mut d1 = a.clone();
        let mut d2 = a.clone();
        max_scalar(&mut d1, &b);
        max_vectorized(&mut d2, &b);
        assert_eq!(d1, d2);
    }

    #[test]
    fn min_takes_minimum() {
        let mut d = vec![5, 1, 9];
        min_vectorized(&mut d, &[3, 2, 10]);
        assert_eq!(d, vec![3, 1, 9]);
    }

    #[test]
    fn sum_wraps_instead_of_panicking() {
        let mut d = vec![u64::MAX];
        sum_scalar(&mut d, &[2]);
        assert_eq!(d, vec![1]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn length_mismatch_panics() {
        let mut d = vec![1, 2];
        sum_scalar(&mut d, &[1]);
    }

    #[test]
    fn saturating_sum_saturates_and_matches_plain_sum_below() {
        let mut d = vec![1u64, u64::MAX - 1, 7];
        sum_saturating_vectorized(&mut d, &[2, 5, 0]);
        assert_eq!(d, vec![3, u64::MAX, 7]);
    }

    /// Reference fold: per-row, no run detection.
    fn fold_ref(dst: &mut [u64], slots: &[u32], src: &[u64], op: impl Fn(u64, u64) -> u64) {
        for (s, v) in slots.iter().zip(src) {
            if *s != SKIP_SLOT {
                dst[*s as usize] = op(dst[*s as usize], *v);
            }
        }
    }

    #[test]
    fn slot_folds_match_reference_on_random_slots() {
        // Mix of scattered, consecutive (vector-delegated), duplicate,
        // and skipped slots.
        let mut slots: Vec<u32> = (0..64u32).collect(); // long consecutive run
        slots.extend([5, 5, 5, 63, 0, SKIP_SLOT, 17, SKIP_SLOT, 2, 3, 4, 5]);
        let src: Vec<u64> = (0..slots.len() as u64).map(|i| i * 11 + 1).collect();
        let base: Vec<u64> = (0..70u64).map(|i| i * 3).collect();

        for (fold, op) in [
            (
                fold_slots_sum_saturating as fn(&mut [u64], &[u32], &[u64]),
                (|a: u64, b: u64| a.saturating_add(b)) as fn(u64, u64) -> u64,
            ),
            (fold_slots_max, |a, b| a.max(b)),
            (fold_slots_min, |a, b| a.min(b)),
        ] {
            let mut got = base.clone();
            let mut want = base.clone();
            fold(&mut got, &slots, &src);
            fold_ref(&mut want, &slots, &src, op);
            assert_eq!(got, want);
        }
    }

    #[test]
    fn slot_fold_handles_all_skips_and_empty() {
        let mut d = vec![9u64; 4];
        fold_slots_sum_saturating(&mut d, &[], &[]);
        fold_slots_sum_saturating(&mut d, &[SKIP_SLOT, SKIP_SLOT], &[1, 2]);
        assert_eq!(d, vec![9; 4]);
    }

    #[test]
    fn u32_variants_agree_with_u64() {
        let a32: Vec<u32> = (0..500u32).collect();
        let b32: Vec<u32> = (0..500u32).map(|i| i * 3 % 97).collect();
        let mut d32 = a32.clone();
        sum_vectorized_u32(&mut d32, &b32);
        let mut m32 = a32.clone();
        max_vectorized_u32(&mut m32, &b32);
        for i in 0..500usize {
            assert_eq!(d32[i], a32[i] + b32[i]);
            assert_eq!(m32[i], a32[i].max(b32[i]));
        }
    }
}
