//! Application-derived flow records (AFRs) and their merge algebra.
//!
//! An AFR (paper §4.1) is `{flowkey, attributes}` — the result of querying
//! a telemetry application's data-plane state for one flow in one
//! sub-window. The controller merges per-sub-window AFRs into complete
//! windows. Merging depends on the *pattern* of the flow statistic
//! (following FlyMon's four patterns, cited in §4.2):
//!
//! * **Frequency** — sum across sub-windows (packet counts, byte counts),
//! * **Existence** — logical OR (did the key appear at all),
//! * **Max/Min** — take the extremum,
//! * **Distinction** — union the distinct-value summaries, then count.
//!
//! Distinction statistics cannot be merged as plain integers (summing
//! per-sub-window distinct counts double-counts values seen in several
//! sub-windows), so a distinction AFR carries a small bitmap summary of
//! the values seen, and merging unions the bitmaps — exactly the
//! information a data-plane distinct structure can export.

use serde::Serialize;

use crate::flowkey::FlowKey;

/// Number of 64-bit words in a distinction bitmap summary (512 bits).
pub const DISTINCT_BITMAP_WORDS: usize = 8;

/// A compact summary of distinct values, used by distinction statistics.
///
/// A hashed bitmap (up to 512 bits) with linear-counting estimation:
/// enough for the per-flow distinct counts the evaluation queries use
/// (ports per scanner, sources per DDoS victim), and mergeable by
/// bitwise OR. `logical_bits` lets a data-plane structure with smaller
/// cells (e.g. the Vector Bloom Filter's 64-bit bitmaps) export its
/// state at native size so the estimate formula stays correct.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct DistinctBitmap {
    /// The raw bitmap words.
    pub words: [u64; DISTINCT_BITMAP_WORDS],
    /// Number of logically usable bits (≤ 512).
    pub logical_bits: u32,
}

impl Default for DistinctBitmap {
    fn default() -> Self {
        DistinctBitmap {
            words: [0; DISTINCT_BITMAP_WORDS],
            logical_bits: Self::BITS as u32,
        }
    }
}

impl DistinctBitmap {
    /// Maximum bits in the bitmap.
    pub const BITS: u64 = (DISTINCT_BITMAP_WORDS * 64) as u64;

    /// An empty bitmap restricted to `logical_bits` usable bits.
    ///
    /// # Panics
    /// Panics if `logical_bits` is zero or exceeds [`Self::BITS`].
    pub fn with_logical_bits(logical_bits: u32) -> DistinctBitmap {
        assert!(
            logical_bits > 0 && logical_bits as u64 <= Self::BITS,
            "logical_bits out of range"
        );
        DistinctBitmap {
            words: [0; DISTINCT_BITMAP_WORDS],
            logical_bits,
        }
    }

    /// Record a (hashed) value.
    pub fn insert_hash(&mut self, hash: u64) {
        let bit = hash % self.logical_bits as u64;
        self.words[(bit / 64) as usize] |= 1u64 << (bit % 64);
    }

    /// Number of set bits.
    pub fn ones(&self) -> u32 {
        self.words.iter().map(|w| w.count_ones()).sum()
    }

    /// Linear-counting estimate of the number of distinct values recorded.
    pub fn estimate(&self) -> f64 {
        let m = self.logical_bits as f64;
        let zeros = m - self.ones() as f64;
        if zeros <= 0.0 {
            // Saturated bitmap: report the (unreachable) upper bound.
            m * m.ln()
        } else {
            m * (m / zeros).ln()
        }
    }

    /// Union with another bitmap (the distinction merge operation).
    ///
    /// # Panics
    /// Panics (debug) if the logical sizes differ — unioning bitmaps of
    /// different geometry silently corrupts the estimate.
    pub fn union_with(&mut self, other: &DistinctBitmap) {
        debug_assert_eq!(
            self.logical_bits, other.logical_bits,
            "bitmap geometry mismatch"
        );
        for (a, b) in self.words.iter_mut().zip(other.words.iter()) {
            *a |= b;
        }
    }
}

/// The statistic pattern of a flow attribute, which dictates merging.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum AttrKind {
    /// Additive statistic (packet count, bytes): merged by summation.
    Frequency,
    /// Appearance indicator: merged by logical OR.
    Existence,
    /// Maximum-so-far: merged by `max`.
    Max,
    /// Minimum-so-far: merged by `min`.
    Min,
    /// Count of distinct values: merged by bitmap union.
    Distinction,
    /// Signed difference statistic (e.g. #SYN − #FIN): merged by
    /// summation. Needed because a flow's opens and closes can land in
    /// different sub-windows, making per-sub-window contributions
    /// negative.
    Signed,
    /// Join statistic pairing a distinct-connection summary with a byte
    /// count (Sonata-style joins, e.g. Slowloris: many connections AND
    /// few bytes per connection). Merged component-wise.
    ConnBytes,
}

/// A single flow attribute value, tagged with its merge pattern.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub enum AttrValue {
    /// Additive counter.
    Frequency(u64),
    /// Appearance flag.
    Existence(bool),
    /// Running maximum.
    Max(u64),
    /// Running minimum.
    Min(u64),
    /// Distinct-value summary.
    Distinction(DistinctBitmap),
    /// Signed difference counter.
    Signed(i64),
    /// Distinct-connection summary plus byte volume.
    ConnBytes {
        /// Distinct connections observed for the key.
        conns: DistinctBitmap,
        /// Total bytes observed for the key.
        bytes: u64,
    },
}

impl AttrValue {
    /// The pattern of this value.
    #[inline]
    pub fn kind(&self) -> AttrKind {
        match self {
            AttrValue::Frequency(_) => AttrKind::Frequency,
            AttrValue::Existence(_) => AttrKind::Existence,
            AttrValue::Max(_) => AttrKind::Max,
            AttrValue::Min(_) => AttrKind::Min,
            AttrValue::Distinction(_) => AttrKind::Distinction,
            AttrValue::Signed(_) => AttrKind::Signed,
            AttrValue::ConnBytes { .. } => AttrKind::ConnBytes,
        }
    }

    /// A zero/identity element for the pattern, suitable as merge seed.
    pub fn identity(kind: AttrKind) -> AttrValue {
        match kind {
            AttrKind::Frequency => AttrValue::Frequency(0),
            AttrKind::Existence => AttrValue::Existence(false),
            AttrKind::Max => AttrValue::Max(0),
            AttrKind::Min => AttrValue::Min(u64::MAX),
            AttrKind::Distinction => AttrValue::Distinction(DistinctBitmap::default()),
            AttrKind::Signed => AttrValue::Signed(0),
            AttrKind::ConnBytes => AttrValue::ConnBytes {
                conns: DistinctBitmap::default(),
                bytes: 0,
            },
        }
    }

    /// Merge another sub-window's value of the same pattern into this one.
    ///
    /// Returns an error on pattern mismatch — merging a frequency into a
    /// max would silently corrupt results, so this is a hard failure.
    pub fn merge(&mut self, other: &AttrValue) -> Result<(), crate::error::OwError> {
        match (self, other) {
            (AttrValue::Frequency(a), AttrValue::Frequency(b)) => {
                *a = a.saturating_add(*b);
                Ok(())
            }
            (AttrValue::Existence(a), AttrValue::Existence(b)) => {
                *a |= *b;
                Ok(())
            }
            (AttrValue::Max(a), AttrValue::Max(b)) => {
                *a = (*a).max(*b);
                Ok(())
            }
            (AttrValue::Min(a), AttrValue::Min(b)) => {
                *a = (*a).min(*b);
                Ok(())
            }
            (AttrValue::Distinction(a), AttrValue::Distinction(b)) => {
                a.union_with(b);
                Ok(())
            }
            (AttrValue::Signed(a), AttrValue::Signed(b)) => {
                *a = a.saturating_add(*b);
                Ok(())
            }
            (
                AttrValue::ConnBytes {
                    conns: ca,
                    bytes: ba,
                },
                AttrValue::ConnBytes {
                    conns: cb,
                    bytes: bb,
                },
            ) => {
                ca.union_with(cb);
                *ba = ba.saturating_add(*bb);
                Ok(())
            }
            (me, other) => Err(crate::error::OwError::AttrMismatch {
                left: me.kind(),
                right: other.kind(),
            }),
        }
    }

    /// Subtract another sub-window's contribution (sliding-window eviction,
    /// Exp#4 operation O5). Only frequency statistics support subtraction;
    /// the other patterns require recomputation from the surviving
    /// sub-windows, which the controller does instead.
    pub fn unmerge_frequency(&mut self, other: &AttrValue) -> Result<(), crate::error::OwError> {
        match (self, other) {
            (AttrValue::Frequency(a), AttrValue::Frequency(b)) => {
                *a = a.saturating_sub(*b);
                Ok(())
            }
            (me, other) => Err(crate::error::OwError::AttrMismatch {
                left: me.kind(),
                right: other.kind(),
            }),
        }
    }

    /// Scalar view of the value for threshold queries: the counter for
    /// frequency/max/min, 0/1 for existence, the estimate for distinction.
    #[inline]
    pub fn scalar(&self) -> f64 {
        match self {
            AttrValue::Frequency(v) | AttrValue::Max(v) => *v as f64,
            AttrValue::Min(v) => {
                if *v == u64::MAX {
                    0.0
                } else {
                    *v as f64
                }
            }
            AttrValue::Existence(b) => {
                if *b {
                    1.0
                } else {
                    0.0
                }
            }
            AttrValue::Distinction(bm) => bm.estimate(),
            AttrValue::Signed(v) => *v as f64,
            AttrValue::ConnBytes { conns, bytes } => {
                // Scalar view: bytes per connection (the Slowloris
                // signature is a *low* value here with many connections).
                let c = conns.estimate().max(1.0);
                *bytes as f64 / c
            }
        }
    }
}

/// An application-derived flow record: one flow's statistic in one
/// sub-window, as exported by the data plane.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct FlowRecord {
    /// The flow this record describes.
    pub key: FlowKey,
    /// The attribute value queried from the data-plane state.
    pub attr: AttrValue,
    /// The sub-window the record was generated for.
    pub subwindow: u32,
    /// Per-sub-window sequence id (for the reliability mechanism, §8).
    pub seq: u32,
}

impl FlowRecord {
    /// Convenience constructor for a frequency AFR.
    pub fn frequency(key: FlowKey, count: u64, subwindow: u32) -> FlowRecord {
        FlowRecord {
            key,
            attr: AttrValue::Frequency(count),
            subwindow,
            seq: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::OwError;

    #[test]
    fn frequency_merge_sums() {
        // The paper's motivating example (§4.1): 60 packets in one
        // sub-window plus 80 in the next must reach a threshold of 100
        // after merging, even though neither sub-window does alone.
        let mut a = AttrValue::Frequency(60);
        a.merge(&AttrValue::Frequency(80)).unwrap();
        assert_eq!(a, AttrValue::Frequency(140));
        assert!(a.scalar() >= 100.0);
    }

    #[test]
    fn frequency_merge_saturates() {
        let mut a = AttrValue::Frequency(u64::MAX - 1);
        a.merge(&AttrValue::Frequency(10)).unwrap();
        assert_eq!(a, AttrValue::Frequency(u64::MAX));
    }

    #[test]
    fn existence_merge_is_or() {
        let mut a = AttrValue::Existence(false);
        a.merge(&AttrValue::Existence(false)).unwrap();
        assert_eq!(a, AttrValue::Existence(false));
        a.merge(&AttrValue::Existence(true)).unwrap();
        assert_eq!(a, AttrValue::Existence(true));
        a.merge(&AttrValue::Existence(false)).unwrap();
        assert_eq!(a, AttrValue::Existence(true));
    }

    #[test]
    fn max_min_merges_take_extrema() {
        let mut mx = AttrValue::Max(5);
        mx.merge(&AttrValue::Max(9)).unwrap();
        mx.merge(&AttrValue::Max(3)).unwrap();
        assert_eq!(mx, AttrValue::Max(9));

        let mut mn = AttrValue::Min(5);
        mn.merge(&AttrValue::Min(9)).unwrap();
        mn.merge(&AttrValue::Min(3)).unwrap();
        assert_eq!(mn, AttrValue::Min(3));
    }

    #[test]
    fn min_identity_does_not_poison_scalar() {
        let id = AttrValue::identity(AttrKind::Min);
        assert_eq!(id.scalar(), 0.0);
        let mut v = id;
        v.merge(&AttrValue::Min(7)).unwrap();
        assert_eq!(v.scalar(), 7.0);
    }

    #[test]
    fn mismatched_patterns_fail_loudly() {
        let mut a = AttrValue::Frequency(1);
        let err = a.merge(&AttrValue::Max(2)).unwrap_err();
        assert!(matches!(err, OwError::AttrMismatch { .. }));
    }

    #[test]
    fn distinction_union_does_not_double_count() {
        // The same hashed value inserted in two sub-windows must count once.
        let mut a = DistinctBitmap::default();
        let mut b = DistinctBitmap::default();
        a.insert_hash(12345);
        b.insert_hash(12345);
        b.insert_hash(99999);
        a.union_with(&b);
        assert_eq!(a.ones(), 2);
    }

    #[test]
    fn distinction_estimate_tracks_cardinality() {
        let mut bm = DistinctBitmap::default();
        for i in 0..100u64 {
            // Spread hashes well.
            bm.insert_hash(i.wrapping_mul(0x9E3779B97F4A7C15));
        }
        let est = bm.estimate();
        assert!((80.0..130.0).contains(&est), "estimate {est} out of range");
    }

    #[test]
    fn unmerge_reverses_frequency_merge() {
        let mut a = AttrValue::Frequency(100);
        a.unmerge_frequency(&AttrValue::Frequency(30)).unwrap();
        assert_eq!(a, AttrValue::Frequency(70));
        assert!(a.unmerge_frequency(&AttrValue::Max(1)).is_err());
    }

    #[test]
    fn signed_merge_sums_with_negatives() {
        // A flow's SYN lands in one sub-window (+1), its FIN in the next
        // (−1): the merged difference must be zero.
        let mut a = AttrValue::Signed(1);
        a.merge(&AttrValue::Signed(-1)).unwrap();
        assert_eq!(a, AttrValue::Signed(0));
        assert_eq!(a.scalar(), 0.0);
    }

    #[test]
    fn conn_bytes_merges_componentwise() {
        let mut c1 = DistinctBitmap::default();
        c1.insert_hash(1);
        let mut c2 = DistinctBitmap::default();
        c2.insert_hash(2);
        let mut a = AttrValue::ConnBytes {
            conns: c1,
            bytes: 100,
        };
        a.merge(&AttrValue::ConnBytes {
            conns: c2,
            bytes: 50,
        })
        .unwrap();
        match a {
            AttrValue::ConnBytes { conns, bytes } => {
                assert_eq!(conns.ones(), 2);
                assert_eq!(bytes, 150);
            }
            other => panic!("wrong variant {other:?}"),
        }
    }

    #[test]
    fn conn_bytes_scalar_is_bytes_per_conn() {
        let mut conns = DistinctBitmap::default();
        for i in 0..10u64 {
            conns.insert_hash(i * 1_000_003);
        }
        let v = AttrValue::ConnBytes { conns, bytes: 1000 };
        let s = v.scalar();
        assert!((60.0..160.0).contains(&s), "bytes/conn {s}");
    }

    #[test]
    fn identity_elements_are_merge_neutral() {
        for kind in [
            AttrKind::Frequency,
            AttrKind::Existence,
            AttrKind::Max,
            AttrKind::Min,
            AttrKind::Signed,
        ] {
            let mut id = AttrValue::identity(kind);
            let v = match kind {
                AttrKind::Frequency => AttrValue::Frequency(42),
                AttrKind::Existence => AttrValue::Existence(true),
                AttrKind::Max => AttrValue::Max(42),
                AttrKind::Min => AttrValue::Min(42),
                AttrKind::Distinction | AttrKind::ConnBytes => unreachable!(),
                AttrKind::Signed => AttrValue::Signed(42),
            };
            id.merge(&v).unwrap();
            assert_eq!(id, v, "identity not neutral for {kind:?}");
        }
    }
}
