//! Error-free reference statistics — the substance behind ITW/ISW.
//!
//! The paper computes its ideal baselines "offline using error-free data
//! structures". [`ExactStat`] is that structure: a lossless per-key
//! statistic (true sets for distinct counts, exact integers for
//! counters) that merges across sub-windows without error.

use std::collections::HashSet;

/// One flow's exact statistic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExactStat {
    /// Exact count (packets or bytes).
    Count(u64),
    /// Exact distinct-element set.
    Distinct(HashSet<u64>),
    /// Exact signed difference.
    Signed(i64),
    /// Exact connection set plus byte volume.
    ConnBytes {
        /// Distinct connections.
        conns: HashSet<u64>,
        /// Total bytes.
        bytes: u64,
    },
}

impl ExactStat {
    /// Merge another sub-window's exact statistic (lossless).
    ///
    /// # Panics
    /// Panics on pattern mismatch — exact stats for one app always share
    /// a pattern, so a mismatch is a harness bug.
    pub(crate) fn merge(&mut self, other: &ExactStat) {
        match (self, other) {
            (ExactStat::Count(a), ExactStat::Count(b)) => *a += b,
            (ExactStat::Distinct(a), ExactStat::Distinct(b)) => a.extend(b.iter().copied()),
            (ExactStat::Signed(a), ExactStat::Signed(b)) => *a += b,
            (
                ExactStat::ConnBytes {
                    conns: ca,
                    bytes: ba,
                },
                ExactStat::ConnBytes {
                    conns: cb,
                    bytes: bb,
                },
            ) => {
                ca.extend(cb.iter().copied());
                *ba += bb;
            }
            (a, b) => panic!("exact-stat pattern mismatch: {a:?} vs {b:?}"),
        }
    }

    /// Scalar view (exact): the count, set size, difference, or bytes
    /// per connection.
    pub(crate) fn scalar(&self) -> f64 {
        match self {
            ExactStat::Count(v) => *v as f64,
            ExactStat::Distinct(s) => s.len() as f64,
            ExactStat::Signed(v) => *v as f64,
            ExactStat::ConnBytes { conns, bytes } => *bytes as f64 / (conns.len().max(1)) as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_merge_exactly() {
        let mut a = ExactStat::Count(60);
        a.merge(&ExactStat::Count(80));
        assert_eq!(a, ExactStat::Count(140));
        assert_eq!(a.scalar(), 140.0);
    }

    #[test]
    fn distinct_merge_is_true_union() {
        let mut a = ExactStat::Distinct([1u64, 2, 3].into_iter().collect());
        let b = ExactStat::Distinct([3u64, 4].into_iter().collect());
        a.merge(&b);
        assert_eq!(a.scalar(), 4.0);
    }

    #[test]
    fn signed_can_cross_zero() {
        let mut a = ExactStat::Signed(5);
        a.merge(&ExactStat::Signed(-9));
        assert_eq!(a, ExactStat::Signed(-4));
    }

    #[test]
    fn conn_bytes_scalar_is_bytes_per_conn() {
        let mut a = ExactStat::ConnBytes {
            conns: [1u64, 2].into_iter().collect(),
            bytes: 100,
        };
        a.merge(&ExactStat::ConnBytes {
            conns: [2u64, 3].into_iter().collect(),
            bytes: 50,
        });
        let ExactStat::ConnBytes { conns, bytes } = &a else {
            panic!("merging keeps the variant");
        };
        assert_eq!((conns.len(), *bytes), (3, 150));
        assert_eq!(a.scalar(), 50.0);
    }

    #[test]
    #[should_panic(expected = "pattern mismatch")]
    fn mismatch_panics() {
        let mut a = ExactStat::Count(1);
        a.merge(&ExactStat::Signed(1));
    }
}
