//! The correctness oracle and the exact ground truth.
//!
//! The oracle is an independent per-record `HashMap` sliding fold over the
//! AFRs the switch emitted in the discovery warm-up. It shares no code with
//! `MergeTable`, so it says what every window answer and the final fold must
//! be. The ground truth counts the packets themselves and says how *accurate*
//! those answers are.

use std::collections::{HashMap, HashSet, VecDeque};

use ow_common::afr::AttrValue;
use ow_common::flowkey::FlowKey;
use ow_controller::wire;

use crate::workload::Workload;

/// One sub-window's emitted AFRs, reduced to what the fold needs.
pub type Batch = Vec<(FlowKey, u64)>;

/// 64-bit FNV-1a.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The digest of a merged view: FNV-1a over its wire encoding.
pub fn digest(snapshot: &[(FlowKey, AttrValue)]) -> u64 {
    fnv1a(&wire::encode_merged(snapshot))
}

/// What the controller must answer, derived from the emitted AFRs alone.
#[derive(Debug, Clone, PartialEq)]
pub struct Oracle {
    /// `flows_over(threshold)` for the window ending at each queried sub-window.
    pub answers: HashMap<u32, Vec<(FlowKey, f64)>>,
    /// Flows in the merged view at each sub-window that takes a snapshot.
    pub merged_flows: HashMap<u32, usize>,
    /// Digest of the final fold, and its size.
    pub final_digest: u64,
    pub final_flows: usize,
}

impl Oracle {
    /// Fold `batches` (index = sub-window) through a sliding window of
    /// `w.span` sub-windows, recording the expected answers on the way.
    pub fn build(w: &Workload, batches: &[Batch]) -> Oracle {
        // key → (summed frequency, retained records naming the key)
        let mut merged: HashMap<FlowKey, (u64, u32)> = HashMap::new();
        let mut answers = HashMap::new();
        let mut merged_flows = HashMap::new();
        for (i, batch) in batches.iter().enumerate() {
            for &(key, count) in batch {
                let e = merged.entry(key).or_insert((0, 0));
                e.0 += count;
                e.1 += 1;
            }
            if i >= w.span {
                for &(key, count) in &batches[i - w.span] {
                    let e = merged.get_mut(&key).expect("evicted key was merged");
                    e.0 -= count;
                    e.1 -= 1;
                    if e.1 == 0 {
                        merged.remove(&key);
                    }
                }
            }
            let i = i as u32;
            if w.is_query_window(i) {
                let mut over: Vec<(FlowKey, f64)> = merged
                    .iter()
                    .map(|(k, &(sum, _))| (*k, sum as f64))
                    .filter(|&(_, v)| v >= w.threshold)
                    .collect();
                over.sort_by_key(|(k, _)| k.as_u128());
                answers.insert(i, over);
            }
            if w.is_snapshot_window(i) {
                merged_flows.insert(i, merged.len());
            }
        }
        let mut fold: Vec<(FlowKey, AttrValue)> = merged
            .iter()
            .map(|(k, &(sum, _))| (*k, AttrValue::Frequency(sum)))
            .collect();
        fold.sort_by_key(|(k, _)| k.as_u128());
        Oracle {
            answers,
            merged_flows,
            final_digest: digest(&fold),
            final_flows: fold.len(),
        }
    }
}

/// Exact per-flow packet counts over the sliding window, fed one packet at a
/// time with the sub-window the switch stamped on it.
#[derive(Debug)]
pub struct TruthBuilder {
    w: Workload,
    current: u32,
    counts: HashMap<FlowKey, u32>,
    retained: VecDeque<HashMap<FlowKey, u32>>,
    window: HashMap<FlowKey, u64>,
    heavy: HashMap<u32, HashSet<FlowKey>>,
}

impl TruthBuilder {
    pub fn new(w: &Workload) -> TruthBuilder {
        TruthBuilder {
            w: *w,
            current: 0,
            counts: HashMap::new(),
            retained: VecDeque::new(),
            window: HashMap::new(),
            heavy: HashMap::new(),
        }
    }

    /// Count one forwarded packet of `key` stamped with `subwindow`.
    pub fn packet(&mut self, key: FlowKey, subwindow: u32) {
        while self.current < subwindow {
            self.close_subwindow();
        }
        *self.counts.entry(key).or_insert(0) += 1;
    }

    fn close_subwindow(&mut self) {
        let closed = std::mem::take(&mut self.counts);
        for (k, &c) in &closed {
            *self.window.entry(*k).or_insert(0) += u64::from(c);
        }
        self.retained.push_back(closed);
        if self.retained.len() > self.w.span {
            for (k, c) in self.retained.pop_front().expect("non-empty") {
                let e = self.window.get_mut(&k).expect("retained key is counted");
                *e -= u64::from(c);
                if *e == 0 {
                    self.window.remove(&k);
                }
            }
        }
        if self.w.is_query_window(self.current) {
            let heavy = self
                .window
                .iter()
                .filter(|&(_, &c)| c as f64 >= self.w.threshold)
                .map(|(k, _)| *k)
                .collect();
            self.heavy.insert(self.current, heavy);
        }
        self.current += 1;
    }

    /// Close the last sub-window and return, per queried sub-window, the
    /// flows that truly reached the threshold in the window ending there.
    pub fn finish(mut self) -> HashMap<u32, HashSet<FlowKey>> {
        self.close_subwindow();
        self.heavy
    }
}

/// Pooled true/false positives and false negatives of reported answers.
#[derive(Debug, Default, Clone, Copy)]
pub struct Accuracy {
    pub tp: u64,
    pub fp: u64,
    pub fn_: u64,
}

impl Accuracy {
    pub fn score(&mut self, reported: &[(FlowKey, f64)], truth: &HashSet<FlowKey>) {
        let hit = reported.iter().filter(|(k, _)| truth.contains(k)).count() as u64;
        self.tp += hit;
        self.fp += reported.len() as u64 - hit;
        self.fn_ += truth.len() as u64 - hit;
    }

    /// F1 in permille; 0 when nothing was reported or true.
    pub fn f1_permille(&self) -> f64 {
        let denom = 2 * self.tp + self.fp + self.fn_;
        if denom == 0 {
            0.0
        } else {
            2000.0 * self.tp as f64 / denom as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WORKLOADS;

    fn key(i: u32) -> FlowKey {
        FlowKey::five_tuple(i, 9, 1, 80, 6)
    }

    fn tiny() -> Workload {
        Workload {
            span: 2,
            threshold: 5.0,
            query_every: 1,
            snapshot_every: 2,
            duration_ms: 100,
            subwindow_ms: 20,
            ..WORKLOADS[2]
        }
    }

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn sliding_fold_adds_and_evicts() {
        let w = tiny();
        let batches: Vec<Batch> = vec![
            vec![(key(1), 4), (key(2), 9)],
            vec![(key(1), 3)],
            vec![(key(3), 5)],
            vec![(key(1), 1)],
            vec![],
        ];
        let o = Oracle::build(&w, &batches);
        // Window [1,2]: key 1 = 3, key 3 = 5; key 2 left with sub-window 0.
        assert_eq!(o.answers[&2], vec![(key(3), 5.0)]);
        // Window [2,3]: key 3 = 5, key 1 = 1.
        assert_eq!(o.answers[&3], vec![(key(3), 5.0)]);
        assert_eq!(o.merged_flows[&3], 2);
        // Final window [3,4] holds key 1 only.
        assert!(o.answers[&4].is_empty());
        assert_eq!(o.final_flows, 1);
        assert_eq!(o.final_digest, digest(&[(key(1), AttrValue::Frequency(1))]));
        assert!(!o.answers.contains_key(&1), "first full window is skipped");
    }

    #[test]
    fn truth_counts_packets_per_window() {
        let w = tiny();
        let mut t = TruthBuilder::new(&w);
        for (k, sw, n) in [(1, 0, 6), (1, 1, 2), (2, 1, 3), (2, 2, 3), (1, 4, 9)] {
            for _ in 0..n {
                t.packet(key(k), sw);
            }
        }
        let heavy = t.finish();
        // Window [1,2]: key 1 = 2, key 2 = 6.
        assert_eq!(heavy[&2], HashSet::from([key(2)]));
        // Window [2,3]: key 2 = 3. Window [3,4]: key 1 = 9.
        assert!(heavy[&3].is_empty());
        assert_eq!(heavy[&4], HashSet::from([key(1)]));
    }

    #[test]
    fn f1_pools_over_windows() {
        let mut a = Accuracy::default();
        a.score(&[(key(1), 9.0), (key(2), 9.0)], &HashSet::from([key(1)]));
        a.score(&[], &HashSet::from([key(3)]));
        assert_eq!((a.tp, a.fp, a.fn_), (1, 1, 1));
        assert_eq!(a.f1_permille(), 500.0);
    }
}
