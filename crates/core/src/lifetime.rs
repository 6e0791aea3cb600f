//! Variable-size windows: examining a suspicious flow's whole lifetime.
//!
//! The paper's generality requirement G1 is motivated by exactly this
//! workflow (§2): "after identifying this flow, we may also want to
//! examine more traffic in a longer period … administrators are
//! typically interested in the whole lifetime of each identified
//! suspicious flow. Since these flows have different duration, the
//! examined window size varies." Because OmniWindow retains per-sub-
//! window AFR batches at the controller, a window of *any* span can be
//! merged after the fact — per flow, sized to that flow's lifetime.

use std::collections::HashMap;

use ow_common::afr::{AttrValue, FlowRecord};
use ow_common::flowkey::{sort_by_packed_key, FlowKey};

/// A flow's lifetime view, merged across exactly the sub-windows it was
/// active in.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowLifetime {
    /// The flow.
    pub key: FlowKey,
    /// First sub-window the flow appeared in.
    pub first_subwindow: u32,
    /// Last sub-window the flow appeared in.
    pub last_subwindow: u32,
    /// Merged statistic over the whole lifetime.
    pub merged: AttrValue,
    /// Per-sub-window contributions (sub-window, scalar view).
    pub timeline: Vec<(u32, f64)>,
}

impl FlowLifetime {
    /// Sub-windows between first and last appearance, inclusive — the
    /// variable window size this flow's examination needs.
    pub fn span(&self) -> u32 {
        self.last_subwindow - self.first_subwindow + 1
    }
}

/// A retention store of per-sub-window AFR batches supporting
/// per-flow lifetime reconstruction.
#[derive(Debug, Clone, Default)]
pub struct LifetimeInspector {
    /// Sub-window → that sub-window's AFRs, indexed by key.
    batches: HashMap<u32, HashMap<FlowKey, FlowRecord>>,
}

impl LifetimeInspector {
    /// An empty store.
    pub fn new() -> LifetimeInspector {
        LifetimeInspector::default()
    }

    /// Retain one sub-window's AFR batch.
    pub fn insert_batch(&mut self, subwindow: u32, afrs: impl IntoIterator<Item = FlowRecord>) {
        let map = self.batches.entry(subwindow).or_default();
        for r in afrs {
            map.insert(r.key, r);
        }
    }

    /// Retained sub-windows, sorted.
    pub fn subwindows(&self) -> Vec<u32> {
        let mut v: Vec<u32> = self.batches.keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// Reconstruct a flow's lifetime: its first/last active sub-window
    /// and the merged statistic over exactly that span. Returns `None`
    /// if the flow appears in no retained sub-window.
    pub fn lifetime(&self, key: &FlowKey) -> Option<FlowLifetime> {
        let mut active: Vec<(u32, &FlowRecord)> = self
            .batches
            .iter()
            .filter_map(|(sw, m)| m.get(key).map(|r| (*sw, r)))
            .collect();
        if active.is_empty() {
            return None;
        }
        active.sort_by_key(|(sw, _)| *sw);
        let first_subwindow = active.first().expect("non-empty").0;
        let last_subwindow = active.last().expect("non-empty").0;
        let mut merged = active[0].1.attr;
        for (_, r) in &active[1..] {
            let _ = merged.merge(&r.attr);
        }
        let timeline = active
            .iter()
            .map(|(sw, r)| (*sw, r.attr.scalar()))
            .collect();
        Some(FlowLifetime {
            key: *key,
            first_subwindow,
            last_subwindow,
            merged,
            timeline,
        })
    }

    /// Lifetimes of several suspicious flows at once (e.g. every flow a
    /// detection window just reported).
    pub fn lifetimes<'a>(&self, keys: impl IntoIterator<Item = &'a FlowKey>) -> Vec<FlowLifetime> {
        let mut out: Vec<FlowLifetime> =
            keys.into_iter().filter_map(|k| self.lifetime(k)).collect();
        sort_by_packed_key(&mut out, |l| l.key);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(key: u32, sw: u32, n: u64) -> FlowRecord {
        FlowRecord::frequency(FlowKey::src_ip(key), n, sw)
    }

    #[test]
    fn lifetime_spans_active_subwindows_only() {
        let mut li = LifetimeInspector::new();
        li.insert_batch(0, [rec(1, 0, 10)]);
        li.insert_batch(1, [rec(1, 1, 20), rec(2, 1, 5)]);
        li.insert_batch(2, [rec(2, 2, 5)]);
        li.insert_batch(3, [rec(1, 3, 30)]);

        let l1 = li.lifetime(&FlowKey::src_ip(1)).expect("flow 1 present");
        assert_eq!((l1.first_subwindow, l1.last_subwindow), (0, 3));
        assert_eq!(l1.span(), 4);
        assert_eq!(l1.merged, AttrValue::Frequency(60));
        assert_eq!(l1.timeline, vec![(0, 10.0), (1, 20.0), (3, 30.0)]);

        // Flow 2 lived a shorter life — a *different* window size.
        let l2 = li.lifetime(&FlowKey::src_ip(2)).expect("flow 2 present");
        assert_eq!(l2.span(), 2);
        assert_eq!(l2.merged, AttrValue::Frequency(10));
    }

    #[test]
    fn absent_flow_is_none() {
        let li = LifetimeInspector::new();
        assert!(li.lifetime(&FlowKey::src_ip(9)).is_none());
    }

    #[test]
    fn batch_lookup_of_suspicious_set() {
        let mut li = LifetimeInspector::new();
        li.insert_batch(0, [rec(1, 0, 10), rec(2, 0, 1)]);
        li.insert_batch(1, [rec(1, 1, 10)]);
        let keys = [FlowKey::src_ip(1), FlowKey::src_ip(2), FlowKey::src_ip(3)];
        let ls = li.lifetimes(keys.iter());
        assert_eq!(ls.len(), 2);
        assert_eq!(ls[0].key, FlowKey::src_ip(1));
        assert_eq!(ls[0].span(), 2);
        assert_eq!(ls[1].span(), 1);
    }
}
