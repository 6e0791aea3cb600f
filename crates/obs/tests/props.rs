//! Property tests for the metrics registry: snapshots are a pure,
//! deterministic function of the recorded virtual-clock values.

use ow_common::time::Duration;
use ow_obs::MetricsRegistry;
use proptest::prelude::*;

/// One abstract recording operation against a small fixed metric space.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Add to the counter named by the index.
    Count(u8, u64),
    /// Record a virtual duration into the histogram named by the index.
    Observe(u8, u64),
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u8>(), any::<u64>()).prop_map(|(i, v)| Op::Count(i % 3, v % 1_000)),
        (any::<u8>(), any::<u64>()).prop_map(|(i, v)| Op::Observe(i % 3, v % 10_000_000)),
    ]
}

fn apply(reg: &MetricsRegistry, op: Op) {
    match op {
        Op::Count(i, v) => reg
            .counter("ow_prop_events_total", &[("idx", &i.to_string())])
            .add(v),
        Op::Observe(i, v) => reg
            .histogram("ow_prop_latency", &[("idx", &i.to_string())])
            .record(Duration::from_nanos(v)),
    }
}

fn snapshot_bytes(reg: &MetricsRegistry) -> String {
    serde_json::to_string_pretty(&reg.snapshot()).unwrap()
}

proptest! {
    /// Two registries fed the same virtual-clock operation sequence
    /// produce equal, byte-identical snapshots — the property
    /// the e2e byte-compare acceptance rests on.
    #[test]
    fn same_sequence_means_identical_snapshots(ops in proptest::collection::vec(arb_op(), 0..64)) {
        let a = MetricsRegistry::new();
        let b = MetricsRegistry::new();
        for op in &ops {
            apply(&a, *op);
            apply(&b, *op);
        }
        prop_assert_eq!(snapshot_bytes(&a), snapshot_bytes(&b));
        prop_assert_eq!(a.snapshot(), b.snapshot());
    }

    /// Counters and histograms are commutative: recording order (e.g.
    /// shard-thread interleaving) cannot leak into the snapshot.
    #[test]
    fn recording_order_cannot_leak_into_snapshots(ops in proptest::collection::vec(arb_op(), 0..64)) {
        let forward = MetricsRegistry::new();
        let reverse = MetricsRegistry::new();
        for op in &ops {
            apply(&forward, *op);
        }
        for op in ops.iter().rev() {
            apply(&reverse, *op);
        }
        prop_assert_eq!(snapshot_bytes(&forward), snapshot_bytes(&reverse));
    }
}
