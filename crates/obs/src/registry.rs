//! The lock-cheap metrics registry.
//!
//! Three metric kinds — [`Counter`], [`Gauge`], and fixed-bucket log2
//! [`Histogram`]s — identified by a name plus an ordered label set.
//! Registration takes the registry's write lock once; after that every
//! update is a single atomic operation on a handle the caller keeps, so
//! hot paths (per-packet, per-AFR) never contend on the registry map.
//!
//! Everything recorded here is **virtual time**: histograms take
//! [`ow_common::time::Duration`] values from the discrete-event clock,
//! never wall-clock, so two runs of the same seed produce byte-identical
//! [`RegistrySnapshot`]s.
//!
//! Metric names follow the workspace scheme `ow_<crate>_<name>`
//! (lower-snake, `ow_` prefix) — `validate_metric_name` enforces it at
//! registration time so a misnamed metric fails the first test that
//! touches it instead of silently polluting the snapshots.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;
use serde::Serialize;

use ow_common::time::Duration;

/// Number of log2 buckets: bucket `i` counts values `v` with
/// `2^(i-1) < v <= 2^i` (bucket 0 counts 0 and 1). With u64 values the
/// 64 buckets cover every representable nanosecond span.
pub(crate) const HISTOGRAM_BUCKETS: usize = 64;

/// Check a metric name against the `ow_<crate>_<name>` scheme:
/// `ow_` prefix, lower-snake, at least one segment after the prefix.
pub(crate) fn validate_metric_name(name: &str) -> Result<(), String> {
    if !name.starts_with("ow_") {
        return Err(format!("metric '{name}' is missing the 'ow_' prefix"));
    }
    if name.len() <= 3 {
        return Err(format!("metric '{name}' has no segment after 'ow_'"));
    }
    if !name
        .chars()
        .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
    {
        return Err(format!(
            "metric '{name}' must be lower-snake ascii (a-z, 0-9, _)"
        ));
    }
    Ok(())
}

/// A metric identity: name plus ordered `(key, value)` labels.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct MetricId {
    /// The `ow_<crate>_<name>` metric name.
    pub name: String,
    /// Label pairs, sorted by key (sorted at construction).
    pub labels: Vec<(String, String)>,
}

impl MetricId {
    /// Build an id, sorting the labels so identity is order-insensitive.
    pub(crate) fn new(name: &str, labels: &[(&str, &str)]) -> MetricId {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort();
        MetricId {
            name: name.to_string(),
            labels,
        }
    }

    /// Prometheus-style rendering: `name{k="v",…}` (bare name when
    /// unlabelled).
    pub(crate) fn render(&self) -> String {
        if self.labels.is_empty() {
            return self.name.clone();
        }
        let inner: Vec<String> = self
            .labels
            .iter()
            .map(|(k, v)| format!("{k}=\"{v}\""))
            .collect();
        format!("{}{{{}}}", self.name, inner.join(","))
    }
}

/// A monotonically increasing counter handle (cheap to clone; clones
/// share the underlying cell).
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Increment by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increment by `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug, Default)]
struct GaugeCore {
    value: AtomicU64,
    /// High watermark since the gauge was registered — a queue-depth
    /// spike survives to the health engine's tick even when the gauge
    /// has already drained back down.
    peak: AtomicU64,
}

/// A gauge handle: a value that can move both ways (queue depths,
/// in-flight window counts), tracking its high watermark on the side.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<GaugeCore>);

impl Gauge {
    /// Set the value.
    pub fn set(&self, v: u64) {
        self.0.value.store(v, Ordering::Relaxed);
        self.0.peak.fetch_max(v, Ordering::Relaxed);
    }

    /// Increment by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Decrement by one, saturating at zero.
    pub fn dec(&self) {
        self.sub(1);
    }

    /// Increment by `n` (batched movements, e.g. a whole record block
    /// entering a queue).
    pub fn add(&self, n: u64) {
        let new = self.0.value.fetch_add(n, Ordering::Relaxed) + n;
        self.0.peak.fetch_max(new, Ordering::Relaxed);
    }

    /// Decrement by `n`, saturating at zero (the watermark is
    /// untouched: it only ever rises).
    pub fn sub(&self, n: u64) {
        let _ = self
            .0
            .value
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(n))
            });
    }

    /// Current value.
    pub(crate) fn get(&self) -> u64 {
        self.0.value.load(Ordering::Relaxed)
    }

    /// The high watermark since the gauge was registered.
    pub fn peak(&self) -> u64 {
        self.0
            .peak
            .load(Ordering::Relaxed)
            .max(self.0.value.load(Ordering::Relaxed))
    }
}

#[derive(Debug)]
struct HistogramCore {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for HistogramCore {
    fn default() -> HistogramCore {
        HistogramCore {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

/// Index of the log2 bucket for `v`: 0 for 0 and 1, otherwise
/// `ceil(log2(v))`, so bucket `i` has upper bound `2^i`.
fn bucket_of(v: u64) -> usize {
    if v <= 1 {
        0
    } else {
        (64 - (v - 1).leading_zeros()) as usize
    }
}

/// Upper bound of bucket `i` (`2^i`, saturating at `u64::MAX`).
fn bucket_bound(i: usize) -> u64 {
    if i >= 64 {
        u64::MAX
    } else {
        1u64 << i
    }
}

/// A fixed-bucket log2 histogram handle over virtual-clock durations
/// (or any u64 value).
///
/// # Saturation
///
/// The top bucket (index 63, upper bound `2^63`) also absorbs every
/// value above `2^63` — there is no separate overflow bucket. Near and
/// at saturation the quantile error bounds are:
///
/// * below the top bucket, a quantile over-reports its true value by at
///   most 2× (it reads the bucket's upper bound, and log2 buckets span
///   `(2^(i-1), 2^i]`);
/// * once the rank falls in the saturated top bucket, `p50`/`p99` read
///   `2^63` no matter how far above it the actual values lie, so the
///   error is unbounded in the *under*-reporting direction — treat a
///   `2^63` percentile as "≥ 2^63", not a measurement.
///
/// `sum` still accumulates exact values (wrapping on u64 overflow), so
/// the mean stays meaningful long after the percentiles saturate.
#[derive(Debug, Clone, Default)]
pub struct Histogram(Arc<HistogramCore>);

impl Histogram {
    /// Record one virtual-clock span.
    pub fn record(&self, d: Duration) {
        self.record_value(d.as_nanos());
    }

    /// Record one raw value. Values above `2^63` saturate into the top
    /// bucket (see the type-level *Saturation* notes).
    pub fn record_value(&self, v: u64) {
        self.0.buckets[bucket_of(v).min(HISTOGRAM_BUCKETS - 1)].fetch_add(1, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Number of recorded values.
    pub(crate) fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded values.
    pub(crate) fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    /// The quantile `q` in `[0, 1]`, read from the bucket boundaries:
    /// the upper bound of the first bucket whose cumulative count
    /// reaches `q·count`. Deterministic (no interpolation); `None` when
    /// empty.
    pub(crate) fn quantile(&self, q: f64) -> Option<u64> {
        let count = self.count();
        if count == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).max(1);
        let mut cumulative = 0u64;
        for i in 0..HISTOGRAM_BUCKETS {
            cumulative += self.0.buckets[i].load(Ordering::Relaxed);
            if cumulative >= rank {
                return Some(bucket_bound(i));
            }
        }
        Some(u64::MAX)
    }

    fn bucket_counts(&self) -> Vec<u64> {
        self.0
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }
}

/// A registered metric (the registry's storage side of the handles).
#[derive(Debug, Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// The metric registry: a map from `MetricId` to live metric cells.
///
/// Shareable via `Arc`; see the module docs for the locking story.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    metrics: RwLock<BTreeMap<MetricId, Metric>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Register (or look up) a counter.
    ///
    /// # Panics
    /// Panics when `name` violates the `ow_<crate>_<name>` scheme or is
    /// already registered as a different kind.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        match self.register(name, labels, || Metric::Counter(Counter::default())) {
            Metric::Counter(c) => c,
            other => panic!(
                "metric '{name}' already registered as {}",
                kind_name(&other)
            ),
        }
    }

    /// Register (or look up) a gauge.
    ///
    /// # Panics
    /// Panics when `name` violates the `ow_<crate>_<name>` scheme or is
    /// already registered as a different kind.
    pub(crate) fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        match self.register(name, labels, || Metric::Gauge(Gauge::default())) {
            Metric::Gauge(g) => g,
            other => panic!(
                "metric '{name}' already registered as {}",
                kind_name(&other)
            ),
        }
    }

    /// Register (or look up) a histogram.
    ///
    /// # Panics
    /// Panics when `name` violates the `ow_<crate>_<name>` scheme or is
    /// already registered as a different kind.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Histogram {
        match self.register(name, labels, || Metric::Histogram(Histogram::default())) {
            Metric::Histogram(h) => h,
            other => panic!(
                "metric '{name}' already registered as {}",
                kind_name(&other)
            ),
        }
    }

    fn register(&self, name: &str, labels: &[(&str, &str)], mk: impl FnOnce() -> Metric) -> Metric {
        if let Err(e) = validate_metric_name(name) {
            panic!("{e}");
        }
        let id = MetricId::new(name, labels);
        if let Some(m) = self.metrics.read().get(&id) {
            return m.clone();
        }
        self.metrics.write().entry(id).or_insert_with(mk).clone()
    }

    /// The high watermark of every registered gauge, in deterministic
    /// (name, labels) order: the health engine's peak sample.
    pub(crate) fn gauge_peaks(&self) -> Vec<PeakSample> {
        let metrics = self.metrics.read();
        metrics
            .iter()
            .filter_map(|(id, m)| match m {
                Metric::Gauge(g) => Some(PeakSample {
                    name: id.name.clone(),
                    labels: id.labels.clone(),
                    peak: g.peak(),
                }),
                _ => None,
            })
            .collect()
    }

    /// A point-in-time snapshot of every registered metric, in
    /// deterministic (name, labels) order.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let metrics = self.metrics.read();
        RegistrySnapshot {
            metrics: metrics
                .iter()
                .map(|(id, m)| {
                    let labels: Vec<(String, String)> = id.labels.clone();
                    match m {
                        Metric::Counter(c) => MetricSnapshot {
                            name: id.name.clone(),
                            labels,
                            kind: "counter".into(),
                            value: c.get(),
                            histogram: None,
                        },
                        Metric::Gauge(g) => MetricSnapshot {
                            name: id.name.clone(),
                            labels,
                            kind: "gauge".into(),
                            value: g.get(),
                            histogram: None,
                        },
                        Metric::Histogram(h) => MetricSnapshot {
                            name: id.name.clone(),
                            labels,
                            kind: "histogram".into(),
                            value: h.count(),
                            histogram: Some(HistogramSnapshot::of(h)),
                        },
                    }
                })
                .collect(),
        }
    }
}

fn kind_name(m: &Metric) -> &'static str {
    match m {
        Metric::Counter(_) => "counter",
        Metric::Gauge(_) => "gauge",
        Metric::Histogram(_) => "histogram",
    }
}

/// Serialized state of one histogram: non-empty buckets plus the
/// derived percentiles.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct HistogramSnapshot {
    /// `(bucket upper bound, count)` for every non-empty bucket,
    /// ascending.
    pub buckets: Vec<(u64, u64)>,
    /// Total recorded values.
    pub count: u64,
    /// Sum of recorded values (nanoseconds for duration histograms).
    pub sum: u64,
    /// Median (bucket upper bound), 0 when empty.
    pub p50: u64,
    /// 90th percentile, 0 when empty.
    pub p90: u64,
    /// 99th percentile, 0 when empty.
    pub p99: u64,
}

impl HistogramSnapshot {
    fn of(h: &Histogram) -> HistogramSnapshot {
        let buckets: Vec<(u64, u64)> = h
            .bucket_counts()
            .into_iter()
            .enumerate()
            .filter(|(_, n)| *n > 0)
            .map(|(i, n)| (bucket_bound(i), n))
            .collect();
        HistogramSnapshot {
            buckets,
            count: h.count(),
            sum: h.sum(),
            p50: h.quantile(0.50).unwrap_or(0),
            p90: h.quantile(0.90).unwrap_or(0),
            p99: h.quantile(0.99).unwrap_or(0),
        }
    }
}

/// One gauge's high watermark (see `MetricsRegistry::gauge_peaks`).
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct PeakSample {
    /// Gauge name (`ow_<crate>_<name>`).
    pub name: String,
    /// Sorted label pairs.
    pub labels: Vec<(String, String)>,
    /// High watermark since the gauge was registered.
    pub peak: u64,
}

/// Serialized state of one metric.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct MetricSnapshot {
    /// Metric name (`ow_<crate>_<name>`).
    pub name: String,
    /// Sorted label pairs.
    pub labels: Vec<(String, String)>,
    /// `"counter"`, `"gauge"`, or `"histogram"`.
    pub kind: String,
    /// Counter/gauge value; for histograms, the sample count.
    pub value: u64,
    /// Bucket detail for histograms.
    pub histogram: Option<HistogramSnapshot>,
}

impl MetricSnapshot {
    /// The rendered `name{labels}` identity.
    pub(crate) fn render_id(&self) -> String {
        MetricId {
            name: self.name.clone(),
            labels: self.labels.clone(),
        }
        .render()
    }
}

/// A deterministic point-in-time view of the whole registry.
#[derive(Debug, Clone, PartialEq, Serialize, Default)]
pub struct RegistrySnapshot {
    /// Every metric, sorted by (name, labels).
    pub metrics: Vec<MetricSnapshot>,
}

impl RegistrySnapshot {
    /// Find a metric by name and labels.
    pub fn get(&self, name: &str, labels: &[(&str, &str)]) -> Option<&MetricSnapshot> {
        let id = MetricId::new(name, labels);
        self.metrics
            .iter()
            .find(|m| m.name == id.name && m.labels == id.labels)
    }

    /// The counter/gauge value (or histogram count) of a metric, 0 when
    /// absent.
    pub fn value(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        self.get(name, labels).map_or(0, |m| m.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_scheme_is_enforced() {
        assert!(validate_metric_name("ow_switch_triggers_total").is_ok());
        assert!(validate_metric_name("switch_triggers").is_err());
        assert!(validate_metric_name("ow_").is_err());
        assert!(validate_metric_name("ow_Switch_x").is_err());
        assert!(validate_metric_name("ow_switch-x").is_err());
    }

    #[test]
    #[should_panic(expected = "missing the 'ow_' prefix")]
    fn registering_unprefixed_metric_panics() {
        let unprefixed = "bad_name";
        MetricsRegistry::new().counter(unprefixed, &[]);
    }

    #[test]
    fn counters_and_gauges_share_cells_across_handles() {
        let reg = MetricsRegistry::new();
        let c1 = reg.counter("ow_test_events_total", &[]);
        let c2 = reg.counter("ow_test_events_total", &[]);
        c1.add(3);
        c2.inc();
        assert_eq!(c1.get(), 4);

        let g = reg.gauge("ow_test_depth", &[("shard", "0")]);
        g.set(7);
        g.dec();
        g.inc();
        assert_eq!(reg.gauge("ow_test_depth", &[("shard", "0")]).get(), 7);
        // A different label set is a different metric.
        assert_eq!(reg.gauge("ow_test_depth", &[("shard", "1")]).get(), 0);
    }

    #[test]
    fn gauge_dec_saturates_at_zero() {
        let g = Gauge::default();
        g.dec();
        assert_eq!(g.get(), 0);
    }

    #[test]
    fn gauge_watermark_survives_a_drained_spike() {
        let g = Gauge::default();
        g.set(3);
        g.add(97); // spike to 100…
        g.sub(98); // …and drain back to 2 before anyone looks
        assert_eq!(g.get(), 2);
        assert_eq!(g.peak(), 100, "the spike survived the drain");
        assert_eq!(g.peak(), 100, "reading does not reset");
        g.set(1);
        assert_eq!(g.peak(), 100, "a lower set leaves the watermark");
    }

    #[test]
    fn gauge_watermark_tracks_the_max_across_add_sub_churn() {
        let g = Gauge::default();
        // Sawtooth churn: +5/−3 five times. The running value peaks at
        // 5+2k on cycle k; the watermark must hold the overall max even
        // though the gauge never rests there.
        for _ in 0..5 {
            g.add(5);
            g.sub(3);
        }
        assert_eq!(g.get(), 10);
        assert_eq!(g.peak(), 13, "max of the sawtooth, not the rest");
        // Oversized sub saturates at zero and leaves the watermark
        // alone, never wraps.
        g.sub(1000);
        assert_eq!(g.get(), 0);
        assert_eq!(g.peak(), 13);
        g.add(20);
        assert_eq!(g.peak(), 20, "a new high raises it");
    }

    #[test]
    fn registry_peak_sampling_reads_every_gauge_and_resets_none() {
        let reg = MetricsRegistry::new();
        reg.counter("ow_test_events_total", &[]).inc();
        let g0 = reg.gauge("ow_test_depth", &[("shard", "0")]);
        let g1 = reg.gauge("ow_test_depth", &[("shard", "1")]);
        g0.add(50);
        g0.sub(50);
        g1.add(7);
        let peaks = reg.gauge_peaks();
        assert_eq!(peaks.len(), 2, "counters are not peak-sampled");
        assert_eq!(peaks[0].labels, vec![("shard".into(), "0".into())]);
        assert_eq!(peaks[0].peak, 50);
        assert_eq!(peaks[1].peak, 7);
        assert_eq!(reg.gauge_peaks(), peaks, "sampling again reads the same");
    }

    #[test]
    fn log2_buckets_have_power_of_two_bounds() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 2);
        assert_eq!(bucket_of(5), 3);
        assert_eq!(bucket_of(1024), 10);
        assert_eq!(bucket_of(1025), 11);
        for v in [0u64, 1, 2, 3, 17, 255, 256, 1 << 40, u64::MAX] {
            let b = bucket_of(v);
            assert!(v <= bucket_bound(b), "{v} above its bucket bound");
            if b > 0 {
                assert!(v > bucket_bound(b - 1), "{v} fits a lower bucket");
            }
        }
    }

    #[test]
    fn histogram_percentiles_read_bucket_bounds() {
        let h = Histogram::default();
        // 100 values: 50× 100ns, 40× 1000ns, 10× 1_000_000ns.
        for _ in 0..50 {
            h.record(Duration::from_nanos(100));
        }
        for _ in 0..40 {
            h.record(Duration::from_nanos(1000));
        }
        for _ in 0..10 {
            h.record(Duration::from_millis(1));
        }
        assert_eq!(h.count(), 100);
        // 100 → bucket bound 128; 1000 → 1024; 1e6 → 2^20.
        assert_eq!(h.quantile(0.50), Some(128));
        assert_eq!(h.quantile(0.90), Some(1024));
        assert_eq!(h.quantile(0.99), Some(1 << 20));
        assert_eq!(h.quantile(1.0), Some(1 << 20));
        assert_eq!(h.quantile(0.0), Some(128), "q=0 reads the first value");
    }

    #[test]
    fn values_above_the_top_bucket_saturate_without_panic() {
        let h = Histogram::default();
        // 2^63 is the last representable bound; everything above it
        // must land in bucket 63 instead of indexing out of bounds.
        h.record_value(1u64 << 63);
        h.record_value((1u64 << 63) + 1);
        h.record_value(u64::MAX);
        assert_eq!(h.count(), 3);
        let snap = HistogramSnapshot::of(&h);
        assert_eq!(snap.buckets, vec![(1u64 << 63, 3)], "one saturated bucket");
        // At saturation the percentiles read 2^63 ("≥ 2^63"), the
        // documented unbounded-error regime.
        assert_eq!(h.quantile(0.5), Some(1u64 << 63));
        let mixed = Histogram::default();
        mixed.record_value(100);
        mixed.record_value(u64::MAX);
        assert_eq!(mixed.quantile(0.99), Some(1u64 << 63));
    }

    #[test]
    fn empty_histogram_has_no_quantiles() {
        let h = Histogram::default();
        assert_eq!(h.quantile(0.5), None);
        let snap = HistogramSnapshot::of(&h);
        assert_eq!(snap.p50, 0);
        assert!(snap.buckets.is_empty());
    }

    #[test]
    fn snapshot_is_sorted_and_queryable() {
        let reg = MetricsRegistry::new();
        reg.counter("ow_test_b_total", &[]).add(2);
        reg.counter("ow_test_a_total", &[]).inc();
        reg.histogram("ow_test_latency", &[])
            .record(Duration::from_micros(5));
        let snap = reg.snapshot();
        let names: Vec<&str> = snap.metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(
            names,
            vec!["ow_test_a_total", "ow_test_b_total", "ow_test_latency"]
        );
        assert_eq!(snap.value("ow_test_b_total", &[]), 2);
        assert_eq!(snap.value("ow_test_missing", &[]), 0);
        let h = snap.get("ow_test_latency", &[]).unwrap();
        assert_eq!(h.kind, "histogram");
        assert_eq!(h.histogram.as_ref().unwrap().count, 1);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let reg = MetricsRegistry::new();
        reg.counter("ow_test_thing", &[]);
        reg.gauge("ow_test_thing", &[]);
    }
}
