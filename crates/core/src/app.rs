//! The telemetry-application abstraction the window mechanisms drive.
//!
//! A [`WindowApp`] bundles everything OmniWindow needs from a telemetry
//! application (§4.1's feasibility requirements, made explicit):
//!
//! * a flowkey definition and packet filter,
//! * a *data-plane* state (register program / sketch) with update, flow
//!   query (AFR generation), and reset,
//! * an *error-free* reference execution (for the ideal baselines),
//! * a report predicate over the merged window statistic.
//!
//! Adapters are provided for the Sonata queries ([`QueryApp`]), the
//! heavy-hitter sketches ([`HeavyHitterApp`] — MV-Sketch / HashPipe),
//! the per-flow size sketches (`SizeApp` — Count-Min / SuMax), and the
//! super-spreader structures (`SpreadApp` / `VbfApp`).

use std::collections::HashSet;

use ow_common::afr::AttrValue;
use ow_common::flowkey::{FlowKey, KeyKind};
use ow_common::hash::mix64;
use ow_common::packet::Packet;
use ow_query::registers::RegisterEngine;
use ow_query::spec::QuerySpec;
use ow_sketch::traits::{FrequencySketch, InvertibleSketch, SpreadEstimator};
use ow_sketch::{
    CountMin, ElasticSketch, HashPipe, MvSketch, SpreadSketch, SuMax, VectorBloomFilter,
};

use crate::exact::ExactStat;

/// A telemetry application pluggable into every window mechanism.
pub trait WindowApp {
    /// Per-(sub)window data-plane state.
    type State;

    /// The application's flowkey definition.
    fn key_kind(&self) -> KeyKind;

    /// Packet relevance filter (query `filter` operator; sketches accept
    /// everything).
    fn filter(&self, pkt: &Packet) -> bool {
        let _ = pkt;
        true
    }

    /// Allocate a state instance within `memory_bytes`.
    fn make_state(&self, memory_bytes: usize, seed: u64) -> Self::State;

    /// Apply one packet (the data-plane update path). Callers apply
    /// [`WindowApp::filter`] first.
    fn update(&self, st: &mut Self::State, pkt: &Packet);

    /// Data-plane flow query — the AFR for `key` in this state.
    fn query(&self, st: &Self::State, key: &FlowKey) -> AttrValue;

    /// Keys resident in the structure itself (empty if the structure
    /// keeps no keys and relies on OmniWindow's flowkey tracking).
    fn resident_keys(&self, st: &Self::State) -> Vec<FlowKey> {
        let _ = st;
        Vec::new()
    }

    /// Clear the state (in-switch reset target).
    fn reset(&self, st: &mut Self::State);

    /// A fresh exact statistic for the error-free reference.
    fn exact_new(&self) -> ExactStat;

    /// Apply one (filtered) packet to an exact statistic.
    fn exact_update(&self, st: &mut ExactStat, pkt: &Packet);

    /// Report predicate over a merged data-plane statistic.
    fn passes_attr(&self, attr: &AttrValue) -> bool;

    /// Report predicate over a merged exact statistic.
    fn passes_exact(&self, st: &ExactStat) -> bool;
}

// ---------------------------------------------------------------------
// Sonata queries.
// ---------------------------------------------------------------------

/// A Sonata query as a window application (data plane = hash-indexed
/// registers without conflict handling).
#[derive(Debug, Clone, Copy)]
pub struct QueryApp {
    spec: QuerySpec,
}

impl QueryApp {
    /// Wrap a query spec.
    pub fn new(spec: QuerySpec) -> QueryApp {
        QueryApp { spec }
    }

    /// The memory budget that yields `slots` register cells for this
    /// query's statistic layout (lets experiments size states by slot
    /// count rather than raw bytes, since cell sizes vary per query).
    pub fn memory_for_slots(&self, slots: usize) -> usize {
        slots * self.cell_bytes()
    }

    fn cell_bytes(&self) -> usize {
        use ow_common::afr::AttrKind;
        let attr = match self.spec.stat.attr_kind() {
            AttrKind::Frequency | AttrKind::Signed | AttrKind::Max | AttrKind::Min => 4,
            AttrKind::Existence => 1,
            AttrKind::Distinction => 64,
            AttrKind::ConnBytes => 72,
        };
        attr + 13
    }
}

impl WindowApp for QueryApp {
    type State = RegisterEngine;

    fn key_kind(&self) -> KeyKind {
        self.spec.key_kind
    }

    fn filter(&self, pkt: &Packet) -> bool {
        (self.spec.filter)(pkt)
    }

    fn make_state(&self, memory_bytes: usize, seed: u64) -> RegisterEngine {
        let slots = (memory_bytes / self.cell_bytes()).max(1);
        RegisterEngine::new(self.spec, slots, seed)
    }

    fn update(&self, st: &mut RegisterEngine, pkt: &Packet) {
        st.update(pkt);
    }

    fn query(&self, st: &RegisterEngine, key: &FlowKey) -> AttrValue {
        st.query(key)
    }

    fn resident_keys(&self, st: &RegisterEngine) -> Vec<FlowKey> {
        st.resident_keys()
    }

    fn reset(&self, st: &mut RegisterEngine) {
        st.reset();
    }

    fn exact_new(&self) -> ExactStat {
        use ow_query::spec::StatKind;
        match self.spec.stat {
            StatKind::Count => ExactStat::Count(0),
            StatKind::Distinct(_) => ExactStat::Distinct(HashSet::new()),
            StatKind::CountDiff { .. } => ExactStat::Signed(0),
            StatKind::ConnBytes => ExactStat::ConnBytes {
                conns: HashSet::new(),
                bytes: 0,
            },
        }
    }

    fn exact_update(&self, st: &mut ExactStat, pkt: &Packet) {
        use ow_query::spec::StatKind;
        match (self.spec.stat, st) {
            (StatKind::Count, ExactStat::Count(v)) => *v += 1,
            (StatKind::Distinct(el), ExactStat::Distinct(s)) => {
                s.insert(el.extract(pkt));
            }
            (StatKind::CountDiff { plus, minus }, ExactStat::Signed(v)) => {
                if plus(pkt) {
                    *v += 1;
                }
                if minus(pkt) {
                    *v -= 1;
                }
            }
            (StatKind::ConnBytes, ExactStat::ConnBytes { conns, bytes }) => {
                conns.insert(((pkt.src_ip as u64) << 16) | pkt.src_port as u64);
                *bytes += pkt.wire_len as u64;
            }
            _ => unreachable!("exact stat initialised from spec"),
        }
    }

    fn passes_attr(&self, attr: &AttrValue) -> bool {
        self.spec.passes(attr)
    }

    fn passes_exact(&self, st: &ExactStat) -> bool {
        use ow_query::spec::Report;
        match self.spec.report {
            // ConnBytes scalar is bytes/conn; AtLeast queries never use
            // ConnBytes, everything else thresholds the scalar.
            Report::AtLeast(t) => st.scalar() >= t,
            Report::ManyConnsFewBytes {
                min_conns,
                max_bytes_per_conn,
            } => match st {
                ExactStat::ConnBytes { conns, bytes } => {
                    let c = conns.len() as f64;
                    c >= min_conns && (*bytes as f64 / c.max(1.0)) <= max_bytes_per_conn
                }
                _ => false,
            },
        }
    }
}

// ---------------------------------------------------------------------
// Sketch factory plumbing.
// ---------------------------------------------------------------------

/// Uniform memory-budgeted constructor over the frequency sketches.
pub(crate) trait SketchFactory: Sized {
    /// Build an instance with `rows` rows within `total_bytes`.
    fn build(rows: usize, total_bytes: usize, seed: u64) -> Self;
}

impl SketchFactory for CountMin {
    fn build(rows: usize, total_bytes: usize, seed: u64) -> Self {
        CountMin::with_memory(rows, total_bytes, seed)
    }
}

impl SketchFactory for SuMax {
    fn build(rows: usize, total_bytes: usize, seed: u64) -> Self {
        SuMax::with_memory(rows, total_bytes, seed)
    }
}

impl SketchFactory for MvSketch {
    fn build(rows: usize, total_bytes: usize, seed: u64) -> Self {
        MvSketch::with_memory(rows, total_bytes, seed)
    }
}

impl SketchFactory for HashPipe {
    fn build(rows: usize, total_bytes: usize, seed: u64) -> Self {
        HashPipe::with_memory(rows, total_bytes, seed)
    }
}

impl SketchFactory for ElasticSketch {
    fn build(_rows: usize, total_bytes: usize, seed: u64) -> Self {
        ElasticSketch::with_memory(total_bytes, seed)
    }
}

// ---------------------------------------------------------------------
// Heavy hitters (Q9): MV-Sketch / HashPipe, packet counts, 5-tuple key.
// ---------------------------------------------------------------------

/// Heavy-hitter detection on packet counts over five-tuples.
#[derive(Debug, Clone, Copy)]
pub struct HeavyHitterApp<S> {
    rows: usize,
    threshold: u64,
    _marker: std::marker::PhantomData<fn() -> S>,
}

impl HeavyHitterApp<MvSketch> {
    /// MV-Sketch heavy-hitter app (paper depth 4).
    pub fn mv(threshold: u64) -> Self {
        HeavyHitterApp {
            rows: 4,
            threshold,
            _marker: std::marker::PhantomData,
        }
    }
}

impl HeavyHitterApp<HashPipe> {
    /// HashPipe heavy-hitter app (paper depth 4).
    pub(crate) fn hashpipe(threshold: u64) -> Self {
        HeavyHitterApp {
            rows: 4,
            threshold,
            _marker: std::marker::PhantomData,
        }
    }
}

impl HeavyHitterApp<ElasticSketch> {
    /// Elastic Sketch heavy-hitter app (heavy part + light part).
    pub(crate) fn elastic(threshold: u64) -> Self {
        HeavyHitterApp {
            rows: 1,
            threshold,
            _marker: std::marker::PhantomData,
        }
    }
}

impl<S> WindowApp for HeavyHitterApp<S>
where
    S: FrequencySketch + InvertibleSketch + SketchFactory,
{
    type State = S;

    fn key_kind(&self) -> KeyKind {
        KeyKind::FiveTuple
    }

    fn make_state(&self, memory_bytes: usize, seed: u64) -> S {
        S::build(self.rows, memory_bytes, seed)
    }

    fn update(&self, st: &mut S, pkt: &Packet) {
        st.update(&pkt.five_tuple(), 1);
    }

    fn query(&self, st: &S, key: &FlowKey) -> AttrValue {
        AttrValue::Frequency(st.query(key))
    }

    fn resident_keys(&self, st: &S) -> Vec<FlowKey> {
        st.candidates()
    }

    fn reset(&self, st: &mut S) {
        st.reset();
    }

    fn exact_new(&self) -> ExactStat {
        ExactStat::Count(0)
    }

    fn exact_update(&self, st: &mut ExactStat, _pkt: &Packet) {
        if let ExactStat::Count(v) = st {
            *v += 1;
        }
    }

    fn passes_attr(&self, attr: &AttrValue) -> bool {
        attr.scalar() >= self.threshold as f64
    }

    fn passes_exact(&self, st: &ExactStat) -> bool {
        st.scalar() >= self.threshold as f64
    }
}

// ---------------------------------------------------------------------
// Per-flow size (Q10): Count-Min / SuMax, byte counts, 5-tuple key.
// ---------------------------------------------------------------------

/// Per-flow size estimation (bytes per five-tuple).
#[derive(Debug, Clone, Copy)]
pub(crate) struct SizeApp<S> {
    rows: usize,
    /// Report threshold in bytes (heavy flows by volume); size accuracy
    /// itself is scored by ARE over probe keys.
    threshold: u64,
    _marker: std::marker::PhantomData<fn() -> S>,
}

impl SizeApp<CountMin> {
    /// Count-Min size app (paper depth 4).
    pub(crate) fn count_min(threshold: u64) -> Self {
        SizeApp {
            rows: 4,
            threshold,
            _marker: std::marker::PhantomData,
        }
    }
}

impl SizeApp<SuMax> {
    /// SuMax size app (paper depth 4).
    pub(crate) fn sumax(threshold: u64) -> Self {
        SizeApp {
            rows: 4,
            threshold,
            _marker: std::marker::PhantomData,
        }
    }
}

impl<S> WindowApp for SizeApp<S>
where
    S: FrequencySketch + SketchFactory,
{
    type State = S;

    fn key_kind(&self) -> KeyKind {
        KeyKind::FiveTuple
    }

    fn make_state(&self, memory_bytes: usize, seed: u64) -> S {
        S::build(self.rows, memory_bytes, seed)
    }

    fn update(&self, st: &mut S, pkt: &Packet) {
        st.update(&pkt.five_tuple(), pkt.wire_len as u64);
    }

    fn query(&self, st: &S, key: &FlowKey) -> AttrValue {
        AttrValue::Frequency(st.query(key))
    }

    fn reset(&self, st: &mut S) {
        st.reset();
    }

    fn exact_new(&self) -> ExactStat {
        ExactStat::Count(0)
    }

    fn exact_update(&self, st: &mut ExactStat, pkt: &Packet) {
        if let ExactStat::Count(v) = st {
            *v += pkt.wire_len as u64;
        }
    }

    fn passes_attr(&self, attr: &AttrValue) -> bool {
        attr.scalar() >= self.threshold as f64
    }

    fn passes_exact(&self, st: &ExactStat) -> bool {
        st.scalar() >= self.threshold as f64
    }
}

// ---------------------------------------------------------------------
// Super-spreaders (Q8): SpreadSketch / Vector Bloom Filter.
// ---------------------------------------------------------------------

/// Super-spreader detection with SpreadSketch (distinct destinations per
/// source).
#[derive(Debug, Clone, Copy)]
pub(crate) struct SpreadApp {
    rows: usize,
    threshold: u64,
}

impl SpreadApp {
    /// Paper configuration: depth 4.
    pub(crate) fn new(threshold: u64) -> SpreadApp {
        SpreadApp { rows: 4, threshold }
    }
}

fn element_of(pkt: &Packet) -> u64 {
    mix64(pkt.dst_ip as u64 ^ 0xE1E)
}

impl WindowApp for SpreadApp {
    type State = SpreadSketch;

    fn key_kind(&self) -> KeyKind {
        KeyKind::SrcIp
    }

    fn make_state(&self, memory_bytes: usize, seed: u64) -> SpreadSketch {
        SpreadSketch::with_memory(self.rows, memory_bytes, seed)
    }

    fn update(&self, st: &mut SpreadSketch, pkt: &Packet) {
        st.update_element(&pkt.key(KeyKind::SrcIp), element_of(pkt));
    }

    fn query(&self, st: &SpreadSketch, key: &FlowKey) -> AttrValue {
        AttrValue::Distinction(st.bitmap(key))
    }

    fn resident_keys(&self, st: &SpreadSketch) -> Vec<FlowKey> {
        st.candidates()
    }

    fn reset(&self, st: &mut SpreadSketch) {
        st.reset();
    }

    fn exact_new(&self) -> ExactStat {
        ExactStat::Distinct(HashSet::new())
    }

    fn exact_update(&self, st: &mut ExactStat, pkt: &Packet) {
        if let ExactStat::Distinct(s) = st {
            s.insert(pkt.dst_ip as u64);
        }
    }

    fn passes_attr(&self, attr: &AttrValue) -> bool {
        attr.scalar() >= self.threshold as f64
    }

    fn passes_exact(&self, st: &ExactStat) -> bool {
        st.scalar() >= self.threshold as f64
    }
}

/// Super-spreader detection with the Vector Bloom Filter.
#[derive(Debug, Clone, Copy)]
pub(crate) struct VbfApp {
    threshold: u64,
}

impl VbfApp {
    /// Paper configuration: 5 arrays of 4096 bitmaps (the invertible
    /// bit-slice geometry is fixed, so the memory budget is too: 160 KB).
    pub(crate) fn new(threshold: u64) -> VbfApp {
        VbfApp { threshold }
    }

    /// The hot-cell criterion matching the spread threshold: a cell
    /// holding `threshold` distinct elements has about
    /// `m·(1 − e^(−T/m))` set bits (inverse of linear counting).
    fn min_ones(&self) -> u32 {
        let m = ow_sketch::vbf::VBF_CELL_BITS as f64;
        let t = self.threshold as f64;
        (m * (1.0 - (-t / m).exp())).floor().max(1.0) as u32
    }
}

impl WindowApp for VbfApp {
    type State = VectorBloomFilter;

    fn key_kind(&self) -> KeyKind {
        KeyKind::SrcIp
    }

    fn make_state(&self, _memory_bytes: usize, seed: u64) -> VectorBloomFilter {
        // The VBF's invertible geometry is fixed (5 × 4096 × 64 bits);
        // the budget parameter is intentionally ignored.
        VectorBloomFilter::new(seed)
    }

    fn update(&self, st: &mut VectorBloomFilter, pkt: &Packet) {
        st.update_element(&pkt.key(KeyKind::SrcIp), element_of(pkt));
    }

    fn query(&self, st: &VectorBloomFilter, key: &FlowKey) -> AttrValue {
        AttrValue::Distinction(st.cell_bitmap(key))
    }

    fn resident_keys(&self, st: &VectorBloomFilter) -> Vec<FlowKey> {
        st.candidates(self.min_ones())
    }

    fn reset(&self, st: &mut VectorBloomFilter) {
        st.reset();
    }

    fn exact_new(&self) -> ExactStat {
        ExactStat::Distinct(HashSet::new())
    }

    fn exact_update(&self, st: &mut ExactStat, pkt: &Packet) {
        if let ExactStat::Distinct(s) = st {
            s.insert(pkt.dst_ip as u64);
        }
    }

    fn passes_attr(&self, attr: &AttrValue) -> bool {
        attr.scalar() >= self.threshold as f64
    }

    fn passes_exact(&self, st: &ExactStat) -> bool {
        st.scalar() >= self.threshold as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ow_common::packet::TcpFlags;
    use ow_common::time::Instant;
    use ow_query::spec::standard_queries;

    fn pkt(src: u32, dst: u32) -> Packet {
        Packet::tcp(Instant::ZERO, src, dst, 1, 80, TcpFlags::ack(), 100)
    }

    #[test]
    fn heavy_hitter_app_counts_packets() {
        let app = HeavyHitterApp::mv(3);
        let mut st = app.make_state(64 * 1024, 1);
        for _ in 0..5 {
            app.update(&mut st, &pkt(1, 2));
        }
        let key = pkt(1, 2).five_tuple();
        assert_eq!(app.query(&st, &key), AttrValue::Frequency(5));
        assert!(app.passes_attr(&app.query(&st, &key)));
        assert!(app.resident_keys(&st).contains(&key));
        // Exact reference agrees.
        let mut ex = app.exact_new();
        for _ in 0..5 {
            app.exact_update(&mut ex, &pkt(1, 2));
        }
        assert!(app.passes_exact(&ex));
        assert_eq!(ex.scalar(), 5.0);
    }

    #[test]
    fn size_app_counts_bytes() {
        let app = SizeApp::count_min(150);
        let mut st = app.make_state(64 * 1024, 2);
        app.update(&mut st, &pkt(1, 2));
        app.update(&mut st, &pkt(1, 2));
        let key = pkt(1, 2).five_tuple();
        assert_eq!(app.query(&st, &key), AttrValue::Frequency(200));
        assert!(app.passes_attr(&AttrValue::Frequency(200)));
        assert!(!app.passes_attr(&AttrValue::Frequency(100)));
    }

    #[test]
    fn spread_app_afr_is_mergeable_bitmap() {
        let app = SpreadApp::new(10);
        let mut st1 = app.make_state(256 * 1024, 3);
        let mut st2 = app.make_state(256 * 1024, 3);
        // 15 distinct destinations split across two sub-windows with
        // overlap: union must count ~20, not 30.
        for d in 0..15u32 {
            app.update(&mut st1, &pkt(7, d));
        }
        for d in 10..25u32 {
            app.update(&mut st2, &pkt(7, d));
        }
        let key = FlowKey::src_ip(7);
        let mut a = app.query(&st1, &key);
        let b = app.query(&st2, &key);
        a.merge(&b).unwrap();
        let est = a.scalar();
        assert!((15.0..32.0).contains(&est), "union estimate {est}");
        assert!(app.passes_attr(&a));
    }

    #[test]
    fn vbf_app_bitmap_has_native_size() {
        let app = VbfApp::new(10);
        let mut st = app.make_state(160 * 1024, 4);
        for d in 0..20u32 {
            app.update(&mut st, &pkt(9, d));
        }
        match app.query(&st, &FlowKey::src_ip(9)) {
            AttrValue::Distinction(bm) => {
                assert_eq!(bm.logical_bits, 64);
                let est = bm.estimate();
                assert!((10.0..40.0).contains(&est), "estimate {est}");
            }
            other => panic!("wrong AFR {other:?}"),
        }
    }

    #[test]
    fn query_app_exact_and_register_agree_without_collisions() {
        let q5 = standard_queries()[4]; // SYN-flood count per dst
        let app = QueryApp::new(q5);
        let mut st = app.make_state(1 << 20, 5);
        let mut ex = app.exact_new();
        for i in 0..90u32 {
            let p = Packet::tcp(Instant::ZERO, i, 7, 1, 80, TcpFlags::syn(), 64);
            assert!(app.filter(&p));
            app.update(&mut st, &p);
            app.exact_update(&mut ex, &p);
        }
        let victim = FlowKey::dst_ip(7);
        assert_eq!(app.query(&st, &victim).scalar(), 90.0);
        assert_eq!(ex.scalar(), 90.0);
        assert!(app.passes_attr(&app.query(&st, &victim)));
        assert!(app.passes_exact(&ex));
    }

    #[test]
    fn query_app_filter_excludes() {
        let q2 = standard_queries()[1]; // SSH brute force
        let app = QueryApp::new(q2);
        let p = pkt(1, 2); // ACK to port 80
        assert!(!app.filter(&p));
    }
}
