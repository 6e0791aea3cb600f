//! Property-based tests for the sketch library's core invariants.

use ow_common::flowkey::FlowKey;
use ow_sketch::traits::FrequencySketch;
use ow_sketch::{
    BloomFilter, CountMin, HashPipe, HyperLogLog, Iblt, LinearCounting, MvSketch, SuMax,
};
use proptest::prelude::*;
use std::collections::HashMap;

fn arb_stream() -> impl Strategy<Value = Vec<(u16, u8)>> {
    // (key id, weight) pairs; small key space to force collisions.
    proptest::collection::vec((0u16..64, 1u8..16), 1..400)
}

fn key(i: u16) -> FlowKey {
    FlowKey::five_tuple(i as u32 + 1, 0xAAAA, 42, 80, 6)
}

fn ground_truth(stream: &[(u16, u8)]) -> HashMap<u16, u64> {
    let mut m = HashMap::new();
    for &(k, w) in stream {
        *m.entry(k).or_insert(0u64) += w as u64;
    }
    m
}

proptest! {
    /// Count-Min never underestimates any key, on any stream.
    #[test]
    fn count_min_one_sided(stream in arb_stream(), seed in any::<u64>()) {
        let mut cm = CountMin::new(3, 32, seed);
        for &(k, w) in &stream {
            cm.update(&key(k), w as u64);
        }
        for (k, truth) in ground_truth(&stream) {
            prop_assert!(cm.query(&key(k)) >= truth);
        }
    }

    /// SuMax is one-sided too, and never exceeds Count-Min.
    #[test]
    fn sumax_bounded_by_count_min(stream in arb_stream(), seed in any::<u64>()) {
        let mut cm = CountMin::new(3, 32, seed);
        let mut sm = SuMax::new(3, 32, seed);
        for &(k, w) in &stream {
            cm.update(&key(k), w as u64);
            sm.update(&key(k), w as u64);
        }
        for (k, truth) in ground_truth(&stream) {
            let q = sm.query(&key(k));
            prop_assert!(q >= truth);
            prop_assert!(q <= cm.query(&key(k)));
        }
    }

    /// A Bloom filter has no false negatives, and `check_and_insert` is
    /// `contains` then `insert`: same answers, same bits, on streams
    /// with repeats.
    #[test]
    fn bloom_check_and_insert_is_contains_then_insert(
        stream in proptest::collection::vec(0u16..200, 1..600),
        seed in any::<u64>(),
    ) {
        let mut fused = BloomFilter::new(1024, 7, seed);
        let mut split = BloomFilter::new(1024, 7, seed);
        for &k in &stream {
            let was = split.contains(&key(k));
            if !was {
                split.insert(&key(k));
            }
            prop_assert_eq!(fused.check_and_insert(&key(k)), was);
            prop_assert!(fused.contains(&key(k)), "false negative");
        }
        prop_assert_eq!(fused.inserted(), split.inserted());
        prop_assert_eq!(fused.fill_ratio(), split.fill_ratio());
        for k in 0u16..400 {
            prop_assert_eq!(fused.contains(&key(k)), split.contains(&key(k)));
        }
    }

    /// HashPipe never overestimates (it only drops or splits mass).
    #[test]
    fn hashpipe_never_overestimates(stream in arb_stream(), seed in any::<u64>()) {
        let mut hp = HashPipe::new(3, 16, seed);
        for &(k, w) in &stream {
            hp.update(&key(k), w as u64);
        }
        for (k, truth) in ground_truth(&stream) {
            prop_assert!(hp.query(&key(k)) <= truth);
        }
    }

    /// MV-Sketch estimates are within the (v±c)/2 bound of the truth:
    /// specifically, the estimate never drops below truth minus the total
    /// colliding mass, and candidates always include the bucket majority.
    #[test]
    fn mv_estimate_upper_bounded_by_stream_mass(stream in arb_stream(), seed in any::<u64>()) {
        let mut mv = MvSketch::new(3, 16, seed);
        let mut total = 0u64;
        for &(k, w) in &stream {
            mv.update(&key(k), w as u64);
            total += w as u64;
        }
        for (k, _) in ground_truth(&stream) {
            prop_assert!(mv.query(&key(k)) <= total);
        }
    }

    /// Reset always restores the zero state (queries return 0).
    #[test]
    fn reset_restores_zero(stream in arb_stream(), seed in any::<u64>()) {
        let mut cm = CountMin::new(2, 16, seed);
        let mut sm = SuMax::new(2, 16, seed);
        let mut mv = MvSketch::new(2, 16, seed);
        for &(k, w) in &stream {
            cm.update(&key(k), w as u64);
            sm.update(&key(k), w as u64);
            mv.update(&key(k), w as u64);
        }
        cm.reset();
        sm.reset();
        mv.reset();
        for k in 0u16..64 {
            prop_assert_eq!(cm.query(&key(k)), 0);
            prop_assert_eq!(sm.query(&key(k)), 0);
            prop_assert_eq!(mv.query(&key(k)), 0);
        }
    }

    /// LC and HLL merges commute: merge(a,b) == merge(b,a).
    #[test]
    fn cardinality_merges_commute(
        xs in proptest::collection::hash_set(0u32..10_000, 0..200),
        ys in proptest::collection::hash_set(0u32..10_000, 0..200),
        seed in any::<u64>(),
    ) {
        let kf = |i: u32| FlowKey::src_ip(i + 1);
        let mut lc_a = LinearCounting::new(4096, seed);
        let mut lc_b = LinearCounting::new(4096, seed);
        let mut hll_a = HyperLogLog::new(10, seed);
        let mut hll_b = HyperLogLog::new(10, seed);
        for &x in &xs { lc_a.insert(&kf(x)); hll_a.insert(&kf(x)); }
        for &y in &ys { lc_b.insert(&kf(y)); hll_b.insert(&kf(y)); }

        let mut ab_lc = lc_a.clone(); ab_lc.merge(&lc_b);
        let mut ba_lc = lc_b.clone(); ba_lc.merge(&lc_a);
        prop_assert_eq!(ab_lc, ba_lc);

        let mut ab_h = hll_a.clone(); ab_h.merge(&hll_b);
        let mut ba_h = hll_b.clone(); ba_h.merge(&hll_a);
        prop_assert_eq!(ab_h, ba_h);
    }

    /// IBLT: inserting a set of ids and deleting the same set empties the
    /// table, regardless of order.
    #[test]
    fn iblt_cancels_in_any_order(
        ids in proptest::collection::hash_set(any::<u128>(), 0..100),
        seed in any::<u64>(),
    ) {
        let mut t = Iblt::new(256, 3, seed);
        let ids: Vec<u128> = ids.into_iter().collect();
        for &id in &ids { t.insert(id); }
        for &id in ids.iter().rev() { t.delete(id); }
        prop_assert!(t.is_empty());
    }

    /// IBLT decoding is *sound* on any input: it never invents ids
    /// (everything decoded as missing was actually inserted, nothing as
    /// extra), and when peeling completes it recovered the exact set.
    /// (Completeness itself is probabilistic — a pair of ids can
    /// collide in all k cells — so it is asserted only when reported.)
    #[test]
    fn iblt_decode_is_sound(
        ids in proptest::collection::hash_set(any::<u128>(), 0..30),
        seed in any::<u64>(),
    ) {
        let mut t = Iblt::new(256, 3, seed);
        for &id in &ids { t.insert(id); }
        let (missing, extra, complete) = t.decode();
        for id in &missing {
            prop_assert!(ids.contains(id), "decoded id never inserted");
        }
        prop_assert!(extra.is_empty(), "phantom extras decoded");
        if complete {
            let mut expected: Vec<u128> = ids.into_iter().collect();
            expected.sort_unstable();
            prop_assert_eq!(missing, expected);
        }
    }

    /// IBLT completeness holds w.h.p.: across random seeds and sets of
    /// LossRadar-shaped packet ids (packed flow key << 20 ⊕ sequence),
    /// at most a tiny fraction of decodes may be incomplete.
    #[test]
    fn iblt_decode_usually_completes(base in any::<u64>()) {
        let mut incomplete = 0;
        for round in 0..20u64 {
            let seed = base.wrapping_add(round);
            let mut t = Iblt::new(256, 3, seed);
            for i in 0..25u32 {
                let flow = FlowKey::src_ip(i * 7919 + round as u32 + 1);
                t.insert((flow.as_u128() << 20) ^ u128::from(i % 4));
            }
            if !t.decode().2 {
                incomplete += 1;
            }
        }
        prop_assert!(incomplete <= 1, "{incomplete}/20 decodes incomplete");
    }
}

/// At `for_capacity`'s design load the digest-indexed filter keeps the
/// false-positive rate seven independent functions would give (≈ 0.8 %).
#[test]
fn bloom_false_positives_at_design_load() {
    let n = 65_536u32;
    let k = |i: u32| FlowKey::five_tuple(i, !i, (i % 60_000) as u16, 443, 6);
    for seed in 1..=4u64 {
        let mut bf = BloomFilter::for_capacity(n as usize, seed);
        (0..n).for_each(|i| bf.insert(&k(i)));
        assert!((0..n).all(|i| bf.contains(&k(i))), "false negative");
        let fps = (n..2 * n).filter(|&i| bf.contains(&k(i))).count();
        let rate = fps as f64 / n as f64;
        assert!(rate <= 0.015, "seed {seed}: false positive rate {rate}");
    }
}
