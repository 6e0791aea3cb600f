//! Property-based tests for the foundation types.

use ow_common::afr::{AttrKind, AttrValue, DistinctBitmap};
use ow_common::flowkey::{packed_order, sort_by_packed_key, FlowKey, KeyKind};
use ow_common::hash::{HashFamily, HashFn};
use proptest::prelude::*;

fn arb_kind() -> impl Strategy<Value = KeyKind> {
    prop_oneof![
        Just(KeyKind::FiveTuple),
        Just(KeyKind::SrcIp),
        Just(KeyKind::DstIp),
        Just(KeyKind::SrcDst),
    ]
}

fn arb_key() -> impl Strategy<Value = FlowKey> {
    (
        any::<u32>(),
        any::<u32>(),
        any::<u16>(),
        any::<u16>(),
        any::<u8>(),
        arb_kind(),
    )
        .prop_map(|(s, d, sp, dp, p, kind)| {
            FlowKey {
                src_ip: s,
                dst_ip: d,
                src_port: sp,
                dst_port: dp,
                proto: p,
                kind,
            }
            .canonical()
        })
}

proptest! {
    /// Canonicalisation is idempotent and equality-preserving.
    #[test]
    fn canonical_is_idempotent(k in arb_key()) {
        prop_assert_eq!(k.canonical(), k.canonical().canonical());
        prop_assert_eq!(k, k.canonical());
    }

    /// Keys equal under a projection pack to equal u128s and vice versa.
    #[test]
    fn key_u128_agrees_with_eq(a in arb_key(), b in arb_key()) {
        prop_assert_eq!(a == b, a.as_u128() == b.as_u128());
    }

    /// Hash indices are always in range.
    #[test]
    fn hash_index_in_range(k in arb_key(), seed in any::<u64>(), buckets in 1usize..1_000_000) {
        let h = HashFn::new(seed, 0);
        prop_assert!(h.index(&k, buckets) < buckets);
    }

    /// Digest row indices are always in range, at the widths the unit
    /// test of `HashFn::index` pins and for every row a sketch could ask.
    #[test]
    fn digest_index_in_range(k in arb_key(), seed in any::<u64>(), row in 0usize..64) {
        let d = HashFamily::new(seed, 1).digest(&k);
        for buckets in [1usize, 2, 3, 1000, 65536, 100003] {
            prop_assert!(d.index(row, buckets) < buckets);
        }
    }

    /// Frequency merge is commutative and associative.
    #[test]
    fn frequency_merge_comm_assoc(a in any::<u32>(), b in any::<u32>(), c in any::<u32>()) {
        let (a, b, c) = (a as u64, b as u64, c as u64);
        let mut ab = AttrValue::Frequency(a);
        ab.merge(&AttrValue::Frequency(b)).unwrap();
        let mut ba = AttrValue::Frequency(b);
        ba.merge(&AttrValue::Frequency(a)).unwrap();
        prop_assert_eq!(ab, ba);

        let mut ab_c = ab;
        ab_c.merge(&AttrValue::Frequency(c)).unwrap();
        let mut bc = AttrValue::Frequency(b);
        bc.merge(&AttrValue::Frequency(c)).unwrap();
        let mut a_bc = AttrValue::Frequency(a);
        a_bc.merge(&bc).unwrap();
        prop_assert_eq!(ab_c, a_bc);
    }

    /// Max/min merges are idempotent: x ∨ x == x.
    #[test]
    fn extremum_merge_idempotent(v in any::<u64>()) {
        let mut mx = AttrValue::Max(v);
        mx.merge(&AttrValue::Max(v)).unwrap();
        prop_assert_eq!(mx, AttrValue::Max(v));
        let mut mn = AttrValue::Min(v);
        mn.merge(&AttrValue::Min(v)).unwrap();
        prop_assert_eq!(mn, AttrValue::Min(v));
    }

    /// Identity elements are neutral for every pattern.
    #[test]
    fn identities_are_neutral(v in any::<u64>()) {
        for (kind, val) in [
            (AttrKind::Frequency, AttrValue::Frequency(v)),
            (AttrKind::Max, AttrValue::Max(v)),
            (AttrKind::Min, AttrValue::Min(v)),
        ] {
            let mut id = AttrValue::identity(kind);
            id.merge(&val).unwrap();
            prop_assert_eq!(id, val);
        }
    }

    /// Distinction bitmap union is commutative and never loses bits.
    #[test]
    fn bitmap_union_monotone(hs in proptest::collection::vec(any::<u64>(), 0..100)) {
        let mut a = DistinctBitmap::default();
        let mut b = DistinctBitmap::default();
        for (i, h) in hs.iter().enumerate() {
            if i % 2 == 0 { a.insert_hash(*h); } else { b.insert_hash(*h); }
        }
        let ones_a = a.ones();
        let mut ab = a;
        ab.union_with(&b);
        let mut ba = b;
        ba.union_with(&a);
        prop_assert_eq!(ab, ba);
        prop_assert!(ab.ones() >= ones_a);
        prop_assert!(ab.ones() >= b.ones());
    }

}

/// A deterministic stream of `u64`s (splitmix64) for building inputs
/// whose shape a strategy picks.
fn splitmix(seed: u64) -> impl FnMut() -> u64 {
    let mut x = seed;
    move || {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// `n` packed keys of one shape: random keys, many duplicates, all
/// equal, ascending, descending, a few ascending runs (a table's slot
/// order under churn), keys that differ only in the kind tag, only in
/// `proto` or in one bit, and keys spanning all 128 bits.
fn shaped_keys(shape: u8, n: usize, seed: u64) -> Vec<u128> {
    let mut next = splitmix(seed);
    let mut key = || {
        let k = FlowKey::five_tuple(
            next() as u32,
            next() as u32,
            next() as u16,
            next() as u16,
            next() as u8,
        );
        k.as_u128()
    };
    let base = key();
    let mut keys: Vec<u128> = (0..n).map(|_| key()).collect();
    let mut next = splitmix(!seed);
    match shape {
        0 => {}
        1 => {
            let pool = keys.len() / 8 + 1;
            for i in 0..keys.len() {
                keys[i] = keys[next() as usize % pool];
            }
        }
        2 => keys.fill(base),
        3 => keys.sort_unstable(),
        4 => keys.sort_unstable_by(|a, b| b.cmp(a)),
        5 => {
            let runs = 2 + next() as usize % 5;
            let len = keys.len().div_ceil(runs).max(1);
            keys.chunks_mut(len).for_each(|run| run.sort_unstable());
        }
        6 => {
            for k in &mut keys {
                *k = (base & !(3 << 104)) | ((next() as u128 % 4) << 104);
            }
        }
        7 => {
            for k in &mut keys {
                *k = (base & !0xFF) | (next() as u128 % 256);
            }
        }
        8 => {
            let bit = 1u128 << (next() % 128);
            for k in &mut keys {
                *k = if next() % 2 == 0 { base } else { base ^ bit };
            }
        }
        _ => {
            for k in &mut keys {
                *k = ((next() as u128) << 64) | next() as u128;
            }
        }
    }
    keys
}

fn arb_len() -> impl Strategy<Value = usize> {
    prop_oneof![
        Just(0usize),
        Just(1usize),
        Just(2usize),
        250usize..262,
        0usize..3_000,
        Just(100_000usize),
    ]
}

proptest! {
    /// `packed_order` is collect + `sort_unstable`, whatever the shape
    /// and whatever the ids: arrival indices, the ids a filter leaves
    /// with gaps (a table's live slots), or descending ids, where equal
    /// keys must still come out in id order.
    #[test]
    fn packed_order_is_the_sorted_pairs(
        shape in 0u8..10,
        n in arb_len(),
        seed in any::<u64>(),
        ids in 0u8..3,
    ) {
        let keys = shaped_keys(shape, n, seed);
        let pairs = keys
            .iter()
            .zip(0u32..)
            .filter(|&(k, i)| ids != 1 || (*k as u32 ^ i) % 4 != 0)
            .map(|(k, i)| (*k, if ids == 2 { u32::MAX - i } else { i }));
        let mut want: Vec<(u128, u32)> = pairs.clone().collect();
        want.sort_unstable();
        prop_assert_eq!(packed_order(pairs), want);
    }

    /// `sort_by_packed_key` is the stable `sort_by_key(as_u128)`: source
    /// keys that differ only in their ports pack equal, and keep their
    /// input order — on both sides of its 256-row stack path.
    #[test]
    fn sort_by_packed_key_is_stable(
        n in prop_oneof![0usize..256, 256usize..2_000],
        hosts in 1u32..600,
        seed in any::<u64>(),
    ) {
        let mut next = splitmix(seed);
        let rows: Vec<(FlowKey, usize)> = (0..n)
            .map(|i| {
                let key = FlowKey {
                    src_ip: next() as u32 % hosts,
                    dst_ip: next() as u32,
                    src_port: next() as u16,
                    dst_port: next() as u16,
                    proto: next() as u8,
                    kind: KeyKind::SrcIp,
                };
                (key, i)
            })
            .collect();
        let mut want = rows.clone();
        want.sort_by_key(|(k, _)| k.as_u128());
        let mut got = rows;
        sort_by_packed_key(&mut got, |(k, _)| *k);
        let fields = |v: &[(FlowKey, usize)]| -> Vec<(u32, u16, u16, usize)> {
            v.iter()
                .map(|(k, i)| (k.src_ip, k.src_port, k.dst_port, *i))
                .collect()
        };
        prop_assert_eq!(fields(&got), fields(&want));
    }
}

/// 64 k structured (counter-derived) keys of `kind` — sequential fields
/// are the input a weak mixer fails on first.
fn sequential_keys(kind: KeyKind) -> Vec<FlowKey> {
    (0..65_536u32)
        .map(|i| FlowKey {
            src_ip: 0x0A00_0000 + i,
            dst_ip: 0xC0A8_0000 + i.rotate_left(8),
            src_port: (i % 1000) as u16,
            dst_port: 80,
            proto: 6,
            kind,
        })
        .collect()
}

/// Every digest row is uniform on its own (chi-square over 64 buckets,
/// 63 degrees of freedom: mean 63, sd ≈ 11) and any two rows of one key
/// agree about as often as independent functions would (1/w).
#[test]
fn digest_rows_are_uniform_and_pairwise_independent() {
    const ROWS: usize = 7; // the Bloom filter's k, the most rows any user asks for
    for kind in [
        KeyKind::FiveTuple,
        KeyKind::SrcIp,
        KeyKind::DstIp,
        KeyKind::SrcDst,
    ] {
        let keys = sequential_keys(kind);
        let n = keys.len() as f64;
        let fam = HashFamily::new(0x5EED ^ kind as u64, ROWS);
        let pairs: Vec<(usize, usize)> = (0..ROWS)
            .flat_map(|r| ((r + 1)..ROWS).map(move |q| (r, q)))
            .collect();
        for w in [64usize, 1021] {
            let mut counts = vec![vec![0u32; w]; ROWS];
            let mut agree = vec![0u32; pairs.len()];
            for k in &keys {
                let d = fam.digest(k);
                for (r, row) in counts.iter_mut().enumerate() {
                    row[d.index(r, w)] += 1;
                }
                for (hits, &(r, q)) in agree.iter_mut().zip(&pairs) {
                    *hits += (d.index(r, w) == d.index(q, w)) as u32;
                }
            }
            let expected = n / w as f64;
            let dof = (w - 1) as f64;
            for (r, row) in counts.iter().enumerate() {
                let chi2: f64 = row
                    .iter()
                    .map(|&c| (c as f64 - expected).powi(2) / expected)
                    .sum();
                assert!(
                    chi2 < dof + 5.0 * (2.0 * dof).sqrt(),
                    "{kind:?} row {r} width {w}: chi2 {chi2:.1} over {dof} dof"
                );
            }
            for (&hits, (r, q)) in agree.iter().zip(&pairs) {
                assert!(
                    (hits as f64 - expected).abs() < 5.0 * expected.sqrt(),
                    "{kind:?} rows {r},{q} width {w}: agree {hits}, expected {expected:.0}"
                );
            }
        }
    }
}
