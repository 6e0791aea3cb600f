//! Property-based checks of the lossy channel.
//!
//! Conservation: whatever fault profile a channel runs — loss,
//! duplication, reordering, any mix — its per-class [`ClassStats`] must
//! balance: every offered packet is either delivered or dropped,
//! duplicates are *extra* delivered copies on top, and no counter ever
//! leaks across classes. The fleet sums these counters over hundreds of
//! per-link channels, so a single-channel imbalance would silently
//! corrupt every fleet report.
//!
//! Equivalence: `transmit` places each arrival in order as it is drawn;
//! [`push_then_sort`] is the model it must equal item for item, counter
//! for counter and RNG draw for RNG draw, so every seeded artifact built
//! on the channel stays byte-identical.

use ow_common::time::Duration;
use ow_netsim::{ClassProfile, ClassStats, FaultConfig, LossyChannel, PacketClass};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// An arbitrary per-class profile: independent loss, duplication, and
/// reorder probabilities (delay/jitter don't touch the counters but are
/// generated anyway to prove they don't).
fn arb_profile() -> impl Strategy<Value = ClassProfile> {
    (
        0.0f64..0.9,
        0.0f64..0.9,
        0.0f64..0.9,
        0u64..1_000,
        0u64..500,
    )
        .prop_map(
            |(loss, duplicate, reorder, delay_us, jitter_us)| ClassProfile {
                loss,
                duplicate,
                reorder,
                delay: Duration::from_micros(delay_us),
                jitter: Duration::from_micros(jitter_us),
            },
        )
}

/// A full config plus a transmit script: which class each batch goes
/// to, and how large each batch is.
fn arb_case() -> impl Strategy<Value = (FaultConfig, Vec<(u8, u16)>)> {
    let cfg = (
        any::<u64>(),
        arb_profile(),
        arb_profile(),
        arb_profile(),
        arb_profile(),
    )
        .prop_map(
            |(seed, afr, trigger, retransmit_request, retransmit_data)| FaultConfig {
                seed,
                afr,
                trigger,
                retransmit_request,
                retransmit_data,
            },
        );
    let script = proptest::collection::vec((0u8..4, 0u16..80), 0..24);
    (cfg, script)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// For every class, after any transmit script:
    /// `offered == (delivered − duplicated) + dropped` — each offered
    /// packet either arrives (once, plus `duplicated` extra copies) or
    /// is dropped — and `reordered ≤ delivered`, and classes never
    /// bleed into each other (untouched classes stay zero).
    #[test]
    fn per_class_counters_conserve_packets((cfg, script) in arb_case()) {
        let mut channel = LossyChannel::new(cfg);
        let mut offered_per_class = [0u64; 4];
        let mut returned_per_class = [0u64; 4];
        for &(class_idx, batch_len) in &script {
            let class = PacketClass::ALL[class_idx as usize];
            offered_per_class[class_idx as usize] += batch_len as u64;
            let payload: Vec<u32> = (0..batch_len as u32).collect();
            returned_per_class[class_idx as usize] +=
                channel.transmit(class, payload).len() as u64;
        }

        let stats = channel.stats();
        for (idx, &class) in PacketClass::ALL.iter().enumerate() {
            let c = stats.class(class);
            prop_assert_eq!(
                c.offered,
                offered_per_class[idx],
                "class {:?} offered-count drifted from the script", class
            );
            prop_assert_eq!(
                c.delivered,
                returned_per_class[idx],
                "class {:?} counted {} delivered but returned {} items",
                class, c.delivered, returned_per_class[idx]
            );
            prop_assert_eq!(
                c.offered,
                (c.delivered - c.duplicated) + c.dropped,
                "class {:?} leaked packets: offered {} delivered {} duplicated {} dropped {}",
                class, c.offered, c.delivered, c.duplicated, c.dropped
            );
            prop_assert!(
                c.duplicated <= c.delivered,
                "class {:?} duplicated {} > delivered {}", class, c.duplicated, c.delivered
            );
            prop_assert!(
                c.reordered <= c.delivered,
                "class {:?} reordered {} > delivered {}", class, c.reordered, c.delivered
            );
        }
    }

    /// The totals fold: summing any partition of channels with
    /// `FaultStats::merge` conserves the same balance, so the fleet's
    /// per-link aggregation cannot create or lose packets.
    #[test]
    fn merged_stats_conserve_across_channels(
        (cfg_a, script_a) in arb_case(),
        (cfg_b, script_b) in arb_case(),
    ) {
        let run = |cfg: FaultConfig, script: &[(u8, u16)]| {
            let mut ch = LossyChannel::new(cfg);
            for &(class_idx, batch_len) in script {
                let payload: Vec<u32> = (0..batch_len as u32).collect();
                ch.transmit(PacketClass::ALL[class_idx as usize], payload);
            }
            *ch.stats()
        };
        let a = run(cfg_a, &script_a);
        let b = run(cfg_b, &script_b);
        let mut total = a;
        total.merge(&b);
        for &class in &PacketClass::ALL {
            let (ta, tb, t) = (a.class(class), b.class(class), total.class(class));
            prop_assert_eq!(t.offered, ta.offered + tb.offered);
            prop_assert_eq!(t.delivered, ta.delivered + tb.delivered);
            prop_assert_eq!(t.dropped, ta.dropped + tb.dropped);
            prop_assert_eq!(t.duplicated, ta.duplicated + tb.duplicated);
            prop_assert_eq!(t.reordered, ta.reordered + tb.reordered);
            prop_assert_eq!(
                t.offered,
                (t.delivered - t.duplicated) + t.dropped,
                "merged class {:?} lost the balance", class
            );
        }
    }
}

/// The channel's batch semantics written the plain way, on its own RNG
/// stream: push every arrival as `(arrival key, draw index, item)`,
/// stable-sort by key, strip the keys.
fn push_then_sort<T: Clone>(
    rng: &mut StdRng,
    profile: &ClassProfile,
    stats: &mut ClassStats,
    items: Vec<T>,
) -> Vec<T> {
    let mut in_flight: Vec<(u64, u64, T)> = Vec::new();
    let mut tiebreak = 0u64;
    for (slot, item) in items.into_iter().enumerate() {
        stats.offered += 1;
        if profile.loss > 0.0 && rng.gen_bool(profile.loss) {
            stats.dropped += 1;
            continue;
        }
        let displaced = profile.reorder > 0.0 && rng.gen_bool(profile.reorder);
        let displacement: u64 = if displaced {
            stats.reordered += 1;
            rng.gen_range(2u64..16)
        } else {
            0
        };
        let key = slot as u64 * 2 + displacement;
        if profile.duplicate > 0.0 && rng.gen_bool(profile.duplicate) {
            stats.duplicated += 1;
            stats.delivered += 1;
            let copy_key = key + rng.gen_range(1u64..8);
            in_flight.push((copy_key, tiebreak, item.clone()));
            tiebreak += 1;
        }
        stats.delivered += 1;
        in_flight.push((key, tiebreak, item));
        tiebreak += 1;
    }
    in_flight.sort_by_key(|(key, tie, _)| (*key, *tie));
    in_flight.into_iter().map(|(_, _, item)| item).collect()
}

/// A probability with its edges drawn on purpose: exactly 0 skips a
/// class's draw, exactly 1 always fires it.
fn arb_probability() -> impl Strategy<Value = f64> {
    prop_oneof![Just(0.0), Just(1.0), 0.0f64..=1.0]
}

/// A profile over the whole probability range, with non-zero jitter so
/// that a `latency` call after the script reads the next RNG draw.
fn arb_faulty_profile() -> impl Strategy<Value = ClassProfile> {
    (
        arb_probability(),
        arb_probability(),
        arb_probability(),
        1u64..500,
    )
        .prop_map(|(loss, duplicate, reorder, jitter_us)| ClassProfile {
            loss,
            duplicate,
            reorder,
            delay: Duration::ZERO,
            jitter: Duration::from_micros(jitter_us),
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `transmit` returns what [`push_then_sort`] returns, in the same
    /// order, leaves the same counters and the RNG at the same draw.
    /// The payload is an owned `String` unique per batch and slot, so a
    /// survivor delivered twice or a duplicate gone missing shows.
    #[test]
    fn transmit_equals_push_then_sort(
        seed in any::<u64>(),
        profiles in (
            arb_faulty_profile(),
            arb_faulty_profile(),
            arb_faulty_profile(),
            arb_faulty_profile(),
        ),
        script in proptest::collection::vec((0u8..4, 0usize..3000), 0..5),
    ) {
        let cfg = FaultConfig {
            seed,
            afr: profiles.0,
            trigger: profiles.1,
            retransmit_request: profiles.2,
            retransmit_data: profiles.3,
        };
        let mut channel = LossyChannel::new(cfg.clone());
        let mut rng = StdRng::seed_from_u64(seed);
        let mut stats = [ClassStats::default(); 4];
        for (batch, &(class_idx, len)) in script.iter().enumerate() {
            let class = PacketClass::ALL[class_idx as usize];
            let items: Vec<String> = (0..len).map(|slot| format!("{batch}/{slot}")).collect();
            let want = push_then_sort(
                &mut rng,
                cfg.profile(class),
                &mut stats[class_idx as usize],
                items.clone(),
            );
            let got = channel.transmit(class, items);
            prop_assert_eq!(&got, &want, "batch {} ({:?}, {} items)", batch, class, len);
        }
        for (idx, &class) in PacketClass::ALL.iter().enumerate() {
            prop_assert_eq!(channel.stats().class(class), &stats[idx], "{:?}", class);
        }
        let profile = cfg.profile(PacketClass::AfrReport);
        let next = profile.delay
            + Duration::from_nanos(rng.gen_range(0..=profile.jitter.as_nanos()));
        prop_assert_eq!(channel.latency(PacketClass::AfrReport), next);
    }
}
