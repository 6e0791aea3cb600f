//! Deterministic fault injection for the AFR collection path (§8).
//!
//! AFR report clones leave the switch at the lowest queue priority, so
//! under congestion they are the first packets dropped; trigger packets
//! and retransmission requests travel the control path but can still be
//! lost, duplicated, or reordered. This module models that channel as a
//! seeded random process so every reliability experiment is exactly
//! reproducible: the same [`FaultConfig`] (including its seed) always
//! drops, duplicates, and displaces the same packets.
//!
//! The channel is typed by *packet class* rather than by payload:
//! per-class loss rates let an experiment say "AFR clones lose 30 % but
//! the control path only 1 %", which is how the paper's reliability
//! argument is framed (data-plane clones are expendable precisely
//! because the recovery loop runs over a better-behaved path).

use ow_common::time::Duration;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::Range;

/// A reordered packet arrives this many keys after its in-order key
/// `2·slot`.
const REORDER_DISPLACEMENT: Range<u64> = 2..16;

/// A duplicate arrives this many keys after its original.
const DUPLICATE_LAG: Range<u64> = 1..8;

/// How far an arrival key can run ahead of its slot's in-order key
/// `2·slot` (a displaced packet's duplicate). Every arrival drawn at
/// `slot` or later has key `≥ 2·slot`, so only the arrivals of the last
/// `MAX_LATE / 2` slots (this one's included, two at most each) can lie
/// ahead of it.
const MAX_LATE: u64 = (REORDER_DISPLACEMENT.end - 1) + (DUPLICATE_LAG.end - 1);

/// Insert `item` (arrival key `key`) after every entry of `out` whose
/// key is at most `key`, so equal keys keep draw order. The scan from
/// the tail stops within the few entries `MAX_LATE` lets run ahead.
fn place<T>(keys: &mut Vec<u64>, out: &mut Vec<T>, key: u64, item: T) {
    let at = keys.iter().rposition(|&k| k <= key).map_or(0, |i| i + 1);
    debug_assert!(
        keys.len() - at <= MAX_LATE as usize,
        "displacement bound broken"
    );
    keys.insert(at, key);
    out.insert(at, item);
}

/// The traffic classes the collection path distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PacketClass {
    /// Lowest-priority AFR report clones (the initial, droppable stream).
    AfrReport,
    /// Trigger packets announcing a terminated sub-window.
    Trigger,
    /// Controller→switch retransmission requests (missing seq ids).
    RetransmitRequest,
    /// Switch→controller retransmitted AFRs (replayed from the
    /// retransmit buffer, typically at a higher priority).
    RetransmitData,
}

impl PacketClass {
    /// All classes, in stats-index order.
    pub const ALL: [PacketClass; 4] = [
        PacketClass::AfrReport,
        PacketClass::Trigger,
        PacketClass::RetransmitRequest,
        PacketClass::RetransmitData,
    ];

    fn index(self) -> usize {
        match self {
            PacketClass::AfrReport => 0,
            PacketClass::Trigger => 1,
            PacketClass::RetransmitRequest => 2,
            PacketClass::RetransmitData => 3,
        }
    }
}

/// Fault profile for one packet class.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClassProfile {
    /// Independent per-packet drop probability, in `[0, 1]`.
    pub loss: f64,
    /// Probability a delivered packet arrives twice, in `[0, 1]`.
    pub duplicate: f64,
    /// Probability a delivered packet is displaced later in the
    /// delivery order (modelling multi-path reordering), in `[0, 1]`.
    pub reorder: f64,
    /// Base one-way delay.
    pub delay: Duration,
    /// Uniform jitter added on top of `delay` (0..=jitter).
    pub jitter: Duration,
}

impl ClassProfile {
    /// A perfectly reliable, instantaneous profile.
    pub const IDEAL: ClassProfile = ClassProfile {
        loss: 0.0,
        duplicate: 0.0,
        reorder: 0.0,
        delay: Duration::ZERO,
        jitter: Duration::ZERO,
    };

    /// A profile that only loses packets (no dup/reorder/delay).
    pub(crate) fn lossy(loss: f64) -> ClassProfile {
        ClassProfile {
            loss,
            ..ClassProfile::IDEAL
        }
    }
}

/// Full channel configuration: one profile per class plus the RNG seed.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// Seed of the channel's private RNG; fixes the whole fault pattern.
    pub seed: u64,
    /// Profile for [`PacketClass::AfrReport`].
    pub afr: ClassProfile,
    /// Profile for [`PacketClass::Trigger`].
    pub trigger: ClassProfile,
    /// Profile for [`PacketClass::RetransmitRequest`].
    pub retransmit_request: ClassProfile,
    /// Profile for [`PacketClass::RetransmitData`].
    pub retransmit_data: ClassProfile,
}

impl FaultConfig {
    /// A channel that never misbehaves (useful as a control group).
    pub fn lossless(seed: u64) -> FaultConfig {
        FaultConfig {
            seed,
            afr: ClassProfile::IDEAL,
            trigger: ClassProfile::IDEAL,
            retransmit_request: ClassProfile::IDEAL,
            retransmit_data: ClassProfile::IDEAL,
        }
    }

    /// The paper's congestion scenario: AFR clones lose `afr_loss`,
    /// everything on the recovery path is reliable.
    pub fn afr_loss(seed: u64, afr_loss: f64) -> FaultConfig {
        FaultConfig {
            afr: ClassProfile::lossy(afr_loss),
            ..FaultConfig::lossless(seed)
        }
    }

    /// The profile governing `class`.
    pub fn profile(&self, class: PacketClass) -> &ClassProfile {
        match class {
            PacketClass::AfrReport => &self.afr,
            PacketClass::Trigger => &self.trigger,
            PacketClass::RetransmitRequest => &self.retransmit_request,
            PacketClass::RetransmitData => &self.retransmit_data,
        }
    }
}

/// Delivery counters for one packet class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassStats {
    /// Packets handed to the channel.
    pub offered: u64,
    /// Copies that came out the far end (includes duplicates).
    pub delivered: u64,
    /// Packets the channel dropped.
    pub dropped: u64,
    /// Extra copies created by duplication.
    pub duplicated: u64,
    /// Packets displaced from their offered position.
    pub reordered: u64,
}

/// Per-class delivery counters for a [`LossyChannel`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    classes: [ClassStats; 4],
}

impl FaultStats {
    /// Counters for one class.
    pub fn class(&self, class: PacketClass) -> &ClassStats {
        &self.classes[class.index()]
    }

    /// Total packets dropped across all classes.
    pub fn total_dropped(&self) -> u64 {
        self.classes.iter().map(|c| c.dropped).sum()
    }

    /// Fold another channel's counters into this aggregate (per-class,
    /// counter for counter) — how a fleet sums its per-link channels.
    pub fn merge(&mut self, other: &FaultStats) {
        for (mine, theirs) in self.classes.iter_mut().zip(other.classes.iter()) {
            mine.offered += theirs.offered;
            mine.delivered += theirs.delivered;
            mine.dropped += theirs.dropped;
            mine.duplicated += theirs.duplicated;
            mine.reordered += theirs.reordered;
        }
    }

    fn class_mut(&mut self, class: PacketClass) -> &mut ClassStats {
        &mut self.classes[class.index()]
    }
}

/// A deterministic lossy channel between switch and controller.
///
/// All randomness comes from one seeded xoshiro stream, so a fixed
/// `(FaultConfig, call sequence)` pair reproduces the exact same fault
/// pattern — the property the CI seed matrix relies on.
#[derive(Debug, Clone)]
pub struct LossyChannel {
    cfg: FaultConfig,
    rng: StdRng,
    stats: FaultStats,
}

impl LossyChannel {
    /// Build a channel from `cfg` (seeding its private RNG from
    /// `cfg.seed`).
    ///
    /// # Panics
    ///
    /// If any class's `loss`, `duplicate` or `reorder` is not a
    /// probability in `[0, 1]` (`NaN` and negative values included);
    /// the message names the class and the field.
    pub fn new(cfg: FaultConfig) -> LossyChannel {
        for class in PacketClass::ALL {
            let p = cfg.profile(class);
            for (field, value) in [
                ("loss", p.loss),
                ("duplicate", p.duplicate),
                ("reorder", p.reorder),
            ] {
                assert!(
                    (0.0..=1.0).contains(&value),
                    "fault profile {class:?}.{field} = {value} is not a probability in [0, 1]"
                );
            }
        }
        let rng = StdRng::seed_from_u64(cfg.seed);
        LossyChannel {
            cfg,
            rng,
            stats: FaultStats::default(),
        }
    }

    /// Push a batch through the channel, returning what arrives in
    /// arrival order (losses removed, duplicates inserted, reordering
    /// applied within the batch).
    ///
    /// Arrival order is ascending arrival key, ties in draw order: the
    /// packet offered at `slot` arrives at key `2·slot`, or
    /// `2·slot + d` if displaced (`d` in `REORDER_DISPLACEMENT`), and
    /// its duplicate `c` keys after it (`c` in `DUPLICATE_LAG`). Keys
    /// therefore never run more than `MAX_LATE` ahead of the current
    /// slot's `2·slot`, so each arrival is placed in order as it is
    /// drawn by scanning back over a few tail entries, and each
    /// survivor is moved (a duplicate: cloned) into the output once.
    pub fn transmit<T: Clone>(&mut self, class: PacketClass, items: Vec<T>) -> Vec<T> {
        let profile = *self.cfg.profile(class);
        let stats = self.stats.class_mut(class);
        stats.offered += items.len() as u64;
        // `keys[i]` is `out[i]`'s arrival key; both stay in arrival order.
        let mut keys: Vec<u64> = Vec::with_capacity(items.len());
        let mut out: Vec<T> = Vec::with_capacity(items.len());
        for (slot, item) in items.into_iter().enumerate() {
            if profile.loss > 0.0 && self.rng.gen_bool(profile.loss) {
                stats.dropped += 1;
                continue;
            }
            let displaced = profile.reorder > 0.0 && self.rng.gen_bool(profile.reorder);
            let displacement: u64 = if displaced {
                stats.reordered += 1;
                self.rng.gen_range(REORDER_DISPLACEMENT)
            } else {
                0
            };
            let key = slot as u64 * 2 + displacement;
            if profile.duplicate > 0.0 && self.rng.gen_bool(profile.duplicate) {
                stats.duplicated += 1;
                stats.delivered += 1;
                // The copy takes its own (possibly displaced) arrival slot.
                let copy_key = key + self.rng.gen_range(DUPLICATE_LAG);
                place(&mut keys, &mut out, copy_key, item.clone());
            }
            stats.delivered += 1;
            place(&mut keys, &mut out, key, item);
        }
        out
    }

    /// Push a single packet through the channel; the result is empty
    /// (lost), one copy, or two copies (duplicated).
    pub fn transmit_one<T: Clone>(&mut self, class: PacketClass, item: T) -> Vec<T> {
        self.transmit(class, vec![item])
    }

    /// Sample the one-way latency for one packet of `class`
    /// (base delay plus uniform jitter).
    pub fn latency(&mut self, class: PacketClass) -> Duration {
        let profile = self.cfg.profile(class);
        let jitter_ns = profile.jitter.as_nanos();
        let jitter = if jitter_ns == 0 {
            0
        } else {
            self.rng.gen_range(0..=jitter_ns)
        };
        profile.delay + Duration::from_nanos(jitter)
    }

    /// Delivery counters so far.
    pub fn stats(&self) -> &FaultStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lossless_channel_is_identity() {
        let mut ch = LossyChannel::new(FaultConfig::lossless(1));
        let out = ch.transmit(PacketClass::AfrReport, (0..100u32).collect());
        assert_eq!(out, (0..100).collect::<Vec<_>>());
        let s = ch.stats().class(PacketClass::AfrReport);
        assert_eq!(s.offered, 100);
        assert_eq!(s.delivered, 100);
        assert_eq!(s.dropped, 0);
    }

    #[test]
    fn same_seed_same_fault_pattern() {
        let cfg = FaultConfig::afr_loss(77, 0.3);
        let mut a = LossyChannel::new(cfg.clone());
        let mut b = LossyChannel::new(cfg);
        for _ in 0..10 {
            let xs = a.transmit(PacketClass::AfrReport, (0..50u32).collect());
            let ys = b.transmit(PacketClass::AfrReport, (0..50u32).collect());
            assert_eq!(xs, ys);
        }
    }

    #[test]
    fn loss_rate_is_roughly_honoured() {
        let mut ch = LossyChannel::new(FaultConfig::afr_loss(5, 0.3));
        for _ in 0..100 {
            let _ = ch.transmit(PacketClass::AfrReport, (0..100u32).collect());
        }
        let s = ch.stats().class(PacketClass::AfrReport);
        assert_eq!(s.offered, 10_000);
        let rate = s.dropped as f64 / s.offered as f64;
        assert!((0.25..0.35).contains(&rate), "observed loss {rate}");
    }

    #[test]
    fn per_class_profiles_are_independent() {
        let mut cfg = FaultConfig::afr_loss(9, 1.0);
        cfg.retransmit_data = ClassProfile::IDEAL;
        let mut ch = LossyChannel::new(cfg);
        assert!(ch
            .transmit(PacketClass::AfrReport, vec![1, 2, 3])
            .is_empty());
        assert_eq!(
            ch.transmit(PacketClass::RetransmitData, vec![4, 5]),
            vec![4, 5]
        );
        assert_eq!(ch.stats().class(PacketClass::AfrReport).dropped, 3);
        assert_eq!(ch.stats().class(PacketClass::RetransmitData).dropped, 0);
    }

    #[test]
    fn duplication_creates_extra_copies() {
        let mut cfg = FaultConfig::lossless(13);
        cfg.afr.duplicate = 1.0;
        let mut ch = LossyChannel::new(cfg);
        let out = ch.transmit(PacketClass::AfrReport, vec![1u32, 2, 3]);
        assert_eq!(out.len(), 6);
        let mut sorted = out.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![1, 1, 2, 2, 3, 3]);
        assert_eq!(ch.stats().class(PacketClass::AfrReport).duplicated, 3);
    }

    #[test]
    fn reordering_permutes_but_preserves_contents() {
        let mut cfg = FaultConfig::lossless(21);
        cfg.afr.reorder = 0.5;
        let mut ch = LossyChannel::new(cfg);
        let input: Vec<u32> = (0..200).collect();
        let out = ch.transmit(PacketClass::AfrReport, input.clone());
        assert_ne!(out, input, "seed 21 should displace at least one packet");
        let mut sorted = out.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, input);
        assert!(ch.stats().class(PacketClass::AfrReport).reordered > 0);
    }

    #[test]
    #[should_panic(expected = "AfrReport.loss = NaN is not a probability")]
    fn nan_probability_is_rejected() {
        LossyChannel::new(FaultConfig::afr_loss(1, f64::NAN));
    }

    #[test]
    #[should_panic(expected = "Trigger.duplicate = -0.1 is not a probability")]
    fn negative_probability_is_rejected() {
        let mut cfg = FaultConfig::lossless(1);
        cfg.trigger.duplicate = -0.1;
        LossyChannel::new(cfg);
    }

    #[test]
    #[should_panic(expected = "RetransmitData.reorder = 1.5 is not a probability")]
    fn probability_above_one_is_rejected() {
        let mut cfg = FaultConfig::lossless(1);
        cfg.retransmit_data.reorder = 1.5;
        LossyChannel::new(cfg);
    }

    #[test]
    fn latency_includes_bounded_jitter() {
        let mut cfg = FaultConfig::lossless(3);
        cfg.trigger.delay = Duration::from_micros(100);
        cfg.trigger.jitter = Duration::from_micros(10);
        let mut ch = LossyChannel::new(cfg);
        for _ in 0..100 {
            let d = ch.latency(PacketClass::Trigger);
            assert!(d >= Duration::from_micros(100));
            assert!(d <= Duration::from_micros(110));
        }
        assert_eq!(
            ch.latency(PacketClass::AfrReport),
            Duration::ZERO,
            "ideal profile has zero latency"
        );
    }
}
