//! Property tests for the §8 AFR reliability loop: for *any* loss,
//! reorder, and duplication pattern with per-packet loss below 1.0, a
//! collection session driven by the reliability loop converges to
//! `Complete` and its batch is identical to the loss-free batch.
//!
//! The fault patterns come from `ow-netsim`'s seeded `LossyChannel`, so
//! every failing case is reproducible from the printed proptest seed
//! (and the CI seed matrix varies `PROPTEST_SEED` to widen coverage).

use proptest::prelude::*;

use ow_common::afr::FlowRecord;
use ow_common::flowkey::FlowKey;
use ow_common::time::Duration;
use ow_controller::collector::CollectionSession;
use ow_controller::reliability::{AfrTransport, ReliabilityDriver, RetryPolicy};
use ow_netsim::{ClassProfile, FaultConfig, LossyChannel, PacketClass};

fn batch(subwindow: u32, n: u32) -> Vec<FlowRecord> {
    (0..n)
        .map(|seq| {
            let mut r = FlowRecord::frequency(FlowKey::src_ip(seq + 1), seq as u64 + 1, subwindow);
            r.seq = seq;
            r
        })
        .collect()
}

/// A switch reached through a [`LossyChannel`]: the initial stream, the
/// retransmission requests, and the replayed AFRs all cross the channel;
/// only the OS read is reliable.
struct ChannelTransport {
    store: Vec<FlowRecord>,
    channel: LossyChannel,
}

impl AfrTransport for ChannelTransport {
    fn initial_afrs(&mut self, _sw: u32) -> Vec<FlowRecord> {
        self.channel
            .transmit(PacketClass::AfrReport, self.store.clone())
    }
    fn request_retransmit(&mut self, _sw: u32, seqs: &[u32]) -> Vec<FlowRecord> {
        if self
            .channel
            .transmit_one(PacketClass::RetransmitRequest, ())
            .is_empty()
        {
            return Vec::new();
        }
        let replayed: Vec<FlowRecord> = seqs
            .iter()
            .filter_map(|&s| self.store.iter().find(|r| r.seq == s).copied())
            .collect();
        self.channel.transmit(PacketClass::RetransmitData, replayed)
    }
    fn os_read(&mut self, _sw: u32) -> (Vec<FlowRecord>, Duration) {
        (self.store.clone(), Duration::from_millis(50))
    }
}

proptest! {
    /// Any AFR loss rate below 1.0 — plus duplication and reordering on
    /// every class — converges to the loss-free batch. Escalation is
    /// allowed (the loop is bounded); completeness is not negotiable.
    #[test]
    fn any_fault_pattern_converges_to_loss_free_batch(
        seed in any::<u64>(),
        n in 0u32..80,
        loss in 0.0f64..0.95,
        dup in 0.0f64..0.3,
        reorder in 0.0f64..0.3,
        req_loss in 0.0f64..0.8,
    ) {
        let subwindow = 7;
        let store = batch(subwindow, n);
        let mut cfg = FaultConfig::lossless(seed);
        cfg.afr = ClassProfile { loss, duplicate: dup, reorder, ..ClassProfile::IDEAL };
        cfg.retransmit_request.loss = req_loss;
        cfg.retransmit_data = ClassProfile { loss: loss / 2.0, duplicate: dup, reorder, ..ClassProfile::IDEAL };
        let mut transport = ChannelTransport { store: store.clone(), channel: LossyChannel::new(cfg) };

        let out = ReliabilityDriver::new(RetryPolicy::default())
            .collect(&mut transport, subwindow, n);

        prop_assert_eq!(&out.batch, &store);
        // Ordered by dense seq ids, exactly once each.
        prop_assert!(out.batch.iter().enumerate().all(|(i, r)| r.seq == i as u32));
        // Counter sanity: every announced AFR is accounted for at most once.
        prop_assert!(out.metrics.first_pass + out.metrics.recovered <= n as u64);
        prop_assert_eq!(out.metrics.announced, n as u64);
        if out.metrics.retransmit_rounds == 0 {
            prop_assert!(!out.escalated);
            prop_assert_eq!(out.metrics.first_pass, n as u64);
        }
    }

    /// With a reliable recovery path, one round is always enough: no
    /// escalation, and the wall clock is exactly the waited timeouts.
    #[test]
    fn reliable_backchannel_needs_at_most_one_round(
        seed in any::<u64>(),
        n in 1u32..80,
        loss in 0.0f64..0.95,
    ) {
        let store = batch(0, n);
        let cfg = FaultConfig::afr_loss(seed, loss);
        let mut transport = ChannelTransport { store: store.clone(), channel: LossyChannel::new(cfg) };
        let policy = RetryPolicy::default();
        let out = ReliabilityDriver::new(policy).collect(&mut transport, 0, n);

        prop_assert_eq!(&out.batch, &store);
        prop_assert!(!out.escalated);
        prop_assert!(out.metrics.retransmit_rounds <= 1);
        let expect = if out.metrics.retransmit_rounds == 1 {
            policy.timeout_for_round(1)
        } else {
            Duration::ZERO
        };
        prop_assert_eq!(out.metrics.wall_clock, expect);
    }

    /// Session-level completeness: whatever subset (with duplicates, in
    /// any order) is received, `missing()` returns exactly the
    /// complement, and delivering it completes the session with a batch
    /// equal to the loss-free one.
    #[test]
    fn missing_is_exactly_the_complement(
        n in 1u32..100,
        received in proptest::collection::vec(any::<u32>(), 0..200),
    ) {
        let subwindow = 3;
        let store = batch(subwindow, n);
        let mut session = CollectionSession::new(subwindow, n);
        let mut delivered = std::collections::HashSet::new();
        for r in &received {
            let seq = r % n;
            session.receive(store[seq as usize]).unwrap();
            delivered.insert(seq);
        }
        let missing = session.missing();
        // Exactly the complement, sorted and duplicate-free.
        let expect: Vec<u32> = (0..n).filter(|s| !delivered.contains(s)).collect();
        prop_assert_eq!(&missing, &expect);
        for seq in missing {
            session.receive(store[seq as usize]).unwrap();
        }
        prop_assert!(session.is_complete());
        prop_assert_eq!(session.into_batch(), store);
    }
}
