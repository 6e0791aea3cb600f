//! Property-based tests for the switch model's invariants.

use ow_common::afr::{AttrValue, FlowRecord};
use ow_common::flowkey::{FlowKey, KeyKind};
use ow_common::packet::{Packet, TcpFlags};
use ow_common::time::{Duration, Instant};
use ow_sketch::traits::{FrequencySketch, SketchMeta};
use ow_sketch::{CountMin, MvSketch};
use ow_switch::app::{DataPlaneApp, FrequencyApp};
use ow_switch::collect::{
    collect_and_reset, make_collection_packets, CollectConfig, PacketCollector, PassResult,
};
use ow_switch::consistency::{ConsistencyModel, Placement};
use ow_switch::flowkey::{FlowkeyTracker, TrackOutcome};
use ow_switch::latency::{inject, recirc_enumeration};
use ow_switch::signal::{SignalEngine, WindowSignal};
use ow_switch::{Switch, SwitchConfig, SwitchEvent};
use proptest::prelude::*;

fn pkt_at_ns(ns: u64) -> Packet {
    Packet::tcp(Instant::from_nanos(ns), 1, 2, 3, 4, TcpFlags::ack(), 64)
}

const SUBWINDOW_MS: u64 = 100;

/// A switch small enough that a short trace overflows its `fk_buffer`.
fn small_switch(first_hop: bool) -> Switch<FrequencyApp<CountMin>> {
    let app = |s| FrequencyApp::new(CountMin::new(2, 64, s), KeyKind::SrcIp, false);
    Switch::new_unchecked(
        SwitchConfig {
            first_hop,
            signal: WindowSignal::Timeout(Duration::from_millis(SUBWINDOW_MS)),
            fk_capacity: 8,
            expected_flows: 64,
            retransmit_depth: 2,
            ..SwitchConfig::default()
        },
        app(1),
        app(2),
    )
}

/// Where an event may stand in one packet's stream: collections and
/// triggers, then the packet's own overflow / spike, then `Forward`.
fn event_rank(e: &SwitchEvent) -> u8 {
    match e {
        SwitchEvent::AfrBatch { .. } | SwitchEvent::Trigger { .. } => 0,
        SwitchEvent::OverflowKey(_) | SwitchEvent::LatencySpike(_) => 1,
        SwitchEvent::Forward(_) => 2,
    }
}

/// A frequency app that also stores keys of its own (what MV-Sketch or
/// HashPipe would report), so C&R has three key sources to merge.
struct KeyedApp {
    inner: FrequencyApp<CountMin>,
    own: Vec<FlowKey>,
}

impl DataPlaneApp for KeyedApp {
    fn key_kind(&self) -> KeyKind {
        self.inner.key_kind()
    }
    fn update_keyed(&mut self, pkt: &Packet, key: &FlowKey) {
        self.inner.update_keyed(pkt, key);
    }
    fn query(&self, key: &FlowKey) -> AttrValue {
        self.inner.query(key)
    }
    fn self_tracked_keys(&self) -> Vec<FlowKey> {
        self.own.clone()
    }
    fn reset(&mut self) {
        self.inner.reset();
        self.own.clear();
    }
    fn states_per_array(&self) -> usize {
        self.inner.states_per_array()
    }
    fn meta(&self) -> SketchMeta {
        self.inner.meta()
    }
}

/// Equal keys are told apart only by arrival: `SrcIp` keys whose ports
/// differ are one key under the projection, and the copy C&R reports is
/// the first to arrive — self-tracked, then buffered, then overflowed —
/// down to the bytes the projection ignores.
#[test]
fn first_arrival_of_a_key_survives_byte_for_byte() {
    let raw = |src_ip: u32, src_port: u16| FlowKey {
        src_ip,
        dst_ip: 77,
        src_port,
        dst_port: 80,
        proto: 6,
        kind: KeyKind::SrcIp,
    };
    let mut app = KeyedApp {
        inner: FrequencyApp::new(CountMin::new(3, 128, 5), KeyKind::SrcIp, false),
        own: vec![raw(5, 1), raw(3, 2), raw(5, 3)],
    };
    // One buffer cell: 3 is buffered, 5 / 7 / 1 overflow, the second 7
    // is already tracked.
    let mut tracker = FlowkeyTracker::new(1, 512, 6);
    for key in [raw(3, 10), raw(5, 11), raw(7, 12), raw(1, 13), raw(7, 14)] {
        tracker.track(&key);
    }
    assert_eq!(tracker.overflowed().len(), 3);

    let out = collect_and_reset(&mut app, &mut tracker, 4, CollectConfig::default());
    let keys: Vec<FlowKey> = out.afrs.iter().map(|r| r.key).collect();
    assert_eq!(
        format!("{keys:?}"),
        format!("{:?}", [raw(1, 13), raw(3, 2), raw(5, 1), raw(7, 12)])
    );
    assert_eq!(
        out.afrs.iter().map(|r| r.seq).collect::<Vec<_>>(),
        [0, 1, 2, 3]
    );
    assert_eq!((out.keys_from_dataplane, out.keys_injected), (4, 0));
}

fn arb_kind() -> impl Strategy<Value = KeyKind> {
    prop_oneof![
        Just(KeyKind::FiveTuple),
        Just(KeyKind::SrcIp),
        Just(KeyKind::DstIp),
        Just(KeyKind::SrcDst),
    ]
}

proptest! {
    /// `process` and `process_into` are one body: on any trace — dense
    /// runs, gaps around `cr_wait`, whole sub-windows skipped in
    /// silence, a transit switch fast-forwarded by stamps, stragglers
    /// inside and beyond the preservation horizon — they emit the same
    /// events in the same order. (In a debug build every packet also
    /// checks `maybe_collect`'s shortcut against the engine walk.)
    #[test]
    fn process_and_process_into_emit_the_same_stream(
        first_hop in any::<bool>(),
        steps in proptest::collection::vec((0u8..4, 0u64..1000, 1u32..40, 0u32..7), 1..300),
    ) {
        let mut by_vec = small_switch(first_hop);
        let mut by_sink = small_switch(first_hop);
        let mut now_us = 0u64;
        for &(class, gap, src, stamp) in &steps {
            now_us += match class {
                0 => gap / 20,           // back to back
                1 => gap * 2,            // either side of cr_wait
                2 => 90_000 + gap * 20,  // about one sub-window
                _ => 250_000 + gap * 650, // several sub-windows in silence
            };
            let mut p = Packet::tcp(
                Instant::from_nanos(now_us * 1_000), src, 9, 1, 80, TcpFlags::ack(), 64,
            );
            // Transit stamps wander from three windows behind the clock
            // to three ahead of it (a first hop overwrites them).
            let clock = (now_us / (SUBWINDOW_MS * 1_000)) as u32;
            p.ow.subwindow = (clock + stamp).saturating_sub(3);

            let returned = by_vec.process(p);
            let mut sunk = Vec::new();
            by_sink.process_into(p, &mut sunk);
            prop_assert_eq!(format!("{returned:?}"), format!("{sunk:?}"));
            prop_assert!(matches!(returned.last(), Some(SwitchEvent::Forward(_))));
            prop_assert!(returned.windows(2).all(|w| event_rank(&w[0]) <= event_rank(&w[1])));
            prop_assert_eq!(returned.iter().filter(|e| event_rank(e) == 2).count(), 1);
        }
        prop_assert_eq!(format!("{:?}", by_vec.flush()), format!("{:?}", by_sink.flush()));
        prop_assert_eq!(by_vec.latency_spikes(), by_sink.latency_spikes());
        prop_assert_eq!(by_vec.engine().rejected(), 0);
    }

    /// `collect_and_reset` equals its definition — concatenate the three
    /// key sources, stable-sort by packed key, dedup, query each — in
    /// keys (down to the surviving duplicate's raw fields), order, seq
    /// and the data-plane / injected split, for every key kind, with
    /// self-tracked keys repeating buffered ones and with overflow.
    #[test]
    fn collect_and_reset_matches_its_definition(
        kind in arb_kind(),
        ids in proptest::collection::vec((1u32..400, 1u64..9), 0..120),
        own_picks in proptest::collection::vec((0usize..120, any::<bool>()), 0..40),
        capacity in 1usize..64,
    ) {
        let key_of = |id: u32| FlowKey {
            src_ip: id,
            dst_ip: id.wrapping_mul(7),
            src_port: (id % 13) as u16,
            dst_port: 80,
            proto: 6,
            kind,
        };
        let mut app = KeyedApp {
            inner: FrequencyApp::new(CountMin::new(3, 128, 5), kind, false),
            own: Vec::new(),
        };
        let mut tracker = FlowkeyTracker::new(capacity, 512, 6);
        for &(id, n) in &ids {
            let (p, key) = (Packet::tcp(Instant::ZERO, id, 9, 1, 80, TcpFlags::ack(), 64), key_of(id));
            (0..n).for_each(|_| app.update_keyed(&p, &key));
            tracker.track(&key);
        }
        for &(pick, fresh) in &own_picks {
            let mut k = match ids.get(pick) {
                Some(&(id, _)) if !fresh => key_of(id),
                _ => key_of(1_000 + pick as u32),
            };
            if kind != KeyKind::FiveTuple {
                k.src_port ^= 0x4000; // equal under the projection, different raw bytes
            }
            app.own.push(k);
        }

        let mut keys = app.own.clone();
        keys.extend_from_slice(tracker.buffered());
        keys.extend_from_slice(tracker.overflowed());
        keys.sort_by_key(|k| k.as_u128());
        keys.dedup();
        let expected: Vec<FlowRecord> = keys
            .iter()
            .enumerate()
            .map(|(i, k)| FlowRecord { key: *k, attr: app.query(k), subwindow: 9, seq: i as u32 })
            .collect();
        let from_dataplane = (tracker.buffered().len() + app.own.len()).min(keys.len());

        let out = collect_and_reset(&mut app, &mut tracker, 9, CollectConfig::default());
        prop_assert_eq!(format!("{:?}", out.afrs), format!("{expected:?}"));
        prop_assert_eq!(out.keys_from_dataplane, from_dataplane);
        prop_assert_eq!(out.keys_injected, keys.len() - from_dataplane);
        prop_assert_eq!(tracker.total_tracked(), 0);
    }

    /// The literal Algorithm 2 and the engine the switch runs agree:
    /// with every key in `fk_buffer`, one collection packet recirculated
    /// through `PacketCollector::pass` until `Done` reports the same
    /// `(key, value)` set as `collect_and_reset`, the reset sweep visits
    /// every register index once, and both leave the region zeroed.
    #[test]
    fn packet_collector_matches_collect_and_reset(
        ids in proptest::collection::vec((1u32..400, 1u64..9), 0..120),
    ) {
        let mut app = FrequencyApp::new(CountMin::new(3, 128, 5), KeyKind::SrcIp, false);
        let mut tracker = FlowkeyTracker::new(512, 512, 6);
        for &(id, n) in &ids {
            let p = Packet::tcp(Instant::ZERO, id, 9, 1, 80, TcpFlags::ack(), 64);
            (0..n).for_each(|_| app.update(&p));
            tracker.track(&FlowKey::src_ip(id));
        }
        prop_assert!(tracker.overflowed().is_empty());
        let (mut literal_app, literal_tracker) = (app.clone(), tracker.clone());

        let out = collect_and_reset(&mut app, &mut tracker, 9, CollectConfig::default());
        let mut expected: Vec<(FlowKey, u64)> =
            out.afrs.iter().map(|r| (r.key, r.attr.scalar() as u64)).collect();

        let mut collector = PacketCollector::new(9);
        let mut p = make_collection_packets(1, 9, Instant::ZERO).remove(0);
        let mut reported: Vec<(FlowKey, u64)> = Vec::new();
        loop {
            match collector.pass(&mut p, &mut literal_app, &literal_tracker) {
                PassResult::Report { clone, recirculate } => {
                    prop_assert!(recirculate && clone.ow.subwindow == 9);
                    let key = clone.ow.flowkey.expect("a report carries its key");
                    reported.push((key, clone.ow.afr_value));
                }
                PassResult::BecameReset | PassResult::ResetPass { .. } => {}
                PassResult::Done => break,
            }
        }
        expected.sort_by_key(|(k, _)| k.as_u128());
        reported.sort_by_key(|(k, _)| k.as_u128());
        prop_assert_eq!(reported, expected);
        prop_assert_eq!(collector.reset_passes(), literal_app.states_per_array());
        for &(id, _) in &ids {
            let key = FlowKey::src_ip(id);
            prop_assert_eq!(app.query(&key), AttrValue::Frequency(0));
            prop_assert_eq!(literal_app.query(&key), AttrValue::Frequency(0));
        }
    }

    /// Timeout signals always place the engine in sub-window
    /// `floor(t / len)` after processing a packet at time `t`, for any
    /// non-decreasing packet sequence.
    #[test]
    fn timeout_subwindow_matches_formula(
        mut times in proptest::collection::vec(0u64..2_000_000_000, 1..100),
        len_ms in 1u64..500,
    ) {
        times.sort_unstable();
        let len = Duration::from_millis(len_ms);
        let mut e = SignalEngine::new(WindowSignal::Timeout(len));
        for &t in &times {
            let _ = e.on_packet(&pkt_at_ns(t));
            prop_assert_eq!(e.current() as u64, t / len.as_nanos(), "at t={}", t);
        }
    }

    /// The sub-window number never decreases over any packet sequence
    /// (monotonicity of the local clock view).
    #[test]
    fn signal_engine_is_monotone(
        mut times in proptest::collection::vec(0u64..1_000_000_000, 1..200),
    ) {
        times.sort_unstable();
        let mut e = SignalEngine::new(WindowSignal::Timeout(Duration::from_millis(50)));
        let mut last = 0;
        for &t in &times {
            let _ = e.on_packet(&pkt_at_ns(t));
            prop_assert!(e.current() >= last);
            last = e.current();
        }
    }

    /// Terminations report contiguous progress: `ended` is the previous
    /// current and `next` the new one.
    #[test]
    fn terminations_are_consistent(
        mut times in proptest::collection::vec(0u64..1_000_000_000, 1..200),
    ) {
        times.sort_unstable();
        let mut e = SignalEngine::new(WindowSignal::Timeout(Duration::from_millis(20)));
        let mut current = 0;
        for &t in &times {
            if let Some(term) = e.on_packet(&pkt_at_ns(t)) {
                prop_assert_eq!(term.ended, current);
                prop_assert!(term.next > term.ended);
                current = term.next;
            }
            prop_assert_eq!(e.current(), current);
        }
    }

    /// A transit switch never *loses* a packet: every packet is either
    /// placed in its embedded sub-window or declared a latency spike —
    /// and the spike case only fires when the stamp is older than the
    /// preservation horizon.
    #[test]
    fn transit_placement_is_total_and_correct(
        embedded in 0u32..100,
        current in 0u32..100,
        preserve in 0u32..5,
    ) {
        let cm = ConsistencyModel::new(false, preserve);
        let mut sig = SignalEngine::new(WindowSignal::Timeout(Duration::from_millis(100)));
        sig.fast_forward(current, Instant::ZERO);
        let mut p = pkt_at_ns(0);
        p.ow.subwindow = embedded;
        let out = cm.place(&mut p, &mut sig, Instant::ZERO);
        match out.placement {
            Placement::SubWindow(sw) => {
                prop_assert_eq!(sw, embedded, "always monitored at its stamp");
                prop_assert!(embedded + preserve >= current || embedded > current);
            }
            Placement::LatencySpike { embedded: e } => {
                prop_assert_eq!(e, embedded);
                prop_assert!(embedded < current && current - embedded > preserve);
            }
        }
        // The local sub-window never moves backwards.
        prop_assert!(sig.current() >= current);
        prop_assert_eq!(sig.current(), current.max(embedded));
    }

    /// Flowkey tracking conserves keys: every distinct key is buffered,
    /// overflowed, or (rarely) suppressed by a Bloom false positive —
    /// never duplicated.
    #[test]
    fn tracker_conserves_keys(ids in proptest::collection::hash_set(1u32..1_000_000, 1..300)) {
        let mut t = FlowkeyTracker::new(64, 1024, 42);
        for &i in &ids {
            t.track(&ow_common::flowkey::FlowKey::src_ip(i));
        }
        let tracked = t.total_tracked();
        prop_assert!(tracked <= ids.len(), "duplicates created");
        // Bloom false positives are rare at this load: at most a few keys
        // may be suppressed.
        prop_assert!(tracked + 3 >= ids.len(), "{tracked} of {}", ids.len());
        // Buffered never exceeds capacity.
        prop_assert!(t.buffered().len() <= 64);
    }

    /// The latency model is monotone: more items never collect faster,
    /// more recirculating packets never collect slower.
    #[test]
    fn latency_model_monotonicity(
        items_a in 0usize..100_000,
        items_b in 0usize..100_000,
        pkts_a in 1usize..64,
        pkts_b in 1usize..64,
    ) {
        let (lo, hi) = (items_a.min(items_b), items_a.max(items_b));
        prop_assert!(recirc_enumeration(lo, pkts_a) <= recirc_enumeration(hi, pkts_a));
        let (pl, ph) = (pkts_a.min(pkts_b), pkts_a.max(pkts_b));
        prop_assert!(recirc_enumeration(items_a, ph) <= recirc_enumeration(items_a, pl));
        prop_assert!(inject(lo, false) <= inject(hi, false));
        prop_assert!(inject(items_a, false) <= inject(items_a, true));
    }
}

const HEAVY: u32 = 1_000_000;

/// §4.2: a key the structure itself holds is reported even when the
/// flowkey tracker never saw it as new. A minimum-size Bloom filter
/// (640 bits, 7 hashes) saturated by 3,000 light keys answers
/// `AlreadyTracked` for a late heavy key, so the tracker never buffers
/// it. Returns the C&R batch and the heavy key's count before it.
fn bloom_masked_batch<S: FrequencySketch>(sketch: S) -> (Vec<FlowRecord>, AttrValue) {
    let heavy = FlowKey::src_ip(HEAVY);
    let mut app = FrequencyApp::new(sketch, KeyKind::SrcIp, false);
    let mut tracker = FlowkeyTracker::new(8192, 64, 11);
    let pkt = |src| Packet::tcp(Instant::ZERO, src, 9, 1, 80, TcpFlags::ack(), 64);
    for id in 1..=3_000u32 {
        app.update(&pkt(id));
        tracker.track(&FlowKey::src_ip(id));
    }
    (0..500).for_each(|_| app.update(&pkt(HEAVY)));
    assert_eq!(tracker.track(&heavy), TrackOutcome::AlreadyTracked);
    assert!(!tracker.buffered().contains(&heavy) && tracker.overflowed().is_empty());
    let count = app.query(&heavy);
    let out = collect_and_reset(&mut app, &mut tracker, 3, CollectConfig::default());
    (out.afrs, count)
}

#[test]
fn resident_key_survives_a_bloom_false_positive() {
    // MV-Sketch holds the heavy key as a candidate: reported, with its count.
    let (afrs, count) = bloom_masked_batch(MvSketch::new(2, 256, 7));
    let reported = afrs
        .iter()
        .find(|r| r.key.src_ip == HEAVY)
        .expect("resident key");
    assert!(
        reported.attr == count && count.scalar() >= 500.0,
        "{count:?}"
    );
    // Count-Min keeps no keys: the tracker's batch, unchanged.
    let (afrs, _) = bloom_masked_batch(CountMin::new(2, 256, 7));
    assert!(!afrs.is_empty() && afrs.iter().all(|r| r.key.src_ip != HEAVY));
}
