//! Property-based tests of the window mechanisms as whole pipelines:
//! on arbitrary traces, OmniWindow with ample memory must agree with the
//! error-free ideal, sub-window merging must be exact for frequency
//! statistics, the sliding reconstruction must be consistent with the
//! tumbling one wherever they overlap, and FlowRadar's state migration
//! must reproduce the ideal wherever its states decode.

use omniwindow::app::HeavyHitterApp;
use omniwindow::config::WindowConfig;
use omniwindow::mechanisms::{run_ideal, run_omniwindow_probed, Mode};
use omniwindow::migration::run_flowradar;
use ow_common::flowkey::FlowKey;
use ow_common::packet::{Packet, TcpFlags};
use ow_common::time::{Duration, Instant};
use ow_trace::Trace;
use proptest::prelude::*;

/// Arbitrary small traces: up to 64 flows, up to 400 packets, 1 s span.
fn arb_trace() -> impl Strategy<Value = Trace> {
    proptest::collection::vec((0u32..64, 0u64..1_000_000_000), 1..400).prop_map(|raw| {
        let mut packets: Vec<Packet> = raw
            .into_iter()
            .map(|(flow, ns)| {
                Packet::tcp(
                    Instant::from_nanos(ns),
                    flow + 1,
                    9,
                    1,
                    80,
                    TcpFlags::ack(),
                    64,
                )
            })
            .collect();
        packets.sort_by_key(|p| p.ts);
        Trace {
            packets,
            duration: Duration::from_millis(1_000),
        }
    })
}

fn cfg() -> WindowConfig {
    WindowConfig::paper_default()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// With ample memory and flowkey capacity, OmniWindow's tumbling
    /// reports equal the error-free ideal's on any trace.
    #[test]
    fn omniwindow_tumbling_equals_ideal(trace in arb_trace(), threshold in 1u64..40) {
        let app = HeavyHitterApp::mv(threshold);
        let ideal = run_ideal(&app, &trace, &cfg(), Mode::Tumbling);
        let ow = run_omniwindow_probed(
            &app, &trace, &cfg(), Mode::Tumbling, 1 << 20, 4_096, 7, &[],
        );
        prop_assert_eq!(ideal.len(), ow.len());
        for (i, o) in ideal.iter().zip(ow.iter()) {
            prop_assert_eq!(&i.reported, &o.reported, "window {}", i.index);
        }
    }

    /// Same for the sliding reconstruction, at every position.
    #[test]
    fn omniwindow_sliding_equals_ideal(trace in arb_trace(), threshold in 1u64..40) {
        let app = HeavyHitterApp::mv(threshold);
        let ideal = run_ideal(&app, &trace, &cfg(), Mode::Sliding);
        let ow = run_omniwindow_probed(
            &app, &trace, &cfg(), Mode::Sliding, 1 << 20, 4_096, 7, &[],
        );
        prop_assert_eq!(ideal.len(), ow.len());
        for (i, o) in ideal.iter().zip(ow.iter()) {
            prop_assert_eq!(&i.reported, &o.reported, "position {}", i.index);
        }
    }

    /// Probed estimates through the whole AFR pipeline are exact per-flow
    /// packet counts when nothing collides.
    #[test]
    fn probed_estimates_are_exact(trace in arb_trace()) {
        let app = HeavyHitterApp::mv(u64::MAX); // never reports; probes only
        let probes: Vec<FlowKey> = (1u32..=64).map(|f| {
            Packet::tcp(Instant::ZERO, f, 9, 1, 80, TcpFlags::ack(), 64).five_tuple()
        }).collect();
        let ideal = run_ideal(&app, &trace, &cfg(), Mode::Tumbling);
        let ow = run_omniwindow_probed(
            &app, &trace, &cfg(), Mode::Tumbling, 1 << 20, 4_096, 7, &probes,
        );
        for (i, o) in ideal.iter().zip(ow.iter()) {
            for key in &probes {
                let truth = i.estimates.get(key).copied().unwrap_or(0.0);
                let est = o.estimates.get(key).copied().unwrap_or(0.0);
                prop_assert_eq!(truth, est, "window {} key {}", i.index, key);
            }
        }
    }

    /// FlowRadar decodes exact per-flow counts, so a run whose every
    /// sub-window state decodes completely reports and estimates exactly
    /// what the ideal heavy-hitter windows do at its 100-packet threshold.
    #[test]
    fn flowradar_migration_equals_ideal(trace in arb_trace()) {
        let run = run_flowradar(&trace, &cfg());
        let ideal = run_ideal(&HeavyHitterApp::mv(100), &trace, &cfg(), Mode::Tumbling);
        prop_assert_eq!(ideal.len(), run.windows.len());
        if run.all_complete {
            for (i, w) in ideal.iter().zip(run.windows.iter()) {
                prop_assert_eq!(&i.estimates, &w.estimates, "window {}", i.index);
                prop_assert_eq!(&i.reported, &w.reported, "window {}", i.index);
            }
        }
    }

    /// Tumbling windows are a subset of sliding positions: window w's
    /// report equals position w·(W/slide)'s report.
    #[test]
    fn tumbling_is_a_subset_of_sliding(trace in arb_trace(), threshold in 1u64..40) {
        let app = HeavyHitterApp::mv(threshold);
        let tumbling = run_ideal(&app, &trace, &cfg(), Mode::Tumbling);
        let sliding = run_ideal(&app, &trace, &cfg(), Mode::Sliding);
        let stride = cfg().subwindows_per_window() / cfg().subwindows_per_slide();
        for (w, t) in tumbling.iter().enumerate() {
            let pos = w * stride;
            prop_assert!(pos < sliding.len());
            prop_assert_eq!(&t.reported, &sliding[pos].reported, "window {}", w);
        }
    }
}
