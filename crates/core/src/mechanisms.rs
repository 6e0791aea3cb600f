//! The seven window mechanisms of the evaluation.
//!
//! | Name | Paper label | Implementation |
//! |---|---|---|
//! | [`run_ideal`] (tumbling) | ITW | exact per-sub-window statistics, losslessly merged |
//! | [`run_ideal`] (sliding) | ISW | same, over sliding positions |
//! | [`run_conventional_tw`] with blackout | TW1 | one memory region; traffic during C&R is lost |
//! | [`run_conventional_tw`] without | TW2 | two memory regions; no loss, double memory |
//! | [`run_omniwindow`] (tumbling) | OTW | sub-window states + flowkey tracking + AFR merging |
//! | [`run_omniwindow`] (sliding) | OSW | same, sliding merge with eviction |
//! | [`run_sliding_sketch`] | SS | the Sliding Sketch baseline: two half-size states |
//!
//! All mechanisms take an optional `probes` list: keys whose merged
//! estimate is recorded per window, which is how the ARE experiments
//! compare a mechanism's per-flow estimates against the ideal values.

use std::collections::{HashMap, HashSet};

use ow_common::afr::FlowRecord;
use ow_common::flowkey::FlowKey;
use ow_common::time::Duration;
use ow_controller::table::MergeTable;
use ow_switch::flowkey::FlowkeyTracker;
use ow_trace::Trace;

use crate::app::WindowApp;
use crate::config::WindowConfig;
use crate::exact::ExactStat;

/// Tumbling or sliding reconstruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Non-overlapping windows.
    Tumbling,
    /// Overlapping windows advancing by the configured slide.
    Sliding,
}

/// One window's outcome from a mechanism.
#[derive(Debug, Clone)]
pub struct WindowResult {
    /// Window index (tumbling index or sliding position).
    pub index: usize,
    /// Keys the mechanism reported.
    pub reported: HashSet<FlowKey>,
    /// Merged scalar estimates for the probe keys (0.0 when the key was
    /// not observed).
    pub estimates: HashMap<FlowKey, f64>,
}

fn window_ranges(cfg: &WindowConfig, total_subwindows: usize, mode: Mode) -> Vec<(usize, usize)> {
    let spw = cfg.subwindows_per_window();
    let step = match mode {
        Mode::Tumbling => spw,
        Mode::Sliding => cfg.subwindows_per_slide(),
    };
    let mut out = Vec::new();
    let mut start = 0usize;
    while start + spw <= total_subwindows {
        out.push((start, start + spw));
        start += step;
    }
    out
}

// ---------------------------------------------------------------------
// Ideal mechanisms (ITW / ISW).
// ---------------------------------------------------------------------

/// Run the error-free reference (ITW for tumbling, ISW for sliding).
pub fn run_ideal<A: WindowApp>(
    app: &A,
    trace: &Trace,
    cfg: &WindowConfig,
    mode: Mode,
) -> Vec<WindowResult> {
    let n_sub = cfg.subwindows_in(trace.duration);
    let mut sub_states: Vec<HashMap<FlowKey, ExactStat>> = vec![HashMap::new(); n_sub];
    for pkt in trace.iter() {
        if !app.filter(pkt) {
            continue;
        }
        let s = cfg.subwindow_of(pkt.ts) as usize;
        if s >= n_sub {
            continue; // tail beyond the last complete sub-window
        }
        let key = pkt.key(app.key_kind());
        let st = sub_states[s].entry(key).or_insert_with(|| app.exact_new());
        app.exact_update(st, pkt);
    }

    window_ranges(cfg, n_sub, mode)
        .into_iter()
        .enumerate()
        .map(|(index, (lo, hi))| {
            let mut merged: HashMap<FlowKey, ExactStat> = HashMap::new();
            for sub in &sub_states[lo..hi] {
                for (k, v) in sub {
                    match merged.get_mut(k) {
                        Some(acc) => acc.merge(v),
                        None => {
                            merged.insert(*k, v.clone());
                        }
                    }
                }
            }
            let reported = merged
                .iter()
                .filter(|(_, v)| app.passes_exact(v))
                .map(|(k, _)| *k)
                .collect();
            let estimates = merged.iter().map(|(k, v)| (*k, v.scalar())).collect();
            WindowResult {
                index,
                reported,
                estimates,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Conventional tumbling windows (TW1 / TW2).
// ---------------------------------------------------------------------

/// Run a conventional tumbling-window mechanism with full-window state.
///
/// `blackout` models TW1's hazard: the slow C&R of the previous window
/// runs on the *same* memory region at the start of each window, so
/// traffic arriving during the first `blackout` of every window (except
/// the first) is not measured. Pass `Duration::ZERO` for TW2 (a second
/// region absorbs the C&R).
pub fn run_conventional_tw<A: WindowApp>(
    app: &A,
    trace: &Trace,
    cfg: &WindowConfig,
    memory_bytes: usize,
    blackout: Duration,
    seed: u64,
    probes: &[FlowKey],
) -> Vec<WindowResult> {
    let n_sub = cfg.subwindows_in(trace.duration);
    let ranges = window_ranges(cfg, n_sub, Mode::Tumbling);
    let win_ns = cfg.window().as_nanos();
    let mut state = app.make_state(memory_bytes, seed);
    let mut results = Vec::with_capacity(ranges.len());
    let mut window_idx = 0usize;

    for pkt in trace.iter() {
        if window_idx >= ranges.len() {
            break;
        }
        let w = (pkt.ts.as_nanos() / win_ns) as usize;
        // Close finished windows (possibly several on a sparse trace).
        while w > window_idx && window_idx < ranges.len() {
            results.push(report_window(app, &state, window_idx, probes));
            app.reset(&mut state);
            window_idx += 1;
        }
        if window_idx >= ranges.len() {
            break;
        }
        if !app.filter(pkt) {
            continue;
        }
        // TW1 blackout: the region is being reset during the first
        // `blackout` of every window after the first.
        if window_idx > 0 {
            let into_window = pkt.ts.as_nanos() - window_idx as u64 * win_ns;
            if into_window < blackout.as_nanos() {
                continue;
            }
        }
        app.update(&mut state, pkt);
    }
    // Close remaining complete windows.
    while window_idx < ranges.len() {
        results.push(report_window(app, &state, window_idx, probes));
        app.reset(&mut state);
        window_idx += 1;
    }
    results
}

fn report_window<A: WindowApp>(
    app: &A,
    state: &A::State,
    index: usize,
    probes: &[FlowKey],
) -> WindowResult {
    let reported = app
        .resident_keys(state)
        .into_iter()
        .filter(|k| app.passes_attr(&app.query(state, k)))
        .collect();
    let estimates = probes
        .iter()
        .map(|k| (*k, app.query(state, k).scalar()))
        .collect();
    WindowResult {
        index,
        reported,
        estimates,
    }
}

// ---------------------------------------------------------------------
// OmniWindow (OTW / OSW).
// ---------------------------------------------------------------------

/// Run the OmniWindow mechanism: per-sub-window states with flowkey
/// tracking, AFR generation at every sub-window end, and controller-side
/// merging into tumbling or sliding windows.
///
/// `subwindow_memory` is the budget per sub-window (the paper allocates
/// 1/4 of the original window's memory to each of the five sub-windows
/// because traffic is non-uniform). `fk_capacity` bounds the data-plane
/// flowkey array; overflow keys are tracked by the controller exactly as
/// Algorithm 1 prescribes.
#[allow(clippy::too_many_arguments)]
pub fn run_omniwindow<A: WindowApp>(
    app: &A,
    trace: &Trace,
    cfg: &WindowConfig,
    mode: Mode,
    subwindow_memory: usize,
    seed: u64,
) -> Vec<WindowResult> {
    run_omniwindow_probed(
        app,
        trace,
        cfg,
        mode,
        subwindow_memory,
        64 * 1024,
        seed,
        &[],
    )
}

/// [`run_omniwindow`] with explicit flowkey-array capacity and probes.
#[allow(clippy::too_many_arguments)]
pub fn run_omniwindow_probed<A: WindowApp>(
    app: &A,
    trace: &Trace,
    cfg: &WindowConfig,
    mode: Mode,
    subwindow_memory: usize,
    fk_capacity: usize,
    seed: u64,
    probes: &[FlowKey],
) -> Vec<WindowResult> {
    let n_sub = cfg.subwindows_in(trace.duration);
    // Generate one AFR batch per sub-window. The hardware reuses two
    // regions; functionally each sub-window sees a freshly reset state,
    // which a single state + reset reproduces exactly.
    let mut state = app.make_state(subwindow_memory, seed);
    let mut tracker = FlowkeyTracker::new(fk_capacity, fk_capacity * 2, seed ^ 0xF1);
    let mut batches: Vec<Vec<FlowRecord>> = Vec::with_capacity(n_sub);
    let mut current = 0usize;

    let finish_subwindow =
        |state: &mut A::State, tracker: &mut FlowkeyTracker, sw: usize| -> Vec<FlowRecord> {
            let mut keys: Vec<FlowKey> = app.resident_keys(state);
            keys.extend_from_slice(tracker.buffered());
            keys.extend_from_slice(tracker.overflowed());
            keys.sort_by_key(|k| k.as_u128());
            keys.dedup();
            let batch = keys
                .iter()
                .enumerate()
                .map(|(i, k)| FlowRecord {
                    key: *k,
                    attr: app.query(state, k),
                    subwindow: sw as u32,
                    seq: i as u32,
                })
                .collect();
            app.reset(state);
            tracker.reset();
            batch
        };

    for pkt in trace.iter() {
        let s = cfg.subwindow_of(pkt.ts) as usize;
        if s >= n_sub {
            break;
        }
        while s > current {
            let b = finish_subwindow(&mut state, &mut tracker, current);
            batches.push(b);
            current += 1;
        }
        if !app.filter(pkt) {
            continue;
        }
        app.update(&mut state, pkt);
        tracker.track(&pkt.key(app.key_kind()));
    }
    while current < n_sub {
        let b = finish_subwindow(&mut state, &mut tracker, current);
        batches.push(b);
        current += 1;
    }

    // Controller-side merging.
    let spw = cfg.subwindows_per_window();
    let ranges = window_ranges(cfg, n_sub, mode);
    let mut results = Vec::with_capacity(ranges.len());
    match mode {
        Mode::Tumbling => {
            for (index, (lo, hi)) in ranges.into_iter().enumerate() {
                let mut table = MergeTable::new();
                for (sw, batch) in batches[lo..hi].iter().enumerate() {
                    table.insert_batch((lo + sw) as u32, batch.clone());
                }
                results.push(report_table(app, &table, index, probes));
            }
        }
        Mode::Sliding => {
            let mut table = MergeTable::new();
            let mut inserted = 0usize;
            for (index, (_lo, hi)) in ranges.into_iter().enumerate() {
                while inserted < hi {
                    table.insert_batch(inserted as u32, batches[inserted].clone());
                    inserted += 1;
                }
                while table.subwindows().len() > spw {
                    table.evict_oldest();
                }
                results.push(report_table(app, &table, index, probes));
            }
        }
    }
    results
}

fn report_table<A: WindowApp>(
    app: &A,
    table: &MergeTable,
    index: usize,
    probes: &[FlowKey],
) -> WindowResult {
    let reported = table
        .iter()
        .filter(|(_, v)| app.passes_attr(v))
        .map(|(k, _)| k)
        .collect();
    let estimates = probes
        .iter()
        .map(|k| {
            let v = table.get(k).map(|a| a.scalar()).unwrap_or(0.0);
            (*k, v)
        })
        .collect();
    WindowResult {
        index,
        reported,
        estimates,
    }
}

// ---------------------------------------------------------------------
// Sliding Sketch baseline (SS).
// ---------------------------------------------------------------------

/// Run the Sliding Sketch baseline: two half-memory states; the current
/// one absorbs traffic, both answer queries, rotation happens at
/// tumbling boundaries. Queries therefore reflect one-to-two windows of
/// traffic — the over-inclusion the paper measures.
pub(crate) fn run_sliding_sketch<A: WindowApp>(
    app: &A,
    trace: &Trace,
    cfg: &WindowConfig,
    memory_bytes: usize,
    seed: u64,
    probes: &[FlowKey],
) -> Vec<WindowResult> {
    let n_sub = cfg.subwindows_in(trace.duration);
    let ranges = window_ranges(cfg, n_sub, Mode::Sliding);
    let win_ns = cfg.window().as_nanos();
    let sub_ns = cfg.subwindow().as_nanos();

    let mut cur = app.make_state(memory_bytes / 2, seed);
    let mut prev = app.make_state(memory_bytes / 2, seed);
    let mut results = Vec::with_capacity(ranges.len());
    let mut next_rotation = win_ns;

    // Sliding position i ends at sub-window boundary (i + spw) * sub.
    let mut next_report_idx = 0usize;

    let report_ss = |cur: &A::State, prev: &A::State, index: usize| {
        let mut keys: Vec<FlowKey> = app.resident_keys(cur);
        keys.extend(app.resident_keys(prev));
        keys.sort_by_key(|k| k.as_u128());
        keys.dedup();
        let merged = |k: &FlowKey| {
            let mut a = app.query(cur, k);
            let b = app.query(prev, k);
            let _ = a.merge(&b);
            a
        };
        let reported = keys
            .into_iter()
            .filter(|k| app.passes_attr(&merged(k)))
            .collect();
        let estimates = probes.iter().map(|k| (*k, merged(k).scalar())).collect();
        WindowResult {
            index,
            reported,
            estimates,
        }
    };

    for pkt in trace.iter() {
        // Emit reports for every sliding position that ended before this
        // packet.
        while next_report_idx < ranges.len() {
            let end_ns = (ranges[next_report_idx].1 as u64) * sub_ns;
            if pkt.ts.as_nanos() >= end_ns {
                // Rotations strictly before this report point happen
                // first; a rotation exactly at the report boundary is
                // applied after the query, so the estimate reflects the
                // one-to-two windows ending at the boundary.
                while next_rotation < end_ns {
                    std::mem::swap(&mut cur, &mut prev);
                    app.reset(&mut cur);
                    next_rotation += win_ns;
                }
                results.push(report_ss(&cur, &prev, next_report_idx));
                next_report_idx += 1;
            } else {
                break;
            }
        }
        while pkt.ts.as_nanos() >= next_rotation {
            std::mem::swap(&mut cur, &mut prev);
            app.reset(&mut cur);
            next_rotation += win_ns;
        }
        if app.filter(pkt) {
            app.update(&mut cur, pkt);
        }
    }
    while next_report_idx < ranges.len() {
        results.push(report_ss(&cur, &prev, next_report_idx));
        next_report_idx += 1;
    }
    results
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::HeavyHitterApp;
    use ow_common::packet::{Packet, TcpFlags};
    use ow_common::time::{Duration, Instant};

    fn cfg() -> WindowConfig {
        WindowConfig::paper_default()
    }

    /// A trace with one heavy flow burst straddling the 500ms boundary
    /// (Figure 1) plus steady light flows.
    fn boundary_trace() -> Trace {
        let mut packets = Vec::new();
        // Light background: flows 1..20, one packet per 50ms each.
        for f in 1..20u32 {
            for t in (0..1500).step_by(50) {
                packets.push(Packet::tcp(
                    Instant::from_millis(t + (f as u64) % 7),
                    f,
                    100,
                    10,
                    80,
                    TcpFlags::ack(),
                    100,
                ));
            }
        }
        // Heavy burst: 120 packets in [450ms, 550ms) — 60 in window 0,
        // 60 in window 1, so no tumbling window sees all 120.
        for i in 0..120u64 {
            packets.push(Packet::tcp(
                Instant::from_nanos(450_000_000 + i * 100_000_000 / 120),
                77,
                100,
                10,
                80,
                TcpFlags::ack(),
                100,
            ));
        }
        packets.sort_by_key(|p| p.ts);
        Trace {
            packets,
            duration: Duration::from_millis(1500),
        }
    }

    #[test]
    fn ideal_tumbling_misses_boundary_burst() {
        // The Figure-1 pathology: with a threshold of 100, neither
        // tumbling window reports flow 77 (60+60), but the sliding window
        // catches it.
        let app = HeavyHitterApp::mv(100);
        let trace = boundary_trace();
        let burst_key = trace
            .packets
            .iter()
            .find(|p| p.src_ip == 77)
            .unwrap()
            .five_tuple();

        let itw = run_ideal(&app, &trace, &cfg(), Mode::Tumbling);
        assert!(itw.iter().all(|w| !w.reported.contains(&burst_key)));

        let isw = run_ideal(&app, &trace, &cfg(), Mode::Sliding);
        assert!(
            isw.iter().any(|w| w.reported.contains(&burst_key)),
            "sliding window must catch the boundary burst"
        );
    }

    #[test]
    fn omniwindow_tumbling_matches_ideal_with_ample_memory() {
        let app = HeavyHitterApp::mv(50);
        let trace = boundary_trace();
        let c = cfg();
        let itw = run_ideal(&app, &trace, &c, Mode::Tumbling);
        let otw = run_omniwindow(&app, &trace, &c, Mode::Tumbling, 1 << 20, 7);
        assert_eq!(itw.len(), otw.len());
        for (i, o) in itw.iter().zip(otw.iter()) {
            assert_eq!(i.reported, o.reported, "window {}", i.index);
        }
    }

    #[test]
    fn omniwindow_sliding_matches_ideal_with_ample_memory() {
        let app = HeavyHitterApp::mv(50);
        let trace = boundary_trace();
        let c = cfg();
        let isw = run_ideal(&app, &trace, &c, Mode::Sliding);
        let osw = run_omniwindow(&app, &trace, &c, Mode::Sliding, 1 << 20, 7);
        assert_eq!(isw.len(), osw.len());
        for (i, o) in isw.iter().zip(osw.iter()) {
            assert_eq!(i.reported, o.reported, "position {}", i.index);
        }
    }

    #[test]
    fn tw2_matches_ideal_reports_with_ample_memory() {
        let app = HeavyHitterApp::mv(50);
        let trace = boundary_trace();
        let c = cfg();
        let itw = run_ideal(&app, &trace, &c, Mode::Tumbling);
        let tw2 = run_conventional_tw(&app, &trace, &c, 1 << 20, Duration::ZERO, 7, &[]);
        assert_eq!(itw.len(), tw2.len());
        for (i, t) in itw.iter().zip(tw2.iter()) {
            assert_eq!(i.reported, t.reported, "window {}", i.index);
        }
    }

    #[test]
    fn tw1_blackout_loses_traffic() {
        let app = HeavyHitterApp::mv(50);
        let trace = boundary_trace();
        let c = cfg();
        // A 100ms blackout swallows the second half of the burst (which
        // lands in [500,550ms) of window 1).
        let tw1 = run_conventional_tw(
            &app,
            &trace,
            &c,
            1 << 20,
            Duration::from_millis(100),
            7,
            &[],
        );
        let tw2 = run_conventional_tw(&app, &trace, &c, 1 << 20, Duration::ZERO, 7, &[]);
        let burst_key = trace
            .packets
            .iter()
            .find(|p| p.src_ip == 77)
            .unwrap()
            .five_tuple();
        // Window 1 under TW2 sees 60 burst packets ≥ 50 → reported; TW1
        // lost them to the blackout.
        assert!(tw2[1].reported.contains(&burst_key));
        assert!(!tw1[1].reported.contains(&burst_key));
    }

    #[test]
    fn sliding_sketch_overreports_history() {
        // A flow heavy in window 0 but silent afterwards keeps being
        // reported by SS at positions whose true window excludes it.
        let app = HeavyHitterApp::mv(100);
        let mut packets = Vec::new();
        for i in 0..150u64 {
            packets.push(Packet::tcp(
                Instant::from_nanos(i * 3_000_000),
                55,
                100,
                10,
                80,
                TcpFlags::ack(),
                100,
            ));
        }
        // Keep the trace alive past 1500ms with a light flow.
        for t in (0..1500).step_by(25) {
            packets.push(Packet::tcp(
                Instant::from_millis(t),
                1,
                100,
                10,
                80,
                TcpFlags::ack(),
                100,
            ));
        }
        packets.sort_by_key(|p| p.ts);
        let trace = Trace {
            packets,
            duration: Duration::from_millis(1500),
        };
        let c = cfg();
        let key = FlowKey::five_tuple(55, 100, 10, 80, 6);

        let isw = run_ideal(&app, &trace, &c, Mode::Sliding);
        let ss = run_sliding_sketch(&app, &trace, &c, 1 << 20, 7, &[]);
        assert_eq!(isw.len(), ss.len());
        // Position 5 covers [500,1000): the flow is truly absent there…
        assert!(!isw[5].reported.contains(&key));
        // …but SS still reports it from the previous-window state.
        assert!(
            ss[5].reported.contains(&key),
            "SS must over-report the stale flow at position 5"
        );
    }

    #[test]
    fn probes_record_estimates() {
        let app = HeavyHitterApp::mv(1_000_000);
        let trace = boundary_trace();
        let c = cfg();
        let burst_key = FlowKey::five_tuple(77, 100, 10, 80, 6);
        let probes = vec![burst_key];
        let otw =
            run_omniwindow_probed(&app, &trace, &c, Mode::Tumbling, 1 << 20, 1024, 7, &probes);
        // Window 0 holds the first 60 burst packets.
        assert_eq!(otw[0].estimates[&burst_key], 60.0);
        assert_eq!(otw[1].estimates[&burst_key], 60.0);
        assert_eq!(otw[2].estimates[&burst_key], 0.0);
    }
}
