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
use ow_common::flowkey::{sort_by_packed_key, FlowKey};
use ow_common::packet::Packet;
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
#[derive(Debug, Clone, PartialEq)]
pub struct WindowResult {
    /// Window index (tumbling index or sliding position).
    pub index: usize,
    /// Keys the mechanism reported.
    pub reported: HashSet<FlowKey>,
    /// Merged scalar estimates for the probe keys (0.0 when the key was
    /// not observed).
    pub estimates: HashMap<FlowKey, f64>,
}

/// The complete sub-windows `[lo, hi)` of each window position: tumbling
/// windows step by a whole window, sliding positions by the slide.
pub(crate) fn window_ranges(
    cfg: &WindowConfig,
    total_subwindows: usize,
    mode: Mode,
) -> Vec<(usize, usize)> {
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

/// The sub-window cut every sub-window mechanism shares: `update` folds
/// each packet of the trace's complete sub-windows into `state`, and
/// `finish(state, sub)` turns the state into sub-window `sub`'s unit and
/// leaves it empty for the next. Returns one unit per complete
/// sub-window; the trace must be in timestamp order.
pub(crate) fn per_subwindow<S, U>(
    trace: &Trace,
    cfg: &WindowConfig,
    mut state: S,
    mut update: impl FnMut(&mut S, &Packet),
    mut finish: impl FnMut(&mut S, usize) -> U,
) -> Vec<U> {
    let n_sub = cfg.subwindows_in(trace.duration);
    let mut units = Vec::with_capacity(n_sub);
    for pkt in trace.iter() {
        let s = cfg.subwindow_of(pkt.ts) as usize;
        if s >= n_sub {
            break; // tail beyond the last complete sub-window
        }
        while s > units.len() {
            units.push(finish(&mut state, units.len()));
        }
        update(&mut state, pkt);
    }
    while units.len() < n_sub {
        units.push(finish(&mut state, units.len()));
    }
    units
}

/// The conventional tumbling schedule (TW1 / TW2) on the sub-window cut:
/// one full-window `state` absorbs every packet through `update`; at each
/// window end `report` answers for the window and `reset` clears the
/// state.
///
/// `blackout` models TW1's hazard: the slow C&R of the previous window
/// runs on the *same* memory region at the start of each window, so
/// traffic arriving during the first `blackout` of every window (except
/// the first) is not measured. `Duration::ZERO` is TW2 (a second region
/// absorbs the C&R).
pub(crate) fn tumbling_with_blackout<S, R>(
    trace: &Trace,
    cfg: &WindowConfig,
    blackout: Duration,
    state: S,
    mut update: impl FnMut(&mut S, &Packet),
    mut reset: impl FnMut(&mut S),
    mut report: impl FnMut(&S, usize) -> R,
) -> Vec<R> {
    let spw = cfg.subwindows_per_window();
    let win_ns = cfg.window().as_nanos();
    per_subwindow(
        trace,
        cfg,
        state,
        |st, pkt| {
            let ts = pkt.ts.as_nanos();
            if ts < win_ns || ts % win_ns >= blackout.as_nanos() {
                update(st, pkt);
            }
        },
        |st, sub| {
            ((sub + 1) % spw == 0).then(|| {
                let answer = report(st, sub / spw);
                reset(st);
                answer
            })
        },
    )
    .into_iter()
    .flatten()
    .collect()
}

/// The Sliding Sketch schedule on the sub-window cut: `cur` absorbs
/// traffic through `update`, and at every tumbling-window boundary the two
/// states swap and `reset` clears the new `cur`. `report(cur, prev, i)`
/// answers sliding position `i` from both states at the position's end,
/// before a rotation on the same boundary, so an answer covers one to two
/// windows of traffic — the over-inclusion the paper measures.
pub(crate) fn sliding_sketch_rotation<S, R>(
    trace: &Trace,
    cfg: &WindowConfig,
    cur: S,
    prev: S,
    mut update: impl FnMut(&mut S, &Packet),
    mut reset: impl FnMut(&mut S),
    mut report: impl FnMut(&S, &S, usize) -> R,
) -> Vec<R> {
    let (spw, slide) = (cfg.subwindows_per_window(), cfg.subwindows_per_slide());
    per_subwindow(
        trace,
        cfg,
        (cur, prev),
        |(cur, _), pkt| update(cur, pkt),
        |(cur, prev), sub| {
            // Position i covers sub-windows [i·slide, i·slide + spw).
            let end = sub + 1;
            let answer = (end >= spw && (end - spw) % slide == 0)
                .then(|| report(cur, prev, (end - spw) / slide));
            if end % spw == 0 {
                std::mem::swap(cur, prev);
                reset(cur);
            }
            answer
        },
    )
    .into_iter()
    .flatten()
    .collect()
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
    let sub_states = per_subwindow(
        trace,
        cfg,
        HashMap::<FlowKey, ExactStat>::new(),
        |sub, pkt| {
            if app.filter(pkt) {
                let key = pkt.key(app.key_kind());
                let st = sub.entry(key).or_insert_with(|| app.exact_new());
                app.exact_update(st, pkt);
            }
        },
        |sub, _| std::mem::take(sub),
    );

    window_ranges(cfg, sub_states.len(), mode)
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

/// Run a conventional tumbling-window mechanism with full-window state on
/// [`tumbling_with_blackout`]: `blackout` is TW1's C&R hazard, pass
/// `Duration::ZERO` for TW2.
pub fn run_conventional_tw<A: WindowApp>(
    app: &A,
    trace: &Trace,
    cfg: &WindowConfig,
    memory_bytes: usize,
    blackout: Duration,
    seed: u64,
    probes: &[FlowKey],
) -> Vec<WindowResult> {
    tumbling_with_blackout(
        trace,
        cfg,
        blackout,
        app.make_state(memory_bytes, seed),
        |st, pkt| {
            if app.filter(pkt) {
                app.update(st, pkt);
            }
        },
        |st| app.reset(st),
        |st, index| report_window(app, st, index, probes),
    )
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
    // Generate one AFR batch per sub-window. The hardware reuses two
    // regions; functionally each sub-window sees a freshly reset state,
    // which a single state + reset reproduces exactly.
    let state = app.make_state(subwindow_memory, seed);
    let tracker = FlowkeyTracker::new(fk_capacity, fk_capacity * 2, seed ^ 0xF1);

    let finish_subwindow =
        |(state, tracker): &mut (A::State, FlowkeyTracker), sw: usize| -> Vec<FlowRecord> {
            let mut keys: Vec<FlowKey> = app.resident_keys(state);
            keys.extend_from_slice(tracker.buffered());
            keys.extend_from_slice(tracker.overflowed());
            sort_by_packed_key(&mut keys, |k| *k);
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

    let batches = per_subwindow(
        trace,
        cfg,
        (state, tracker),
        |(state, tracker), pkt| {
            if app.filter(pkt) {
                app.update(state, pkt);
                tracker.track(&pkt.key(app.key_kind()));
            }
        },
        finish_subwindow,
    );

    // Controller-side merging.
    let spw = cfg.subwindows_per_window();
    let ranges = window_ranges(cfg, batches.len(), mode);
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

/// Run the Sliding Sketch baseline on [`sliding_sketch_rotation`]: two
/// half-memory states; the current one absorbs traffic, both answer
/// queries, rotation happens at tumbling boundaries.
pub(crate) fn run_sliding_sketch<A: WindowApp>(
    app: &A,
    trace: &Trace,
    cfg: &WindowConfig,
    memory_bytes: usize,
    seed: u64,
    probes: &[FlowKey],
) -> Vec<WindowResult> {
    sliding_sketch_rotation(
        trace,
        cfg,
        app.make_state(memory_bytes / 2, seed),
        app.make_state(memory_bytes / 2, seed),
        |st, pkt| {
            if app.filter(pkt) {
                app.update(st, pkt);
            }
        },
        |st| app.reset(st),
        |cur, prev, index| {
            let mut keys: Vec<FlowKey> = app.resident_keys(cur);
            keys.extend(app.resident_keys(prev));
            sort_by_packed_key(&mut keys, |k| *k);
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
        },
    )
}

// ---------------------------------------------------------------------
// The evaluation lineup (Figures 7, 8 and 15).
// ---------------------------------------------------------------------

/// TW1's blackout: the switch-OS C&R time for the query state, during
/// which the single memory region cannot measure. 60 ms ≈ the OS reading
/// + clearing a Sonata-scale register array via PCIe.
pub(crate) const TW1_BLACKOUT: Duration = Duration::from_millis(60);

/// The two error-free references of one app over one trace, which a
/// [`Lineup`] over the same trace and geometry is scored against. They
/// read only the app's exact half (`key_kind`, `filter`, `exact_new`,
/// `exact_update`, `passes_exact`), so apps that differ only in their
/// sketch share one pair.
pub(crate) struct Ideals<'t> {
    trace: &'t Trace,
    cfg: &'t WindowConfig,
    /// ITW: the reference of the tumbling mechanisms.
    pub(crate) itw: Vec<WindowResult>,
    /// ISW: the reference of the sliding mechanisms.
    pub(crate) isw: Vec<WindowResult>,
}

impl<'t> Ideals<'t> {
    /// Run ITW and ISW.
    pub(crate) fn run<A: WindowApp>(app: &A, trace: &'t Trace, cfg: &'t WindowConfig) -> Self {
        Ideals {
            trace,
            cfg,
            itw: run_ideal(app, trace, cfg, Mode::Tumbling),
            isw: run_ideal(app, trace, cfg, Mode::Sliding),
        }
    }
}

/// One evaluation run of every compared mechanism, with the two ideals
/// they are scored against.
pub(crate) struct Lineup<'a> {
    ideals: &'a Ideals<'a>,
    /// TW1, TW2, OTW, OSW and SS (when run), each with its mode.
    compared: Vec<(&'static str, Mode, Vec<WindowResult>)>,
}

impl<'a> Lineup<'a> {
    /// Run TW1, TW2 and (with `sliding_sketch`; Figure 7 plots no SS)
    /// SS on `mem` bytes of window state, and OTW and OSW on `sub_mem`
    /// bytes per sub-window and an `fk`-slot flowkey array, over the
    /// trace of `app`'s `ideals`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn run<A: WindowApp>(
        app: &A,
        ideals: &'a Ideals<'a>,
        mem: usize,
        sub_mem: usize,
        fk: usize,
        seed: u64,
        probes: &[FlowKey],
        sliding_sketch: bool,
    ) -> Lineup<'a> {
        let (trace, cfg) = (ideals.trace, ideals.cfg);
        let tw = |blackout| run_conventional_tw(app, trace, cfg, mem, blackout, seed, probes);
        let ow = |mode| run_omniwindow_probed(app, trace, cfg, mode, sub_mem, fk, seed, probes);
        let mut compared = vec![
            ("TW1", Mode::Tumbling, tw(TW1_BLACKOUT)),
            ("TW2", Mode::Tumbling, tw(Duration::ZERO)),
            ("OTW", Mode::Tumbling, ow(Mode::Tumbling)),
            ("OSW", Mode::Sliding, ow(Mode::Sliding)),
        ];
        if sliding_sketch {
            let ss = run_sliding_sketch(app, trace, cfg, mem, seed, probes);
            compared.push(("SS", Mode::Sliding, ss));
        }
        Lineup { ideals, compared }
    }

    /// Score every compared mechanism against its ideal: ITW for the
    /// tumbling ones, ISW for the sliding ones.
    pub(crate) fn scores<'s, T>(
        &'s self,
        score: impl Fn(&[WindowResult], &[WindowResult]) -> T + 's,
    ) -> impl Iterator<Item = (&'static str, T)> + 's {
        self.compared.iter().map(move |(name, mode, results)| {
            let ideal = match mode {
                Mode::Tumbling => &self.ideals.itw,
                Mode::Sliding => &self.ideals.isw,
            };
            (*name, score(results, ideal))
        })
    }
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
