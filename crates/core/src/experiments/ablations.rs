//! Ablations of OmniWindow's design choices (DESIGN.md §4).
//!
//! * [`merging_strategies`] — why AFRs (§4.1): compare merging AFRs
//!   against the two straw-men the paper rejects — merging per-sub-window
//!   *measurement results* (loses sub-threshold flows) and merging
//!   per-sub-window *states* (amplifies collision error).
//! * [`salu_ablation`] — the flattened two-region layout (§6): SALUs
//!   with and without it, per sketch.
//! * [`fk_capacity_sweep`] — the hybrid collection trade-off (Exp#6's
//!   OW point as a function of the flowkey-array size).
//! * [`recirc_sweep`] — C&R latency vs the number of simultaneously
//!   recirculating packets (why 16 is enough).

use serde::Serialize;

use ow_common::flowkey::FlowKey;
use ow_common::time::Duration;
use ow_sketch::traits::FrequencySketch;
use ow_sketch::CountMin;
use ow_switch::latency;

use crate::experiments::common::Scale;

/// Result of the merging-strategy ablation.
#[derive(Debug, Clone, Serialize)]
pub struct MergingAblation {
    /// Heavy-hitter recall when merging AFRs (OmniWindow).
    pub afr_recall: f64,
    /// Recall when merging per-sub-window measurement results.
    pub results_recall: f64,
    /// Per-flow ARE when merging AFRs.
    pub afr_are: f64,
    /// Per-flow ARE when merging sub-window states.
    pub state_are: f64,
}

/// Compare the three §4.1 merging strategies on a synthetic workload of
/// `flows` flows over five sub-windows, with heavy flows split across
/// sub-windows (the boundary pathology).
pub fn merging_strategies(scale: Scale, seed: u64) -> MergingAblation {
    let flows = match scale {
        Scale::Tiny => 1_000u32,
        Scale::Small => 2_000,
        Scale::Paper => 20_000,
    };
    let subwindows = 5usize;
    let threshold = 100u64;
    let width = flows as usize / 2; // deliberate contention
    let key = |i: u32| FlowKey::src_ip(i + 1);

    // Ground truth mirrors real traffic churn: every 20th flow is heavy
    // (150 > threshold) and active in *all five* sub-windows with a
    // sub-threshold share (30); the mice are short-lived — each lives in
    // exactly one sub-window. This is where AFR merging wins: each
    // sub-window's sketch only holds that sub-window's flows, so summing
    // per-sub-window queries picks up far less collision mass than one
    // state holding everything.
    let count = |i: u32| -> u64 {
        if i % 20 == 0 {
            150
        } else {
            1 + (i % 7) as u64
        }
    };
    let active_in = |i: u32, s: usize| -> bool {
        if i % 20 == 0 {
            true
        } else {
            (i as usize) % subwindows == s
        }
    };

    let mut subs: Vec<CountMin> = (0..subwindows)
        .map(|_| CountMin::new(4, width, seed))
        .collect();
    for i in 0..flows {
        let c = count(i);
        for (s, cm) in subs.iter_mut().enumerate() {
            if !active_in(i, s) {
                continue;
            }
            let share = if i % 20 == 0 {
                c / subwindows as u64
            } else {
                c
            };
            cm.update(&key(i), share);
        }
    }

    let truth_heavy: Vec<u32> = (0..flows).filter(|&i| count(i) >= threshold).collect();

    // Strategy 1: AFR merging — sum the queries of the sub-windows the
    // flow was tracked in (flowkey tracking is per sub-window, so absent
    // sub-windows contribute no AFR).
    let afr_estimate = |i: u32| -> u64 {
        subs.iter()
            .enumerate()
            .filter(|(s, _)| active_in(i, *s))
            .map(|(_, cm)| cm.query(&key(i)))
            .sum::<u64>()
    };
    let afr_found = truth_heavy
        .iter()
        .filter(|&&i| afr_estimate(i) >= threshold)
        .count();

    // Strategy 2: merging measurement results — union of per-sub-window
    // reports at the full threshold.
    let results_found = truth_heavy
        .iter()
        .filter(|&&i| subs.iter().any(|cm| cm.query(&key(i)) >= threshold))
        .count();

    // Strategy 3: merging states — element-wise sum, then one query.
    let mut merged = subs[0].clone();
    for cm in &subs[1..] {
        merged.merge_states(cm);
    }

    let mut afr_pairs = Vec::new();
    let mut state_pairs = Vec::new();
    for i in 0..flows {
        let t = count(i) as f64;
        afr_pairs.push((afr_estimate(i) as f64, t));
        state_pairs.push((merged.query(&key(i)) as f64, t));
    }

    MergingAblation {
        afr_recall: afr_found as f64 / truth_heavy.len().max(1) as f64,
        results_recall: results_found as f64 / truth_heavy.len().max(1) as f64,
        afr_are: ow_common::metrics::average_relative_error(&afr_pairs),
        state_are: ow_common::metrics::average_relative_error(&state_pairs),
    }
}

/// One sketch's SALU cost with and without the flattened layout.
#[derive(Debug, Clone, Serialize)]
pub struct SaluRow {
    /// Sketch name.
    pub sketch: String,
    /// SALUs per packet with the flattened two-region layout.
    pub flattened: usize,
    /// SALUs per packet with naive per-region registers.
    pub naive: usize,
}

/// The §6 SALU ablation across the evaluation's sketches: a packet makes
/// one SALU access per register array of a region (C4).
pub fn salu_ablation() -> Vec<SaluRow> {
    use ow_sketch::traits::SpreadEstimator;
    let rows: Vec<(&str, usize)> = vec![
        (
            "CountMin",
            ow_sketch::CountMin::new(4, 64, 1).meta().register_arrays,
        ),
        (
            "SuMax",
            ow_sketch::SuMax::new(4, 64, 1).meta().register_arrays,
        ),
        (
            "MvSketch",
            FrequencySketch::meta(&ow_sketch::MvSketch::new(4, 64, 1)).register_arrays,
        ),
        (
            "HashPipe",
            FrequencySketch::meta(&ow_sketch::HashPipe::new(4, 64, 1)).register_arrays,
        ),
        (
            "SpreadSketch",
            SpreadEstimator::meta(&ow_sketch::SpreadSketch::new(4, 64, 1)).register_arrays,
        ),
    ];
    rows.into_iter()
        .map(|(name, per_region)| SaluRow {
            sketch: name.to_string(),
            flattened: per_region,
            naive: per_region * 2,
        })
        .collect()
}

/// One point of the flowkey-capacity sweep.
#[derive(Debug, Clone, Serialize)]
pub struct FkCapacityPoint {
    /// Data-plane flowkey-array capacity.
    pub capacity: usize,
    /// Keys enumerated in the data plane.
    pub from_dataplane: usize,
    /// Keys injected by the controller.
    pub injected: usize,
    /// Modelled collection time (ms).
    pub millis: f64,
    /// Data-plane SRAM for the array (KB).
    pub sram_kb: usize,
}

/// Sweep the hybrid collection's flowkey-array capacity for a population
/// of `total_keys` keys — the CPC↔DPC trade-off OmniWindow sits between.
pub fn fk_capacity_sweep(total_keys: usize) -> Vec<FkCapacityPoint> {
    let caps: Vec<usize> = (0..8).map(|i| total_keys >> i).rev().collect();
    caps.into_iter()
        .map(|capacity| {
            let buffered = capacity.min(total_keys);
            let injected = total_keys - buffered;
            let t = latency::TRIGGER_RTT
                + latency::recirc_enumeration(buffered, 3)
                + latency::inject(injected, false);
            FkCapacityPoint {
                capacity,
                from_dataplane: buffered,
                injected,
                millis: t.as_millis_f64(),
                sram_kb: capacity * 13 / 1024,
            }
        })
        .collect()
}

/// One point of the recirculation fan-out sweep.
#[derive(Debug, Clone, Serialize)]
pub struct RecircPoint {
    /// Simultaneously recirculating packets.
    pub packets: usize,
    /// Enumeration time for 64 K slots (ms).
    pub enumerate_ms: f64,
    /// Whether a 100 ms sub-window budget holds with margin (< 10 ms).
    pub fits_subwindow: bool,
}

/// Sweep the number of recirculating collection/clear packets (why the
/// paper stops at 16).
pub fn recirc_sweep(slots: usize) -> Vec<RecircPoint> {
    [1usize, 2, 4, 8, 16, 32]
        .into_iter()
        .map(|packets| {
            let t = latency::recirc_enumeration(slots, packets);
            RecircPoint {
                packets,
                enumerate_ms: t.as_millis_f64(),
                fits_subwindow: t < Duration::from_millis(10),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn afr_merging_beats_both_strawmen() {
        let r = merging_strategies(Scale::Small, 3);
        // AFRs find every heavy flow; per-sub-window reports miss the
        // split ones entirely (each share is 30 < 100).
        assert!(r.afr_recall > 0.99, "AFR recall {}", r.afr_recall);
        assert!(
            r.results_recall < 0.1,
            "results-merging recall {} should collapse",
            r.results_recall
        );
        // State merging amplifies collision error.
        assert!(
            r.state_are > r.afr_are * 1.5,
            "state ARE {} !≫ AFR ARE {}",
            r.state_are,
            r.afr_are
        );
    }

    #[test]
    fn flattened_layout_halves_salus_everywhere() {
        for row in salu_ablation() {
            assert_eq!(row.naive, row.flattened * 2, "{}", row.sketch);
        }
    }

    #[test]
    fn fk_sweep_trades_sram_for_time() {
        let sweep = fk_capacity_sweep(64 * 1024);
        // More capacity → more SRAM, less injection → less time.
        for w in sweep.windows(2) {
            assert!(w[1].capacity > w[0].capacity);
            assert!(w[1].sram_kb >= w[0].sram_kb);
            assert!(w[1].millis <= w[0].millis + 1e-9);
        }
        // Full capacity = pure DPC (nothing injected).
        assert_eq!(sweep.last().unwrap().injected, 0);
    }

    #[test]
    fn recirc_sweep_divides_time() {
        let sweep = recirc_sweep(65_536);
        assert!(!sweep[0].fits_subwindow, "1 packet cannot fit the budget");
        assert!(sweep.last().unwrap().fits_subwindow);
        for w in sweep.windows(2) {
            assert!(w[1].enumerate_ms <= w[0].enumerate_ms);
        }
    }
}
