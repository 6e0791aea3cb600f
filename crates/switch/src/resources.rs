//! Switch hardware resource accounting (Exp#5, Table 2).
//!
//! The RMT pipeline budget has five scarce axes: stages, SRAM, Stateful
//! ALUs, VLIW actions, and gateways (predication units). Each OmniWindow
//! feature consumes some of each; stages and VLIW slots are *shared*
//! between features that can be packed into the same stage, so the total
//! is less than the per-feature sum — exactly the caveat Table 2 notes.
//!
//! The per-feature rows are the sums of the per-stage steps
//! [`omniwindow_features`] defines (a feature touches one stage per
//! step); only the totals' stage/VLIW sharing and the normalisation
//! baseline are the paper's measured build of Q1.

use serde::{Deserialize, Serialize};

use crate::placement::{omniwindow_features, Step};

/// One feature's resource usage (one row of Table 2).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FeatureUsage {
    /// Feature name (row label).
    pub feature: String,
    /// Pipeline stages touched.
    pub stages: u32,
    /// SRAM in KB.
    pub sram_kb: u32,
    /// Stateful ALUs.
    pub salus: u32,
    /// VLIW action slots.
    pub vliw: u32,
    /// Gateway (predication) units.
    pub gateways: u32,
}

/// Configuration knobs that size the variable rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ResourceConfig {
    /// Bloom filter size in KB (flowkey tracking).
    pub bloom_kb: u32,
    /// `fk_buffer` capacity in keys (13 B each).
    pub fk_capacity: u32,
    /// Bloom hash count (one SALU per hashed register access).
    pub bloom_hashes: u32,
    /// Hot keys cached in the RDMA address MAT (29 B per entry: 13 B key
    /// + 8 B remote address + table overhead).
    pub rdma_hot_keys: u32,
    /// Whether the RDMA optimisation is deployed at all.
    pub rdma_enabled: bool,
}

impl Default for ResourceConfig {
    fn default() -> Self {
        // The Exp#5 build: 512 KB Bloom filter with 3 hashes, 8 K-entry
        // flowkey array, 32 K hot keys in the address MAT.
        ResourceConfig {
            bloom_kb: 512,
            fk_capacity: 8 * 1024,
            bloom_hashes: 3,
            rdma_hot_keys: 32 * 1024,
            rdma_enabled: true,
        }
    }
}

/// The full per-feature breakdown plus totals and normalisation.
#[derive(Debug, Clone, Serialize)]
pub struct ResourceReport {
    /// Per-feature rows in Table 2 order.
    pub features: Vec<FeatureUsage>,
    /// Whole-framework usage after stage/VLIW sharing.
    pub total: FeatureUsage,
    /// Usage of the host program (Q1 + switch.p4) without OmniWindow,
    /// used as the normalisation denominator. Derived from the paper's
    /// "normalized by" row: total / normalized.
    pub baseline: FeatureUsage,
}

impl ResourceReport {
    /// Build the report for a configuration.
    pub fn for_config(cfg: &ResourceConfig) -> ResourceReport {
        let features: Vec<FeatureUsage> = omniwindow_features(cfg)
            .into_iter()
            .map(|f| {
                let sum = |of: fn(&Step) -> u32| f.steps.iter().map(of).sum::<u32>();
                FeatureUsage {
                    stages: f.steps.len() as u32,
                    sram_kb: sum(|s| s.sram_kb),
                    salus: sum(|s| s.salus),
                    vliw: sum(|s| s.vliw),
                    gateways: sum(|s| s.gateways),
                    feature: f.name,
                }
            })
            .collect();

        // SRAM, SALUs and gateways are exclusive; stages and VLIW are
        // shared across co-resident features. The measured build packs
        // everything into 8 stages and shares VLIW words where actions
        // are identical (the paper's total is below the column sums).
        let sum = |f: fn(&FeatureUsage) -> u32| features.iter().map(f).sum::<u32>();
        let stage_sum = sum(|f| f.stages);
        let vliw_sum = sum(|f| f.vliw);
        let total = FeatureUsage {
            feature: "Total".into(),
            // Stage packing: features co-reside; the measured build packs
            // the 16 stage-feature touches of the Q1 config into 8
            // physical stages (two features per stage on average). Scale
            // proportionally and clamp to the physical 12-stage pipeline.
            stages: (stage_sum * 8).div_ceil(16).min(12),
            sram_kb: sum(|f| f.sram_kb),
            salus: sum(|f| f.salus),
            // VLIW sharing saves ~20% in the measured build (43 → 35).
            vliw: (vliw_sum * 35).div_ceil(43),
            gateways: sum(|f| f.gateways),
        };

        // Denominator from the paper's normalisation row for the default
        // build: stages 75 %, SRAM 14.7 %, SALU 44.4 %, VLIW 40.7 %,
        // gateway 44.9 %.
        let baseline = FeatureUsage {
            feature: "Q1 + switch.p4".into(),
            stages: 11,      // ≈ 8 / 0.75 (rounded to whole stages)
            sram_kb: 11_102, // ≈ 1632 / 0.147
            salus: 18,       // ≈ 8 / 0.444
            vliw: 86,        // ≈ 35 / 0.407
            gateways: 69,    // ≈ 31 / 0.449
        };

        ResourceReport {
            features,
            total,
            baseline,
        }
    }

    /// Normalised usage (total / baseline), per resource, in percent.
    pub fn normalized_percent(&self) -> [(&'static str, f64); 5] {
        let t = &self.total;
        let b = &self.baseline;
        [
            ("Stage", t.stages as f64 / b.stages as f64 * 100.0),
            ("SRAM", t.sram_kb as f64 / b.sram_kb as f64 * 100.0),
            ("SALU", t.salus as f64 / b.salus as f64 * 100.0),
            ("VLIW", t.vliw as f64 / b.vliw as f64 * 100.0),
            ("Gateway", t.gateways as f64 / b.gateways as f64 * 100.0),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_matches_table_2() {
        let r = ResourceReport::for_config(&ResourceConfig::default());
        let get = |name: &str| {
            r.features
                .iter()
                .find(|f| f.feature == name)
                .unwrap_or_else(|| panic!("missing {name}"))
        };
        // The fixed rows are exact.
        assert_eq!(get("Signal").sram_kb, 32);
        assert_eq!(get("Signal").salus, 1);
        assert_eq!(get("Consistency model").salus, 0);
        assert_eq!(get("Consistency model").sram_kb, 0);
        assert_eq!(get("AFR generation").vliw, 4);
        assert_eq!(get("In-switch reset").stages, 3);
        // The sized rows land on the paper's numbers with the default
        // configuration.
        assert_eq!(get("Flowkey tracking").sram_kb, 624);
        assert_eq!(get("Flowkey tracking").salus, 4);
        assert_eq!(get("Flowkey tracking").stages, 4);
        assert_eq!(get("RDMA opt.").sram_kb, 928);
        // Totals.
        assert_eq!(r.total.sram_kb, 1632);
        assert_eq!(r.total.salus, 8);
        assert_eq!(r.total.stages, 8);
        assert_eq!(r.total.vliw, 35);
        assert_eq!(r.total.gateways, 31);
    }

    #[test]
    fn every_row_is_the_sum_of_its_steps() {
        for bloom_hashes in 1..=6 {
            for rdma_enabled in [true, false] {
                let cfg = ResourceConfig {
                    bloom_hashes,
                    rdma_enabled,
                    ..ResourceConfig::default()
                };
                let rows = ResourceReport::for_config(&cfg).features;
                let features = omniwindow_features(&cfg);
                assert_eq!(rows.len(), features.len());
                assert_eq!(rows.len(), if rdma_enabled { 7 } else { 6 });
                for (row, f) in rows.iter().zip(&features) {
                    let sums = f.steps.iter().fold([0; 4], |a, s| {
                        [
                            a[0] + s.sram_kb,
                            a[1] + s.salus,
                            a[2] + s.vliw,
                            a[3] + s.gateways,
                        ]
                    });
                    assert_eq!((&row.feature, row.stages), (&f.name, f.steps.len() as u32));
                    assert_eq!(
                        [row.sram_kb, row.salus, row.vliw, row.gateways],
                        sums,
                        "{}: h = {bloom_hashes}, rdma = {rdma_enabled}",
                        f.name
                    );
                }
                // One step per Bloom hash plus the fk_buffer append.
                let fk = &rows[3];
                assert_eq!(fk.feature, "Flowkey tracking");
                assert_eq!(
                    (fk.vliw, fk.gateways),
                    (2 * bloom_hashes + 1, 2 * bloom_hashes + 1)
                );
                assert_eq!((fk.stages, fk.salus), (bloom_hashes + 1, bloom_hashes + 1));
            }
        }
    }

    #[test]
    fn normalisation_matches_paper() {
        let r = ResourceReport::for_config(&ResourceConfig::default());
        let n: std::collections::HashMap<_, _> = r.normalized_percent().into_iter().collect();
        assert!((n["SRAM"] - 14.7).abs() < 0.5, "SRAM {}", n["SRAM"]);
        assert!((n["SALU"] - 44.4).abs() < 1.0, "SALU {}", n["SALU"]);
        assert!((n["VLIW"] - 40.7).abs() < 1.0, "VLIW {}", n["VLIW"]);
        assert!(
            (n["Gateway"] - 44.9).abs() < 1.0,
            "Gateway {}",
            n["Gateway"]
        );
        assert!((60.0..85.0).contains(&n["Stage"]), "Stage {}", n["Stage"]);
    }

    #[test]
    fn disabling_rdma_removes_its_row() {
        let r = ResourceReport::for_config(&ResourceConfig {
            rdma_enabled: false,
            ..ResourceConfig::default()
        });
        assert!(r.features.iter().all(|f| f.feature != "RDMA opt."));
        assert!(r.total.sram_kb < 1632);
        assert_eq!(r.total.salus, 6);
    }

    #[test]
    fn smaller_flowkey_array_shrinks_sram() {
        let small = ResourceReport::for_config(&ResourceConfig {
            fk_capacity: 1024,
            ..ResourceConfig::default()
        });
        let big = ResourceReport::for_config(&ResourceConfig::default());
        assert!(small.total.sram_kb < big.total.sram_kb);
    }

    #[test]
    fn stage_total_fits_pipeline() {
        // Even an oversized config must clamp to the 12-stage pipeline.
        let r = ResourceReport::for_config(&ResourceConfig {
            bloom_hashes: 8,
            ..ResourceConfig::default()
        });
        assert!(r.total.stages <= 12);
    }
}
