//! The repo-wide configuration catalog `ow-lint` gates on.
//!
//! Every switch configuration the examples, integration tests, the
//! benchmark harness, and the network simulator deploy is enumerated
//! here as a named [`PipelineProgram`], alongside the paper's Table-2
//! resource configurations. `ow-lint` verifies all of them; CI fails
//! if any entry regresses. When a new example or experiment adds a
//! configuration, it gets a row here — that is the contract.

use ow_common::flowkey::KeyKind;
use ow_sketch::CountMin;
use ow_switch::app::{DataPlaneApp, FrequencyApp};
use ow_switch::placement::StageLimits;
use ow_switch::resources::ResourceConfig;
use ow_switch::switch::SwitchConfig;

use crate::derive::program_for_switch;
use crate::ir::{
    omniwindow_program, AccessDecl, AccessKind, FeatureDecl, PacketClass, PathDecl,
    PipelineProgram, RegisterDecl, StepDecl,
};

/// Derive the program for a Count-Min deployment (the application every
/// example and test in this repo wraps).
fn countmin_program(fk_capacity: usize, expected_flows: usize, width: usize) -> PipelineProgram {
    let cfg = SwitchConfig {
        fk_capacity,
        expected_flows,
        ..SwitchConfig::default()
    };
    let app = FrequencyApp::new(CountMin::new(2, width, 1), KeyKind::SrcIp, false);
    program_for_switch(&cfg, &app.meta(), app.states_per_array())
}

/// The multi-tenant dense-packing regression pin: a three-stage tenant
/// slice (one SALU per stage) hosting two tenants. Greedy first-fit
/// burns stage 0's only SALU on tenant A and then cannot serialise
/// tenant B's three-step chain inside the slice — it rejects the
/// program — while the branch-and-bound placer routes B through stages
/// 0–2 and parks A's counter next to B's SALU-free tail step. The
/// catalog keeps this row so the optimizer staying strictly more
/// permissive than greedy is a pinned, externally visible fact (see
/// `optimizer_is_strictly_more_permissive` below and the
/// `multitenant-dense-pack` row of `results/verify_table2.json`).
pub(crate) fn dense_tenant_program() -> PipelineProgram {
    let limits = StageLimits {
        stages: 3,
        sram_kb: 128,
        salus: 1,
        vliw: 4,
        gateways: 4,
    };
    PipelineProgram::new("multitenant/dense-pack(slice=3stages,salus=1)", limits)
        .register(RegisterDecl::new("tenant_a_ctr", 1, 64))
        .register(RegisterDecl::new("tenant_b_row0", 1, 64))
        .register(RegisterDecl::new("tenant_b_row1", 1, 64))
        .feature(FeatureDecl::new(
            "Tenant A counter",
            vec![StepDecl {
                sram_kb: 8,
                salus: 1,
                vliw: 1,
                gateways: 1,
            }],
        ))
        .feature(FeatureDecl::new(
            "Tenant B sketch",
            vec![
                StepDecl {
                    sram_kb: 8,
                    salus: 1,
                    vliw: 1,
                    gateways: 1,
                },
                StepDecl {
                    sram_kb: 8,
                    salus: 1,
                    vliw: 1,
                    gateways: 1,
                },
                StepDecl {
                    sram_kb: 0,
                    salus: 0,
                    vliw: 2,
                    gateways: 1,
                },
            ],
        ))
        .path(PathDecl::new(
            "normal",
            PacketClass::Normal,
            vec![
                AccessDecl::new("tenant_a_ctr", AccessKind::AddSat, 63),
                AccessDecl::new("tenant_b_row0", AccessKind::AddSat, 63),
                AccessDecl::new("tenant_b_row1", AccessKind::AddSat, 63),
            ],
        ))
}

/// Every configuration the repo deploys, as `(name, program)` rows.
pub fn repo_programs() -> Vec<(String, PipelineProgram)> {
    let mut rows: Vec<(String, PipelineProgram)> = Vec::new();

    // Paper Table-2 resource configurations. 32K states = the Exp#6
    // 128 KB-per-array Count-Min deployment.
    rows.push((
        "table2-default".into(),
        omniwindow_program(&ResourceConfig::default(), 32 * 1024),
    ));
    rows.push((
        "table2-no-rdma".into(),
        omniwindow_program(
            &ResourceConfig {
                rdma_enabled: false,
                ..ResourceConfig::default()
            },
            32 * 1024,
        ),
    ));
    for hashes in [1u32, 2, 4] {
        rows.push((
            format!("table2-hashes-{hashes}"),
            omniwindow_program(
                &ResourceConfig {
                    bloom_hashes: hashes,
                    ..ResourceConfig::default()
                },
                32 * 1024,
            ),
        ));
    }

    // Sharded live-controller deployments.
    // The shard count lives on the controller, so the pipeline program
    // itself is unchanged — but each shard count scales the flow
    // population the deployment is expected to serve, and that *does*
    // have to fit the switch: these rows prove the data plane keeps up
    // with every merge tier the controller can run at.
    for shards in [1usize, 2, 4, 8] {
        rows.push((
            format!("live-sharded-{shards}"),
            countmin_program(4096, shards * 16 * 1024, 8192),
        ));
    }

    // Deployed configurations: examples, integration tests, bench.
    rows.push((
        "example-switch-protocol".into(),
        countmin_program(1024, 4096, 4096),
    ));
    rows.push((
        "example-lossy-afr-recovery".into(),
        countmin_program(4096, 16 * 1024, 8192),
    ));
    rows.push((
        "example-suspicious-lifetime".into(),
        countmin_program(4096, 8192, 8192),
    ));
    rows.push((
        "tests-integration".into(),
        countmin_program(4096, 16 * 1024, 8192),
    ));
    rows.push((
        "bench-switch-pipeline".into(),
        countmin_program(2048, 4096, 8192),
    ));
    rows.push((
        "switch-defaults".into(),
        countmin_program(
            SwitchConfig::default().fk_capacity,
            SwitchConfig::default().expected_flows,
            8192,
        ),
    ));

    // Dense multi-tenant slice that only the branch-and-bound placer
    // fits (greedy first-fit rejects it) — the regression pin for the
    // optimizer being strictly more permissive than greedy.
    rows.push(("multitenant-dense-pack".into(), dense_tenant_program()));
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::verify;

    #[test]
    fn every_catalog_entry_verifies() {
        for (name, program) in repo_programs() {
            if let Err(report) = verify(&program) {
                panic!("catalog entry '{name}' rejected:\n{report}");
            }
        }
    }

    /// The `multitenant-dense-pack` pin: the greedy first-fit packer
    /// rejects the program's feature set outright, but the verifier
    /// (branch-and-bound placement) accepts it and packs the full
    /// three-stage slice. If this test starts failing on the greedy
    /// side, greedy got smarter and the catalog row no longer pins
    /// anything; if it fails on the verify side, the optimizer lost
    /// the ability to beat greedy — both need a deliberate decision.
    #[test]
    fn optimizer_is_strictly_more_permissive_than_greedy() {
        use ow_switch::placement::{place, Feature, Step};

        let program = dense_tenant_program();
        let features: Vec<Feature> = program
            .features
            .iter()
            .map(|f| Feature {
                name: f.name.clone(),
                steps: f
                    .steps
                    .iter()
                    .map(|s| Step {
                        sram_kb: s.sram_kb,
                        salus: s.salus,
                        vliw: s.vliw,
                        gateways: s.gateways,
                    })
                    .collect(),
            })
            .collect();

        assert!(
            place(&features, program.limits).is_err(),
            "greedy first-fit should reject the dense-pack slice"
        );
        let witness = verify(&program).expect("branch-and-bound places the dense-pack slice");
        assert_eq!(
            witness.report().stages_used,
            3,
            "the slice packs into exactly its 3 stages"
        );
        assert_eq!(witness.report().placement_method, "branch-and-bound");
    }

    #[test]
    fn catalog_names_are_unique() {
        let rows = repo_programs();
        for (i, (a, _)) in rows.iter().enumerate() {
            for (b, _) in rows.iter().skip(i + 1) {
                assert_ne!(a, b, "duplicate catalog name");
            }
        }
    }
}
