//! Property tests for the stage placers: soundness (every placement
//! respects dependency order and `StageLimits`), dominance (the
//! branch-and-bound search never uses more stages than greedy whenever
//! greedy succeeds — the incumbent guarantees it), and determinism
//! (same inputs, byte-identical placement — the contract the CI
//! `cmp`-gate on `results/verify_table2.json` relies on).

use ow_switch::placement::{place, place_optimal, Feature, StageLimits, Step};
use ow_verify::{verify, PipelineProgram};
use proptest::prelude::*;

/// Random feature sets small enough to search exhaustively but shaped
/// to exercise chains, riders, and zero-resource steps.
fn features_strategy() -> impl Strategy<Value = Vec<Feature>> {
    proptest::collection::vec(
        proptest::collection::vec((0u32..48, 0u32..3, 0u32..4, 0u32..3), 1..4),
        1..5,
    )
    .prop_map(|fs| {
        fs.into_iter()
            .enumerate()
            .map(|(i, steps)| Feature {
                name: format!("f{i}"),
                steps: steps
                    .into_iter()
                    .map(|(sram_kb, salus, vliw, gateways)| Step {
                        sram_kb,
                        salus,
                        vliw,
                        gateways,
                    })
                    .collect(),
            })
            .collect()
    })
}

/// Random pipeline geometries, including scarce ones (a single stage,
/// one SALU) so infeasible programs are generated too.
fn limits_strategy() -> impl Strategy<Value = StageLimits> {
    (1u32..8, 1u32..200, 1u32..5, 1u32..7, 1u32..7).prop_map(
        |(stages, sram_kb, salus, vliw, gateways)| StageLimits {
            stages,
            sram_kb,
            salus,
            vliw,
            gateways,
        },
    )
}

/// Assert the §2 placement contract: per-feature stages strictly
/// increase (dependency order), every stage's aggregate demand fits the
/// per-stage caps, and `stages_used` is exactly the highest stage + 1.
fn assert_sound(
    placement: &ow_switch::placement::Placement,
    features: &[Feature],
    limits: StageLimits,
) {
    assert_eq!(placement.assignments.len(), features.len());
    let mut used = vec![[0u64; 4]; limits.stages as usize];
    let mut max_stage: Option<u32> = None;
    for (feature, (name, stages)) in features.iter().zip(&placement.assignments) {
        assert_eq!(name, &feature.name);
        assert_eq!(stages.len(), feature.steps.len());
        for (i, (&stage, step)) in stages.iter().zip(&feature.steps).enumerate() {
            assert!(stage < limits.stages, "stage {stage} out of range");
            if i > 0 {
                assert!(
                    stage > stages[i - 1],
                    "feature '{}' steps {} and {} share or reorder stages",
                    feature.name,
                    i - 1,
                    i
                );
            }
            let u = &mut used[stage as usize];
            u[0] += step.sram_kb as u64;
            u[1] += step.salus as u64;
            u[2] += step.vliw as u64;
            u[3] += step.gateways as u64;
            max_stage = Some(max_stage.map_or(stage, |m| m.max(stage)));
        }
    }
    for (s, u) in used.iter().enumerate() {
        assert!(u[0] <= limits.sram_kb as u64, "stage {s} SRAM over cap");
        assert!(u[1] <= limits.salus as u64, "stage {s} SALUs over cap");
        assert!(u[2] <= limits.vliw as u64, "stage {s} VLIW over cap");
        assert!(
            u[3] <= limits.gateways as u64,
            "stage {s} gateways over cap"
        );
    }
    assert_eq!(placement.stages_used, max_stage.map_or(0, |m| m + 1));
    let density = placement.density(limits);
    for permille in [
        density.sram_permille,
        density.salu_permille,
        density.vliw_permille,
        density.gateway_permille,
    ] {
        assert!(permille <= 1000, "utilisation over 100%: {density:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Both packers only ever produce dependency-respecting,
    /// capacity-respecting placements.
    #[test]
    fn placements_are_sound(
        features in features_strategy(),
        limits in limits_strategy(),
    ) {
        if let Ok(p) = place(&features, limits) {
            assert_sound(&p, &features, limits);
        }
        if let Ok(p) = place_optimal(&features, limits) {
            assert_sound(&p, &features, limits);
        }
    }

    /// Dominance: whenever greedy succeeds, the search succeeds too and
    /// never uses more stages — the greedy solution seeds the search as
    /// incumbent, so this holds even when the node budget is exhausted.
    #[test]
    fn search_dominates_greedy(
        features in features_strategy(),
        limits in limits_strategy(),
    ) {
        if let Ok(greedy) = place(&features, limits) {
            let searched = place_optimal(&features, limits);
            assert!(searched.is_ok(), "search rejected a greedy-feasible program");
            assert!(
                searched.unwrap().stages_used <= greedy.stages_used,
                "search used more stages than greedy"
            );
        }
    }

    /// Determinism: two runs over identical inputs produce identical
    /// placements (assignments, method, node counts — everything).
    #[test]
    fn search_is_deterministic_over_random_inputs(
        features in features_strategy(),
        limits in limits_strategy(),
    ) {
        let a = place_optimal(&features, limits);
        let b = place_optimal(&features, limits);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    /// Verifier-level: any accepted program carries a sound placement
    /// and a populated packing-density block in its report.
    #[test]
    fn accepted_programs_report_sound_density(
        features in features_strategy(),
    ) {
        let mut program = PipelineProgram::new("generated", StageLimits::default());
        program.features = features.clone();
        if let Ok(witness) = verify(&program) {
            assert_sound(witness.placement(), &features, program.limits);
            let report = witness.report();
            let density = report.density.as_ref().expect("accepted reports carry density");
            assert_eq!(density.stages_used, report.stages_used);
            assert!(!report.placement_method.is_empty());
        }
    }
}
