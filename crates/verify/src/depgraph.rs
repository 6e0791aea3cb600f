//! Step-dependency facts derived from the IR for the search-based
//! placer.
//!
//! [`place_optimal`](ow_switch::placement::place_optimal) consumes two
//! kinds of dependency information: the intra-feature precedence
//! chains it reconstructs itself from the feature step lists, and
//! **cross-feature register-conflict edges** that only the IR knows
//! about. This module derives the latter:
//!
//! 1. Every register array is served by exactly one SALU, and every
//!    SALU lives in one match-action step. The IR encodes this
//!    implicitly by convention: registers are declared in the order
//!    their serving SALUs appear in the feature step sequence (the
//!    same convention the `OW-SALU-UNDERPROVISIONED` check counts
//!    against). [`register_salu_steps`] materialises that mapping — a
//!    step declaring `salus = k` serves the next `k` registers.
//! 2. A packet pass executes its [`AccessDecl`](crate::ir::AccessDecl)
//!    sequence in pipeline order, so consecutive accesses to registers
//!    served by *different features* couple those features' steps: the
//!    earlier access's step tends to sit in an earlier stage.
//!    [`register_conflict_edges`] emits one edge per such pair.
//!
//! The edges are **search guidance, not hard constraints**: they bias
//! the branch-and-bound assignment order (high-conflict steps place
//! first, where backtracking is cheap) without shrinking the feasible
//! set, so the optimizer stays strictly more permissive than the
//! greedy packer and the dominance property (`place_optimal` never
//! uses more stages than [`place`](ow_switch::placement::place))
//! holds unconditionally.

use std::collections::HashMap;

use ow_switch::placement::StepRef;

use crate::ir::PipelineProgram;

/// Map each declared register array to the `(feature, step)` hosting
/// the SALU that serves it, following the declaration-order convention
/// described in the module docs. Programs that under-provision SALUs
/// simply leave the tail registers unmapped (the verifier rejects them
/// separately with `OW-SALU-UNDERPROVISIONED`).
pub(crate) fn register_salu_steps(program: &PipelineProgram) -> Vec<(String, StepRef)> {
    let mut salu_steps: Vec<StepRef> = Vec::new();
    for (fi, feature) in program.features.iter().enumerate() {
        for (si, step) in feature.steps.iter().enumerate() {
            for _ in 0..step.salus {
                salu_steps.push((fi, si));
            }
        }
    }
    program
        .registers
        .iter()
        .zip(salu_steps)
        .map(|(reg, step)| (reg.name.clone(), step))
        .collect()
}

/// Cross-feature register-conflict edges for
/// [`place_optimal`](ow_switch::placement::place_optimal): one edge
/// `(a, b)` per consecutive access pair in any path whose registers
/// are served by steps of different features, deduplicated and sorted
/// so the derivation is deterministic.
pub(crate) fn register_conflict_edges(program: &PipelineProgram) -> Vec<(StepRef, StepRef)> {
    let mapping = register_salu_steps(program);
    let serving: HashMap<&str, StepRef> = mapping
        .iter()
        .map(|(name, step)| (name.as_str(), *step))
        .collect();
    let mut edges: Vec<(StepRef, StepRef)> = Vec::new();
    for path in &program.paths {
        for pair in path.accesses.windows(2) {
            let (Some(&a), Some(&b)) = (
                serving.get(pair[0].register.as_str()),
                serving.get(pair[1].register.as_str()),
            ) else {
                continue;
            };
            if a.0 != b.0 {
                edges.push((a, b));
            }
        }
    }
    edges.sort_unstable();
    edges.dedup();
    edges
}

#[cfg(test)]
mod tests {
    use super::*;
    use ow_switch::placement::StageLimits;

    use crate::ir::{
        AccessDecl, AccessKind, FeatureDecl, PacketClass, PathDecl, RegisterDecl, StepDecl,
    };

    fn step(salus: u32) -> StepDecl {
        StepDecl {
            sram_kb: 1,
            salus,
            vliw: 1,
            gateways: 1,
        }
    }

    fn two_feature_program() -> PipelineProgram {
        PipelineProgram::new("g", StageLimits::default())
            .register(RegisterDecl::new("a", 1, 8))
            .register(RegisterDecl::new("b", 1, 8))
            .register(RegisterDecl::new("c", 1, 8))
            .feature(FeatureDecl::new("f0", vec![step(1), step(0)]))
            .feature(FeatureDecl::new("f1", vec![step(2)]))
            .path(PathDecl::new(
                "normal",
                PacketClass::Normal,
                vec![
                    AccessDecl::new("a", AccessKind::AddSat, 0),
                    AccessDecl::new("b", AccessKind::Max, 0),
                    AccessDecl::new("c", AccessKind::Read, 0),
                ],
            ))
    }

    #[test]
    fn registers_map_to_salu_steps_in_declaration_order() {
        let mapping = register_salu_steps(&two_feature_program());
        assert_eq!(
            mapping,
            vec![
                ("a".to_string(), (0, 0)),
                ("b".to_string(), (1, 0)),
                ("c".to_string(), (1, 0)), // f1's step declares 2 SALUs
            ]
        );
    }

    #[test]
    fn underprovisioned_registers_are_left_unmapped() {
        let mut program = two_feature_program();
        program.features[1].steps[0].salus = 0;
        let mapping = register_salu_steps(&program);
        assert_eq!(mapping.len(), 1, "only 'a' has a serving SALU");
    }

    #[test]
    fn conflict_edges_cross_features_only_and_dedup() {
        let edges = register_conflict_edges(&two_feature_program());
        // a→b crosses f0→f1; b→c is intra-f1 and dropped.
        assert_eq!(edges, vec![((0, 0), (1, 0))]);
    }

    #[test]
    fn unknown_registers_produce_no_edges() {
        let program = two_feature_program().path(PathDecl::new(
            "ghost",
            PacketClass::Normal,
            vec![
                AccessDecl::new("ghost", AccessKind::Read, 0),
                AccessDecl::new("a", AccessKind::Read, 0),
            ],
        ));
        // The ghost pair is skipped; the existing edge set is unchanged.
        assert_eq!(register_conflict_edges(&program).len(), 1);
    }
}
