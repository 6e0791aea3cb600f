//! Soundness of the static verifier, plus one negative test per stable
//! error code.
//!
//! The central property: **any program the verifier accepts keeps the
//! §2 constraints**, read back off its IR by code independent of the
//! verifier's: one access per register per data-plane pass (C4),
//! in-region indices, bounded recirculation, no SALU access on a
//! control-plane path, and a placement within the stage budget. That
//! the IR describes the sketches that run is each sketch's own C4
//! proptest in `ow-sketch`.

use std::collections::HashSet;

use ow_switch::placement::{Feature, StageLimits, Step};
use ow_verify::{
    omniwindow_program, verify, AccessDecl, AccessKind, ErrorCode, PacketClass, PathDecl,
    PipelineProgram, RegisterDecl,
};
use proptest::prelude::*;

fn kind_of(k: u8) -> AccessKind {
    match k % 4 {
        0 => AccessKind::Read,
        1 => AccessKind::AddSat,
        2 => AccessKind::Max,
        _ => AccessKind::Write,
    }
}

fn class_of(c: u8) -> PacketClass {
    match c % 5 {
        0 => PacketClass::Normal,
        1 => PacketClass::Clear,
        2 => PacketClass::Recirculated,
        3 => PacketClass::Retransmit,
        _ => PacketClass::OsRead,
    }
}

/// Build a program from flat generated data. Deliberately allowed to be
/// invalid in every dimension the verifier checks: the property filters
/// on the verifier's verdict, so both accepted and rejected shapes are
/// exercised.
#[allow(clippy::type_complexity)]
fn build_program(
    registers: Vec<(usize, usize)>,
    features: Vec<Vec<(u32, u32, u32, u32)>>,
    paths: Vec<(u8, Vec<(usize, u8, usize)>, Option<u64>)>,
) -> PipelineProgram {
    let mut program = PipelineProgram::new("generated", StageLimits::default());
    for (i, (regions, cells)) in registers.iter().enumerate() {
        program = program.register(RegisterDecl::new(format!("r{i}"), *regions, *cells));
    }
    let nregs = registers.len().max(1);
    for (i, steps) in features.iter().enumerate() {
        program = program.feature(Feature::new(
            format!("f{i}"),
            steps
                .iter()
                .map(|&(sram_kb, salus, vliw, gateways)| Step {
                    sram_kb,
                    salus,
                    vliw,
                    gateways,
                })
                .collect(),
        ));
    }
    for (i, (class, accesses, bound)) in paths.into_iter().enumerate() {
        let mut path = PathDecl::new(
            format!("p{i}"),
            class_of(class),
            accesses
                .into_iter()
                .map(|(reg, kind, max_index)| {
                    AccessDecl::new(format!("r{}", reg % nregs), kind_of(kind), max_index)
                })
                .collect(),
        );
        if let Some(b) = bound {
            path.max_recirculations = Some(b);
        }
        program = program.path(path);
    }
    program
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Verifier-accepted programs keep C4, the region bounds, bounded
    /// recirculation, SALU-free control-plane paths and the stage
    /// budget.
    #[test]
    fn accepted_programs_keep_the_constraints(
        registers in proptest::collection::vec((1usize..3, 1usize..64), 1..4),
        features in proptest::collection::vec(
            proptest::collection::vec((0u32..200, 0u32..3, 0u32..5, 0u32..4), 1..4),
            1..4,
        ),
        paths in proptest::collection::vec(
            (
                0u8..5,
                proptest::collection::vec((0usize..4, 0u8..4, 0usize..80), 0..5),
                proptest::option::of(0u64..100),
            ),
            1..5,
        ),
    ) {
        let program = build_program(registers, features, paths);
        if let Ok(witness) = verify(&program) {
            for path in &program.paths {
                let control_plane =
                    matches!(path.class, PacketClass::Retransmit | PacketClass::OsRead);
                let recirculates =
                    matches!(path.class, PacketClass::Clear | PacketClass::Recirculated);
                prop_assert!(!control_plane || path.accesses.is_empty(), "{path:?}");
                prop_assert!(!recirculates || path.max_recirculations.is_some(), "{path:?}");
                let mut touched = HashSet::new();
                for access in &path.accesses {
                    prop_assert!(touched.insert(&access.register), "C4: {path:?}");
                    let register = program.registers.iter().find(|r| r.name == access.register);
                    prop_assert!(
                        register.is_some_and(|r| access.max_index < r.region_cells),
                        "{access:?} in {path:?}"
                    );
                }
            }
            prop_assert!(witness.placement().stages_used <= program.limits.stages);
        }
    }

    /// Rejection is stable: a rejected program is rejected with at least
    /// one error diagnostic carrying a context string.
    #[test]
    fn rejections_carry_diagnostics(
        registers in proptest::collection::vec((0usize..3, 0usize..64), 0..4),
        paths in proptest::collection::vec(
            (
                0u8..5,
                proptest::collection::vec((0usize..4, 0u8..4, 0usize..80), 0..6),
                proptest::option::of(0u64..100),
            ),
            0..5,
        ),
    ) {
        let program = build_program(registers, vec![vec![(0, 2, 1, 1)]], paths);
        if let Err(report) = verify(&program) {
            prop_assert!(!report.ok);
            prop_assert!(report.errors().count() > 0);
            for d in report.errors() {
                prop_assert!(!d.context.is_empty() && !d.message.is_empty());
            }
        }
    }
}

/// A minimal valid program each negative test perturbs in exactly one
/// dimension.
fn valid_program() -> PipelineProgram {
    PipelineProgram::new("minimal", StageLimits::default())
        .register(RegisterDecl::new("state", 2, 16))
        .register(RegisterDecl::new("counter", 1, 1))
        .feature(Feature::new(
            "update",
            vec![
                Step {
                    sram_kb: 1,
                    salus: 1,
                    vliw: 1,
                    gateways: 1,
                },
                Step {
                    sram_kb: 0,
                    salus: 1,
                    vliw: 1,
                    gateways: 1,
                },
            ],
        ))
        .path(PathDecl::new(
            "normal",
            PacketClass::Normal,
            vec![
                AccessDecl::new("state", AccessKind::AddSat, 15),
                AccessDecl::new("counter", AccessKind::Max, 0),
            ],
        ))
        .path(
            PathDecl::new(
                "clear",
                PacketClass::Clear,
                vec![AccessDecl::new("state", AccessKind::Write, 15)],
            )
            .with_recirc_bound(16),
        )
}

#[test]
fn minimal_valid_program_is_accepted() {
    let witness = verify(&valid_program()).expect("baseline must verify");
    assert!(witness.report().ok);
}

#[test]
fn double_salu_access_on_clear_path_is_rejected() {
    // The ISSUE acceptance case: a clear-packet path touching the same
    // register array twice in one pass.
    let mut program = valid_program();
    program.paths[1]
        .accesses
        .push(AccessDecl::new("state", AccessKind::Read, 0));
    let report = verify(&program).unwrap_err();
    assert!(report.has_code(ErrorCode::C4DoubleAccess), "{report}");
}

#[test]
fn unknown_register_is_rejected() {
    let mut program = valid_program();
    program.paths[0]
        .accesses
        .push(AccessDecl::new("ghost", AccessKind::Read, 0));
    let report = verify(&program).unwrap_err();
    assert!(report.has_code(ErrorCode::UnknownRegister), "{report}");
}

#[test]
fn bad_register_is_rejected() {
    let program = valid_program().register(RegisterDecl::new("empty", 2, 0));
    let report = verify(&program).unwrap_err();
    assert!(report.has_code(ErrorCode::BadRegister), "{report}");

    let program = valid_program().register(RegisterDecl::new("state", 2, 16));
    let report = verify(&program).unwrap_err();
    assert!(
        report.has_code(ErrorCode::BadRegister),
        "duplicate: {report}"
    );
}

#[test]
fn out_of_region_index_is_rejected() {
    let mut program = valid_program();
    // Index 16 aliases the second region of a 16-cell region.
    program.paths[0].accesses[0].max_index = 16;
    let report = verify(&program).unwrap_err();
    assert!(report.has_code(ErrorCode::AddrOutOfBounds), "{report}");
}

#[test]
fn stage_overflow_is_rejected() {
    let steps = vec![
        Step {
            sram_kb: 0,
            salus: 0,
            vliw: 1,
            gateways: 0,
        };
        13
    ];
    let program = valid_program().feature(Feature::new("long-chain", steps));
    let report = verify(&program).unwrap_err();
    assert!(report.has_code(ErrorCode::StageOverflow), "{report}");
}

#[test]
fn per_stage_budget_overflows_are_rejected() {
    let oversized = |step: Step, code: ErrorCode| {
        let program = valid_program().feature(Feature::new("fat", vec![step]));
        let report = verify(&program).unwrap_err();
        assert!(report.has_code(code), "{code:?}: {report}");
    };
    oversized(
        Step {
            sram_kb: 2000,
            salus: 0,
            vliw: 0,
            gateways: 0,
        },
        ErrorCode::SramOverflow,
    );
    oversized(
        Step {
            sram_kb: 0,
            salus: 5,
            vliw: 0,
            gateways: 0,
        },
        ErrorCode::SaluOverflow,
    );
    oversized(
        Step {
            sram_kb: 0,
            salus: 0,
            vliw: 9,
            gateways: 0,
        },
        ErrorCode::VliwOverflow,
    );
    oversized(
        Step {
            sram_kb: 0,
            salus: 0,
            vliw: 0,
            gateways: 9,
        },
        ErrorCode::GatewayOverflow,
    );
}

#[test]
fn salu_underprovisioning_is_rejected() {
    let mut program = valid_program();
    // Strip every SALU from the feature steps: two register arrays are
    // left with no SALU to serve them.
    for feature in &mut program.features {
        for step in &mut feature.steps {
            step.salus = 0;
        }
    }
    let report = verify(&program).unwrap_err();
    assert!(report.has_code(ErrorCode::SaluUnderprovisioned), "{report}");
}

#[test]
fn unbounded_recirculation_is_rejected() {
    let mut program = valid_program();
    program.paths[1].max_recirculations = None;
    let report = verify(&program).unwrap_err();
    assert!(report.has_code(ErrorCode::RecircUnbounded), "{report}");
}

#[test]
fn control_plane_salu_access_is_rejected() {
    let program = valid_program().path(PathDecl::new(
        "retransmit",
        PacketClass::Retransmit,
        vec![AccessDecl::new("state", AccessKind::Read, 0)],
    ));
    let report = verify(&program).unwrap_err();
    assert!(report.has_code(ErrorCode::ControlPlaneSalu), "{report}");
}

#[test]
fn missing_clear_path_is_a_warning_not_an_error() {
    let mut program = valid_program();
    program.paths.remove(1); // drop the clear path; two-region state remains
    let witness = verify(&program).expect("warnings do not reject");
    assert!(witness.report().has_code(ErrorCode::MissingPath));
    assert!(witness.report().ok);
}

#[test]
fn placement_infeasibility_names_feature_step_and_resource() {
    // A program no stage assignment can place: two stages with one
    // SALU and two VLIW slots each, but three SALU steps and a 2-VLIW
    // step that must share the pipeline. The diagnostic must say which
    // feature/step wedged and which resource class ran out — not the
    // old anonymous "placement" arm.
    let limits = StageLimits {
        stages: 2,
        sram_kb: 64,
        salus: 1,
        vliw: 2,
        gateways: 4,
    };
    let program = PipelineProgram::new("wedge", limits)
        .register(RegisterDecl::new("a", 1, 8))
        .register(RegisterDecl::new("b", 1, 8))
        .feature(Feature::new(
            "deep",
            vec![
                Step {
                    sram_kb: 0,
                    salus: 1,
                    vliw: 1,
                    gateways: 1,
                },
                Step {
                    sram_kb: 0,
                    salus: 0,
                    vliw: 2,
                    gateways: 1,
                },
            ],
        ))
        .feature(Feature::new(
            "rider",
            vec![Step {
                sram_kb: 0,
                salus: 1,
                vliw: 1,
                gateways: 1,
            }],
        ))
        .path(PathDecl::new(
            "normal",
            PacketClass::Normal,
            vec![
                AccessDecl::new("a", AccessKind::AddSat, 7),
                AccessDecl::new("b", AccessKind::AddSat, 7),
            ],
        ));
    let report = verify(&program).unwrap_err();
    assert!(report.has_code(ErrorCode::PlaceInfeasible), "{report}");
    let diag = report
        .diagnostics
        .iter()
        .find(|d| d.code == ErrorCode::PlaceInfeasible)
        .unwrap();
    assert!(
        diag.context.contains("feature '"),
        "context names the wedged feature: {}",
        diag.context
    );
    assert!(
        diag.context.contains("step "),
        "context names the wedged step: {}",
        diag.context
    );
    assert!(
        diag.message.contains("salu") || diag.message.contains("vliw"),
        "message names the exhausted resource class: {}",
        diag.message
    );
}

#[test]
fn table2_configuration_is_accepted() {
    // The ISSUE acceptance case: the paper's Table-2 OmniWindow
    // configuration passes the full verifier.
    let program = omniwindow_program(&ow_switch::resources::ResourceConfig::default(), 32 * 1024);
    let witness = verify(&program).expect("Table-2 must verify");
    assert!(witness.placement().stages_used <= 12);
}
