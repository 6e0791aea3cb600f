//! The static verifier: proves the §2 constraints and Table-2 resource
//! fit for a [`PipelineProgram`], and mints the [`VerifiedProgram`]
//! witness that the rest of the workspace requires before assembling a
//! runtime [`Switch`] pipeline.
//!
//! Checks performed (each maps to one stable [`ErrorCode`]):
//!
//! | property | code |
//! |---|---|
//! | C4: ≤ 1 SALU access per array per pass, on **every** path | `OW-C4-DOUBLE-ACCESS` |
//! | every accessed array is declared | `OW-UNKNOWN-REGISTER` |
//! | register declarations well-formed | `OW-BAD-REGISTER` |
//! | §6 flattened-layout address bounds | `OW-ADDR-OOB` |
//! | a dependency chain is longer than the pipeline | `OW-STAGE-OVERFLOW` |
//! | search-based stage placement fits (drives [`place_optimal`]) | `OW-PLACE-INFEASIBLE` |
//! | packing density of the found placement (note) | `OW-PLACE-SLACK` |
//! | per-step / whole-program SRAM fit | `OW-SRAM-OVERFLOW` |
//! | per-step SALU fit | `OW-SALU-OVERFLOW` |
//! | per-step VLIW fit | `OW-VLIW-OVERFLOW` |
//! | per-step gateway fit | `OW-GATEWAY-OVERFLOW` |
//! | every array has a SALU to serve it | `OW-SALU-UNDERPROVISIONED` |
//! | recirculation loops statically bounded (C1) | `OW-RECIRC-UNBOUNDED` |
//! | §8 CPU paths never touch a SALU | `OW-CONTROL-PLANE-SALU` |
//! | expected packet classes covered (warning) | `OW-MISSING-PATH` |
//!
//! Stage placement runs the dependency-aware branch-and-bound search
//! ([`place_optimal`]) seeded with the greedy first-fit solution as
//! its incumbent, so the verifier is *strictly more permissive* than
//! the old greedy-only pass (any program greedy placed still places,
//! in at most as many stages) while admitting programs greedy
//! fragmented. The search stops after a fixed node count, keeping
//! every report — density figures included — byte-deterministic.

use std::collections::HashMap;

use ow_common::error::OwError;
use ow_switch::app::DataPlaneApp;
use ow_switch::placement::{place_optimal, Placement, Step};
use ow_switch::switch::{Switch, SwitchConfig};

use crate::diag::{Diagnostic, ErrorCode, ResourceTotals, Severity, VerifyReport};
use crate::ir::{PacketClass, PipelineProgram};

/// The witness that a program passed every static check. Holding one is
/// the only supported way to construct a [`Switch`] pipeline; the type
/// cannot be built outside [`verify()`](crate::verify::verify).
#[derive(Debug, Clone)]
pub struct VerifiedProgram {
    program: PipelineProgram,
    placement: Placement,
    report: VerifyReport,
}

impl VerifiedProgram {
    /// The verified program.
    pub fn program(&self) -> &PipelineProgram {
        &self.program
    }

    /// The derived stage placement.
    pub fn placement(&self) -> &Placement {
        &self.placement
    }

    /// The full report (possibly carrying warnings).
    pub fn report(&self) -> &VerifyReport {
        &self.report
    }

    /// Assemble the runtime switch this program was verified for.
    ///
    /// Cross-checks the concrete configuration and application against
    /// the verified declarations — the witness must actually cover what
    /// is about to run — then constructs the pipeline via the unchecked
    /// constructor the witness guards.
    pub(crate) fn build_switch<A: DataPlaneApp>(
        &self,
        cfg: SwitchConfig,
        region_a: A,
        region_b: A,
    ) -> Result<Switch<A>, OwError> {
        if region_a.meta() != region_b.meta() {
            return Err(OwError::Config(
                "the two region applications are configured differently".into(),
            ));
        }
        let states = region_a.states_per_array();
        let covers_app = self
            .program
            .registers
            .iter()
            .any(|r| r.regions >= 2 && r.region_cells >= states.max(1));
        if !covers_app {
            return Err(OwError::Config(format!(
                "verified program '{}' declares no two-region array of ≥ {} cells for \
                 application '{}'",
                self.program.name,
                states,
                region_a.meta().name
            )));
        }
        let covers_fk = self
            .program
            .registers
            .iter()
            .any(|r| r.name == "fk_buffer" && r.region_cells >= cfg.fk_capacity.max(1));
        if !covers_fk {
            return Err(OwError::Config(format!(
                "verified program '{}' has no fk_buffer of ≥ {} cells",
                self.program.name, cfg.fk_capacity
            )));
        }
        Ok(Switch::new_unchecked(cfg, region_a, region_b))
    }
}

/// Statically verify `program`. Returns the witness on success; the
/// full report (with at least one error diagnostic) on rejection.
pub fn verify(program: &PipelineProgram) -> Result<VerifiedProgram, Box<VerifyReport>> {
    let mut diags: Vec<Diagnostic> = Vec::new();
    let limits = program.limits;

    // --- Register declarations -------------------------------------
    let mut seen: HashMap<&str, ()> = HashMap::new();
    for reg in &program.registers {
        if reg.regions == 0 || reg.region_cells == 0 {
            diags.push(Diagnostic::error(
                ErrorCode::BadRegister,
                format!("register '{}'", reg.name),
                format!(
                    "empty layout: {} regions × {} cells",
                    reg.regions, reg.region_cells
                ),
            ));
        }
        if seen.insert(reg.name.as_str(), ()).is_some() {
            diags.push(Diagnostic::error(
                ErrorCode::BadRegister,
                format!("register '{}'", reg.name),
                "duplicate register name".to_string(),
            ));
        }
    }

    // --- Per-step budget fit ---------------------------------------
    for feature in &program.features {
        let ctx = format!("feature '{}'", feature.name);
        if feature.steps.len() > limits.stages as usize {
            diags.push(Diagnostic::error(
                ErrorCode::StageOverflow,
                ctx.clone(),
                format!(
                    "{} dependency-ordered steps cannot serialise through {} stages",
                    feature.steps.len(),
                    limits.stages
                ),
            ));
        }
        for (i, step) in feature.steps.iter().enumerate() {
            let mut overflow = |code, what: &str, used: u32, cap: u32| {
                if used > cap {
                    diags.push(Diagnostic::error(
                        code,
                        format!("{ctx} step {i}"),
                        format!("needs {used} {what} but a stage offers {cap}"),
                    ));
                }
            };
            overflow(
                ErrorCode::SramOverflow,
                "KB SRAM",
                step.sram_kb,
                limits.sram_kb,
            );
            overflow(ErrorCode::SaluOverflow, "SALUs", step.salus, limits.salus);
            overflow(
                ErrorCode::VliwOverflow,
                "VLIW slots",
                step.vliw,
                limits.vliw,
            );
            overflow(
                ErrorCode::GatewayOverflow,
                "gateways",
                step.gateways,
                limits.gateways,
            );
        }
    }

    // --- Whole-program totals --------------------------------------
    let sum = |f: fn(&Step) -> u32| -> u32 {
        program
            .features
            .iter()
            .flat_map(|feat| feat.steps.iter())
            .map(f)
            .sum()
    };
    let totals = ResourceTotals {
        sram_kb: sum(|s| s.sram_kb),
        salus: sum(|s| s.salus),
        vliw: sum(|s| s.vliw),
        gateways: sum(|s| s.gateways),
        registers: program.registers.len() as u32,
        register_cells: program.registers.iter().map(|r| r.cells() as u64).sum(),
    };
    if totals.sram_kb > limits.stages * limits.sram_kb {
        diags.push(Diagnostic::error(
            ErrorCode::SramOverflow,
            "program".to_string(),
            format!(
                "total SRAM {} KB exceeds the pipeline's {} KB",
                totals.sram_kb,
                limits.stages * limits.sram_kb
            ),
        ));
    }
    if totals.salus > limits.stages * limits.salus {
        diags.push(Diagnostic::error(
            ErrorCode::SaluOverflow,
            "program".to_string(),
            format!(
                "total SALUs {} exceed the pipeline's {}",
                totals.salus,
                limits.stages * limits.salus
            ),
        ));
    }
    if totals.salus < totals.registers {
        diags.push(Diagnostic::error(
            ErrorCode::SaluUnderprovisioned,
            "program".to_string(),
            format!(
                "{} register arrays but only {} SALUs declared across all steps — \
                 some array has no SALU to serve it",
                totals.registers, totals.salus
            ),
        ));
    }

    // --- Paths: C4, address bounds, recirculation, CPU discipline --
    for path in &program.paths {
        let ctx = format!("path '{}' ({})", path.name, path.class.label());
        if path.class.is_control_plane() && !path.accesses.is_empty() {
            diags.push(Diagnostic::error(
                ErrorCode::ControlPlaneSalu,
                ctx.clone(),
                format!(
                    "{} SALU access(es) on a switch-CPU path; §8 paths must read via \
                     control-plane snapshots only",
                    path.accesses.len()
                ),
            ));
        }
        if path.class.recirculates() && path.max_recirculations.is_none() {
            diags.push(Diagnostic::error(
                ErrorCode::RecircUnbounded,
                ctx.clone(),
                "recirculating path has no static termination bound (C1 makes this loop \
                 the only memory traversal; it must provably terminate)"
                    .to_string(),
            ));
        }
        let mut per_register: HashMap<&str, u32> = HashMap::new();
        for access in &path.accesses {
            match program.find_register(&access.register) {
                None => diags.push(Diagnostic::error(
                    ErrorCode::UnknownRegister,
                    ctx.clone(),
                    format!("access to undeclared register '{}'", access.register),
                )),
                Some(reg) => {
                    if reg.region_cells > 0 && access.max_index >= reg.region_cells {
                        diags.push(Diagnostic::error(
                            ErrorCode::AddrOutOfBounds,
                            ctx.clone(),
                            format!(
                                "index bound {} reaches past region size {} of register '{}' \
                                 (flattened address would alias the next region)",
                                access.max_index, reg.region_cells, reg.name
                            ),
                        ));
                    }
                }
            }
            *per_register.entry(access.register.as_str()).or_insert(0) += 1;
        }
        let mut doubled: Vec<(&str, u32)> =
            per_register.into_iter().filter(|(_, n)| *n > 1).collect();
        doubled.sort_unstable();
        for (reg, n) in doubled {
            diags.push(Diagnostic::error(
                ErrorCode::C4DoubleAccess,
                ctx.clone(),
                format!(
                    "register '{reg}' accessed {n}× in one pass (C4: one SALU access per \
                     array per packet pass)"
                ),
            ));
        }
    }

    // --- Class coverage (warnings) ---------------------------------
    let has_class = |c: PacketClass| program.paths.iter().any(|p| p.class == c);
    if !has_class(PacketClass::Normal) {
        diags.push(Diagnostic::warning(
            ErrorCode::MissingPath,
            "program".to_string(),
            "no normal-traffic path declared".to_string(),
        ));
    }
    if program.registers.iter().any(|r| r.regions >= 2) && !has_class(PacketClass::Clear) {
        diags.push(Diagnostic::warning(
            ErrorCode::MissingPath,
            "program".to_string(),
            "two-region state declared but no clear-packet path — the in-switch reset \
             cannot run"
                .to_string(),
        ));
    }

    // --- Stage placement (dependency-aware branch-and-bound) -------
    let placement = match place_optimal(&program.features, limits) {
        Ok(p) => {
            let d = p.density(limits);
            diags.push(Diagnostic::note(
                ErrorCode::PlaceSlack,
                "placement".to_string(),
                format!(
                    "placed in {}/{} stages ({}, {} nodes, optimality {}); slack {} stage(s); \
                     utilisation permille: sram {} salu {} vliw {} gateway {}",
                    d.stages_used,
                    d.stages_limit,
                    p.method,
                    p.nodes_explored,
                    if p.optimal {
                        "proven"
                    } else {
                        "budget-bounded"
                    },
                    d.stages_limit - d.stages_used,
                    d.sram_permille,
                    d.salu_permille,
                    d.vliw_permille,
                    d.gateway_permille,
                ),
            ));
            Some(p)
        }
        Err(e) => {
            // Report the placement failure only when no finer-grained
            // budget diagnostic already explains it. The error names
            // the blocking feature/step and the exhausted resource
            // class, plus whether infeasibility was proven or the
            // search budget ran out first.
            if !diags.iter().any(|d| d.severity == Severity::Error) {
                diags.push(Diagnostic::error(
                    ErrorCode::PlaceInfeasible,
                    format!("feature '{}' step {}", e.feature, e.step),
                    format!(
                        "no dependency-respecting stage assignment exists: {} capacity \
                         exhausted ({}); {}",
                        e.resource,
                        if e.proven {
                            "infeasibility proven"
                        } else {
                            "search budget exhausted — greedy also fails"
                        },
                        e.detail,
                    ),
                ));
            }
            None
        }
    };

    diags.sort_by_key(|d| match d.severity {
        Severity::Error => 0,
        Severity::Warning => 1,
        Severity::Note => 2,
    });
    let ok = !diags.iter().any(|d| d.severity == Severity::Error);
    let report = VerifyReport {
        program: program.name.clone(),
        ok,
        stages_used: placement.as_ref().map(|p| p.stages_used).unwrap_or(0),
        placement_method: placement
            .as_ref()
            .map(|p| p.method.to_string())
            .unwrap_or_default(),
        density: placement.as_ref().map(|p| p.density(limits)),
        totals,
        diagnostics: diags,
    };
    match (ok, placement) {
        (true, Some(placement)) => Ok(VerifiedProgram {
            program: program.clone(),
            placement,
            report,
        }),
        _ => Err(Box::new(report)),
    }
}
