//! Runtime soundness bridge: execute a [`PipelineProgram`] against the
//! *real* `ow-switch` register machinery.
//!
//! [`execute`] materialises each [`crate::ir::RegisterDecl`] as an
//! actual [`RegisterArray`] (the type whose SALU enforces C4 at
//! runtime) and drives every declared path through full packet passes:
//! begin-pass on all arrays, perform the declared accesses at their
//! *worst-case* index bounds in each region, end-pass on all arrays,
//! repeating up to the declared recirculation bound. Control-plane
//! paths read via [`RegisterArray::snapshot`] only.
//!
//! The proptest soundness property in `tests/soundness.rs` is then
//! exactly: **if [`crate::verify()`](crate::verify::verify) accepts a program, [`execute`]
//! never returns an error and leaks no pass**. The static checks and
//! the runtime discipline are two independent encodings of the same §2
//! constraints; this bridge keeps them honest against each other.

use std::collections::HashMap;

use ow_common::error::OwError;
use ow_switch::register::{RegisterArray, SaluOp};

use crate::ir::{AccessKind, PipelineProgram};

/// Cap on how many recirculations [`execute`] actually simulates per
/// path. Declared bounds are often the region size (tens of thousands);
/// exercising a handful of passes already covers every distinct
/// (region, discipline) combination.
const MAX_SIMULATED_PASSES: u64 = 8;

/// What one full execution of a program exercised.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecReport {
    /// Packet passes driven through the register arrays.
    pub passes: u64,
    /// SALU operations performed across all arrays.
    pub salu_accesses: u64,
    /// Passes leaked (begun but never ended) across all arrays. Zero
    /// for every program the static verifier accepts.
    pub leaked_passes: u64,
    /// Control-plane snapshot reads (retransmit / os-read paths).
    pub snapshot_reads: u64,
}

/// Execute every path of `program` against real register arrays,
/// at worst-case indices, over every region, for up to the declared
/// recirculation bound (capped at `MAX_SIMULATED_PASSES`).
pub fn execute(program: &PipelineProgram) -> Result<ExecReport, OwError> {
    let mut arrays: HashMap<&str, RegisterArray> = HashMap::new();
    let mut regions: HashMap<&str, (usize, usize)> = HashMap::new();
    for reg in &program.registers {
        if reg.cells() == 0 {
            return Err(OwError::Config(format!(
                "register '{}' declares zero cells",
                reg.name
            )));
        }
        if arrays
            .insert(
                reg.name.as_str(),
                RegisterArray::new(reg.name.clone(), reg.cells()),
            )
            .is_some()
        {
            return Err(OwError::Config(format!(
                "duplicate register '{}'",
                reg.name
            )));
        }
        regions.insert(reg.name.as_str(), (reg.regions, reg.region_cells));
    }

    let mut report = ExecReport::default();
    for path in &program.paths {
        if path.class.is_control_plane() {
            // §8 paths must not transit the pipeline: they read parked
            // state via snapshots, never opening a pass. A declared SALU
            // access here is the violation the verifier rejects.
            if !path.accesses.is_empty() {
                return Err(OwError::Protocol(format!(
                    "control-plane path '{}' declares SALU accesses",
                    path.name
                )));
            }
            for array in arrays.values() {
                let _ = array.snapshot();
                report.snapshot_reads += 1;
            }
            continue;
        }

        // Recirculating classes replay the pass up to their bound; a
        // missing bound on such a class is itself the runtime hazard
        // (the packet would loop forever), surfaced as a protocol error.
        let declared = if path.class.recirculates() {
            match path.max_recirculations {
                Some(bound) => bound,
                None => {
                    return Err(OwError::Protocol(format!(
                        "recirculating path '{}' has no termination bound",
                        path.name
                    )))
                }
            }
        } else {
            path.max_recirculations.unwrap_or(1)
        };
        // At least 2 simulated passes so both regions of a two-region
        // layout are exercised even for once-through paths.
        let passes = declared.clamp(2, MAX_SIMULATED_PASSES);

        for pass in 0..passes {
            for array in arrays.values_mut() {
                array.begin_pass();
            }
            for access in &path.accesses {
                let (nregions, region_cells) =
                    *regions.get(access.register.as_str()).ok_or_else(|| {
                        OwError::Config(format!(
                            "path '{}' accesses undeclared register '{}'",
                            path.name, access.register
                        ))
                    })?;
                // The §6 MAT bounds-check: in the flattened layout a
                // within-region index at or past the region size would
                // alias the next region.
                if access.max_index >= region_cells {
                    return Err(OwError::Config(format!(
                        "path '{}': index {} exceeds region size {} of register '{}'",
                        path.name, access.max_index, region_cells, access.register
                    )));
                }
                let region = (pass as usize) % nregions.max(1);
                let address = region * region_cells + access.max_index;
                let op = match access.kind {
                    AccessKind::Read => SaluOp::Read,
                    AccessKind::AddSat => SaluOp::AddSat(1),
                    AccessKind::Max => SaluOp::Max(pass as u32),
                    AccessKind::Write => SaluOp::Write(pass as u32),
                };
                let array = arrays
                    .get_mut(access.register.as_str())
                    .expect("regions and arrays share keys");
                array.access(address, op)?;
                report.salu_accesses += 1;
            }
            for array in arrays.values_mut() {
                array.end_pass();
            }
            report.passes += 1;
        }
    }

    report.leaked_passes = arrays.values().map(|a| a.leaked_passes()).sum();
    if report.leaked_passes > 0 {
        return Err(OwError::Protocol(format!(
            "{} pass(es) leaked during execution",
            report.leaked_passes
        )));
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{
        omniwindow_program, AccessDecl, AccessKind, PacketClass, PathDecl, PipelineProgram,
        RegisterDecl,
    };
    use ow_switch::placement::StageLimits;
    use ow_switch::resources::ResourceConfig;

    #[test]
    fn table2_program_executes_cleanly() {
        let p = omniwindow_program(&ResourceConfig::default(), 1024);
        let r = execute(&p).expect("table-2 program must run");
        assert!(r.passes > 0 && r.salu_accesses > 0);
        assert_eq!(r.leaked_passes, 0);
        assert!(r.snapshot_reads > 0, "control-plane paths read snapshots");
    }

    #[test]
    fn double_access_fails_at_runtime_too() {
        let p = PipelineProgram::new("bad", StageLimits::default())
            .register(RegisterDecl::new("r", 2, 8))
            .path(PathDecl::new(
                "normal",
                PacketClass::Normal,
                vec![
                    AccessDecl::new("r", AccessKind::AddSat, 0),
                    AccessDecl::new("r", AccessKind::Read, 0),
                ],
            ));
        let err = execute(&p).unwrap_err();
        assert!(err.to_string().contains("C4"), "{err}");
    }

    #[test]
    fn out_of_region_index_fails_at_runtime() {
        let p = PipelineProgram::new("oob", StageLimits::default())
            .register(RegisterDecl::new("r", 2, 8))
            .path(PathDecl::new(
                "normal",
                PacketClass::Normal,
                vec![AccessDecl::new("r", AccessKind::Read, 8)],
            ));
        assert!(execute(&p).is_err());
    }

    #[test]
    fn unbounded_recirculation_fails_at_runtime() {
        let p = PipelineProgram::new("loop", StageLimits::default())
            .register(RegisterDecl::new("r", 2, 8))
            .path(PathDecl::new(
                "clear",
                PacketClass::Clear,
                vec![AccessDecl::new("r", AccessKind::Write, 0)],
            ));
        let err = execute(&p).unwrap_err();
        assert!(err.to_string().contains("termination"), "{err}");
    }
}
