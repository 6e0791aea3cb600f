//! Structured diagnostics with stable error codes, and the
//! machine-readable verification report.
//!
//! Every check the verifier performs maps to exactly one [`ErrorCode`];
//! codes are part of the tool's contract (CI greps them, tests assert
//! them) and must never be renamed once shipped. The JSON rendering of
//! a [`VerifyReport`] is what `ow-lint --json` emits and what the
//! Table-2 baseline under `results/` records.

use ow_switch::placement::PackingDensity;
use serde::{Serialize, Value};

/// Stable diagnostic codes. One code per provable property; the
/// string form (`OW-…`) is the public contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ErrorCode {
    /// A path performs two SALU accesses to one register array in a
    /// single pass (violates C4).
    C4DoubleAccess,
    /// A path references a register array the program never declares.
    UnknownRegister,
    /// A register declaration is malformed (zero regions/cells, or a
    /// duplicate name).
    BadRegister,
    /// A path's static index bound can exceed its region's cell count
    /// in the §6 flattened layout.
    AddrOutOfBounds,
    /// Dependency-ordered stage placement does not fit the pipeline.
    StageOverflow,
    /// A step (or the program total) exceeds the SRAM budget.
    SramOverflow,
    /// A step exceeds the per-stage SALU budget.
    SaluOverflow,
    /// A step exceeds the per-stage VLIW budget.
    VliwOverflow,
    /// A step exceeds the per-stage gateway budget.
    GatewayOverflow,
    /// The program declares fewer SALUs across its steps than register
    /// arrays: some array has no SALU to serve it.
    SaluUnderprovisioned,
    /// A recirculating path (clear / collection) has no finite static
    /// bound on its recirculation count — C1 makes such a loop the only
    /// way to traverse memory, so it must provably terminate.
    RecircUnbounded,
    /// A control-plane path (retransmit / os-read) declares a SALU
    /// access; those paths must read via snapshots only.
    ControlPlaneSalu,
    /// The program declares no path for a packet class the window state
    /// machine exercises (warning).
    MissingPath,
    /// A verified witness was applied to a configuration/application it
    /// does not cover.
    ConfigMismatch,
    /// The branch-and-bound placer proved (or, budget permitting,
    /// strongly evidenced) that no stage assignment fits: the message
    /// names the feature, step, and binding resource class.
    PlaceInfeasible,
    /// Informational: the program was placed, with the stage slack and
    /// per-stage packing density the optimizer achieved.
    PlaceSlack,
}

impl ErrorCode {
    /// The stable string form of the code.
    pub(crate) fn as_str(&self) -> &'static str {
        match self {
            ErrorCode::C4DoubleAccess => "OW-C4-DOUBLE-ACCESS",
            ErrorCode::UnknownRegister => "OW-UNKNOWN-REGISTER",
            ErrorCode::BadRegister => "OW-BAD-REGISTER",
            ErrorCode::AddrOutOfBounds => "OW-ADDR-OOB",
            ErrorCode::StageOverflow => "OW-STAGE-OVERFLOW",
            ErrorCode::SramOverflow => "OW-SRAM-OVERFLOW",
            ErrorCode::SaluOverflow => "OW-SALU-OVERFLOW",
            ErrorCode::VliwOverflow => "OW-VLIW-OVERFLOW",
            ErrorCode::GatewayOverflow => "OW-GATEWAY-OVERFLOW",
            ErrorCode::SaluUnderprovisioned => "OW-SALU-UNDERPROVISIONED",
            ErrorCode::RecircUnbounded => "OW-RECIRC-UNBOUNDED",
            ErrorCode::ControlPlaneSalu => "OW-CONTROL-PLANE-SALU",
            ErrorCode::MissingPath => "OW-MISSING-PATH",
            ErrorCode::ConfigMismatch => "OW-CONFIG-MISMATCH",
            ErrorCode::PlaceInfeasible => "OW-PLACE-INFEASIBLE",
            ErrorCode::PlaceSlack => "OW-PLACE-SLACK",
        }
    }
}

impl core::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl Serialize for ErrorCode {
    fn to_value(&self) -> Value {
        Value::String(self.as_str().to_string())
    }
}

/// Diagnostic severity. Only `Error` blocks verification; `Warning`
/// still yields a [`crate::VerifiedProgram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// The program is rejected.
    Error,
    /// Suspicious but not unsound.
    Warning,
    /// Informational (e.g. the placement's packing density); never
    /// blocks and never indicates a problem.
    Note,
}

impl Serialize for Severity {
    fn to_value(&self) -> Value {
        Value::String(
            match self {
                Severity::Error => "error",
                Severity::Warning => "warning",
                Severity::Note => "note",
            }
            .to_string(),
        )
    }
}

/// One verifier finding.
#[derive(Debug, Clone, Serialize)]
pub struct Diagnostic {
    /// Stable code.
    pub code: ErrorCode,
    /// Severity.
    pub severity: Severity,
    /// Where in the program (feature, path, or register name).
    pub context: String,
    /// Human-readable explanation.
    pub message: String,
}

impl Diagnostic {
    /// An error-severity diagnostic.
    pub(crate) fn error(
        code: ErrorCode,
        context: impl Into<String>,
        message: impl Into<String>,
    ) -> Self {
        Diagnostic {
            code,
            severity: Severity::Error,
            context: context.into(),
            message: message.into(),
        }
    }

    /// A warning-severity diagnostic.
    pub(crate) fn warning(
        code: ErrorCode,
        context: impl Into<String>,
        message: impl Into<String>,
    ) -> Self {
        Diagnostic {
            code,
            severity: Severity::Warning,
            context: context.into(),
            message: message.into(),
        }
    }

    /// A note-severity (informational) diagnostic.
    pub(crate) fn note(
        code: ErrorCode,
        context: impl Into<String>,
        message: impl Into<String>,
    ) -> Self {
        Diagnostic {
            code,
            severity: Severity::Note,
            context: context.into(),
            message: message.into(),
        }
    }
}

impl core::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let sev = match self.severity {
            Severity::Error => "error",
            Severity::Warning => "warning",
            Severity::Note => "note",
        };
        write!(
            f,
            "{sev}[{}] {}: {}",
            self.code.as_str(),
            self.context,
            self.message
        )
    }
}

/// Whole-program resource totals recorded in the report.
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct ResourceTotals {
    /// Summed SRAM across all steps (KB).
    pub sram_kb: u32,
    /// Summed SALUs across all steps.
    pub salus: u32,
    /// Summed VLIW slots across all steps.
    pub vliw: u32,
    /// Summed gateways across all steps.
    pub gateways: u32,
    /// Declared register arrays.
    pub registers: u32,
    /// Total register cells across all arrays and regions.
    pub register_cells: u64,
}

/// The machine-readable verification report.
#[derive(Debug, Clone, Serialize)]
pub struct VerifyReport {
    /// The verified program's name.
    pub program: String,
    /// Whether verification succeeded (no error-severity diagnostics).
    pub ok: bool,
    /// All findings, errors first.
    pub diagnostics: Vec<Diagnostic>,
    /// Stages the placement actually used (0 when placement failed).
    pub stages_used: u32,
    /// How the placement was derived (`"greedy"`, `"greedy-incumbent"`,
    /// `"branch-and-bound"`; empty when placement failed).
    pub placement_method: String,
    /// Packing density of the derived placement (`None` when placement
    /// failed): the per-stage utilisation permille of every resource
    /// class, the admission currency of the multi-tenant control plane.
    pub density: Option<PackingDensity>,
    /// Whole-program resource totals.
    pub totals: ResourceTotals,
}

impl VerifyReport {
    /// Error-severity diagnostics only.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
    }

    /// Whether any diagnostic carries `code`.
    pub fn has_code(&self, code: ErrorCode) -> bool {
        self.diagnostics.iter().any(|d| d.code == code)
    }

    /// Pretty JSON rendering (the `ow-lint --json` payload).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serializes")
    }
}

impl core::fmt::Display for VerifyReport {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "{}: {} ({} stages, {} KB SRAM, {} SALUs, {} VLIW, {} gateways)",
            self.program,
            if self.ok { "OK" } else { "REJECTED" },
            self.stages_used,
            self.totals.sram_kb,
            self.totals.salus,
            self.totals.vliw,
            self.totals.gateways,
        )?;
        if let Some(d) = &self.density {
            write!(
                f,
                " [density permille: sram {} salu {} vliw {} gateway {}]",
                d.sram_permille, d.salu_permille, d.vliw_permille, d.gateway_permille
            )?;
        }
        writeln!(f)?;
        for d in &self.diagnostics {
            writeln!(f, "  {d}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable_strings() {
        assert_eq!(ErrorCode::C4DoubleAccess.as_str(), "OW-C4-DOUBLE-ACCESS");
        assert_eq!(ErrorCode::StageOverflow.as_str(), "OW-STAGE-OVERFLOW");
        assert_eq!(ErrorCode::AddrOutOfBounds.as_str(), "OW-ADDR-OOB");
        assert_eq!(ErrorCode::RecircUnbounded.as_str(), "OW-RECIRC-UNBOUNDED");
        assert_eq!(ErrorCode::PlaceInfeasible.as_str(), "OW-PLACE-INFEASIBLE");
        assert_eq!(ErrorCode::PlaceSlack.as_str(), "OW-PLACE-SLACK");
    }

    #[test]
    fn report_json_contains_codes() {
        let report = VerifyReport {
            program: "p".into(),
            ok: false,
            diagnostics: vec![Diagnostic::error(
                ErrorCode::C4DoubleAccess,
                "path 'clear'",
                "register 'r' accessed twice",
            )],
            stages_used: 0,
            placement_method: String::new(),
            density: None,
            totals: ResourceTotals::default(),
        };
        let json = report.to_json();
        assert!(json.contains("OW-C4-DOUBLE-ACCESS"), "{json}");
        assert!(json.contains("\"ok\": false"), "{json}");
        assert!(json.contains("\"density\": null"), "{json}");
    }

    #[test]
    fn density_serializes_with_permille_columns() {
        let report = VerifyReport {
            program: "p".into(),
            ok: true,
            diagnostics: vec![],
            stages_used: 3,
            placement_method: "branch-and-bound".into(),
            density: Some(PackingDensity {
                stages_used: 3,
                stages_limit: 12,
                sram_permille: 10,
                salu_permille: 1000,
                vliw_permille: 416,
                gateway_permille: 250,
            }),
            totals: ResourceTotals::default(),
        };
        let json = report.to_json();
        assert!(json.contains("\"salu_permille\": 1000"), "{json}");
        assert!(
            json.contains("\"placement_method\": \"branch-and-bound\""),
            "{json}"
        );
        let text = report.to_string();
        assert!(text.contains("density permille"), "{text}");
    }
}
