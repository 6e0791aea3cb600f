//! # ow-verify — static RMT pipeline verification
//!
//! The simulator in `ow-switch` checks none of the §2 hardware
//! constraints on its packet path: a second SALU access in a pass, an
//! out-of-region index, or an unplaceable feature set would simply run.
//! On hardware the Tofino compiler rejects such programs before they
//! load. This crate is that step for the simulated pipeline:
//!
//! 1. a declarative IR ([`PipelineProgram`]) describing register
//!    arrays, match-action features, and the per-packet-class paths a
//!    deployment executes;
//! 2. a static verifier ([`verify()`](crate::verify::verify)) proving
//!    C4 discipline, §6 address-bounds safety, recirculation
//!    termination, per-stage and whole-pipeline resource fit, and
//!    dependency-aware stage placement (the branch-and-bound
//!    `ow_switch::placement::place_optimal` over the program's
//!    `Feature` step chains, with the greedy packer as incumbent and
//!    packing-density reporting);
//! 3. a witness type ([`VerifiedProgram`]) that is the only supported
//!    way to construct a `Switch` — [`verified_switch`] is the front
//!    door used by every example, test, benchmark, and the network
//!    simulator;
//! 4. programs derived from what runs: [`verified_switch`] reads the
//!    application's register-array count and size off its `SketchMeta`,
//!    and every sketch's own proptest checks that meta against its
//!    update (one update touches at most one cell of each declared
//!    array);
//! 5. `ow-lint`, a binary gating CI on the [`catalog`] of every
//!    configuration this repo deploys.
//!
//! Diagnostics carry stable `OW-…` codes ([`ErrorCode`]) and render to
//! JSON ([`VerifyReport::to_json`]) for machine consumption.

pub mod catalog;
pub mod derive;
pub mod diag;
pub mod ir;
pub mod verify;

pub use derive::verified_switch;
pub use diag::{Diagnostic, ErrorCode, ResourceTotals, Severity, VerifyReport};
pub use ir::{
    omniwindow_program, AccessDecl, AccessKind, PacketClass, PathDecl, PipelineProgram,
    RegisterDecl,
};
pub use verify::{verify, VerifiedProgram};
