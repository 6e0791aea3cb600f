//! # ow-verify — static RMT pipeline verification
//!
//! The simulator in `ow-switch` enforces the §2 hardware constraints
//! *at runtime*: a second SALU access in a pass, an out-of-region
//! index, or an unplaceable feature set only surfaces once traffic is
//! flowing. A real deployment cannot afford that — the Tofino compiler
//! rejects such programs before they load. This crate is that step for
//! the simulated pipeline:
//!
//! 1. a declarative IR ([`PipelineProgram`]) describing register
//!    arrays, match-action features, and the per-packet-class paths a
//!    deployment executes;
//! 2. a static verifier ([`verify()`](crate::verify::verify)) proving
//!    C4 discipline, §6
//!    address-bounds safety, recirculation termination, per-stage and
//!    whole-pipeline resource fit, and dependency-aware stage
//!    placement (driving the branch-and-bound
//!    `ow_switch::placement::place_optimal` over the [`depgraph`]
//!    step-dependency graph, with the greedy packer as incumbent and
//!    packing-density reporting);
//! 3. a witness type ([`VerifiedProgram`]) that is the only supported
//!    way to construct a `Switch` — [`verified_switch`] is the front
//!    door used by every example, test, benchmark, and the network
//!    simulator;
//! 4. a runtime soundness bridge ([`exec::execute`]) that replays any
//!    program against the real register machinery, keeping the static
//!    and dynamic encodings of the constraints honest against each
//!    other (property-tested in `tests/soundness.rs`);
//! 5. `ow-lint`, a binary gating CI on the [`catalog`] of every
//!    configuration this repo deploys.
//!
//! Diagnostics carry stable `OW-…` codes ([`ErrorCode`]) and render to
//! JSON ([`VerifyReport::to_json`]) for machine consumption.

pub mod catalog;
pub mod depgraph;
pub mod derive;
pub mod diag;
pub mod exec;
pub mod ir;
pub mod verify;

pub use derive::verified_switch;
pub use diag::{Diagnostic, ErrorCode, ResourceTotals, Severity, VerifyReport};
pub use ir::{
    omniwindow_program, AccessDecl, AccessKind, FeatureDecl, PacketClass, PathDecl,
    PipelineProgram, RegisterDecl, StepDecl,
};
pub use verify::{verify, verify_with_budget, VerifiedProgram};
