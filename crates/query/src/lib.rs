//! Sonata-style query-driven telemetry (the Exp#1 substrate).
//!
//! Sonata compiles declarative queries (filter / map / distinct /
//! reduce) into data-plane register programs. This crate provides:
//!
//! * [`spec`] — a declarative query model covering the seven anomaly
//!   detection queries of Table 1 (Q1–Q7),
//! * [`exact`] — an error-free execution engine (hash maps), used for
//!   the ideal-window ground truths ITW/ISW,
//! * [`registers`] — the data-plane engine: hash-indexed register cells
//!   *without collision handling*, faithfully reproducing the error
//!   source the paper attributes to Sonata ("the stateful operators of
//!   Sonata do not handle hash conflicts, which cannot be avoided by
//!   OmniWindow").

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod exact;
pub mod registers;
pub mod spec;

pub use exact::ExactEngine;
pub use registers::RegisterEngine;
pub use spec::{standard_queries, QuerySpec, StatKind};
