//! Sonata-style query-driven telemetry (the Exp#1 substrate).
//!
//! Sonata compiles declarative queries (filter / map / distinct /
//! reduce) into data-plane register programs. This crate provides:
//!
//! * [`spec`] — a declarative query model covering the seven anomaly
//!   detection queries of Table 1 (Q1–Q7),
//! * [`registers`] — the data-plane engine: hash-indexed register cells
//!   *without collision handling*, faithfully reproducing the error
//!   source the paper attributes to Sonata ("the stateful operators of
//!   Sonata do not handle hash conflicts, which cannot be avoided by
//!   OmniWindow").

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod registers;
pub mod spec;

pub use registers::RegisterEngine;
pub use spec::{standard_queries, QuerySpec, StatKind};
