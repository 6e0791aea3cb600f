//! One driver per paper experiment — plus the observability smoke
//! scenarios ([`obs_smoke`], [`fleet_smoke`]) — shared by the
//! `ow-bench` binaries and the integration tests.
//!
//! Every driver takes a [`Scale`]: `Small` keeps tests fast (seconds),
//! `Paper` approaches the paper's workload sizes for the bench binaries.
//! Results are plain serialisable structs so binaries can print tables
//! and dump JSON.

pub mod ablations;
pub mod common;
pub mod exp10_window_sizes;
pub mod exp1_queries;
pub mod exp2_sketches;
pub mod exp3_dml;
pub mod exp4_controller;
pub mod exp5_resources;
pub mod exp6_collection;
pub mod exp7_aggregation;
pub mod exp8_reset;
pub mod exp9_consistency;
pub mod fleet_smoke;
pub mod obs_smoke;

pub use common::Scale;
