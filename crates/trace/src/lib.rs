//! Synthetic workload generation for OmniWindow-RS.
//!
//! The paper evaluates on a CAIDA 2018 backbone trace replayed by PktGen.
//! That trace is access-gated, so this crate generates a *seeded*
//! CAIDA-like workload with the properties the experiments rely on:
//!
//! * heavy-tailed flow sizes (Zipf), tens of thousands of flows,
//! * TCP connection structure (SYN / data / FIN) so query-driven
//!   telemetry (Q1–Q7) has real connection semantics to detect,
//! * injectable ground-truth anomalies ([`anomaly`]): port scans, DDoS,
//!   SYN floods, SSH brute force, Slowloris, super-spreaders, and the
//!   window-boundary bursts of Figure 1,
//! * the distributed-ML parameter-server traffic of Exp#3 ([`dml`]),
//!   with iteration-tagged packets and the paper's doubling compression
//!   schedule.
//!
//! Everything is deterministic given the seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod anomaly;
pub mod dml;
pub mod gen;

pub use anomaly::{Anomaly, AnomalyKind};
pub use gen::{Trace, TraceBuilder, TraceConfig};
