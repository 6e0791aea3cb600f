//! # OmniWindow — a general and efficient window mechanism framework
//!
//! A software-model reproduction of *OmniWindow: A General and Efficient
//! Window Mechanism Framework for Network Telemetry* (SIGCOMM 2023).
//!
//! OmniWindow splits telemetry windows into fine-grained **sub-windows**,
//! measures and allocates resources at sub-window granularity in the
//! data plane, and lets the controller merge sub-windows into tumbling
//! windows, sliding windows, or arbitrary window types of variable size.
//!
//! This crate is the framework layer tying the substrates together:
//!
//! * [`config`] — window/slide/sub-window geometry with validation,
//! * [`exact`] — error-free reference statistics (the ideal baselines),
//! * [`app`] — the [`app::WindowApp`] abstraction every telemetry
//!   application implements (Sonata queries, the eight sketches), plus
//!   the concrete adapters,
//! * [`mechanisms`] — the seven window mechanisms of the evaluation:
//!   ITW, ISW (ideal), TW1, TW2 (conventional tumbling), OTW, OSW
//!   (OmniWindow), and SS (Sliding Sketch),
//! * [`cardinality`] — the whole-window cardinality pipeline (Q11),
//!   which merges entire states instead of AFRs,
//! * [`migration`] — the §8 state-migration path for structures without
//!   data-plane flow query (FlowRadar): the controller decodes migrated
//!   states into AFRs,
//! * [`lifetime`] — variable-size windows: per-flow lifetime
//!   reconstruction from retained sub-window batches (the G1 use case),
//! * [`verify`] (re-export of `ow-verify`) — the static RMT pipeline
//!   verifier: proves C1–C4 discipline, address-bounds safety, and
//!   resource fit, and gates all switch construction
//!   ([`verify::verified_switch`]),
//! * [`engine`] (re-export of `ow_common::engine`) — the per-window
//!   lifecycle state machine ([`engine::WindowFsm`]) the switch
//!   drives, which rejects an illegal transition instead of drifting,
//! * [`evaluate`] — precision/recall/ARE scoring against the ideals,
//! * [`experiments`] — one driver per paper experiment (Exp#1–Exp#10),
//!   shared by the `ow-bench` binaries and the integration tests.
//!
//! ## Quickstart
//!
//! ```
//! use omniwindow::app::HeavyHitterApp;
//! use omniwindow::config::WindowConfig;
//! use omniwindow::mechanisms::{run_ideal, run_omniwindow, Mode};
//! use ow_common::time::Duration;
//! use ow_trace::{TraceBuilder, TraceConfig};
//!
//! // A 500 ms window sliding by 100 ms, split into 100 ms sub-windows.
//! let cfg = WindowConfig::new(
//!     Duration::from_millis(500),
//!     Duration::from_millis(100),
//!     Duration::from_millis(100),
//! )
//! .unwrap();
//!
//! let trace = TraceBuilder::new(TraceConfig {
//!     duration: Duration::from_millis(1500),
//!     flows: 500,
//!     packets: 20_000,
//!     ..TraceConfig::default()
//! })
//! .build();
//!
//! let app = HeavyHitterApp::mv(100); // MV-Sketch, threshold 100 packets
//! let ideal = run_ideal(&app, &trace, &cfg, Mode::Sliding);
//! let osw = run_omniwindow(&app, &trace, &cfg, Mode::Sliding, 256 * 1024, 42);
//! assert_eq!(ideal.len(), osw.len());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod app;
pub mod cardinality;
pub mod config;
pub mod evaluate;
pub mod exact;
pub mod experiments;
pub mod lifetime;
pub mod mechanisms;
pub mod migration;

/// The static pipeline verifier (re-export of `ow-verify`).
pub use ow_verify as verify;

/// The per-window lifecycle state machine (re-export of
/// `ow_common::engine`) the switch drives.
pub use ow_common::engine;

pub use app::WindowApp;
pub use config::WindowConfig;
pub use evaluate::score_reports;
pub use exact::ExactStat;
pub use mechanisms::{Mode, WindowResult};
