//! Discrete-event network simulation for network-wide experiments.
//!
//! The consistency experiment (Exp#9) needs what no single-switch model
//! can provide: two switches with *independent clocks*, a lossy link
//! between them, and a loss-detection application (LossRadar) deployed
//! on both. This crate supplies:
//!
//! * [`sim`] — a deterministic discrete-event simulator: nodes with
//!   per-node clock offsets (the PTP deviation model), links with delay,
//!   jitter, and loss injection,
//! * [`fault`] — deterministic fault injection for the AFR collection
//!   path: a seeded per-packet-class lossy channel (drop / duplicate /
//!   reorder / delay) driving the §8 reliability experiments,
//! * [`fleet`] — fleet-scale simulation: 100–1000 switches
//!   rendezvous-hashed onto N sharded controller workers, with phase
//!   staggering, rack-correlated loss bursts, and join/leave/crash
//!   churn (the chaos acceptance suite's engine),
//! * [`lossradar`] — LossRadar (Li et al., CoNEXT'16): per-sub-window
//!   packet digests in invertible Bloom lookup tables whose difference
//!   decodes to exactly the packets lost on the link — *provided* both
//!   ends agree on each packet's sub-window.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fault;
pub mod fleet;
pub mod lossradar;
pub mod sim;
pub mod sketchobs;

pub use fault::{ClassProfile, ClassStats, FaultConfig, FaultStats, LossyChannel, PacketClass};
pub use fleet::{
    fleet_health_rules, global_subwindow, subwindow_switch, worker_of, ChurnEvent, ChurnKind,
    FleetConfig, FleetReport, RackBurst,
};
pub use lossradar::{LossRadarMeter, WindowAssign};
pub use sim::{Link, NetSim, NodeConfig};
