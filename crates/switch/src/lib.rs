//! Software model of an RMT programmable switch running OmniWindow.
//!
//! The paper's data plane is a P4₁₆ program on an Intel Tofino ASIC. This
//! crate models that data plane faithfully at the level the paper's
//! mechanisms care about, while enforcing the RMT constraints of §2:
//!
//! * **C1** — no memory-traversal instruction: the only way to enumerate
//!   state is recirculating packets ([`collect`]) or the slow switch-OS
//!   path ([`osmodel`]);
//! * **C2** — no global clock: sub-window agreement comes from the
//!   Lamport-style consistency model ([`consistency`]);
//! * **C3** — scarce memory and SALUs: register arrays are explicitly
//!   sized, every feature's footprint is tracked ([`resources`]), and a
//!   greedy stage placer derives the pipeline packing ([`placement`]);
//! * **C4** — single-pass processing: one SALU access per register array
//!   per pass, enforced by the [`register`] types; sliding windows are
//!   *not* built by replicating state but by the sub-window machinery.
//!
//! Composition: [`switch::Switch`] wires the window [`signal`] engine,
//! the [`consistency`] model, [`flowkey`] tracking (Algorithm 1), the
//! two-region state layout ([`regions`], §6), and the collect-and-reset
//! engine ([`collect`], Algorithm 2 + §4.3) around any telemetry
//! application implementing [`app::DataPlaneApp`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod app;
pub mod collect;
pub mod consistency;
pub mod flowkey;
pub mod health;
pub mod latency;
pub mod osmodel;
pub mod placement;
pub mod regions;
pub mod register;
pub mod resources;
pub mod signal;
pub mod switch;

pub use app::DataPlaneApp;
pub use collect::{CollectConfig, CollectOutcome, RetransmitBuffer};
pub use consistency::ConsistencyModel;
pub use flowkey::{FlowkeyTracker, TrackOutcome};
pub use placement::{
    place, place_optimal, Feature, PackingDensity, Placement, PlacementError, ResourceClass,
    StageLimits,
};
pub use regions::TwoRegionState;
pub use register::{RegisterArray, SaluOp};
pub use resources::{FeatureUsage, ResourceReport};
pub use signal::{SignalEngine, Termination, WindowSignal};
pub use switch::{EventSink, Switch, SwitchConfig, SwitchEvent};
