//! Common foundation types for OmniWindow-RS.
//!
//! This crate holds everything shared between the data-plane model
//! (`ow-switch`), the controller (`ow-controller`), the sketch library
//! (`ow-sketch`), and the experiment harness:
//!
//! * the packet model ([`packet`]) including the OmniWindow custom header
//!   that the paper places between Ethernet and IP,
//! * flow keys ([`flowkey`]) — five-tuple and coarser projections,
//! * application-derived flow records ([`afr`]) and their merge algebra,
//! * a deterministic multiply-shift / mixer hash family ([`hash`]) used by
//!   all sketches so experiments are reproducible,
//! * the per-window lifecycle state machine ([`engine`]) the switch
//!   drives through collect-and-reset and §8 recovery,
//! * virtual time ([`time`]) — the discrete-event nanosecond clock,
//! * a Zipf sampler ([`zipf`]) for CAIDA-like heavy-tailed synthetic traces,
//! * accuracy metrics ([`metrics`]) — precision / recall / ARE / AARE.
//!
//! The crate is `#![forbid(unsafe_code)]` and allocation-light: packet and
//! key types are `Copy`, so the simulator can replay millions of packets
//! without touching the heap.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod afr;
pub mod block;
pub mod engine;
pub mod error;
pub mod flowkey;
pub mod hash;
pub mod metrics;
pub mod packet;
pub mod time;
pub mod zipf;

pub use afr::{AttrKind, AttrValue, FlowRecord};
pub use block::{AttrColumn, RecordBlock, ShardScatter, DEFAULT_BLOCK_CAPACITY};
pub use error::OwError;
pub use flowkey::{FlowKey, KeyKind};
pub use packet::{OwFlag, OwHeader, Packet, TcpFlags};
pub use time::{Duration, Instant};
