//! The OmniWindow controller: AFR collection, storage, and merging.
//!
//! The paper's controller is a DPDK process that (1) receives trigger
//! packets and injects flowkeys/collection packets, (2) stores incoming
//! AFRs in an `rte_hash` table, (3) merges per-sub-window AFRs into
//! complete windows with AVX-512, (4) answers telemetry queries on the
//! merged table, and (5) for sliding windows evicts the oldest
//! sub-window. This crate reproduces that pipeline in native Rust:
//!
//! * [`table`] — the key-value merge table with the four merge
//!   strategies (frequency / existence / max-min / distinction) and
//!   incremental sliding-window eviction,
//! * [`collector`] — the per-sub-window collection session, including
//!   the sequence-id reliability check and retransmission requests (§8),
//! * [`simd`] — scalar vs auto-vectorised AFR aggregation (Exp#7),
//! * [`live`] — the threaded live deployment: two thin front-ends
//!   (bounded channel + router thread) over one shared router that
//!   scatters columnar `RecordBlock`s to per-shard worker threads, each
//!   folding its key slice into its own lock-protected merge table,
//! * [`timing`] — the O1–O5 instrumented controller for Exp#4.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod collector;
pub mod health;
pub mod live;
pub mod reliability;
mod router;
pub mod simd;
pub mod table;
pub mod timing;
pub mod wire;

pub use collector::{CollectionSession, SessionStatus};
pub use live::{LiveController, LiveHandle, ReliableLiveController, ReliableMsg};
pub use reliability::{AfrTransport, ReliabilityDriver, RetryPolicy, SessionOutcome};
pub use table::MergeTable;
pub use timing::{InstrumentedController, OpBreakdown};
pub use wire::{decode_batch, encode_batch, encode_merged};
