//! The fleet daemon: long-running sweep service over a persistent store.
//!
//! `vs-fleet` runs one sweep per process; every invocation pays startup,
//! and concurrent sweeps from different terminals fight over the same
//! checkpoint files. This crate turns the fleet engine into a *service*:
//! a daemon (`vs-fleetd`) that owns a [`FleetStore`] of per-configuration
//! checkpoint/journal pairs, accepts jobs over a versioned
//! length-prefixed protocol on a Unix socket (with JSONL-over-stdio as a
//! fallback transport), schedules them across a bounded worker pool with
//! admission control, and streams each job's per-chip results to any
//! number of watchers.
//!
//! # Architecture
//!
//! * [`protocol`] — the wire format: flat JSON messages in binary frames
//!   (socket) or lines (stdio). The decoder is fuzz-hardened: corrupt
//!   frames are typed [`ProtocolError`]s, never panics.
//! * [`FleetStore`] — the persistent state, keyed by
//!   [`FleetConfig::fingerprint`](vs_fleet::FleetConfig::fingerprint);
//!   startup recovery scrubs the store with the [`fsck`] pass (orphan
//!   temps removed, torn journal tails truncated, unrecoverable files
//!   quarantined), then folds orphaned journals into their checkpoints
//!   with the streaming compaction pass — so a SIGKILL'd daemon loses at
//!   most the record that was mid-append, and damage repair cannot fix
//!   is quarantined instead of blocking the boot.
//! * [`Scheduler`] — admission control (queue cap → typed `Busy`),
//!   a fixed worker pool, per-job [`CancelToken`](vs_guard::CancelToken)s
//!   parented on one shutdown root, buffered per-job event streams.
//! * [`server`] — the two transports over one request handler.
//! * [`Client`] — the synchronous socket client `repro fleetd` wraps.
//!
//! Determinism carries over from `vs-fleet`: a job's results depend only
//! on its spec, never on scheduling — so a daemon that dies and restarts
//! mid-sweep produces, after resume, exactly the chips an uninterrupted
//! run would have.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod fsck;
pub mod protocol;
pub mod server;
pub mod torture;

mod client;
mod scheduler;
mod store;

pub use client::{
    submit_and_watch, Client, JobOutcome, RetryError, RetryPolicy, RetryReport, Transport,
};
pub use fsck::{IssueKind, ScrubAction, ScrubIssue, ScrubReport};
pub use protocol::{DaemonStats, ProtocolError, Request, Response, SweepSpec};
pub use scheduler::{config_for, BusyInfo, Scheduler, SchedulerConfig, Submission, WatchChunk};
pub use store::{BootRecovery, FleetStore, StoreCounters};
