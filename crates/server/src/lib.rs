//! # webmm-server: native multi-worker serving harness
//!
//! The simulator (`webmm-runtime`) reproduces the paper's measurements on
//! a modelled machine. This crate runs the same allocators on the *host*
//! machine: a pool of OS worker threads, each owning a private heap built
//! from an [`AllocatorKind`](webmm_alloc::AllocatorKind), serving whole
//! transactions pulled from a bounded ingress queue — the paper's
//! process-per-worker PHP serving model (§2.1), with the web tier's
//! admission control made explicit.
//!
//! The pieces:
//!
//! * [`ShardedTxQueue`] / [`AdmissionPolicy`] / [`QueueMode`] — the one
//!   bounded ingress queue, with block / reject / shed-oldest
//!   backpressure and every outcome counted. In sharded mode (the
//!   default) it has one shard per worker, batched drain (up to `batch`
//!   transactions per lock acquisition), and steal-half work stealing
//!   when a worker's own shard runs dry; admission policies apply per
//!   shard, and the accounting identity holds across steals. Global mode
//!   is the single-lock baseline: the same queue with one shard and
//!   batch 1;
//! * worker threads — one [`PlainPort`](webmm_sim::PlainPort) address
//!   space and one heap each, replaying the workload's
//!   malloc/free/freeAll schedule; `freeAll` (or a survivor sweep for
//!   allocators without bulk free) empties the heap at every transaction
//!   boundary;
//! * [`TxFactory`] + [`drive_closed`] / [`drive_open`] — deterministic
//!   transaction production under closed- or open-loop arrival models,
//!   the open loop paced by one [`OpenLoopSchedule`] that the network
//!   client shares;
//! * [`TxBufferPool`] — transaction op buffers recycled from completed
//!   (or shed) transactions back to the load generators, so the
//!   steady-state serving path performs no heap allocation per
//!   transaction (see [`TxExecutor`] for the hash-free object table and
//!   `tests/alloc_audit.rs` for the proof);
//! * [`LatencyHistogram`] — log2-bucketed admission-to-completion
//!   latencies with p50/p95/p99/p999 (shared with `webmm-obs`, which is
//!   also where the live sliding-window variant lives);
//! * [`ServerReport`] — JSON-serializable run outcome, carrying the
//!   checked accounting identity `submitted == completed + shed`;
//! * [`ObsConfig`] / [`ServerTelemetry`] / [`ObsSample`] — opt-in live
//!   telemetry: a sampler thread snapshots queue depth, per-worker heap
//!   occupancy and sliding-window latency quantiles at a configurable
//!   interval, streaming JSONL while the run is still serving.
//!
//! ## Example
//!
//! ```
//! use webmm_alloc::AllocatorKind;
//! use webmm_server::{drive_closed, Server, ServerConfig, TxFactory};
//!
//! let server = Server::start(ServerConfig {
//!     kind: AllocatorKind::DdMalloc,
//!     workers: 2,
//!     ..ServerConfig::default()
//! });
//! let factory = TxFactory::new(webmm_workload::phpbb(), 1024, 42);
//! drive_closed(&server, factory, 10, 2);
//! let report = server.finish();
//! assert_eq!(report.completed + report.shed, report.submitted);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod loadgen;
mod pool;
mod queue;
mod server;
mod shard;
mod telemetry;
mod worker;

pub use loadgen::{drive_closed, drive_open, OpenLoopSchedule, TxFactory};
pub use pool::{PoolStats, TxBufferPool};
pub use queue::{Admission, AdmissionPolicy, QueueCounters, QueueMode, QueueSnapshot};
pub use server::{Ingress, Server, ServerConfig, ServerReport};
pub use shard::ShardedTxQueue;
pub use telemetry::{render_dashboard, ObsConfig, ObsSample, ServerTelemetry, WorkerHeapSample};
// The histogram is defined in `webmm-obs` so live windows and final
// reports share one implementation; re-exported here for compatibility.
pub use webmm_obs::{LatencyHistogram, LatencySummary, ShardSample, TxSpan};
pub use worker::{TxExecutor, WorkerReport};

use webmm_workload::WorkOp;

/// One web transaction: an identity plus the allocator-visible operation
/// sequence a PHP worker would execute to serve it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Transaction {
    /// Submission-order identity, assigned by the load generator.
    pub id: u64,
    /// The operation schedule, normally ending with [`WorkOp::EndTx`].
    pub ops: Vec<WorkOp>,
}
