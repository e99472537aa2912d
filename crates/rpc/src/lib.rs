//! # gir-rpc
//!
//! Process-per-shard distribution for GIR serving over a framed local
//! transport — the scale-out step past `gir-shard`'s in-process trees.
//!
//! The in-process sharded plan (`gir_core::sharded`) already factors
//! each query into *merge* + *per-shard Phase 2*; this crate moves the
//! per-shard halves behind a wire:
//!
//! * [`transport`] — byte streams ([`LoopbackConn`] in-memory,
//!   [`UdsConn`] over a Unix socketpair) carrying the versioned,
//!   CRC-checked frames of `gir_core::wire`.
//! * [`worker`] — [`ShardWorker`], one shard's R\*-tree + prune index
//!   behind the `ShardRequest`/`ShardResponse` protocol; transport- and
//!   process-agnostic.
//! * [`endpoint`] — where workers live: [`ThreadEndpoint`] (loopback
//!   thread, the CI default), [`UdsEndpoint`] (kernel-crossing),
//!   `ProcessEndpoint` (real child process, feature `process-worker`),
//!   and [`FaultyEndpoint`] + [`FaultPlan`] for injected kills/delays.
//! * [`cluster`] — [`RemoteShards`]: the coordinator's merge layer,
//!   WAL-backed update broadcast, consistent snapshot cuts, and
//!   snapshot + WAL-suffix rejoin for restarted workers.
//! * [`server`] — [`RemoteShards`] as a `gir_serve::Backend`, and
//!   [`DistributedGirServer`]: the one serve loop over it, with RPC
//!   misses and worker-side repair sweeps.
//!
//! The headline proof (`tests/rpc_differential.rs`) pins the
//! distributed plan bit-for-bit equal to the in-process
//! `ShardedGirServer` — ranked ids, score bits, facet provenance,
//! maintenance counters — for S ∈ {1,2,4,8} under random churn and a
//! proptest-chosen kill/delay/restart schedule, with a killed worker
//! degrading exactly one `TopKResponse` and a rejoined worker
//! answering fresh queries after WAL catch-up.

#![deny(missing_docs)]

pub mod cluster;
pub mod endpoint;
pub mod error;
pub mod server;
pub mod transport;
pub mod worker;

pub use cluster::{ClusterApply, ClusterError, EndpointFactory, RemoteConfig, RemoteShards};
#[cfg(feature = "process-worker")]
pub use endpoint::ProcessEndpoint;
#[cfg(unix)]
pub use endpoint::UdsEndpoint;
pub use endpoint::{Fault, FaultAction, FaultPlan, FaultyEndpoint, ShardEndpoint, ThreadEndpoint};
pub use error::RpcError;
pub use server::{DistributedGirServer, DistributedServerConfig};
#[cfg(unix)]
pub use transport::UdsConn;
pub use transport::{Conn, FrameConn, LoopbackConn};
pub use worker::{placement_from_tag, placement_tag, ShardWorker};
