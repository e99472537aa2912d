//! The distributed serving layer: [`RemoteShards`] as a
//! [`gir_serve::Backend`] of the one serve loop.
//!
//! [`DistributedGirServer`] is `gir_serve::Server` over the cluster —
//! the same keyed region cache probes first, misses fan out as RPCs to
//! shard workers instead of in-process pool tasks, and updates run the
//! same `DeltaBatch` cache reconciliation, with FP repair sweeps
//! executed worker-side through the [`gir_shard::RepairSweeps`] seam.
//! The newtype adds only the cluster's lifecycle: launch, shutdown and
//! rejoin.
//!
//! Failure semantics (the PR 4 contract, extended across the wire): a
//! dead or hung worker fails only the requests that needed it — each
//! such `TopKResponse` comes back `failed: true` with the shard and
//! reason in `error`, while the rest of the batch serves normally.
//! A killed worker stays dead until [`DistributedGirServer::rejoin_dead`]
//! (or the next update batch) restores it from snapshot + WAL replay;
//! fresh queries then succeed again (pinned by
//! `tests/rpc_differential.rs` and `tests/rpc_faults.rs`).

use crate::cluster::{ClusterApply, ClusterError, EndpointFactory, RemoteConfig, RemoteShards};
use gir_core::{GirError, GirOutput, GirRegion, Method, RegionKind, RepairRequest};
use gir_query::{QueryVector, Record, ScoringFunction};
use gir_rtree::RTreeError;
use gir_serve::{Applied, Backend, MissContext, Server, ServerConfig, TopKRequest, Update};
use gir_shard::{
    repair_region_sharded_with, repair_region_star_sharded_with, Placement, RemovedOwners,
};
use gir_storage::StorageError;

/// Distributed-server configuration.
#[derive(Debug, Clone)]
pub struct DistributedServerConfig {
    /// Shard workers to launch.
    pub data_shards: usize,
    /// Record-to-shard placement policy.
    pub placement: Placement,
    /// GIR-cache shards (coordinator-side, by query affinity).
    pub cache_shards: usize,
    /// LRU capacity per cache shard.
    pub cache_capacity: usize,
    /// Phase-2 method for misses (non-linear scoring falls back to
    /// [`Method::SkylinePruning`], §7.2).
    pub method: Method,
    /// Transport knobs: timeout, retries, backoff, snapshot cadence.
    pub remote: RemoteConfig,
}

impl Default for DistributedServerConfig {
    fn default() -> Self {
        DistributedServerConfig {
            data_shards: 4,
            placement: Placement::Hash,
            cache_shards: 16,
            cache_capacity: 32,
            method: Method::FacetPruning,
            remote: RemoteConfig::default(),
        }
    }
}

/// Maps a cluster failure into the serve loop's error type. A transport
/// or worker failure is transient — the shard rejoins — so it surfaces
/// as I/O, never as [`StorageError::Corrupt`], which claims the data
/// itself cannot be trusted.
fn cluster_err_to_rtree(e: ClusterError) -> RTreeError {
    RTreeError::Storage(match e {
        ClusterError::Storage(se) => se,
        ClusterError::Rpc { .. } => StorageError::Io(std::io::Error::other(e.to_string())),
        ClusterError::Wire(_) => StorageError::Corrupt(e.to_string()),
    })
}

impl Backend for RemoteShards {
    type Repair = RemovedOwners;

    fn dim(&self) -> usize {
        self.scoring().dim()
    }

    fn num_records(&self) -> u64 {
        self.records()
    }

    /// There is no planner choice here: with workers across a transport
    /// the only feasible plan is the distributed fan-out, so the span
    /// records the path directly.
    fn miss(
        &self,
        cx: &MissContext<'_>,
        q: &QueryVector,
        req: &TopKRequest,
    ) -> Result<GirOutput, GirError> {
        let _compute_span =
            tracing::span!("compute", method = cx.method.label(), path = "distributed");
        self.region(req.kind, q, req.k, cx.method)
    }

    /// Rejoin-then-broadcast ([`RemoteShards::apply`]). Once the batch
    /// is in the WAL the broadcast never aborts, so an error here means
    /// nothing was applied.
    fn apply(&mut self, updates: &[Update]) -> Applied<RemovedOwners> {
        match RemoteShards::apply(self, updates) {
            Ok(ClusterApply {
                report,
                batch,
                removed_owner,
            }) => Applied {
                batch,
                report,
                repair: removed_owner,
                error: None,
            },
            Err(e) => Applied {
                batch: Default::default(),
                report: Default::default(),
                repair: RemovedOwners::new(),
                error: Some(cluster_err_to_rtree(e)),
            },
        }
    }

    /// The shard-local repair algorithms of `gir_shard`, each sweep one
    /// RPC to the owning worker.
    fn repair(&self, removed_owner: &RemovedOwners, req: &RepairRequest<'_>) -> Option<GirRegion> {
        match req.kind {
            RegionKind::Gir => repair_region_sharded_with(self, req, removed_owner),
            RegionKind::GirStar => repair_region_star_sharded_with(self, req, removed_owner),
        }
    }

    /// Per-shard records at one verified epoch across every worker.
    fn cut(&self) -> Result<Vec<Vec<Record>>, RTreeError> {
        self.cut_all().map_err(cluster_err_to_rtree)
    }
}

/// A GIR serving engine whose shards are RPC workers: the one serve
/// loop over [`RemoteShards`], which it dereferences to for serving
/// (`run_batch`, `apply_updates`, `records_snapshot`, ...).
pub struct DistributedGirServer(Server<RemoteShards>);

impl std::ops::Deref for DistributedGirServer {
    type Target = Server<RemoteShards>;

    fn deref(&self) -> &Server<RemoteShards> {
        &self.0
    }
}

impl DistributedGirServer {
    /// Launches `data_shards` workers via `factory`, loads them with
    /// the partitioned records, and builds the serving layer on top.
    /// Batches run sequentially on the coordinator.
    pub fn launch(
        records: &[Record],
        scoring: ScoringFunction,
        cfg: DistributedServerConfig,
        factory: EndpointFactory,
    ) -> Result<Self, ClusterError> {
        let cluster = RemoteShards::launch(
            scoring.clone(),
            cfg.placement,
            cfg.data_shards,
            records,
            cfg.remote,
            factory,
        )?;
        let serve = ServerConfig {
            threads: 1,
            shards: cfg.cache_shards,
            shard_capacity: cfg.cache_capacity,
            method: cfg.method,
            ..ServerConfig::default()
        };
        Ok(DistributedGirServer(Server::new(cluster, scoring, serve)))
    }

    /// Shards whose worker is currently dead.
    pub fn dead_shards(&self) -> Vec<usize> {
        self.dataset().dead_shards()
    }

    /// Rejoins every dead worker from snapshot + WAL suffix; returns
    /// how many came back.
    pub fn rejoin_dead(&self) -> Result<usize, ClusterError> {
        self.dataset().rejoin_dead()
    }

    /// Snapshot rolls that failed since launch (each non-fatal: the WAL
    /// still replays from the previous snapshot).
    pub fn snapshot_failures(&self) -> u64 {
        self.dataset().snapshot_failures()
    }

    /// Shuts every worker down.
    pub fn shutdown(&self) {
        self.dataset().shutdown();
    }
}
