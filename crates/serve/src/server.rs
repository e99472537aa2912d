//! The serve loop: one [`Server`] over a dataset [`Backend`].
//!
//! Every server shape runs the same loop — cache probe, miss
//! computation, admission, and the update path that reconciles the
//! cache with each applied [`DeltaBatch`]:
//!
//! * [`GirServer`] — one R\*-tree plus its [`PruneIndex`]
//!   ([`TreeDataset`]);
//! * `gir_shard::ShardedGirServer` — a partitioned dataset;
//! * `gir_rpc::DistributedGirServer` — shard workers behind a transport.
//!
//! A backend supplies only what genuinely differs between them: the
//! miss computation, the apply step, the repair sweeps and the record
//! cut. The two in-process backends share one planned-miss dispatch
//! ([`local_miss`]).

use crate::sharded::{CacheStats, ShardedGirCache};
use crate::stats::ServeStats;
use gir_core::plan::{Decision, MissPath, PlanInputs, Planner, PlannerStats};
use gir_core::{
    repair_region, repair_region_star, CacheKey, DeltaBatch, GirEngine, GirError, GirOutput,
    GirRegion, Method, PruneIndex, PruneIndexStats, RegionKind, RepairRequest, ShardView,
};
use gir_geometry::vector::PointD;
use gir_query::{QueryVector, Record, ScoringFunction};
use gir_rtree::{RTree, RTreeError};
use std::sync::{PoisonError, RwLock, RwLockReadGuard};
use std::time::Instant;

/// How the cache is reconciled with dataset updates.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum MaintenanceMode {
    /// The original pipeline: every update is applied on its own and
    /// sweeps every cached entry (insertions shrink or evict; deletions
    /// evict result members and silently leave shrunk regions shrunk
    /// forever). Kept as the benchmark baseline.
    LegacySweep,
    /// The incremental engine: updates coalesce into a
    /// [`gir_core::DeltaBatch`], each entry is classified once per
    /// batch, and deleted facet contributors trigger an in-place facet
    /// repair ([`Backend::repair`]) instead of permanent region loss.
    #[default]
    DeltaRepair,
}

/// Serving-engine configuration, shared by every backend.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// How a batch's requests execute. `≤ 1` serves them sequentially
    /// on the calling thread, in request order, so cache-probe order
    /// and hit counts are deterministic. `> 1` fans them out over the
    /// shared work-stealing pool, which `GIR_POOL_THREADS` sizes (0
    /// keeps it off; unset means the available cores); any value above
    /// 1 behaves the same.
    pub threads: usize,
    /// Cache shards (rounded up to a power of two).
    pub shards: usize,
    /// LRU capacity per shard.
    pub shard_capacity: usize,
    /// Phase-2 method for misses. Non-linear scoring functions fall
    /// back to [`Method::SkylinePruning`] automatically (§7.2).
    pub method: Method,
    /// Update-pipeline strategy (delta repair unless benchmarking the
    /// legacy sweeps).
    pub maintenance: MaintenanceMode,
    /// Serve cold misses through the shared [`PruneIndex`] (dataset
    /// skyline + hull + decoded tree mirror + shared Phase-2 systems,
    /// all maintained incrementally) instead of recomputing the
    /// pruning structures per query. Off reproduces the PR 2 miss
    /// path (benchmark baseline). Only a dataset held in one tree has
    /// that path: a multi-shard dataset always runs the planned
    /// fan-out, and a remote one has no index on the coordinator.
    pub use_prune_index: bool,
    /// Durability tier (WAL + snapshots + crash recovery; see
    /// [`crate::durable`]). `None` — the default, and the perf-gate
    /// configuration — serves purely in memory; `Some` is consumed by
    /// [`crate::durable::DurableServer::create`] /
    /// [`crate::durable::DurableServer::recover`].
    pub durability: Option<crate::durable::DurabilityConfig>,
    /// Pins every planned miss to one [`MissPath`], overriding the
    /// adaptive planner — the config-level twin of the `GIR_FORCE_PATH`
    /// environment variable (this field wins when both are set; tests
    /// use it to avoid env races). With more than one data shard only
    /// [`MissPath::Sharded`] is feasible, so an infeasible force falls
    /// back to the sharded plan. Not consulted when
    /// [`ServerConfig::use_prune_index`] selects the pure-cold baseline,
    /// nor by a remote backend, whose only plan is the RPC fan-out.
    pub force_path: Option<MissPath>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            threads: std::thread::available_parallelism()
                .map(|c| c.get())
                .unwrap_or(4)
                .min(8),
            shards: 16,
            shard_capacity: 32,
            method: Method::FacetPruning,
            maintenance: MaintenanceMode::default(),
            use_prune_index: true,
            durability: None,
            force_path: None,
        }
    }
}

/// One top-k request: a weight vector, a result size, and the region
/// semantics the client wants served.
#[derive(Debug, Clone)]
pub struct TopKRequest {
    /// Query weights; clamped into `[0,1]` on construction.
    pub weights: PointD,
    /// Result size.
    pub k: usize,
    /// Requested semantics: [`RegionKind::Gir`] (the default) demands
    /// the exact ranked top-k; [`RegionKind::GirStar`] asks only for
    /// the top-k *set* (§7.1), which caches under the wider GIR\*
    /// region — the returned order is the cached one and may lag the
    /// live ranking.
    pub kind: RegionKind,
    /// Capture this request's span tree and attach an
    /// [`gir_obs::ExplainReport`] to the response — cache outcome,
    /// per-phase timings, LP calls, BRS work, per-shard contributions.
    /// Costs a thread-local capture for this request only; other
    /// requests in the batch stay on the zero-cost path.
    pub explain: bool,
}

impl TopKRequest {
    /// Builds a request with the default semantics (order-sensitive
    /// [`RegionKind::Gir`], no EXPLAIN), clamping weights into the
    /// query box (a serving layer must not panic on slightly
    /// out-of-range client input). Chain [`TopKRequest::kind`] /
    /// [`TopKRequest::explain`] to refine:
    ///
    /// ```ignore
    /// TopKRequest::new(vec![0.5, 0.5], 8).kind(RegionKind::GirStar).explain()
    /// ```
    pub fn new(weights: impl Into<PointD>, k: usize) -> Self {
        let mut weights = weights.into();
        for w in weights.coords_mut() {
            *w = w.clamp(0.0, 1.0);
        }
        TopKRequest {
            weights,
            k: k.max(1),
            kind: RegionKind::Gir,
            explain: false,
        }
    }

    /// Selects the region semantics served. [`RegionKind::GirStar`]
    /// demands only the top-`k` *composition* (§7.1), so the request
    /// hits the wider GIR\* regions.
    pub fn kind(mut self, kind: RegionKind) -> Self {
        self.kind = kind;
        self
    }

    /// Asks for a per-query EXPLAIN report on the response.
    pub fn explain(mut self) -> Self {
        self.explain = true;
        self
    }
}

/// One served response.
#[derive(Debug, Clone)]
pub struct TopKResponse {
    /// Ranked record ids, best first. Shorter than `k` when the
    /// dataset holds fewer than `k` records; empty when it is empty.
    pub ids: Vec<u64>,
    /// True when answered from the GIR cache without touching the
    /// index.
    pub from_cache: bool,
    /// Per-request wall clock, microseconds.
    pub latency_us: u64,
    /// True when the computation failed (e.g. a storage error surfaced
    /// mid-miss): `ids` is empty and nothing was admitted to the cache.
    /// One failed request never poisons its batch — the serving layer
    /// keeps answering, and once the fault clears the next miss
    /// recomputes (the prune index invalidates itself on error, so no
    /// stale state survives the failure window).
    pub failed: bool,
    /// Logical pages (R\*-tree node accesses — the paper's Figure 15/18
    /// cost metric) this request fetched: BRS top-k plus Phase 2. Zero
    /// on cache hits, which never touch the tree.
    pub pages: u64,
    /// Human-readable failure reason, present iff `failed` — e.g.
    /// `"shard 2 unavailable: rpc timeout after 2 attempts"` from the
    /// distributed tier, or the storage error of a local miss.
    pub error: Option<String>,
    /// The captured span breakdown, present iff the request set
    /// [`TopKRequest::explain`].
    pub explain: Option<gir_obs::ExplainReport>,
}

/// A batch's responses (in request order) plus its statistics.
#[derive(Debug, Clone)]
pub struct BatchResult {
    /// One response per request, same order.
    pub responses: Vec<TopKResponse>,
    /// Batch-level measurements.
    pub stats: ServeStats,
}

/// A dataset mutation.
#[derive(Debug, Clone)]
pub enum Update {
    /// Insert a record.
    Insert(Record),
    /// Delete a record by id and location.
    Delete {
        /// Record id.
        id: u64,
        /// The record's attribute point (R\*-tree deletes by location).
        attrs: PointD,
    },
}

/// Outcome of an update batch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UpdateReport {
    /// Records inserted into the tree.
    pub inserted: usize,
    /// Records deleted from the tree.
    pub deleted: usize,
    /// Deletes whose id/location was not found (no-ops).
    pub missed_deletes: usize,
    /// Cache entries dropped as stale.
    pub evicted: usize,
    /// Cache entries whose facets were rebuilt in place (delta repair
    /// only).
    pub repaired: usize,
    /// Cache entries shrunk in place by newcomers' half-spaces.
    pub shrunk: usize,
    /// Cache entries the batch did not touch at all (delta repair
    /// only; the legacy sweeps re-test entries per update).
    pub untouched: usize,
}

/// What a backend's miss computation may consult besides the request:
/// the server's scoring function, effective Phase-2 method, planner and
/// prune-index switch.
pub struct MissContext<'a> {
    /// The scoring function requests are evaluated under.
    pub scoring: &'a ScoringFunction,
    /// The effective Phase-2 method ([`Server::method`]).
    pub method: Method,
    /// The server's miss-path planner.
    pub planner: &'a Planner,
    /// [`ServerConfig::use_prune_index`].
    pub use_prune_index: bool,
}

/// What one [`Backend::apply`] call did to the dataset.
pub struct Applied<R> {
    /// Every update that reached the dataset, coalesced — including
    /// those applied before a failure.
    pub batch: DeltaBatch,
    /// `inserted` / `deleted` / `missed_deletes`; the cache fields are
    /// filled by the server's reconciliation.
    pub report: UpdateReport,
    /// What the repair sweeps need to know about this batch (e.g. the
    /// owner shards of deleted records).
    pub repair: R,
    /// The failure that stopped the batch, if any. The server surfaces
    /// it only after reconciling the cache with `batch`.
    pub error: Option<RTreeError>,
}

/// The dataset a [`Server`] runs its loop over. The server keeps it
/// behind an `RwLock`: a query batch holds the read lock throughout,
/// an update holds the write lock through [`Backend::apply`] *and* the
/// cache reconciliation, so reads always see a batch boundary.
///
/// Implementations supply only what differs between dataset shapes;
/// the cache, the serve path and the update-to-cache contract are the
/// server's.
pub trait Backend: Send + Sync {
    /// Per-batch context handed from [`Backend::apply`] to
    /// [`Backend::repair`].
    type Repair: Sync;

    /// Attribute dimensionality.
    fn dim(&self) -> usize;

    /// Live records (the batch executor's work measure).
    fn num_records(&self) -> u64;

    /// Computes one cache miss: the top-k and its region.
    fn miss(
        &self,
        cx: &MissContext<'_>,
        q: &QueryVector,
        req: &TopKRequest,
    ) -> Result<GirOutput, GirError>;

    /// Applies one update batch. A failure stops the batch, but every
    /// update applied before it must be in the returned `batch`.
    fn apply(&mut self, updates: &[Update]) -> Applied<Self::Repair>;

    /// Rebuilds the facets of one cached entry whose contributors the
    /// batch deleted (linear scoring only). `None` declines: the entry
    /// keeps a sound but non-maximal region.
    fn repair(&self, cx: &Self::Repair, req: &RepairRequest<'_>) -> Option<GirRegion>;

    /// Per-shard records at the current batch boundary (one list for a
    /// single tree) — what a durable snapshot persists.
    fn cut(&self) -> Result<Vec<Vec<Record>>, RTreeError>;
}

/// Runs `f` — one request's full serve path — under the root `serve`
/// span, and when the request asked for EXPLAIN, inside a thread-local
/// capture whose finished span tree is distilled into the response's
/// [`gir_obs::ExplainReport`].
fn serve_traced(req: &TopKRequest, f: impl FnOnce() -> TopKResponse) -> TopKResponse {
    let capture = req.explain.then(tracing::Capture::begin);
    let serve_span = tracing::span!("serve", kind = req.kind.label(), k = req.k);
    let mut resp = f();
    drop(serve_span);
    if let Some(cap) = capture {
        let outcome = if resp.failed {
            "failed"
        } else if resp.from_cache {
            "hit"
        } else {
            "miss"
        };
        resp.explain = Some(gir_obs::ExplainReport::from_tree(
            &cap.finish(),
            outcome,
            resp.latency_us,
        ));
    }
    resp
}

/// Maps a miss computation's outcome to a response, handing successful
/// outputs to `admit` (cache insertion) first:
///
/// * an empty dataset serves an empty result (not a failure),
/// * a storage fault or an unavailable shard marks this response
///   `failed` without poisoning the batch — nothing was admitted, and a
///   failed prune-index build/maintenance step invalidated itself, so
///   later requests recompute from scratch once the store heals
///   (`tests/failure_injection.rs`),
/// * anything else (a configuration error like unsupported scoring)
///   panics: retries cannot fix it.
fn compute_response(
    computed: Result<GirOutput, GirError>,
    started: Instant,
    admit: impl FnOnce(GirOutput),
) -> TopKResponse {
    let (ids, pages, error) = match computed {
        Ok(out) => {
            let ids = out.result.ids();
            let pages = out.stats.topk_pages + out.stats.gir_pages;
            admit(out);
            (ids, pages, None)
        }
        Err(GirError::EmptyResult) => (Vec::new(), 0, None),
        Err(e @ GirError::Tree(_)) | Err(e @ GirError::ShardUnavailable { .. }) => {
            (Vec::new(), 0, Some(e.to_string()))
        }
        Err(e) => panic!("GIR computation failed in serve path: {e}"),
    };
    TopKResponse {
        ids,
        from_cache: false,
        latency_us: started.elapsed().as_micros() as u64,
        failed: error.is_some(),
        pages,
        error,
        explain: None,
    }
}

/// Annotates an open EXPLAIN `planner` span with one decision: the
/// chosen path plus every alternative's estimate in microseconds
/// (infeasible paths omitted).
fn record_planner_phase(span: &mut tracing::Span, decision: &Decision) {
    span.record("path", decision.path.label());
    span.record("forced", decision.forced);
    span.record("probe", decision.probe);
    span.record("predicted_us", decision.predicted_ns / 1e3);
    for p in MissPath::ALL {
        let est = decision.estimate(p);
        if est.is_finite() {
            let key = match p {
                MissPath::Cold => "cold_us",
                MissPath::IndexedRecompute => "indexed_recompute_us",
                MissPath::IndexedReuse => "indexed_reuse_us",
                MissPath::Sharded => "sharded_us",
            };
            span.record(key, est / 1e3);
        }
    }
}

/// The miss computation of the in-process backends, over the dataset's
/// shard views (a single tree is one view over the whole dataset of
/// `n` records).
///
/// With [`ServerConfig::use_prune_index`] off and one view this is the
/// pure-cold baseline: no shared state, no planner. Otherwise the
/// [`Planner`] picks the path per query from its measured cost model —
/// cold, indexed (recompute or reuse) or the sharded fan-out; the
/// single-tree paths are feasible only with one view. The decision is
/// recorded (EXPLAIN `planner` phase, `planner.*` counters),
/// dispatched, and the measured latency is fed back into the model.
pub fn local_miss(
    views: &[ShardView<'_>],
    n: usize,
    cx: &MissContext<'_>,
    q: &QueryVector,
    req: &TopKRequest,
) -> Result<GirOutput, GirError> {
    let (scoring, method) = (cx.scoring, cx.method);
    if !cx.use_prune_index && views.len() == 1 {
        let _compute_span = tracing::span!("compute", method = method.label());
        let engine = GirEngine::with_scoring(views[0].tree, scoring.clone());
        return match req.kind {
            RegionKind::Gir => engine.gir(q, req.k, method),
            // The order-insensitive region: its wider polytope is the
            // whole point of the request (one entry absorbs every query
            // that permutes the same composition).
            RegionKind::GirStar => engine.gir_star(q, req.k, method),
        };
    }
    // The span opens before input gathering so the planning work
    // itself is accounted to the `planner` phase, not lost between
    // phases (the EXPLAIN report asserts phases cover the latency).
    let mut planner_span = tracing::span!("planner");
    let inputs = PlanInputs {
        n,
        d: scoring.dim(),
        method,
        kind: req.kind,
        skyline: views.iter().map(|v| v.index.stats().skyline_size).sum(),
        index_built: views.iter().any(|v| v.index.is_built()),
        shards: views.len(),
    };
    let decision = cx.planner.plan(&inputs);
    record_planner_phase(&mut planner_span, &decision);
    drop(planner_span);
    if decision.forced && decision.path == MissPath::IndexedRecompute {
        // A *forced* recompute must measure the cold-Phase-2 cost in
        // isolation (the same technique the cold_gir bench uses), so
        // the shared systems are dropped before dispatch. The adaptive
        // planner never clears: an `IndexedRecompute` prediction just
        // means it expects the lookup to miss.
        for v in views {
            v.index.clear_phase2();
        }
    }
    // Whether the dispatch actually reused a Phase-2 system is read off
    // the indexes' hit counters around the call. Concurrent requests
    // can interleave their deltas — acceptable noise for calibration,
    // and exact under `threads: 1`.
    let phase2_hits = || -> u64 { views.iter().map(|v| v.index.phase2_hits()).sum() };
    let watch_reuse = decision.path != MissPath::Cold && method != Method::FullScan;
    let h0 = watch_reuse.then(phase2_hits);
    let compute_span = tracing::span!(
        "compute",
        method = method.label(),
        path = decision.path.label()
    );
    let t0 = Instant::now();
    let computed = match (decision.path, req.kind) {
        (MissPath::Sharded, RegionKind::Gir) => {
            GirEngine::gir_sharded(views, scoring, q, req.k, method)
        }
        (MissPath::Sharded, RegionKind::GirStar) => {
            GirEngine::gir_star_sharded(views, scoring, q, req.k, method)
        }
        // Single-tree paths: the planner marks them infeasible unless
        // one view holds the whole dataset.
        (path, kind) => {
            let engine = GirEngine::with_scoring(views[0].tree, scoring.clone());
            match (path, kind) {
                (MissPath::Cold, RegionKind::Gir) => engine.gir(q, req.k, method),
                (MissPath::Cold, RegionKind::GirStar) => engine.gir_star(q, req.k, method),
                (_, RegionKind::Gir) => engine.gir_indexed(q, req.k, method, views[0].index),
                (_, RegionKind::GirStar) => {
                    engine.gir_star_indexed(q, req.k, method, views[0].index)
                }
            }
        }
    };
    let actual_ns = t0.elapsed().as_nanos() as u64;
    drop(compute_span);
    // Feeding the measured latency back is real per-miss work (model
    // update + counter publishes); it gets its own phase so EXPLAIN
    // shows the calibrator's cost explicitly.
    let calibrate_span = tracing::span!("calibrate", actual_us = actual_ns as f64 / 1e3);
    let reused = h0.map(|h| phase2_hits() > h);
    let outcome = cx.planner.observe(&decision, actual_ns, reused);
    if tracing::enabled() {
        crate::stats::publish_planner_decision(&decision, actual_ns, outcome);
    }
    drop(calibrate_span);
    computed
}

/// One R\*-tree plus its [`PruneIndex`]: the dataset of [`GirServer`].
pub struct TreeDataset {
    tree: RTree,
    prune: PruneIndex,
}

impl From<RTree> for TreeDataset {
    fn from(tree: RTree) -> Self {
        TreeDataset {
            tree,
            prune: PruneIndex::new(),
        }
    }
}

impl TreeDataset {
    /// Prune-index counters (builds, serves, incremental updates,
    /// shared Phase-2 reuse).
    pub fn prune_stats(&self) -> PruneIndexStats {
        self.prune.stats()
    }
}

impl Backend for TreeDataset {
    type Repair = ();

    fn dim(&self) -> usize {
        self.tree.dim()
    }

    fn num_records(&self) -> u64 {
        self.tree.len()
    }

    fn miss(
        &self,
        cx: &MissContext<'_>,
        q: &QueryVector,
        req: &TopKRequest,
    ) -> Result<GirOutput, GirError> {
        let view = ShardView {
            tree: &self.tree,
            index: &self.prune,
        };
        local_miss(&[view], self.tree.len() as usize, cx, q, req)
    }

    fn apply(&mut self, updates: &[Update]) -> Applied<()> {
        let mut batch = DeltaBatch::new();
        let mut report = UpdateReport::default();
        let mut error = None;
        for u in updates {
            match u {
                Update::Insert(rec) => match self.tree.insert(rec.clone()) {
                    Ok(()) => {
                        self.prune.on_insert(rec);
                        report.inserted += 1;
                        batch.record_insert(rec);
                    }
                    Err(e) => error = Some(e),
                },
                Update::Delete { id, attrs } => match self.tree.delete(*id, attrs) {
                    Ok(true) => {
                        // Record the applied delete *before* surfacing a
                        // prune-index failure: the tree took it (the
                        // index invalidated itself).
                        report.deleted += 1;
                        batch.record_delete_at(*id, attrs);
                        error = self.prune.on_delete(&self.tree, *id, attrs).err();
                    }
                    Ok(false) => report.missed_deletes += 1,
                    Err(e) => error = Some(e),
                },
            }
            if error.is_some() {
                break;
            }
        }
        Applied {
            batch,
            report,
            repair: (),
            error,
        }
    }

    fn repair(&self, _: &(), req: &RepairRequest<'_>) -> Option<GirRegion> {
        let repaired = match req.kind {
            RegionKind::Gir => repair_region(
                &self.tree,
                req.scoring,
                req.result,
                req.region,
                req.removed,
                req.shrinks,
            ),
            RegionKind::GirStar => repair_region_star(
                &self.tree,
                req.scoring,
                req.result,
                req.region,
                req.removed,
                req.shrinks,
            ),
        };
        repaired.ok()
    }

    fn cut(&self) -> Result<Vec<Vec<Record>>, RTreeError> {
        Ok(vec![self.tree.scan_all()?])
    }
}

/// A concurrent GIR serving engine over one dataset backend: the one
/// serve loop every server shape runs.
///
/// Queries run under a shared read lock on the backend; updates take
/// the write lock and reconcile the cache before releasing it, so a
/// lookup never observes an entry that has not been reconciled with
/// every applied update (maintenance keeps shrunk regions sound — see
/// `gir_core::maintenance`).
pub struct Server<B> {
    data: RwLock<B>,
    cache: ShardedGirCache,
    planner: Planner,
    scoring: ScoringFunction,
    cfg: ServerConfig,
}

/// The server over one R\*-tree.
pub type GirServer = Server<TreeDataset>;

impl GirServer {
    /// Prune-index counters (builds, serves, incremental updates,
    /// shared Phase-2 reuse).
    pub fn prune_stats(&self) -> PruneIndexStats {
        self.dataset().prune_stats()
    }
}

impl<B: Backend> Server<B> {
    /// Builds a server around a dataset: an [`RTree`] for a
    /// [`GirServer`], a `gir_shard::ShardedDataset` for a sharded one.
    pub fn new(dataset: impl Into<B>, scoring: ScoringFunction, cfg: ServerConfig) -> Self {
        let data = dataset.into();
        assert_eq!(scoring.dim(), data.dim(), "scoring dimensionality mismatch");
        let planner = match cfg.force_path {
            Some(p) => Planner::with_forced(Some(p)),
            None => Planner::new(),
        };
        Server {
            data: RwLock::new(data),
            cache: ShardedGirCache::new(cfg.shards, cfg.shard_capacity),
            planner,
            scoring,
            cfg,
        }
    }

    /// The scoring function requests are evaluated under.
    pub fn scoring(&self) -> &ScoringFunction {
        &self.scoring
    }

    /// The effective Phase-2 method (configured method, or SP when the
    /// scoring function is non-linear — §7.2).
    pub fn method(&self) -> Method {
        if self.cfg.method.supports(&self.scoring) {
            self.cfg.method
        } else {
            Method::SkylinePruning
        }
    }

    /// Aggregated cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Consistent cut of the cache's per-shard maintenance counters
    /// (see [`ShardedGirCache::maintenance_snapshot`]): safe to call
    /// concurrently with [`Server::apply_updates`], never observes a
    /// shard mid-batch.
    pub fn maintenance_snapshot(&self) -> gir_obs::ScopesSnapshot {
        self.cache.maintenance_snapshot()
    }

    /// Planner decision counters (per-path tallies, probes, forced
    /// dispatches, calibrator drift/refit activity).
    pub fn planner_stats(&self) -> PlannerStats {
        self.planner.stats()
    }

    /// The planner's forced-path override, if any (config field or
    /// `GIR_FORCE_PATH`).
    pub fn forced_path(&self) -> Option<MissPath> {
        self.planner.forced()
    }

    /// Read access to the dataset (holds the read lock: updates wait
    /// until the guard drops).
    pub fn dataset(&self) -> RwLockReadGuard<'_, B> {
        self.data.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Number of live records.
    pub fn num_records(&self) -> u64 {
        self.dataset().num_records()
    }

    /// Every live record, shard-major (for verification / debugging).
    pub fn records_snapshot(&self) -> Result<Vec<Record>, RTreeError> {
        Ok(self.consistent_cut()?.into_iter().flatten().collect())
    }

    /// Per-shard records at a batch boundary — the state a durable
    /// snapshot persists. The cut holds the dataset read lock, and
    /// updates hold the write lock through apply and cache
    /// reconciliation, so no batch is ever half-applied in it. For a
    /// remote backend every worker answers at the coordinator's epoch:
    /// equal epochs across shards that only change state at batch
    /// boundaries make the cut a consistent global state.
    pub fn consistent_cut(&self) -> Result<Vec<Vec<Record>>, RTreeError> {
        let data = self.dataset();
        debug_assert!(
            self.cache
                .maintenance_snapshot()
                .shards
                .iter()
                .all(|s| s.epoch % 2 == 0),
            "consistent cut observed a cache shard mid-batch"
        );
        data.cut()
    }

    /// Executes a batch of requests: cache-probe first, compute-and-admit
    /// on miss. Responses preserve request order. See
    /// [`ServerConfig::threads`] for how the requests are scheduled;
    /// EXPLAIN captures survive the pool's thread hops because
    /// `fan_out` grafts per-job span trees back in item order.
    pub fn run_batch(&self, requests: &[TopKRequest]) -> BatchResult {
        let batch_start = Instant::now();
        let method = self.method();
        // Hold the read lock for the whole batch: updates apply between
        // batches, never inside one.
        let guard = self.dataset();
        let data: &B = &guard;
        let threads = self.cfg.threads.clamp(1, requests.len().max(1));
        let responses: Vec<TopKResponse> = if threads <= 1 {
            requests
                .iter()
                .map(|req| self.serve_one(data, req, method))
                .collect()
        } else {
            // A request's cost scales with the dataset it reads, so the
            // work measure `GIR_POOL_MIN_ITEMS` gates is requests × live
            // records.
            let work = requests
                .len()
                .saturating_mul(data.num_records().max(1) as usize);
            gir_core::pool::fan_out(requests.iter().collect(), work, |_, req| {
                self.serve_one(data, req, method)
            })
        };
        drop(guard);

        let labeled: Vec<(u64, bool)> = responses
            .iter()
            .map(|r| (r.latency_us, r.from_cache))
            .collect();
        if tracing::enabled() {
            crate::stats::publish_to_registry(&labeled);
        }
        let wall_ms = batch_start.elapsed().as_secs_f64() * 1e3;
        let stats = ServeStats::from_labeled_latencies(labeled, threads, method.label(), wall_ms);
        BatchResult { responses, stats }
    }

    /// One request: cache probe → miss computation → admit.
    fn serve_one(&self, data: &B, req: &TopKRequest, method: Method) -> TopKResponse {
        serve_traced(req, || {
            let t0 = Instant::now();
            let key = CacheKey::new(&req.weights, req.k, &self.scoring).kind(req.kind);
            let lookup_span = tracing::span!("cache_lookup");
            let found = self.cache.get(&key);
            drop(lookup_span);
            if let Some(records) = found {
                return TopKResponse {
                    ids: records.iter().map(|r| r.id).collect(),
                    from_cache: true,
                    latency_us: t0.elapsed().as_micros() as u64,
                    failed: false,
                    pages: 0,
                    error: None,
                    explain: None,
                };
            }
            let q = QueryVector::new(req.weights.coords().to_vec());
            let cx = MissContext {
                scoring: &self.scoring,
                method,
                planner: &self.planner,
                use_prune_index: self.cfg.use_prune_index,
            };
            compute_response(data.miss(&cx, &q, req), t0, |out| {
                let _admit_span = tracing::span!("admit");
                self.cache.admit(&key, out.region, out.result);
            })
        })
    }

    /// Applies a batch of updates under the dataset's write lock and
    /// reconciles the cache before the lock is released — queries never
    /// observe a dataset the cache has not been reconciled with.
    ///
    /// Under [`MaintenanceMode::DeltaRepair`] the updates coalesce into
    /// one [`DeltaBatch`]: every cached entry is classified once for
    /// the whole burst, untouched entries survive, and only genuinely
    /// invalidated entries are evicted — deleted facet contributors are
    /// repaired in place ([`Backend::repair`]) instead.
    /// [`MaintenanceMode::LegacySweep`] applies and sweeps one update at
    /// a time (benchmark baseline).
    ///
    /// An error is returned only after the cache has been reconciled
    /// with everything the backend did apply, so a failed batch never
    /// leaves a stale entry behind.
    pub fn apply_updates(&self, updates: &[Update]) -> Result<UpdateReport, RTreeError> {
        let mut data = self.data.write().unwrap_or_else(PoisonError::into_inner);
        if self.cfg.maintenance == MaintenanceMode::DeltaRepair {
            let applied = data.apply(updates);
            return self.reconcile(&data, applied);
        }
        let mut total = UpdateReport::default();
        for u in updates {
            let applied = data.apply(std::slice::from_ref(u));
            let r = self.reconcile(&data, applied)?;
            total.inserted += r.inserted;
            total.deleted += r.deleted;
            total.missed_deletes += r.missed_deletes;
            total.evicted += r.evicted;
        }
        Ok(total)
    }

    /// Reconciles the cache with one applied batch, then surfaces the
    /// backend's error, if any.
    fn reconcile(&self, data: &B, applied: Applied<B::Repair>) -> Result<UpdateReport, RTreeError> {
        let Applied {
            batch,
            mut report,
            repair,
            error,
        } = applied;
        match self.cfg.maintenance {
            MaintenanceMode::DeltaRepair => {
                let outcome = self.cache.apply_batch(&batch, |req| {
                    // FP repair needs linear scoring (§7.2); declining
                    // keeps the entry sound but non-maximal.
                    if req.scoring.is_linear() {
                        data.repair(&repair, req)
                    } else {
                        None
                    }
                });
                report.evicted = outcome.evicted;
                report.repaired = outcome.repaired;
                report.shrunk = outcome.shrunk;
                report.untouched = outcome.untouched;
            }
            MaintenanceMode::LegacySweep => {
                for rec in batch.inserts() {
                    report.evicted += self.cache.on_insert(rec);
                }
                for &id in batch.deleted_ids() {
                    report.evicted += self.cache.on_delete(id);
                }
            }
        }
        match error {
            Some(e) => Err(e),
            None => Ok(report),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gir_datagen::{synthetic, Distribution};
    use gir_query::naive_topk;
    use gir_storage::{MemPageStore, PageStore, PAGE_SIZE};
    use std::sync::Arc;

    fn server(n: usize, d: usize, seed: u64, cfg: ServerConfig) -> (Vec<Record>, GirServer) {
        let data = synthetic(Distribution::Independent, n, d, seed);
        let store: Arc<dyn PageStore> = Arc::new(MemPageStore::new(PAGE_SIZE));
        let tree = RTree::bulk_load(store, &data).unwrap();
        (
            data.clone(),
            GirServer::new(tree, ScoringFunction::linear(d), cfg),
        )
    }

    fn jittered_requests(count: usize, k: usize) -> Vec<TopKRequest> {
        (0..count)
            .map(|i| {
                let j = 0.0005 * (i % 11) as f64;
                TopKRequest::new(vec![0.55 + j, 0.6 - j, 0.45 + j / 2.0], k)
            })
            .collect()
    }

    #[test]
    fn batch_matches_naive_and_hits_cache() {
        let cfg = ServerConfig {
            threads: 4,
            ..ServerConfig::default()
        };
        let (data, server) = server(1500, 3, 0x5E21, cfg);
        let reqs = jittered_requests(120, 8);
        let batch = server.run_batch(&reqs);
        assert_eq!(batch.responses.len(), reqs.len());
        assert!(
            batch.stats.hits > 0,
            "jittered repeats should hit cached GIRs"
        );
        assert_eq!(batch.stats.hits + batch.stats.misses, reqs.len());
        for (req, resp) in reqs.iter().zip(&batch.responses) {
            let truth = naive_topk(&data, server.scoring(), &req.weights, req.k);
            assert_eq!(resp.ids, truth.ids(), "wrong answer at {:?}", req.weights);
        }
    }

    #[test]
    fn requests_are_clamped_not_panicking() {
        let (_, server) = server(300, 2, 0x5E22, ServerConfig::default());
        let reqs = vec![TopKRequest::new(vec![1.7, -0.3], 0)];
        let batch = server.run_batch(&reqs);
        assert_eq!(batch.responses[0].ids.len(), 1); // k clamped to 1
    }

    #[test]
    fn updates_sweep_cache_and_stay_fresh() {
        let cfg = ServerConfig {
            threads: 2,
            ..ServerConfig::default()
        };
        let (mut data, server) = server(1200, 3, 0x5E23, cfg);
        // Warm the cache.
        let reqs = jittered_requests(40, 6);
        let _ = server.run_batch(&reqs);
        assert!(server.cache_stats().entries > 0);

        // Insert a dominating record: it enters every top-k, so every
        // cached entry must shrink or drop, and the next batch must
        // include it at rank 1.
        let champion = Record::new(9_999_999, vec![0.99, 0.99, 0.99]);
        data.push(champion.clone());
        let report = server
            .apply_updates(&[Update::Insert(champion.clone())])
            .unwrap();
        assert_eq!(report.inserted, 1);

        let batch = server.run_batch(&reqs);
        for (req, resp) in reqs.iter().zip(&batch.responses) {
            let truth = naive_topk(&data, server.scoring(), &req.weights, req.k);
            assert_eq!(resp.ids, truth.ids(), "stale response after insert");
            assert_eq!(resp.ids[0], champion.id);
        }

        // Delete it again: cached entries containing it must drop.
        let report = server
            .apply_updates(&[Update::Delete {
                id: champion.id,
                attrs: champion.attrs.clone(),
            }])
            .unwrap();
        data.pop();
        assert_eq!(report.deleted, 1);
        assert!(
            report.evicted > 0,
            "entries containing the champion must evict"
        );
        let batch = server.run_batch(&reqs);
        for (req, resp) in reqs.iter().zip(&batch.responses) {
            let truth = naive_topk(&data, server.scoring(), &req.weights, req.k);
            assert_eq!(resp.ids, truth.ids(), "stale response after delete");
        }
    }

    #[test]
    fn missed_delete_is_reported_not_fatal() {
        let (_, server) = server(200, 2, 0x5E24, ServerConfig::default());
        let report = server
            .apply_updates(&[Update::Delete {
                id: 777_777,
                attrs: PointD::new(vec![0.5, 0.5]),
            }])
            .unwrap();
        assert_eq!(
            report,
            UpdateReport {
                missed_deletes: 1,
                ..Default::default()
            }
        );
    }

    #[test]
    fn delta_repair_sustains_higher_hit_rate_than_legacy_sweep() {
        use crate::workload::{mixed_workload, WorkloadConfig};

        // Churny write-mixed traffic: competitive inserts shrink cached
        // regions, recency-biased deletes then remove those records
        // again. The legacy sweep keeps the shrink half-spaces forever;
        // delta repair rebuilds the lost facets, so its regions (and hit
        // counts) must stay strictly ahead — with zero stale hits in
        // either mode.
        let wl = WorkloadConfig {
            dim: 3,
            anchors: 6,
            jitter: 0.012,
            batches: 12,
            queries_per_batch: 60,
            updates_per_batch: 10,
            insert_fraction: 0.5,
            insert_hot_fraction: 0.7,
            delete_hot_fraction: 0.8,
            k_choices: vec![5],
            seed: 0x00C0_FFEE,
        };
        let data = synthetic(Distribution::Independent, 2_000, 3, 0x5E26);
        let traffic = mixed_workload(&wl, &data);

        let mut hit_counts = Vec::new();
        for maintenance in [MaintenanceMode::LegacySweep, MaintenanceMode::DeltaRepair] {
            let store: Arc<dyn PageStore> = Arc::new(MemPageStore::new(PAGE_SIZE));
            let tree = RTree::bulk_load(store, &data).unwrap();
            let server = GirServer::new(
                tree,
                ScoringFunction::linear(3),
                ServerConfig {
                    threads: 1,
                    maintenance,
                    ..ServerConfig::default()
                },
            );
            let mut mirror = data.clone();
            let mut hits = 0usize;
            let mut repaired = 0usize;
            for batch in &traffic {
                let report = server.apply_updates(&batch.updates).unwrap();
                repaired += report.repaired;
                for u in &batch.updates {
                    match u {
                        Update::Insert(rec) => mirror.push(rec.clone()),
                        Update::Delete { id, .. } => mirror.retain(|r| r.id != *id),
                    }
                }
                let out = server.run_batch(&batch.queries);
                for (req, resp) in batch.queries.iter().zip(&out.responses) {
                    if resp.from_cache {
                        hits += 1;
                        let truth = naive_topk(&mirror, server.scoring(), &req.weights, req.k);
                        assert_eq!(
                            resp.ids,
                            truth.ids(),
                            "{maintenance:?}: stale cache hit at {:?}",
                            req.weights
                        );
                    }
                }
            }
            if maintenance == MaintenanceMode::DeltaRepair {
                assert!(repaired > 0, "churn must exercise the repair path");
            } else {
                assert_eq!(repaired, 0, "legacy sweep never repairs");
            }
            hit_counts.push(hits);
        }
        assert!(
            hit_counts[1] > hit_counts[0],
            "delta repair ({}) must beat the legacy sweep ({}) on hits",
            hit_counts[1],
            hit_counts[0]
        );
    }

    #[test]
    fn star_requests_serve_fresh_compositions_under_churn() {
        // Order-insensitive traffic through both maintenance modes:
        // every cache-served answer must be the true top-k *set* on the
        // current dataset (order is advisory), with star entries
        // repaired — not dropped — when churn deletes their facet
        // contributors.
        let sorted = |ids: &[u64]| {
            let mut v = ids.to_vec();
            v.sort_unstable();
            v
        };
        for maintenance in [MaintenanceMode::LegacySweep, MaintenanceMode::DeltaRepair] {
            let cfg = ServerConfig {
                threads: 2,
                maintenance,
                ..ServerConfig::default()
            };
            let (mut data, server) = server(1200, 3, 0x5E27, cfg);
            let reqs: Vec<TopKRequest> = (0..60)
                .map(|i| {
                    let j = 0.0005 * (i % 11) as f64;
                    TopKRequest::new(vec![0.55 + j, 0.6 - j, 0.45 + j / 2.0], 6)
                        .kind(RegionKind::GirStar)
                })
                .collect();
            let batch = server.run_batch(&reqs);
            assert!(
                batch.stats.hits > 0,
                "{maintenance:?}: jittered star repeats should hit"
            );
            for (req, resp) in reqs.iter().zip(&batch.responses) {
                let truth = naive_topk(&data, server.scoring(), &req.weights, req.k);
                assert_eq!(sorted(&resp.ids), sorted(&truth.ids()), "{maintenance:?}");
            }

            // Churn: a hot insert plus a delete of one cached-entry
            // contributor-ish record, then re-verify every answer.
            let hot = Record::new(7_777_777, vec![0.68, 0.66, 0.64]);
            data.push(hot.clone());
            let victim = data[100].clone();
            data.retain(|r| r.id != victim.id);
            server
                .apply_updates(&[
                    Update::Insert(hot),
                    Update::Delete {
                        id: victim.id,
                        attrs: victim.attrs.clone(),
                    },
                ])
                .unwrap();
            let batch = server.run_batch(&reqs);
            for (req, resp) in reqs.iter().zip(&batch.responses) {
                let truth = naive_topk(&data, server.scoring(), &req.weights, req.k);
                assert_eq!(
                    sorted(&resp.ids),
                    sorted(&truth.ids()),
                    "{maintenance:?}: stale star answer after churn (from_cache={})",
                    resp.from_cache
                );
            }
        }
    }

    #[test]
    fn star_cache_hits_at_least_as_often_as_ordered_requests() {
        // GIR ⊆ GIR*: with the same traffic, the order-insensitive
        // request stream can only hit more (a star lookup also matches
        // order-sensitive entries).
        let mk = |star: bool| {
            let cfg = ServerConfig {
                threads: 1,
                ..ServerConfig::default()
            };
            let (_, server) = server(1500, 3, 0x5E28, cfg);
            let reqs: Vec<TopKRequest> = (0..160)
                .map(|i| {
                    let j = 0.002 * (i % 13) as f64;
                    let w = vec![0.5 + j, 0.62 - j, 0.47 + j / 3.0];
                    if star {
                        TopKRequest::new(w, 7).kind(RegionKind::GirStar)
                    } else {
                        TopKRequest::new(w, 7)
                    }
                })
                .collect();
            server.run_batch(&reqs).stats.hits
        };
        let ordered_hits = mk(false);
        let star_hits = mk(true);
        assert!(
            star_hits >= ordered_hits,
            "star hits {star_hits} < ordered hits {ordered_hits}"
        );
    }

    #[test]
    fn nonlinear_scoring_falls_back_to_sp() {
        let data = synthetic(Distribution::Independent, 400, 4, 0x5E25);
        let store: Arc<dyn PageStore> = Arc::new(MemPageStore::new(PAGE_SIZE));
        let tree = RTree::bulk_load(store, &data).unwrap();
        let server = GirServer::new(
            tree,
            ScoringFunction::mixed4(),
            ServerConfig {
                method: Method::FacetPruning,
                threads: 2,
                ..ServerConfig::default()
            },
        );
        assert_eq!(server.method(), Method::SkylinePruning);
        let reqs = vec![TopKRequest::new(vec![0.5, 0.5, 0.5, 0.5], 5)];
        let batch = server.run_batch(&reqs);
        let truth = naive_topk(&data, server.scoring(), &reqs[0].weights, 5);
        assert_eq!(batch.responses[0].ids, truth.ids());
        assert_eq!(batch.stats.method, "SP");
    }
}
