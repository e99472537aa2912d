//! The layer replay: the served inputs again, through the lower
//! layers' public functions, each call bracketed by a span.
//!
//! [`GirReplay`] composes what `GirServer` composes — an `RTree`, a
//! `ShardedGirCache`, a `PruneIndex` and a `Planner` — and, for the
//! durable workload, the WAL and snapshot files `DurableServer` writes.
//! [`DistReplay`] composes `RemoteShards` and a `ShardedGirCache` as
//! `DistributedGirServer` does. The replay must reproduce the served
//! answers; the traced run checks that it does.

use crate::drive::{load_tree, uds_factory, Decor};
use crate::trace::Tracer;
use crate::workloads::Spec;
use gir_core::plan::{MissPath, PlanInputs, Planner};
use gir_core::{
    repair_region, repair_region_star, CacheKey, DeltaBatch, GirEngine, GirError, GirOutput,
    Method, PruneIndex, RegionKind, ShardView, SnapshotState,
};
use gir_query::{QueryVector, ScoringFunction};
use gir_rpc::{ClusterApply, RemoteConfig, RemoteShards};
use gir_rtree::RTree;
use gir_serve::{wal_batch_from_updates, ShardedGirCache, TopKRequest, Update};
use gir_shard::{repair_region_sharded_with, repair_region_star_sharded_with, Placement};
use gir_storage::{write_snapshot, LogDir, Wal};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Raw per-call samples the replay collects, in nanoseconds unless
/// named otherwise.
#[derive(Default)]
pub struct LayerSamples {
    pub get_ns: Vec<u64>,
    pub admit_ns: Vec<u64>,
    pub apply_batch_ns: Vec<u64>,
    pub plan_ns: Vec<u64>,
    pub gir_cold_ns: Vec<u64>,
    pub gir_indexed_ns: Vec<u64>,
    pub phase2_ns: Vec<u64>,
    pub candidates: Vec<u64>,
    pub halfspaces: Vec<u64>,
    pub topk_ns: Vec<u64>,
    pub topk_pages: Vec<u64>,
    pub prune_update_ns: Vec<u64>,
    pub rebuild_ns: Vec<u64>,
    pub repair_ns: Vec<u64>,
    pub insert_ns: Vec<u64>,
    pub delete_ns: Vec<u64>,
    pub hits: u64,
    pub misses: u64,
    pub maint: [u64; 4],
    /// Miss queries, for the LP-call count pass.
    pub miss_queries: Vec<(TopKRequest, MissPath)>,
}

fn timed<R>(tracer: &Tracer, name: &'static str, out: &mut Vec<u64>, f: impl FnOnce() -> R) -> R {
    let _s = tracer.span(name);
    let t0 = Instant::now();
    let r = f();
    out.push(t0.elapsed().as_nanos() as u64);
    r
}

/// The durable tier's files, written as `DurableServer` writes them.
pub struct WalReplay {
    dir: Box<dyn LogDir>,
    wal: Wal,
    policy: gir_storage::FsyncPolicy,
    generation: u64,
    batches: u64,
    since: u64,
    every: u64,
}

impl WalReplay {
    /// Starts a history in `dir` from the initial records.
    pub fn create(dir: Box<dyn LogDir>, tree: &RTree, spec: &Spec) -> Result<WalReplay, String> {
        let cut = tree.scan_all().map_err(|e| e.to_string())?;
        let payload = SnapshotState {
            batches: 0,
            shards: vec![cut],
        }
        .encode();
        write_snapshot(dir.as_ref(), &snap_name(0), &payload).map_err(|e| e.to_string())?;
        let file = dir.create(&wal_name(0)).map_err(|e| e.to_string())?;
        Ok(WalReplay {
            wal: Wal::create(file, spec.fsync),
            dir,
            policy: spec.fsync,
            generation: 0,
            batches: 0,
            since: 0,
            every: spec.snapshot_every,
        })
    }

    fn roll(&mut self, tree: &RTree) -> Result<(), String> {
        let cut = tree.scan_all().map_err(|e| e.to_string())?;
        let payload = SnapshotState {
            batches: self.batches,
            shards: vec![cut],
        }
        .encode();
        let next = self.generation + 1;
        write_snapshot(self.dir.as_ref(), &snap_name(next), &payload).map_err(|e| e.to_string())?;
        let file = self
            .dir
            .create(&wal_name(next))
            .map_err(|e| e.to_string())?;
        self.wal = Wal::create(file, self.policy);
        let _ = self.dir.remove(&snap_name(self.generation));
        let _ = self.dir.remove(&wal_name(self.generation));
        self.generation = next;
        self.since = 0;
        Ok(())
    }
}

fn snap_name(g: u64) -> String {
    format!("snap-{g:016x}")
}

fn wal_name(g: u64) -> String {
    format!("wal-{g:016x}")
}

/// `GirServer`'s layers, composed by hand.
pub struct GirReplay {
    tree: RTree,
    cache: ShardedGirCache,
    prune: PruneIndex,
    planner: Planner,
    scoring: ScoringFunction,
    method: Method,
    wal: Option<WalReplay>,
    rebuild_pending: bool,
    pub samples: LayerSamples,
}

impl GirReplay {
    /// Builds the layers over `data` with the server's configuration.
    pub fn new(
        spec: &Spec,
        data: &[gir_query::Record],
        wal_dir: Option<Box<dyn LogDir>>,
    ) -> Result<Self, String> {
        let cfg = crate::drive::server_config(spec, None);
        let tree = load_tree(data);
        let wal = match wal_dir {
            Some(dir) => Some(WalReplay::create(dir, &tree, spec)?),
            None => None,
        };
        Ok(GirReplay {
            tree,
            cache: ShardedGirCache::new(cfg.shards, cfg.shard_capacity),
            prune: PruneIndex::new(),
            planner: Planner::new(),
            scoring: ScoringFunction::linear(spec.d),
            method: cfg.method,
            wal,
            rebuild_pending: false,
            samples: LayerSamples::default(),
        })
    }

    /// One query, as `GirServer::serve_one` runs it; returns its ids.
    pub fn query(&mut self, tracer: &Tracer, req: &TopKRequest) -> Result<Vec<u64>, String> {
        let s = &mut self.samples;
        let op = tracer.span("op.query");
        let key = CacheKey::new(&req.weights, req.k, &self.scoring).kind(req.kind);
        let found = timed(tracer, "serve.cache.get", &mut s.get_ns, || {
            self.cache.get(&key)
        });
        if let Some(records) = found {
            s.hits += 1;
            return Ok(records.iter().map(|r| r.id).collect());
        }
        s.misses += 1;
        let q = QueryVector::new(req.weights.coords().to_vec());
        let decision = timed(tracer, "core.planner.plan", &mut s.plan_ns, || {
            let pstats = self.prune.stats();
            self.planner.plan(&PlanInputs {
                n: self.tree.len() as usize,
                d: self.scoring.dim(),
                method: self.method,
                kind: req.kind,
                skyline: pstats.skyline_size,
                index_built: self.prune.is_built(),
                shards: 1,
            })
        });
        let indexed = decision.path != MissPath::Cold;
        if indexed && std::mem::take(&mut self.rebuild_pending) {
            // The lazy rebuild the first indexed miss after an update
            // pays: shared state plus decoded mirror.
            timed(tracer, "core.prune.rebuild", &mut s.rebuild_ns, || {
                self.prune
                    .snapshot(&self.tree)
                    .and_then(|st| st.mirror(&self.tree))
                    .map(|_| ())
            })
            .map_err(|e| e.to_string())?;
        }
        let watch = indexed && self.method != Method::FullScan;
        let h0 = watch.then(|| self.prune.phase2_hits());
        let engine = GirEngine::with_scoring(&self.tree, self.scoring.clone());
        let (out, actual_ns) = {
            let span_name = match decision.path {
                MissPath::Cold => "core.gir_cold",
                MissPath::Sharded => "core.gir_sharded",
                _ => "core.gir_indexed",
            };
            let span = tracer.span(span_name);
            let t0 = Instant::now();
            let out = dispatch(
                &engine,
                &self.tree,
                &self.prune,
                &self.scoring,
                &q,
                req,
                self.method,
                decision.path,
            );
            let ns = t0.elapsed().as_nanos() as u64;
            if let Ok(o) = &out {
                // The engine's own phase clocks, laid inside the call:
                // BRS top-k first, then Phases 1 and 2.
                let topk = (o.stats.topk_ms * 1e6) as u64;
                let gir = (o.stats.gir_cpu_ms * 1e6) as u64;
                let end = t0 + std::time::Duration::from_nanos(ns);
                let t_topk = end - std::time::Duration::from_nanos((topk + gir).min(ns));
                let t_gir = end - std::time::Duration::from_nanos(gir.min(ns));
                tracer.record("query.topk", t_topk, t_gir, span.id(), 0);
                tracer.record("core.phase2", t_gir, end, span.id(), 0);
            }
            drop(span);
            (out, ns)
        };
        match decision.path {
            MissPath::Cold => s.gir_cold_ns.push(actual_ns),
            MissPath::Sharded => {}
            _ => s.gir_indexed_ns.push(actual_ns),
        }
        let reused = h0.map(|h| self.prune.phase2_hits() > h);
        {
            let _s = tracer.span("core.planner.observe");
            self.planner.observe(&decision, actual_ns, reused);
        }
        let ids = match out {
            Ok(o) => {
                s.phase2_ns.push((o.stats.gir_cpu_ms * 1e6) as u64);
                s.candidates.push(o.stats.candidates as u64);
                s.halfspaces.push(o.stats.halfspaces as u64);
                s.topk_pages.push(o.stats.topk_pages);
                let ids = o.result.ids();
                timed(tracer, "serve.cache.admit", &mut s.admit_ns, || {
                    self.cache.admit(&key, o.region, o.result)
                });
                ids
            }
            Err(GirError::EmptyResult) => Vec::new(),
            Err(e) => return Err(e.to_string()),
        };
        drop(op);
        s.miss_queries.push((req.clone(), decision.path));
        // Shadow timings outside the operation: BRS alone, and whichever
        // of the cold and indexed paths the planner did not take, so both
        // are known for every miss.
        let t0 = Instant::now();
        let _ = std::hint::black_box(engine.topk(&q, req.k));
        s.topk_ns.push(t0.elapsed().as_nanos() as u64);
        if decision.path != MissPath::Cold {
            let t0 = Instant::now();
            let _ = std::hint::black_box(engine.gir(&q, req.k, self.method));
            s.gir_cold_ns.push(t0.elapsed().as_nanos() as u64);
        }
        if !indexed || decision.path == MissPath::Sharded {
            let _ = self
                .prune
                .snapshot(&self.tree)
                .and_then(|st| st.mirror(&self.tree));
            let t0 = Instant::now();
            let _ = std::hint::black_box(engine.gir_indexed(&q, req.k, self.method, &self.prune));
            s.gir_indexed_ns.push(t0.elapsed().as_nanos() as u64);
        }
        Ok(ids)
    }

    /// One update batch, as `DurableServer::apply_updates` over
    /// `GirServer::apply_updates` runs it.
    pub fn update(&mut self, tracer: &Tracer, updates: &[Update]) -> Result<(), String> {
        let op = tracer.span("op.update");
        if let Some(w) = &mut self.wal {
            let payload = wal_batch_from_updates(updates).encode();
            w.wal.append(&payload).map_err(|e| e.to_string())?;
        }
        let s = &mut self.samples;
        let mut batch = DeltaBatch::new();
        for u in updates {
            match u {
                Update::Insert(rec) => {
                    timed(tracer, "rtree.insert", &mut s.insert_ns, || {
                        self.tree.insert(rec.clone())
                    })
                    .map_err(|e| e.to_string())?;
                    timed(tracer, "core.prune.update", &mut s.prune_update_ns, || {
                        self.prune.on_insert(rec)
                    });
                    batch.record_insert(rec);
                }
                Update::Delete { id, attrs } => {
                    let hit = timed(tracer, "rtree.delete", &mut s.delete_ns, || {
                        self.tree.delete(*id, attrs)
                    })
                    .map_err(|e| e.to_string())?;
                    if hit {
                        batch.record_delete_at(*id, attrs);
                        timed(tracer, "core.prune.update", &mut s.prune_update_ns, || {
                            self.prune.on_delete(&self.tree, *id, attrs)
                        })
                        .map_err(|e| e.to_string())?;
                    }
                }
            }
        }
        let tree = &self.tree;
        let repairs = std::sync::Mutex::new(Vec::new());
        let apply_span = tracer.span("serve.cache.apply_batch");
        let parent = apply_span.id();
        let t0 = Instant::now();
        let outcome = self.cache.apply_batch(&batch, |req| {
            if !req.scoring.is_linear() {
                return None;
            }
            let _s = tracer.span_under("core.repair", parent);
            let r0 = Instant::now();
            let repair = match req.kind {
                RegionKind::Gir => repair_region,
                RegionKind::GirStar => repair_region_star,
            };
            let r = repair(
                tree,
                req.scoring,
                req.result,
                req.region,
                req.removed,
                req.shrinks,
            )
            .ok();
            repairs
                .lock()
                .expect("repair samples")
                .push(r0.elapsed().as_nanos() as u64);
            r
        });
        s.apply_batch_ns.push(t0.elapsed().as_nanos() as u64);
        drop(apply_span);
        s.repair_ns
            .extend(repairs.into_inner().expect("repair samples"));
        s.maint[0] += outcome.evicted as u64;
        s.maint[1] += outcome.repaired as u64;
        s.maint[2] += outcome.shrunk as u64;
        s.maint[3] += outcome.untouched as u64;
        if let Some(w) = &mut self.wal {
            w.batches += 1;
            w.since += 1;
            if w.every > 0 && w.since >= w.every {
                w.roll(&self.tree)?;
            }
        }
        self.rebuild_pending = true;
        drop(op);
        Ok(())
    }

    /// Re-runs a miss on the path it took (the LP-count pass).
    pub fn recompute(&self, req: &TopKRequest, path: MissPath) {
        let engine = GirEngine::with_scoring(&self.tree, self.scoring.clone());
        let q = QueryVector::new(req.weights.coords().to_vec());
        let _ = dispatch(
            &engine,
            &self.tree,
            &self.prune,
            &self.scoring,
            &q,
            req,
            self.method,
            path,
        );
    }
}

#[allow(clippy::too_many_arguments)]
fn dispatch(
    engine: &GirEngine<'_>,
    tree: &RTree,
    prune: &PruneIndex,
    scoring: &ScoringFunction,
    q: &QueryVector,
    req: &TopKRequest,
    method: Method,
    path: MissPath,
) -> Result<GirOutput, GirError> {
    match path {
        MissPath::Cold => engine.gir(q, req.k, method),
        MissPath::Sharded => {
            let view = ShardView { tree, index: prune };
            GirEngine::gir_sharded(&[view], scoring, q, req.k, method)
        }
        _ => engine.gir_indexed(q, req.k, method, prune),
    }
}

/// `DistributedGirServer`'s layers, composed by hand.
pub struct DistReplay {
    cluster: RemoteShards,
    cache: ShardedGirCache,
    scoring: ScoringFunction,
    method: Method,
    pub samples: LayerSamples,
}

impl DistReplay {
    /// Launches the replay's own workers (decorated) over `data`.
    pub fn new(spec: &Spec, data: &[gir_query::Record], decor: Decor) -> Result<Self, String> {
        let scoring = ScoringFunction::linear(spec.d);
        let dcfg = gir_rpc::DistributedServerConfig::default();
        let cluster = RemoteShards::launch(
            scoring.clone(),
            Placement::Hash,
            spec.shards,
            data,
            RemoteConfig::default(),
            uds_factory(Some(decor)),
        )
        .map_err(|e| e.to_string())?;
        Ok(DistReplay {
            cluster,
            cache: ShardedGirCache::new(dcfg.cache_shards, dcfg.cache_capacity),
            scoring,
            method: spec.method,
            samples: LayerSamples::default(),
        })
    }

    /// One query, as `DistributedGirServer::serve_one` runs it; returns
    /// its ids.
    pub fn query(&mut self, tracer: &Tracer, req: &TopKRequest) -> Result<Vec<u64>, String> {
        let s = &mut self.samples;
        let op = tracer.span("op.query");
        let key = CacheKey::new(&req.weights, req.k, &self.scoring).kind(req.kind);
        let found = timed(tracer, "serve.cache.get", &mut s.get_ns, || {
            self.cache.get(&key)
        });
        if let Some(records) = found {
            s.hits += 1;
            return Ok(records.iter().map(|r| r.id).collect());
        }
        s.misses += 1;
        let q = QueryVector::new(req.weights.coords().to_vec());
        let out = {
            let _s = tracer.span("shard.region");
            self.cluster.region(req.kind, &q, req.k, self.method)
        };
        let ids = match out {
            Ok(o) => {
                s.candidates.push(o.stats.candidates as u64);
                s.halfspaces.push(o.stats.halfspaces as u64);
                let ids = o.result.ids();
                timed(tracer, "serve.cache.admit", &mut s.admit_ns, || {
                    self.cache.admit(&key, o.region, o.result)
                });
                ids
            }
            Err(GirError::EmptyResult) => Vec::new(),
            Err(e) => return Err(e.to_string()),
        };
        drop(op);
        s.miss_queries.push((req.clone(), MissPath::Sharded));
        Ok(ids)
    }

    /// One update batch, as `DistributedGirServer::apply_updates` runs it.
    pub fn update(&mut self, tracer: &Tracer, updates: &[Update]) -> Result<(), String> {
        let s = &mut self.samples;
        let op = tracer.span("op.update");
        let ClusterApply {
            batch,
            removed_owner,
            ..
        } = {
            let _s = tracer.span("shard.apply");
            self.cluster.apply(updates).map_err(|e| e.to_string())?
        };
        let cluster = &self.cluster;
        let repairs = std::sync::Mutex::new(Vec::new());
        let apply_span = tracer.span("serve.cache.apply_batch");
        let parent = apply_span.id();
        let t0 = Instant::now();
        let outcome = self.cache.apply_batch(&batch, |req| {
            if !req.scoring.is_linear() {
                return None;
            }
            let _s = tracer.span_under("core.repair", parent);
            let r0 = Instant::now();
            let r = match req.kind {
                RegionKind::Gir => repair_region_sharded_with(cluster, req, &removed_owner),
                RegionKind::GirStar => {
                    repair_region_star_sharded_with(cluster, req, &removed_owner)
                }
            };
            repairs
                .lock()
                .expect("repair samples")
                .push(r0.elapsed().as_nanos() as u64);
            r
        });
        s.apply_batch_ns.push(t0.elapsed().as_nanos() as u64);
        drop(apply_span);
        s.repair_ns
            .extend(repairs.into_inner().expect("repair samples"));
        s.maint[0] += outcome.evicted as u64;
        s.maint[1] += outcome.repaired as u64;
        s.maint[2] += outcome.shrunk as u64;
        s.maint[3] += outcome.untouched as u64;
        drop(op);
        Ok(())
    }

    /// Re-runs a miss (the LP-count pass).
    pub fn recompute(&self, req: &TopKRequest) {
        let q = QueryVector::new(req.weights.coords().to_vec());
        let _ = self.cluster.region(req.kind, &q, req.k, self.method);
    }
}

impl Drop for DistReplay {
    fn drop(&mut self) {
        self.cluster.shutdown();
    }
}

/// Either replay.
pub enum Replay {
    Gir(Box<GirReplay>),
    Dist(Box<DistReplay>),
}

impl Replay {
    pub fn query(&mut self, tracer: &Tracer, req: &TopKRequest) -> Result<Vec<u64>, String> {
        match self {
            Replay::Gir(r) => r.query(tracer, req),
            Replay::Dist(r) => r.query(tracer, req),
        }
    }

    pub fn update(&mut self, tracer: &Tracer, updates: &[Update]) -> Result<(), String> {
        match self {
            Replay::Gir(r) => r.update(tracer, updates),
            Replay::Dist(r) => r.update(tracer, updates),
        }
    }

    pub fn samples_mut(&mut self) -> &mut LayerSamples {
        match self {
            Replay::Gir(r) => &mut r.samples,
            Replay::Dist(r) => &mut r.samples,
        }
    }

    pub fn recompute(&self, req: &TopKRequest, path: MissPath) {
        match self {
            Replay::Gir(r) => r.recompute(req, path),
            Replay::Dist(r) => r.recompute(req),
        }
    }
}

/// Counts `lp_call` events while installed.
pub struct LpCounter(pub Arc<AtomicU64>);

impl tracing::Collect for LpCounter {
    fn span_closed(&self, _: &'static str, _: u64, _: &[(&'static str, tracing::Value)]) {}

    fn event(&self, name: &'static str, _: &[(&'static str, tracing::Value)]) {
        if name == "lp_call" {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }
}
