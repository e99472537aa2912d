//! # gir — Global Immutable Region computation
//!
//! A from-scratch Rust reproduction of *"Global Immutable Region
//! Computation"* (Zhang, Mouratidis, Pang — SIGMOD 2014).
//!
//! Given a top-k query (a weight vector `q ∈ [0,1]^d` with linear scoring
//! `S(p,q) = q · p`), the **global immutable region (GIR)** is the maximal
//! locus of weight vectors that produce *exactly* the same top-k result —
//! same records, same order. The GIR guides weight readjustment, measures
//! result robustness, and enables result caching.
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`geometry`] — hulls, half-space intersection, LP, volumes,
//! * [`storage`] — paged storage with I/O accounting,
//! * [`rtree`] — an R\*-tree over the page store,
//! * [`query`] — BRS top-k and BBS skyline substrates,
//! * [`core`] — the GIR algorithms (SP / CP / FP, GIR\*, visualization,
//!   caching) — the paper's contribution,
//! * [`datagen`] — IND/COR/ANTI and HOUSE/HOTEL-like workload generators,
//! * [`serve`] — the concurrent, update-aware serving subsystem: a
//!   sharded GIR cache, a batch executor over a worker pool, and an
//!   update pipeline that keeps cached regions provably fresh under
//!   insertions/deletions (see `examples/serve_workload.rs`),
//! * [`shard`] — partitioned datasets: S independent R\*-trees whose
//!   per-shard GIR constraint systems merge into the single-tree
//!   region, with hash/grid placement, shard-local update routing, and
//!   a sharded serving layer,
//! * [`rpc`] — process-per-shard distribution: shard workers behind a
//!   framed local transport, WAL-replayed rejoin, and a distributed
//!   server proven bit-identical to the in-process sharded plan.
//!
//! ## Quickstart
//!
//! ```
//! use gir::prelude::*;
//! use std::sync::Arc;
//!
//! // 1k uniform records in 3-d, bulk-loaded into an R*-tree.
//! let data = gir::datagen::synthetic(Distribution::Independent, 1_000, 3, 42);
//! let store: Arc<dyn PageStore> = Arc::new(MemPageStore::new(PAGE_SIZE));
//! let tree = RTree::bulk_load(store, &data).unwrap();
//!
//! // Compute the top-5 result and its GIR with Facet Pruning.
//! let engine = GirEngine::new(&tree);
//! let q = QueryVector::new(vec![0.6, 0.5, 0.7]);
//! let out = engine.gir(&q, 5, Method::FacetPruning).unwrap();
//!
//! assert_eq!(out.result.len(), 5);
//! // Every vector inside the GIR reproduces the same top-5.
//! assert!(out.region.contains(&q.weights));
//! ```

pub use gir_core as core;
pub use gir_datagen as datagen;
pub use gir_geometry as geometry;
pub use gir_obs as obs;
pub use gir_query as query;
pub use gir_rpc as rpc;
pub use gir_rtree as rtree;
pub use gir_serve as serve;
pub use gir_shard as shard;
pub use gir_storage as storage;

/// Convenience re-exports for examples and downstream users.
pub mod prelude {
    pub use gir_core::{GirEngine, GirOutput, GirRegion, Method};
    pub use gir_datagen::{synthetic, Distribution};
    pub use gir_geometry::vector::PointD;
    pub use gir_query::{QueryVector, Record, ScoringFunction};
    pub use gir_rtree::RTree;
    pub use gir_serve::{GirServer, ServerConfig, TopKRequest, Update};
    pub use gir_shard::{Placement, ShardedDataset, ShardedGirServer};
    pub use gir_storage::{MemPageStore, PageStore, PAGE_SIZE};
}
