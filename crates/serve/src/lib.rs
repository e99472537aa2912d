//! # gir-serve
//!
//! A concurrent, update-aware query-serving subsystem built on the GIR
//! library: the step from *per-query algorithm reproduction* to a
//! *traffic-handling engine* for the paper's headline application —
//! GIR-based top-k result caching (paper §1).
//!
//! Components:
//!
//! * [`Server`] — the one serve loop, generic over a dataset
//!   [`Backend`]: a batch executor over a slice of [`TopKRequest`]s
//!   (cache-probe first, compute-and-admit on miss) returning per-batch
//!   [`ServeStats`] (latency percentiles, hit rate, Phase-2 method),
//!   an update pipeline that coalesces [`Update`]s into a
//!   `gir_core::DeltaBatch` under the dataset's exclusive lock and
//!   reconciles every cached entry in one classification pass —
//!   untouched entries survive, shrunk entries absorb the newcomers'
//!   half-spaces, deleted facet contributors are *repaired in place*,
//!   and only genuinely invalidated entries are evicted, so **no cache
//!   hit ever serves a stale result** and regions do not decay under
//!   churn ([`MaintenanceMode`]) — and the consistent record cut the
//!   durability tier snapshots.
//! * [`Backend`] — what differs between dataset shapes: the miss
//!   computation, the apply step, the repair sweeps and the record
//!   cut. [`TreeDataset`] (one R\*-tree plus its prune index) is the
//!   backend of [`GirServer`]; `gir-shard` implements it for a
//!   partitioned dataset and `gir-rpc` for shard workers behind a
//!   transport. The in-process backends share one planned-miss
//!   dispatch, [`local_miss`].
//! * [`ShardedGirCache`] — a thread-safe GIR cache: N shards, each an
//!   `RwLock`'d [`gir_core::GirCache`] LRU, with entries routed by a
//!   hash of `(scoring-function fingerprint, k-bucket)` so lookups from
//!   different sessions rarely contend. Hit / miss / eviction counters
//!   aggregate across shards.
//! * [`DurableServer`] — WAL-ahead updates, snapshot generations and
//!   crash recovery around any [`Server`].
//! * [`workload`] — a deterministic mixed query/update traffic
//!   generator for the serve driver and throughput bench.
//!
//! The freshness argument: queries run under a shared read lock on the
//! dataset and admit entries computed against that version; updates
//! take the write lock and reconcile the cache *before releasing it* —
//! also when the batch fails partway, with whatever was applied — so a
//! lookup can never observe an entry whose region has not been
//! reconciled with every applied update (maintenance keeps shrunk
//! regions sound — see `gir_core::maintenance`).
//!
//! ```
//! use gir_serve::{GirServer, ServerConfig, TopKRequest};
//! use gir_query::ScoringFunction;
//! use gir_rtree::RTree;
//! use gir_storage::{MemPageStore, PageStore, PAGE_SIZE};
//! use std::sync::Arc;
//!
//! let data = gir_datagen::synthetic(gir_datagen::Distribution::Independent, 2_000, 3, 7);
//! let store: Arc<dyn PageStore> = Arc::new(MemPageStore::new(PAGE_SIZE));
//! let tree = RTree::bulk_load(store, &data).unwrap();
//! let server = GirServer::new(tree, ScoringFunction::linear(3), ServerConfig::default());
//!
//! let reqs: Vec<TopKRequest> = (0..64)
//!     .map(|i| TopKRequest::new(vec![0.5 + 0.001 * (i % 9) as f64, 0.6, 0.4], 10))
//!     .collect();
//! let batch = server.run_batch(&reqs);
//! assert_eq!(batch.responses.len(), 64);
//! assert!(batch.stats.hits > 0); // jittered repeats fall in cached GIRs
//! ```

pub mod durable;
pub mod server;
pub mod sharded;
pub mod stats;
pub mod workload;

pub use durable::{
    updates_from_wal_batch, wal_batch_from_updates, DurabilityConfig, DurabilityError,
    DurableServer, RecoveryReport,
};
pub use gir_core::plan::{MissPath, PlannerStats};
pub use gir_core::RegionKind;
pub use server::{
    local_miss, Applied, Backend, BatchResult, GirServer, MaintenanceMode, MissContext, Server,
    ServerConfig, TopKRequest, TopKResponse, TreeDataset, Update, UpdateReport,
};
pub use sharded::{CacheStats, ShardedGirCache, APPLY_SLOTS};
pub use stats::ServeStats;
pub use workload::{mixed_workload, TrafficBatch, WorkloadConfig};

#[cfg(test)]
mod send_sync {
    //! The serving layer shares engine state across worker threads;
    //! these compile-time assertions pin the `Send + Sync` obligations
    //! of the underlying crates.

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn core_types_are_shareable() {
        assert_send_sync::<gir_core::GirCache>();
        assert_send_sync::<gir_core::GirOutput>();
        assert_send_sync::<gir_core::GirRegion>();
        assert_send_sync::<gir_query::ScoringFunction>();
        assert_send_sync::<gir_query::TopKResult>();
        assert_send_sync::<gir_rtree::RTree>();
        assert_send_sync::<crate::ShardedGirCache>();
        assert_send_sync::<crate::GirServer>();
    }
}
