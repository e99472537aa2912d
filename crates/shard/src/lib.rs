//! # gir-shard
//!
//! Partitioned datasets with mergeable per-shard GIRs — the scale-out
//! step past the single R\*-tree every prior layer assumed.
//!
//! The GIR's Phase-2 structure is embarrassingly partitionable: the
//! region is an intersection of half-spaces, each induced by one
//! non-result record against the fixed pivot `p_k`, so per-partition
//! constraint systems intersect to the global region (see
//! `gir_core::sharded` for the execution plan and its soundness
//! argument). This crate provides the partitioned substrate and plugs
//! it into the one serve loop:
//!
//! * [`Placement`] — hash (uniform, id-keyed) and grid (spatially
//!   banded) record-to-shard policies; placement is a pure function of
//!   the record, so update routing needs no directory.
//! * [`ShardedDataset`] — S independent R\*-trees, each with its own
//!   `gir_core::PruneIndex`; queries merge per-shard BRS candidate
//!   frontiers into the global top-k and intersect per-shard Phase-2
//!   systems into one `GirRegion`; updates touch the owning shard only.
//! * [`ShardedGirServer`] — `gir_serve::Server` with a
//!   [`ShardedDataset`] backend: the same cache-first serve loop as the
//!   single-tree server, sharded compute on miss, and an update path
//!   whose facet repair stays **shard-local** ([`repair_region_sharded`])
//!   — deleting a contributor of shard `s` re-sweeps tree `s` alone.
//!   The backend supplies only the miss, the owner-routed apply, the
//!   repair sweeps and the per-shard record cut.
//!
//! Both region semantics are served: the order-sensitive GIR
//! ([`ShardedDataset::gir`]) and the order-insensitive GIR\* of §7.1
//! ([`ShardedDataset::gir_star`] — per-shard star systems against the
//! globally merged per-rank pivots), with cached GIR\* entries repaired
//! shard-locally too ([`repair_region_star_sharded`]).
//!
//! Equivalence to the single-tree oracle — same top-k, same region as
//! a point set, same reduced facet set — is pinned for S ∈ {1,2,4,8},
//! both placements, and random update interleavings by
//! `tests/proptest_shard.rs` (GIR) and `tests/proptest_star_shard.rs`
//! (GIR\*).

#![deny(missing_docs)]

pub mod dataset;
pub mod placement;
pub mod serve;

pub use dataset::ShardedDataset;
pub use placement::{grid_band, Placement};
pub use serve::{
    repair_region_sharded, repair_region_sharded_with, repair_region_star_sharded,
    repair_region_star_sharded_with, RemovedOwners, RepairSweeps, ShardedGirServer,
};

#[cfg(test)]
mod send_sync {
    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn shard_types_are_shareable() {
        assert_send_sync::<crate::ShardedDataset>();
        assert_send_sync::<crate::ShardedGirServer>();
    }
}
