//! Serving over a sharded dataset: [`ShardedDataset`] as a
//! [`gir_serve::Backend`] of the one serve loop ([`gir_serve::Server`]).
//!
//! * **Queries** run the loop's cache probe first; a miss goes through
//!   the same planned dispatch as the single-tree server
//!   ([`gir_serve::local_miss`]) over every shard's view — with `S > 1`
//!   that is [`gir_core::gir_sharded`]: per-shard work over each shard's
//!   prune index, merged and intersected into one region.
//! * **Updates** route to the owning shard only: the tree mutation, the
//!   skyline/mirror repair, and the Phase-2 system maintenance all stay
//!   shard-local (non-owning shards merely purge systems *naming* the
//!   record). The loop's cache reconciliation then runs the usual
//!   classify → shrink → repair → evict pass, with the **repair sweep
//!   confined to the shards that lost a contributor**: a region
//!   produced by `gir_sharded` is the intersection of per-shard-exact
//!   systems, so deleting a contributor of shard `s` only invalidates
//!   the maximality of shard `s`'s system — the FP repair sweep runs
//!   over tree `s` alone, every other shard's constraints carry over
//!   verbatim ([`repair_region_sharded`]).

use crate::dataset::ShardedDataset;
use gir_core::fp::fp_repair;
use gir_core::{fp_star_repair, GirError, GirOutput, GirRegion, RegionKind, RepairRequest};
use gir_geometry::hyperplane::{HalfSpace, Provenance};
use gir_geometry::vector::PointD;
use gir_query::{QueryVector, Record, ScoringFunction, TopKResult};
use gir_rtree::RTreeError;
use gir_serve::{
    local_miss, Applied, Backend, MissContext, Server, TopKRequest, Update, UpdateReport,
};
use std::collections::{BTreeSet, HashMap, HashSet};

/// The owner shards of every delete a batch applied, by record id — a
/// set per id, since duplicate ids may be deleted at locations owned by
/// different shards within one batch. Scopes the repair sweeps.
pub type RemovedOwners = HashMap<u64, BTreeSet<usize>>;

/// The server over a partitioned dataset.
///
/// # Examples
///
/// ```
/// use gir_query::{Record, ScoringFunction};
/// use gir_serve::{ServerConfig, TopKRequest};
/// use gir_shard::{Placement, ShardedDataset, ShardedGirServer};
///
/// // A small deterministic 3-d dataset, hash-partitioned 4 ways.
/// let mut s = 0x5EEDu64;
/// let mut next = move || {
///     s ^= s << 13;
///     s ^= s >> 7;
///     s ^= s << 17;
///     (s >> 11) as f64 / (1u64 << 53) as f64
/// };
/// let recs: Vec<Record> = (0..400)
///     .map(|i| Record::new(i, vec![next(), next(), next()]))
///     .collect();
/// let data = ShardedDataset::build(3, &recs, 4, Placement::Hash).unwrap();
///
/// let server = ShardedGirServer::new(
///     data,
///     ScoringFunction::linear(3),
///     ServerConfig {
///         threads: 1,
///         ..ServerConfig::default()
///     },
/// );
/// // Jittered repeats of one preference anchor: the first request
/// // computes and caches, the rest fall inside its region.
/// let reqs: Vec<TopKRequest> = (0..16)
///     .map(|i| TopKRequest::new(vec![0.6 + 0.0004 * (i % 5) as f64, 0.5, 0.7], 8))
///     .collect();
/// let batch = server.run_batch(&reqs);
/// assert_eq!(batch.responses.len(), 16);
/// assert!(batch.stats.hits > 0);
/// ```
pub type ShardedGirServer = Server<ShardedDataset>;

impl Backend for ShardedDataset {
    type Repair = RemovedOwners;

    fn dim(&self) -> usize {
        ShardedDataset::dim(self)
    }

    fn num_records(&self) -> u64 {
        self.len()
    }

    /// The planned miss over every shard's view. With `S > 1` only the
    /// sharded fan-out is feasible (the decision is still recorded, so
    /// the EXPLAIN phase and `planner.*` counters stay uniform across
    /// server types); at `S = 1` the single shard is a plain tree +
    /// index pair and the full cold / indexed / sharded choice opens
    /// up, as on `gir_serve::GirServer`.
    fn miss(
        &self,
        cx: &MissContext<'_>,
        q: &QueryVector,
        req: &TopKRequest,
    ) -> Result<GirOutput, GirError> {
        local_miss(&self.views(), self.len() as usize, cx, q, req)
    }

    /// Every delta goes to the owning shard only.
    fn apply(&mut self, updates: &[Update]) -> Applied<RemovedOwners> {
        let mut batch = gir_core::DeltaBatch::new();
        let mut report = UpdateReport::default();
        let mut removed_owner = RemovedOwners::new();
        let mut error = None;
        for u in updates {
            match u {
                Update::Insert(rec) => match self.insert(rec.clone()) {
                    Ok(()) => {
                        report.inserted += 1;
                        batch.record_insert(rec);
                    }
                    Err(e) => error = Some(e),
                },
                Update::Delete { id, attrs } => {
                    let deleted = self.delete(*id, attrs);
                    // The owning shard may have mutated its tree before
                    // an index error: record the delete either way so
                    // the cache still reconciles with it.
                    if !matches!(deleted, Ok(false)) {
                        report.deleted += 1;
                        removed_owner
                            .entry(*id)
                            .or_default()
                            .insert(self.shard_of(*id, attrs));
                        batch.record_delete_at(*id, attrs);
                    }
                    match deleted {
                        Ok(true) => {}
                        Ok(false) => report.missed_deletes += 1,
                        Err(e) => error = Some(e),
                    }
                }
            }
            if error.is_some() {
                break;
            }
        }
        Applied {
            batch,
            report,
            repair: removed_owner,
            error,
        }
    }

    /// Shard-local repair: only the shards that lost a contributor are
    /// re-swept ([`repair_region_sharded`]).
    fn repair(&self, removed_owner: &RemovedOwners, req: &RepairRequest<'_>) -> Option<GirRegion> {
        match req.kind {
            RegionKind::Gir => repair_region_sharded(self, req, removed_owner),
            RegionKind::GirStar => repair_region_star_sharded(self, req, removed_owner),
        }
    }

    fn cut(&self) -> Result<Vec<Vec<Record>>, RTreeError> {
        self.shard_records()
    }
}

/// The sweep surface the shard-local repair algorithms run against.
///
/// [`repair_region_sharded_with`] and [`repair_region_star_sharded_with`]
/// only need four operations from the partitioned substrate: the shard
/// count, the pure record→shard placement, and the two FP sweeps over a
/// single shard's tree. [`ShardedDataset`] implements them in-process;
/// `gir-rpc`'s remote cluster implements them by shipping
/// `RepairSweep`/`RepairStarSweep` requests to the owning workers, so
/// both tiers share one repair algorithm (and therefore produce
/// bit-identical rebuilt regions).
pub trait RepairSweeps {
    /// Number of shards the dataset is partitioned into.
    fn num_shards(&self) -> usize;

    /// The shard owning `(id, attrs)` (pure placement function).
    fn shard_of(&self, id: u64, attrs: &PointD) -> usize;

    /// FP repair sweep pinned at the cached `p_k` over shard `s` alone,
    /// seeded with that shard's surviving contributors and pruned by
    /// the kept `interim` constraints. `None` declines the repair (the
    /// caller keeps the entry sound-but-non-maximal).
    fn fp_sweep(
        &self,
        shard: usize,
        scoring: &ScoringFunction,
        result: &TopKResult,
        interim: &[HalfSpace],
        seeds: &[Record],
    ) -> Option<Vec<HalfSpace>>;

    /// Root-seeded concurrent GIR\* sweep over shard `s` alone.
    fn fp_star_sweep(
        &self,
        shard: usize,
        scoring: &ScoringFunction,
        result: &TopKResult,
        seeds: &[Record],
    ) -> Option<Vec<HalfSpace>>;
}

impl RepairSweeps for ShardedDataset {
    fn num_shards(&self) -> usize {
        ShardedDataset::num_shards(self)
    }

    fn shard_of(&self, id: u64, attrs: &PointD) -> usize {
        ShardedDataset::shard_of(self, id, attrs)
    }

    fn fp_sweep(
        &self,
        shard: usize,
        scoring: &ScoringFunction,
        result: &TopKResult,
        interim: &[HalfSpace],
        seeds: &[Record],
    ) -> Option<Vec<HalfSpace>> {
        fp_repair(self.shard_tree(shard), scoring, result, interim, seeds)
            .ok()
            .map(|(hs, _stats)| hs)
    }

    fn fp_star_sweep(
        &self,
        shard: usize,
        scoring: &ScoringFunction,
        result: &TopKResult,
        seeds: &[Record],
    ) -> Option<Vec<HalfSpace>> {
        fp_star_repair(self.shard_tree(shard), scoring, result, seeds)
            .ok()
            .map(|(hs, _stats)| hs)
    }
}

/// Shard-local facet repair of one cached entry.
///
/// The entry's region was produced by [`gir_core::gir_sharded`]: its
/// non-result constraints are the union of **per-shard-exact** systems.
/// Deleting a contributor of shard `s` leaves every other shard's
/// system exact, so only shard `s` needs a sweep:
///
/// * ordering constraints carry over verbatim,
/// * every surviving non-result constraint carries over verbatim (each
///   names a live record, so it can never over-shrink; keeping them all
///   preserves the per-shard completeness the next repair relies on),
/// * for each shard that lost a contributor, an FP sweep pinned at the
///   cached `p_k` runs over that shard's tree alone, seeded with the
///   shard's surviving contributors and pruned by every kept constraint
///   — its output restores the shard system's maximality; constraints
///   for records already kept are deduplicated (same record + same
///   pivot ⇒ identical half-space).
///
/// `removed_owner` maps each deleted id to every shard that applied a
/// delete of it (recorded from the deletes' locations when the batch
/// applied — a set, since duplicate ids can be deleted at locations in
/// different shards). Declines (`None`) when an id is unknown or a
/// GIR\* constraint appears — the caller then keeps the entry
/// sound-but-non-maximal.
pub fn repair_region_sharded(
    data: &ShardedDataset,
    req: &RepairRequest<'_>,
    removed_owner: &RemovedOwners,
) -> Option<GirRegion> {
    repair_region_sharded_with(data, req, removed_owner)
}

/// [`repair_region_sharded`] over any [`RepairSweeps`] surface — the
/// in-process dataset and the RPC cluster share this exact algorithm.
pub fn repair_region_sharded_with<S: RepairSweeps + ?Sized>(
    data: &S,
    req: &RepairRequest<'_>,
    removed_owner: &RemovedOwners,
) -> Option<GirRegion> {
    let scoring = req.scoring;
    debug_assert!(scoring.is_linear());
    let pk_t = scoring.transform_point(&req.result.kth().attrs);

    let mut affected: BTreeSet<usize> = BTreeSet::new();
    for id in req.removed {
        affected.extend(removed_owner.get(id)?.iter().copied());
    }

    let mut ordering: Vec<HalfSpace> = Vec::new();
    let mut kept: Vec<HalfSpace> = Vec::new();
    let mut kept_ids: HashSet<u64> = HashSet::new();
    let mut seeds_by_shard: Vec<Vec<Record>> = vec![Vec::new(); data.num_shards()];
    for h in req.region.halfspaces.iter().chain(req.shrinks) {
        match h.provenance {
            Provenance::Ordering { .. } => ordering.push(h.clone()),
            // GirRegion::new re-appends the box.
            Provenance::QueryBox { .. } => {}
            // GIR* conditions are pinned at a rank pivot, not p_k — not
            // produced by the sharded path; decline defensively.
            Provenance::StarNonResult { .. } => return None,
            Provenance::NonResult { record_id } => {
                if req.removed.contains(&record_id) || !kept_ids.insert(record_id) {
                    continue;
                }
                // Reconstruct the record from its constraint normal
                // (`g(p) = g(p_k) + normal`; linear scoring makes the
                // transformed point the attribute vector itself) and
                // bucket it as a sweep seed for its owning shard. A
                // boundary-exact grid reconstruction landing the seed in
                // a neighbour bucket costs sweep tightness, never
                // soundness: kept constraints are never dropped.
                let rec = Record::new(record_id, pk_t.add(&h.normal));
                let owner = data.shard_of(record_id, &rec.attrs);
                seeds_by_shard[owner].push(rec);
                kept.push(h.clone());
            }
        }
    }

    let mut interim: Vec<HalfSpace> = ordering.clone();
    interim.extend(kept.iter().cloned());
    interim.extend(HalfSpace::full_query_box(req.region.d));

    let mut rebuilt = ordering;
    rebuilt.append(&mut kept);
    for s in affected {
        let swept = data.fp_sweep(s, scoring, req.result, &interim, &seeds_by_shard[s])?;
        for h in swept {
            let fresh = match h.provenance {
                Provenance::NonResult { record_id } => kept_ids.insert(record_id),
                _ => true,
            };
            if fresh {
                rebuilt.push(h);
            }
        }
    }
    Some(GirRegion::new(
        req.region.d,
        req.region.query.clone(),
        rebuilt,
    ))
}

/// Shard-local facet repair of one cached **GIR\*** entry — the star
/// companion of [`repair_region_sharded`].
///
/// A region produced by [`gir_core::sharded::gir_star_sharded`] is the
/// intersection of per-shard-exact star systems, so deleting a
/// contributor of shard `s` only breaks the maximality of shard `s`'s
/// system. Every surviving `StarNonResult` constraint carries over
/// verbatim (it names a live non-result record against a valid `R⁻`
/// pivot — a genuine condition that can over-describe but never
/// over-shrink the true region), and each one reconstructs its record
/// from the constraint normal (`g(p) = g(p_rank) + normal`; the rank in
/// the provenance names the pivot) as a sweep seed bucketed by owning
/// shard. For each shard that lost a contributor, a root-seeded
/// concurrent star sweep ([`fp_star_repair`]) over that shard's tree
/// alone restores its system; swept conditions already kept are
/// deduplicated by `(rank, record)` pair. As in the order-sensitive
/// variant, a boundary-exact grid reconstruction landing a seed in a
/// neighbour bucket costs sweep tightness, never soundness.
///
/// Declines (`None`) when a deleted id has no recorded owner, a rank
/// exceeds the cached result, or an order-sensitive constraint appears
/// — the caller then keeps the entry sound-but-non-maximal.
pub fn repair_region_star_sharded(
    data: &ShardedDataset,
    req: &RepairRequest<'_>,
    removed_owner: &RemovedOwners,
) -> Option<GirRegion> {
    repair_region_star_sharded_with(data, req, removed_owner)
}

/// [`repair_region_star_sharded`] over any [`RepairSweeps`] surface —
/// the star companion of [`repair_region_sharded_with`].
pub fn repair_region_star_sharded_with<S: RepairSweeps + ?Sized>(
    data: &S,
    req: &RepairRequest<'_>,
    removed_owner: &RemovedOwners,
) -> Option<GirRegion> {
    let scoring = req.scoring;
    debug_assert!(scoring.is_linear());

    let mut affected: BTreeSet<usize> = BTreeSet::new();
    for id in req.removed {
        affected.extend(removed_owner.get(id)?.iter().copied());
    }

    let mut kept: Vec<HalfSpace> = Vec::new();
    let mut kept_pairs: HashSet<(usize, u64)> = HashSet::new();
    let mut seeded: HashSet<u64> = HashSet::new();
    let mut seeds_by_shard: Vec<Vec<Record>> = vec![Vec::new(); data.num_shards()];
    for h in req.region.halfspaces.iter().chain(req.shrinks) {
        match h.provenance {
            // GirRegion::new re-appends the box.
            Provenance::QueryBox { .. } => {}
            Provenance::StarNonResult { rank, record_id } => {
                if rank >= req.result.len() {
                    return None;
                }
                if req.removed.contains(&record_id) || !kept_pairs.insert((rank, record_id)) {
                    continue;
                }
                if seeded.insert(record_id) {
                    let pivot_t = scoring.transform_point(&req.result.ranked[rank].0.attrs);
                    let rec = Record::new(record_id, pivot_t.add(&h.normal));
                    let owner = data.shard_of(record_id, &rec.attrs);
                    seeds_by_shard[owner].push(rec);
                }
                kept.push(h.clone());
            }
            // Order-sensitive constraints are never produced by the
            // GIR* path; decline defensively.
            Provenance::Ordering { .. } | Provenance::NonResult { .. } => return None,
        }
    }

    let mut rebuilt = kept;
    for s in affected {
        let swept = data.fp_star_sweep(s, scoring, req.result, &seeds_by_shard[s])?;
        for h in swept {
            let fresh = match h.provenance {
                Provenance::StarNonResult { rank, record_id } => {
                    kept_pairs.insert((rank, record_id))
                }
                _ => true,
            };
            if fresh {
                rebuilt.push(h);
            }
        }
    }
    Some(GirRegion::new(
        req.region.d,
        req.region.query.clone(),
        rebuilt,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::Placement;
    use gir_core::Method;
    use gir_query::naive_topk;
    use gir_serve::ServerConfig;

    fn records(n: usize, d: usize, seed: u64) -> Vec<Record> {
        let mut s = seed | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..n)
            .map(|i| Record::new(i as u64, (0..d).map(|_| next()).collect::<Vec<_>>()))
            .collect()
    }

    fn jittered(count: usize, k: usize) -> Vec<TopKRequest> {
        (0..count)
            .map(|i| {
                let j = 0.0005 * (i % 11) as f64;
                TopKRequest::new(vec![0.55 + j, 0.6 - j, 0.45 + j / 2.0], k)
            })
            .collect()
    }

    #[test]
    fn sharded_batches_match_naive_and_hit_cache() {
        let data = records(1500, 3, 0x81);
        for placement in [Placement::Hash, Placement::Grid] {
            let server = ShardedGirServer::new(
                ShardedDataset::build(3, &data, 4, placement).unwrap(),
                ScoringFunction::linear(3),
                ServerConfig {
                    threads: 2,
                    ..ServerConfig::default()
                },
            );
            let reqs = jittered(100, 8);
            let batch = server.run_batch(&reqs);
            assert!(batch.stats.hits > 0, "jittered repeats should hit");
            for (req, resp) in reqs.iter().zip(&batch.responses) {
                assert!(!resp.failed);
                let truth = naive_topk(&data, server.scoring(), &req.weights, req.k);
                assert_eq!(resp.ids, truth.ids(), "{placement:?} at {:?}", req.weights);
            }
        }
    }

    #[test]
    fn updates_route_to_owning_shard_and_stay_fresh() {
        let mut mirror = records(1200, 3, 0x82);
        let server = ShardedGirServer::new(
            ShardedDataset::build(3, &mirror, 4, Placement::Hash).unwrap(),
            ScoringFunction::linear(3),
            ServerConfig {
                threads: 1,
                ..ServerConfig::default()
            },
        );
        let reqs = jittered(40, 6);
        let _ = server.run_batch(&reqs);
        assert!(server.cache_stats().entries > 0);
        let occupancy_before = server.dataset().occupancy();

        // A dominating insert must enter every subsequent top-k...
        let champ = Record::new(9_999_999, vec![0.99, 0.99, 0.99]);
        mirror.push(champ.clone());
        let report = server
            .apply_updates(&[Update::Insert(champ.clone())])
            .unwrap();
        assert_eq!(report.inserted, 1);
        // ... and only one shard's occupancy moved.
        let occupancy_after = server.dataset().occupancy();
        let moved = occupancy_before
            .iter()
            .zip(&occupancy_after)
            .filter(|(a, b)| a != b)
            .count();
        assert_eq!(moved, 1, "insert touched more than the owning shard");

        let batch = server.run_batch(&reqs);
        for (req, resp) in reqs.iter().zip(&batch.responses) {
            let truth = naive_topk(&mirror, server.scoring(), &req.weights, req.k);
            assert_eq!(resp.ids, truth.ids(), "stale after insert");
            assert_eq!(resp.ids[0], champ.id);
        }

        // Delete it again; containing entries must drop.
        let report = server
            .apply_updates(&[Update::Delete {
                id: champ.id,
                attrs: champ.attrs.clone(),
            }])
            .unwrap();
        mirror.pop();
        assert_eq!(report.deleted, 1);
        assert!(report.evicted > 0);
        let batch = server.run_batch(&reqs);
        for (req, resp) in reqs.iter().zip(&batch.responses) {
            let truth = naive_topk(&mirror, server.scoring(), &req.weights, req.k);
            assert_eq!(resp.ids, truth.ids(), "stale after delete");
        }
    }

    #[test]
    fn contributor_delete_repairs_shard_locally_with_fresh_hits() {
        // Delete facet contributors under churn and verify repaired
        // entries keep serving *fresh* hits (the shard-local repair is
        // exercised through the report's `repaired` counter).
        let mut mirror = records(900, 3, 0x83);
        let server = ShardedGirServer::new(
            ShardedDataset::build(3, &mirror, 4, Placement::Hash).unwrap(),
            ScoringFunction::linear(3),
            ServerConfig {
                threads: 1,
                ..ServerConfig::default()
            },
        );
        let reqs = jittered(30, 5);
        let _ = server.run_batch(&reqs);

        // The GIR of the anchor query names its facet contributors
        // (non-result records by provenance): deleting one triggers the
        // NeedsRepair path instead of an eviction. Recompute per round
        // on an equivalent dataset built from the server's snapshot.
        let contributor_of = |mirror: &[Record]| -> Record {
            let data =
                ShardedDataset::build(3, mirror, 4, Placement::Hash).expect("shadow dataset");
            let q = QueryVector::new(reqs[0].weights.coords().to_vec());
            let out = data
                .gir(&ScoringFunction::linear(3), &q, 5, Method::FacetPruning)
                .expect("shadow gir");
            let result_ids = out.result.ids();
            let id = out
                .region
                .contributor_ids()
                .find(|id| !result_ids.contains(id))
                .expect("non-trivial GIR has non-result contributors");
            mirror.iter().find(|r| r.id == id).unwrap().clone()
        };

        let mut repaired_total = 0usize;
        let mut checked_hits = 0usize;
        for round in 0..10usize {
            // Churn: one competitive insert + delete a facet
            // contributor. Distinct insert attrs per round: BRS and the
            // naive oracle break exact score ties differently (id desc
            // vs id asc).
            let jitter = round as f64 * 3e-4;
            let hot = Record::new(
                10_000_000 + round as u64,
                vec![0.66 + jitter, 0.64 - jitter, 0.68],
            );
            let victim = contributor_of(&mirror);
            mirror.retain(|r| r.id != victim.id);
            mirror.push(hot.clone());
            let report = server
                .apply_updates(&[
                    Update::Insert(hot),
                    Update::Delete {
                        id: victim.id,
                        attrs: victim.attrs.clone(),
                    },
                ])
                .unwrap();
            repaired_total += report.repaired;

            let batch = server.run_batch(&reqs);
            for (req, resp) in reqs.iter().zip(&batch.responses) {
                let truth = naive_topk(&mirror, server.scoring(), &req.weights, req.k);
                assert_eq!(
                    resp.ids,
                    truth.ids(),
                    "round {round}: stale response (from_cache={}, w={:?})",
                    resp.from_cache,
                    req.weights
                );
                if resp.from_cache {
                    checked_hits += 1;
                }
            }
        }
        assert!(
            repaired_total > 0,
            "churn never exercised shard-local repair"
        );
        assert!(checked_hits > 0, "no cache hits survived the churn");
    }

    #[test]
    fn star_requests_serve_fresh_compositions_and_repair_shard_locally() {
        let sorted = |ids: &[u64]| {
            let mut v = ids.to_vec();
            v.sort_unstable();
            v
        };
        let mut mirror = records(900, 3, 0x85);
        let server = ShardedGirServer::new(
            ShardedDataset::build(3, &mirror, 4, Placement::Hash).unwrap(),
            ScoringFunction::linear(3),
            ServerConfig {
                threads: 1,
                ..ServerConfig::default()
            },
        );
        let reqs: Vec<TopKRequest> = (0..30)
            .map(|i| {
                let j = 0.0005 * (i % 11) as f64;
                TopKRequest::new(vec![0.55 + j, 0.6 - j, 0.45 + j / 2.0], 5)
                    .kind(RegionKind::GirStar)
            })
            .collect();
        let batch = server.run_batch(&reqs);
        assert!(batch.stats.hits > 0, "jittered star repeats should hit");

        // Find a GIR* facet contributor of the anchor query via a
        // shadow dataset, delete it (NeedsRepair on the star entry),
        // and keep verifying set-freshness across rounds of churn.
        let star_contributor_of = |mirror: &[Record]| -> Record {
            let data =
                ShardedDataset::build(3, mirror, 4, Placement::Hash).expect("shadow dataset");
            let q = QueryVector::new(reqs[0].weights.coords().to_vec());
            let out = data
                .gir_star(&ScoringFunction::linear(3), &q, 5, Method::FacetPruning)
                .expect("shadow gir*");
            let result_ids = out.result.ids();
            let id = out
                .region
                .contributor_ids()
                .find(|id| !result_ids.contains(id))
                .expect("non-trivial GIR* has non-result contributors");
            mirror.iter().find(|r| r.id == id).unwrap().clone()
        };

        let mut repaired_total = 0usize;
        let mut star_hits = 0usize;
        for round in 0..8usize {
            let jitter = round as f64 * 3e-4;
            let hot = Record::new(
                11_000_000 + round as u64,
                vec![0.66 + jitter, 0.64 - jitter, 0.68],
            );
            let victim = star_contributor_of(&mirror);
            mirror.retain(|r| r.id != victim.id);
            mirror.push(hot.clone());
            let report = server
                .apply_updates(&[
                    Update::Insert(hot),
                    Update::Delete {
                        id: victim.id,
                        attrs: victim.attrs.clone(),
                    },
                ])
                .unwrap();
            repaired_total += report.repaired;

            let batch = server.run_batch(&reqs);
            for (req, resp) in reqs.iter().zip(&batch.responses) {
                let truth = naive_topk(&mirror, server.scoring(), &req.weights, req.k);
                assert_eq!(
                    sorted(&resp.ids),
                    sorted(&truth.ids()),
                    "round {round}: stale star composition (from_cache={})",
                    resp.from_cache
                );
                if resp.from_cache {
                    star_hits += 1;
                }
            }
        }
        assert!(
            repaired_total > 0,
            "churn never exercised the shard-local star repair"
        );
        assert!(star_hits > 0, "no star cache hits survived the churn");
    }

    #[test]
    fn nonlinear_scoring_falls_back_to_sp() {
        let data = records(400, 4, 0x84);
        let server = ShardedGirServer::new(
            ShardedDataset::build(4, &data, 2, Placement::Hash).unwrap(),
            ScoringFunction::mixed4(),
            ServerConfig {
                threads: 2,
                method: Method::FacetPruning,
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
