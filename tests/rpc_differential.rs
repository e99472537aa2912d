//! The distribution differential: **process-per-shard ≡ in-process
//! sharding**, bit for bit, and faults degrade single responses —
//! never the batch, never the data.
//!
//! Three layers of proof over S ∈ {1, 2, 4, 8} × both placements:
//!
//! * [`distributed_region_bits_match_in_process`] — the raw compute
//!   seam: `RemoteShards::region` (merge + one `Phase2` RPC per shard,
//!   every record and half-space crossing the checksummed wire) against
//!   `ShardedDataset::gir`/`gir_star`, compared with the shared
//!   bit-identity oracle (ranked ids, score bits, half-space
//!   normal/offset bits, provenance sequence, Phase-2 counters), across
//!   random churn applied through the coordinator WAL on one side and
//!   direct tree updates on the other — plus consistent-cut agreement
//!   (the cut at a `DeltaBatch` boundary reproduces the live multiset
//!   bit-exactly).
//! * [`distributed_server_equals_in_process_under_faults`] — the full
//!   serving stack under a proptest-chosen fault plan (none / kill /
//!   delay-past-retries at a drawn shard × call index): every
//!   non-failed response matches the in-process `ShardedGirServer`
//!   oracle; every failed response names the unavailable shard; with no
//!   faults the hit/miss pattern, cache stats and full `UpdateReport`
//!   are identical; update batches rejoin dead workers (snapshot + WAL
//!   suffix) before broadcasting, so churn survives any schedule and
//!   the final record multisets agree bit-exactly.
//! * [`killed_worker_degrades_exactly_one_response`] — the PR 4
//!   contract across the wire: with a warm cache, a kill costs exactly
//!   the one response that needed the dead shard (`failed: true`, shard
//!   named in `error`), the rest of the batch serves from cache;
//!   [`DistributedGirServer::rejoin_dead`] brings the worker back via
//!   snapshot + WAL replay and the same query then succeeds with oracle
//!   ids.

mod common;

use common::oracle::{
    assert_bit_identical, dataset_key, materialize, probe_requests, records, report_key, Op,
    SHARDINGS,
};
use common::rpc::{dist_cfg, faulty_factory, inproc_server, one_shot_faulty_factory, remote_cfg};
use gir::core::{Method, RegionKind};
use gir::prelude::*;
use gir::rpc::{DistributedGirServer, Fault, FaultAction, FaultPlan, RemoteShards};
use gir::shard::ShardedDataset;
use proptest::prelude::*;
use std::sync::Arc;

/// The raw compute seam: every ranked record, score and half-space of
/// the distributed plan crosses the wire and must come back bit-equal
/// to the in-process shard fan-out — initially and after every churn
/// round applied through the coordinator WAL.
#[test]
fn distributed_region_bits_match_in_process() {
    let d = 3;
    let scoring = ScoringFunction::linear(d);
    let queries = [vec![0.55, 0.62, 0.48], vec![0.9, 0.15, 0.4]];
    for (s, p) in SHARDINGS {
        let mut live = records(220, d, 0x52_7063 ^ s as u64);
        let remote = RemoteShards::launch(
            scoring.clone(),
            p,
            s,
            &live,
            remote_cfg(),
            faulty_factory(FaultPlan::none()),
        )
        .unwrap();
        let mut data = ShardedDataset::build(d, &live, s, p).unwrap();

        let mut rng = 0x9E37u64 | 1;
        let mut next_id = 5_000_000u64;
        for round in 0..3 {
            if round > 0 {
                // One churn batch: the distributed side goes through
                // apply (WAL append + broadcast), the in-process side
                // through direct tree updates.
                let mut updates = Vec::new();
                for _ in 0..5 {
                    rng ^= rng << 13;
                    rng ^= rng >> 7;
                    rng ^= rng << 17;
                    if rng % 10 < 6 || live.len() < 40 {
                        let attrs: Vec<f64> = (0..d)
                            .map(|j| {
                                let mut x = rng.rotate_left(j as u32 + 1) | 1;
                                x ^= x << 13;
                                x ^= x >> 7;
                                (x >> 11) as f64 / (1u64 << 53) as f64
                            })
                            .collect();
                        let rec = Record::new(next_id, attrs);
                        next_id += 1;
                        live.push(rec.clone());
                        updates.push(Update::Insert(rec));
                    } else {
                        let idx = (rng as usize / 10) % live.len();
                        let victim = live.swap_remove(idx);
                        updates.push(Update::Delete {
                            id: victim.id,
                            attrs: victim.attrs,
                        });
                    }
                }
                let inserts = updates
                    .iter()
                    .filter(|u| matches!(u, Update::Insert(_)))
                    .count();
                let applied = remote.apply(&updates).unwrap();
                assert_eq!(
                    (applied.report.inserted, applied.report.deleted),
                    (inserts, updates.len() - inserts),
                    "S={s} {p:?} round={round}: owner outcomes miscounted"
                );
                for u in &updates {
                    match u {
                        Update::Insert(rec) => data.insert(rec.clone()).unwrap(),
                        Update::Delete { id, attrs } => {
                            assert!(data.delete(*id, attrs).unwrap());
                        }
                    }
                }
                // The consistent cut at this batch boundary is the live
                // multiset, bit-exactly.
                assert_eq!(
                    dataset_key(remote.cut_all().unwrap().into_iter().flatten().collect()),
                    dataset_key(live.clone()),
                    "S={s} {p:?} round={round}: consistent cut diverged"
                );
            }

            for (qi, w) in queries.iter().enumerate() {
                let q = QueryVector::new(w.clone());
                for k in [1usize, 4] {
                    for m in [Method::SkylinePruning, Method::FacetPruning] {
                        let label = |kind: &str| {
                            format!("{kind} S={s} {p:?} round={round} q={qi} k={k} {m:?}")
                        };
                        let local = data.gir(&scoring, &q, k, m).unwrap();
                        let wire = remote.region(RegionKind::Gir, &q, k, m).unwrap();
                        assert_bit_identical(&local, &wire, &label("gir"));

                        let local = data.gir_star(&scoring, &q, k, m).unwrap();
                        let wire = remote.region(RegionKind::GirStar, &q, k, m).unwrap();
                        assert_bit_identical(&local, &wire, &label("gir_star"));
                    }
                }
            }
        }
        remote.shutdown();
    }
}

/// What the drawn fault does: nothing, a worker kill, or a delay long
/// enough to exhaust the retry budget (both reap the slot; they differ
/// in the failure reason and the retry counters).
fn build_plan(fault_kind: u8, shard: usize, call: u64) -> Arc<FaultPlan> {
    let faults = match fault_kind {
        1 => vec![Fault {
            shard,
            call,
            action: FaultAction::Kill,
        }],
        2 => (0..2) // the retry lands on call + 1: delay both
            .map(|i| Fault {
                shard,
                call: call + i,
                action: FaultAction::Delay,
            })
            .collect(),
        _ => Vec::new(),
    };
    Arc::new(FaultPlan { faults })
}

#[allow(clippy::too_many_arguments)]
fn run_fault_case(
    d: usize,
    records: &[Record],
    batches: &[Vec<Update>],
    requests: &[TopKRequest],
    fresh: &[TopKRequest],
    s: usize,
    p: Placement,
    fault_kind: u8,
    fault_shard: usize,
    fault_call: u64,
) {
    let ctx = format!("S={s} {p:?} fault={fault_kind}@{fault_shard}:{fault_call}");
    let scoring = ScoringFunction::linear(d);
    let oracle = inproc_server(d, records, scoring.clone(), s, p);
    let plan = build_plan(fault_kind, fault_shard % s, fault_call);
    let dist = DistributedGirServer::launch(
        records,
        scoring,
        dist_cfg(s, p),
        one_shot_faulty_factory(plan),
    )
    .unwrap();

    for (bi, batch) in batches.iter().enumerate() {
        let got = dist.run_batch(requests);
        let want = oracle.run_batch(requests);
        prop_assert_eq!(got.responses.len(), want.responses.len());
        for (i, (g, w)) in got.responses.iter().zip(&want.responses).enumerate() {
            if g.failed {
                // Degraded, not wrong: the reason names the shard, the
                // rest of the batch is untouched.
                let reason = g.error.as_deref().unwrap_or_default();
                prop_assert!(
                    reason.contains("unavailable"),
                    "{}: probe {} failed without a shard reason: {:?}",
                    &ctx,
                    i,
                    g.error
                );
                prop_assert!(g.ids.is_empty(), "{}: failed probe {} carries ids", &ctx, i);
            } else {
                prop_assert_eq!(
                    &g.ids,
                    &w.ids,
                    "{}: batch {} probe {} ids diverged",
                    &ctx,
                    bi,
                    i
                );
            }
            if fault_kind == 0 {
                prop_assert!(!g.failed, "{}: no-fault probe {} failed", &ctx, i);
                prop_assert_eq!(
                    g.from_cache,
                    w.from_cache,
                    "{}: hit/miss pattern diverged at probe {}",
                    &ctx,
                    i
                );
            }
        }
        if fault_kind == 0 {
            let (a, b) = (dist.cache_stats(), oracle.cache_stats());
            prop_assert_eq!(
                (a.entries, a.hits),
                (b.entries, b.hits),
                "{}: cache stats",
                &ctx
            );
        }

        // Churn: apply rejoins any dead worker first (snapshot + WAL
        // suffix), so owner outcomes — and hence the report — stay
        // exact whatever the fault schedule did.
        let r_d = dist.apply_updates(batch).unwrap();
        let r_o = oracle.apply_updates(batch).unwrap();
        prop_assert_eq!(
            (r_d.inserted, r_d.deleted, r_d.missed_deletes),
            (r_o.inserted, r_o.deleted, r_o.missed_deletes),
            "{}: batch {} owner outcomes diverged",
            &ctx,
            bi
        );
        if fault_kind == 0 {
            // Identical caches ⇒ identical maintenance classification.
            prop_assert_eq!(
                report_key(&r_d),
                report_key(&r_o),
                "{}: batch {} maintenance diverged",
                &ctx,
                bi
            );
        }
    }

    // Recovery: every worker rejoins, fresh queries (cold on both
    // sides) agree, and the datasets are bit-identical. A planned fault
    // whose call index was never reached during the main run can still
    // fire here — each endpoint instance faults at most once (the
    // factory is one-shot), so one absorb-and-rejoin round converges.
    dist.rejoin_dead().unwrap();
    prop_assert!(
        dist.dead_shards().is_empty(),
        "{}: dead shards after rejoin",
        &ctx
    );
    let mut got = dist.run_batch(fresh);
    for _ in 0..3 {
        if got.responses.iter().all(|r| !r.failed) {
            break;
        }
        dist.rejoin_dead().unwrap();
        got = dist.run_batch(fresh);
    }
    let want = oracle.run_batch(fresh);
    for (i, (g, w)) in got.responses.iter().zip(&want.responses).enumerate() {
        prop_assert!(!g.failed, "{}: post-rejoin probe {} failed", &ctx, i);
        prop_assert_eq!(&g.ids, &w.ids, "{}: post-rejoin probe {} diverged", &ctx, i);
    }
    prop_assert_eq!(
        dataset_key(dist.records_snapshot().unwrap()),
        dataset_key(oracle.records_snapshot().unwrap()),
        "{}: final record multiset diverged",
        &ctx
    );
    dist.shutdown();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// The full serving stack under a proptest-chosen kill/delay/none
    /// schedule, over churn, across the sharding grid.
    #[test]
    fn distributed_server_equals_in_process_under_faults(
        floats in proptest::collection::vec(
            proptest::collection::vec(0.0f64..1.0, 3), 60..90),
        ops in proptest::collection::vec(
            proptest::collection::vec(
                (0u8..10, proptest::collection::vec(0.0f64..1.0, 3), 0u64..1 << 40),
                2..5),
            3..6),
        probes in proptest::collection::vec(
            proptest::collection::vec(0.05f64..0.95, 3), 3),
        k in 2usize..6,
        fault_kind in 0u8..3,
        fault_shard in 0usize..8,
        fault_call in 0u64..24,
    ) {
        let d = 3;
        let records: Vec<Record> = floats
            .into_iter()
            .enumerate()
            .map(|(i, attrs)| Record::new(i as u64, attrs))
            .collect();
        let ops: Vec<Vec<Op>> = ops;
        let batches = materialize(&records, &ops);
        let requests = probe_requests(&probes, k);
        // Cold on both sides after the run: mirrored weights.
        let fresh_probes: Vec<Vec<f64>> =
            probes.iter().map(|w| w.iter().map(|x| 1.03 - x).collect()).collect();
        let fresh = probe_requests(&fresh_probes, k);
        for (s, p) in SHARDINGS {
            run_fault_case(
                d, &records, &batches, &requests, &fresh,
                s, p, fault_kind, fault_shard, fault_call,
            );
        }
    }
}

/// The sharpest form of the failure contract: a kill costs exactly the
/// one response that needed the dead worker.
#[test]
fn killed_worker_degrades_exactly_one_response() {
    let d = 3;
    let s = 4;
    let scoring = ScoringFunction::linear(d);
    let data = records(160, d, 0x1CE0);
    let oracle = inproc_server(d, &data, scoring.clone(), s, Placement::Hash);

    // Warm probes, then kill shard 2 on its next query call. Each
    // *miss* costs shard 2 exactly two query calls (TopK + Phase2),
    // and both kinds of one weight share a cache entry (identical
    // top-k), so warming W weights is W misses: the next miss's fan-out
    // starts at fault-clock index 2W.
    //
    // The cache is *region*-based: a query whose weights fall inside a
    // cached GIR hits even with brand-new weights. Finding a weight
    // vector that genuinely misses post-warmup is therefore done on the
    // oracle (same cache semantics, no transport) before the fault plan
    // is armed.
    let warm_weights = [vec![0.55, 0.62, 0.48], vec![0.9, 0.15, 0.4]];
    let warm = probe_requests(&warm_weights, 5);
    oracle.run_batch(&warm);
    let fresh_w = (0..50)
        .map(|t| {
            let t = f64::from(t);
            vec![0.05 + 0.017 * t, 0.95 - 0.013 * t, 0.10 + 0.009 * t]
        })
        .find(|w| {
            let out = oracle.run_batch(&probe_requests(std::slice::from_ref(w), 5)[..1]);
            !out.responses[0].from_cache
        })
        .expect("some weight vector escapes every warm region");
    let plan = Arc::new(FaultPlan {
        faults: vec![Fault {
            shard: 2,
            call: 2 * warm_weights.len() as u64,
            action: FaultAction::Kill,
        }],
    });
    let dist = DistributedGirServer::launch(
        &data,
        scoring,
        dist_cfg(s, Placement::Hash),
        faulty_factory(plan),
    )
    .unwrap();

    let out = dist.run_batch(&warm);
    assert!(out.responses.iter().all(|r| !r.failed), "warmup failed");

    // One fresh miss among warm hits: the kill fires inside the fresh
    // miss's fan-out; the hits never touch the transport.
    let mut batch = warm.clone();
    batch.push(probe_requests(std::slice::from_ref(&fresh_w), 5)[0].clone());
    let out = dist.run_batch(&batch);
    let failed: Vec<usize> = out
        .responses
        .iter()
        .enumerate()
        .filter(|(_, r)| r.failed)
        .map(|(i, _)| i)
        .collect();
    assert_eq!(
        failed,
        vec![batch.len() - 1],
        "exactly the fresh miss must degrade"
    );
    let reason = out.responses[batch.len() - 1]
        .error
        .as_deref()
        .expect("failed response carries its reason");
    assert!(
        reason.contains("shard 2"),
        "reason must name the dead shard: {reason}"
    );
    assert!(
        out.responses[..batch.len() - 1]
            .iter()
            .all(|r| r.from_cache && !r.failed),
        "warm responses must keep serving from cache"
    );
    assert_eq!(dist.dead_shards(), vec![2], "the killed slot is reaped");

    // Snapshot + WAL rejoin, then the same query succeeds with oracle
    // ids.
    assert_eq!(dist.rejoin_dead().unwrap(), 1);
    assert!(dist.dead_shards().is_empty());
    let got = dist.run_batch(std::slice::from_ref(&batch[batch.len() - 1]));
    let want = oracle.run_batch(std::slice::from_ref(&batch[batch.len() - 1]));
    assert!(!got.responses[0].failed, "post-rejoin query failed");
    assert_eq!(
        got.responses[0].ids, want.responses[0].ids,
        "post-rejoin ids diverged from the in-process oracle"
    );
    dist.shutdown();
}
