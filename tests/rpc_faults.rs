//! The fault-path contract of the distributed tier, pinned exactly:
//!
//! * a hung worker costs precisely its timeout + retry budget, fails
//!   only the response that needed it (reason: the shard and "timed
//!   out"), and every attempt is visible in the `rpc.*` counters —
//!   requests/responses/failures/timeouts/retries deltas match the
//!   injected fault plan arithmetic, not just "some errors happened";
//! * one transient delay is absorbed by the retry budget: the caller
//!   sees a clean response, the counters see one failure and one retry;
//! * a killed worker fails fast (`connection closed`, no retry — the
//!   stream is gone), and once the slot is reaped, further calls
//!   short-circuit with **zero** counter movement (a dead transport
//!   must not manufacture request traffic);
//! * rejoin is one `Load` RPC (+ WAL suffix) and one `rpc.rejoins`
//!   tick, after which the same query succeeds;
//! * a snapshot roll that fails after its batch was broadcast is
//!   counted, not returned: the cache is reconciled with the applied
//!   batch, so no stale hit survives the failure;
//! * through all of it the liveness invariant `metrics_check` enforces
//!   on CI snapshots holds: `requests = responses + failures` and
//!   `retries ≤ requests`.
//!
//! The `rpc.*` counters are process-global, so every test serializes
//! behind one lock and measures deltas against its own baseline.

mod common;

use common::oracle::{dataset_key, probe_requests, records, report_key};
use common::rpc::{
    apply_kill_factory, cut_kill_factory, dist_cfg, inproc_server, one_shot_faulty_factory,
};
use gir::obs::rpc::RpcCounters;
use gir::prelude::*;
use gir::query::naive_topk;
use gir::rpc::{DistributedGirServer, Fault, FaultAction, FaultPlan};
use gir::shard::ShardedGirServer;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};

/// Serializes the tests of this binary: they share the process-global
/// `rpc.*` counters and assert exact deltas.
static COUNTER_LOCK: Mutex<()> = Mutex::new(());

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Snap {
    requests: u64,
    responses: u64,
    failures: u64,
    retries: u64,
    timeouts: u64,
    rejoins: u64,
}

fn snap(c: &RpcCounters) -> Snap {
    Snap {
        requests: c.requests.get(),
        responses: c.responses.get(),
        failures: c.failures.get(),
        retries: c.retries.get(),
        timeouts: c.timeouts.get(),
        rejoins: c.rejoins.get(),
    }
}

/// `(requests, responses, failures, retries, timeouts, rejoins)` since
/// `base`.
fn delta(base: Snap, now: Snap) -> (u64, u64, u64, u64, u64, u64) {
    (
        now.requests - base.requests,
        now.responses - base.responses,
        now.failures - base.failures,
        now.retries - base.retries,
        now.timeouts - base.timeouts,
        now.rejoins - base.rejoins,
    )
}

fn assert_live(c: &RpcCounters) {
    let s = snap(c);
    assert_eq!(
        s.requests,
        s.responses + s.failures,
        "liveness: every attempt must resolve"
    );
    assert!(s.retries <= s.requests, "liveness: retries exceed requests");
}

fn plan(faults: Vec<Fault>) -> Arc<FaultPlan> {
    Arc::new(FaultPlan { faults })
}

fn launch(s: usize, seed: u64, p: Arc<FaultPlan>) -> (Vec<Record>, DistributedGirServer) {
    let d = 3;
    let data = records(90, d, seed);
    let dist = DistributedGirServer::launch(
        &data,
        ScoringFunction::linear(d),
        dist_cfg(s, Placement::Hash),
        one_shot_faulty_factory(p),
    )
    .unwrap();
    (data, dist)
}

/// Delay on both the first query call and its retry: the worker is
/// hung past the whole retry budget. Exactly one response degrades,
/// with the shard and the timeout in its reason, and the counter
/// deltas are the fault-plan arithmetic: the miss aborts at shard 1's
/// top-k, so shard 0 contributed one answered request and shard 1 two
/// timed-out attempts bridged by one retry.
#[test]
fn hung_worker_times_out_with_reason_and_exact_counters() {
    let _guard = COUNTER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let c = RpcCounters::global();
    let (_, dist) = launch(
        2,
        0xFA01,
        plan(
            (0..2)
                .map(|i| Fault {
                    shard: 1,
                    call: i,
                    action: FaultAction::Delay,
                })
                .collect(),
        ),
    );
    let req = probe_requests(&[vec![0.55, 0.62, 0.48]], 5);
    let base = snap(&c);
    let out = dist.run_batch(&req[..1]);
    let r = &out.responses[0];
    assert!(r.failed, "hung worker must degrade the response");
    let reason = r.error.as_deref().expect("failed response carries reason");
    assert!(
        reason.contains("shard 1") && reason.contains("timed out"),
        "reason must name the shard and the timeout: {reason}"
    );
    assert_eq!(
        delta(base, snap(&c)),
        // requests, responses, failures, retries, timeouts, rejoins
        (3, 1, 2, 1, 2, 0),
        "counters must match the injected plan exactly"
    );
    assert_eq!(dist.dead_shards(), vec![1], "post-retry timeout reaps");

    // Rejoin: one Load RPC (the WAL suffix is empty — no batches were
    // applied) and one rejoin tick; the same query then succeeds with
    // a full fan-out (2 shards × TopK + Phase2).
    let base = snap(&c);
    assert_eq!(dist.rejoin_dead().unwrap(), 1);
    assert_eq!(delta(base, snap(&c)), (1, 1, 0, 0, 0, 1));
    let base = snap(&c);
    let out = dist.run_batch(&req[..1]);
    assert!(!out.responses[0].failed, "rejoined worker must answer");
    assert!(!out.responses[0].ids.is_empty());
    assert_eq!(delta(base, snap(&c)), (4, 4, 0, 0, 0, 0));
    assert_live(&c);
    dist.shutdown();
}

/// One transient delay sits inside the retry budget: the caller never
/// sees it, the counters see exactly one failure and its retry.
#[test]
fn single_delay_is_absorbed_by_retry() {
    let _guard = COUNTER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let c = RpcCounters::global();
    let fplan = plan(vec![Fault {
        shard: 0,
        call: 0,
        action: FaultAction::Delay,
    }]);
    let (data, dist) = launch(2, 0xFA02, fplan);
    let oracle = inproc_server(3, &data, ScoringFunction::linear(3), 2, Placement::Hash);
    let req = probe_requests(&[vec![0.9, 0.15, 0.4]], 4);
    let base = snap(&c);
    let out = dist.run_batch(&req[..1]);
    let want = oracle.run_batch(&req[..1]);
    assert!(!out.responses[0].failed, "retry must absorb one delay");
    assert_eq!(
        out.responses[0].ids, want.responses[0].ids,
        "retried answer must match the in-process oracle"
    );
    // Full miss fan-out (2 × TopK + 2 × Phase2 answered) plus the one
    // timed-out first attempt on shard 0.
    assert_eq!(delta(base, snap(&c)), (5, 4, 1, 1, 1, 0));
    assert!(
        dist.dead_shards().is_empty(),
        "no reap on an absorbed delay"
    );
    assert_live(&c);
    dist.shutdown();
}

/// A kill fails fast (closed streams are not retried), and once the
/// slot is reaped further calls short-circuit without touching the
/// counters — a dead transport generates no phantom traffic.
#[test]
fn dead_slot_short_circuits_without_counter_movement() {
    let _guard = COUNTER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let c = RpcCounters::global();
    let fplan = plan(vec![Fault {
        shard: 1,
        call: 0,
        action: FaultAction::Kill,
    }]);
    let (_, dist) = launch(2, 0xFA03, fplan);
    let req = probe_requests(&[vec![0.33, 0.71, 0.52]], 5);

    // The kill: shard 0 answers its TopK, shard 1's dies mid-call. No
    // retry (the stream is gone), so one failure and zero timeouts.
    let base = snap(&c);
    let out = dist.run_batch(&req[..1]);
    assert!(out.responses[0].failed);
    let reason = out.responses[0].error.as_deref().unwrap_or_default();
    assert!(
        reason.contains("shard 1") && reason.contains("connection closed"),
        "kill reason must be the closed transport: {reason}"
    );
    assert_eq!(delta(base, snap(&c)), (2, 1, 1, 0, 0, 0));
    assert_eq!(dist.dead_shards(), vec![1]);

    // Same query again: nothing was admitted (the miss failed), so the
    // fan-out re-runs — shard 0 is one counted request, the dead slot
    // fails the response with zero counter movement.
    let base = snap(&c);
    let out = dist.run_batch(&req[..1]);
    assert!(out.responses[0].failed);
    assert_eq!(
        delta(base, snap(&c)),
        (1, 1, 0, 0, 0, 0),
        "a dead slot must not manufacture request traffic"
    );

    assert_eq!(dist.rejoin_dead().unwrap(), 1);
    let out = dist.run_batch(&req[..1]);
    assert!(!out.responses[0].failed, "rejoined worker must answer");
    assert_live(&c);
    dist.shutdown();
}

/// Builds matched distributed/oracle servers where shard 1's worker
/// dies on `Apply` while `kills` holds charges, plus three update
/// batches that churn every shard.
fn apply_fault_fixture(
    seed: u64,
    kills: &Arc<AtomicU32>,
) -> (
    Vec<Record>,
    DistributedGirServer,
    ShardedGirServer,
    Vec<Vec<Update>>,
) {
    let d = 3;
    let s = 4;
    let data = records(120, d, seed);
    let dist = DistributedGirServer::launch(
        &data,
        ScoringFunction::linear(d),
        dist_cfg(s, Placement::Hash),
        apply_kill_factory(1, kills.clone()),
    )
    .unwrap();
    let oracle = inproc_server(d, &data, ScoringFunction::linear(d), s, Placement::Hash);
    // Three batches: inserts spread across shards plus a delete each,
    // derived purely from `data` so both sides see identical streams.
    let mut next_id = 7_000_000u64;
    let batches = (0..3)
        .map(|b| {
            let mut batch: Vec<Update> = (0..6)
                .map(|i| {
                    let src = &data[(b * 17 + i * 5) % data.len()];
                    let attrs: Vec<f64> = src
                        .attrs
                        .coords()
                        .iter()
                        .map(|x| (x * 0.83) + 0.05)
                        .collect();
                    let rec = Record::new(next_id, attrs);
                    next_id += 1;
                    Update::Insert(rec)
                })
                .collect();
            let victim = &data[(b * 31 + 7) % data.len()];
            batch.push(Update::Delete {
                id: victim.id,
                attrs: victim.attrs.clone(),
            });
            batch
        })
        .collect();
    (data, dist, oracle, batches)
}

/// The silent-divergence regression: a worker lost *mid-broadcast*
/// must not abort the broadcast — the shards after it still receive
/// the batch, and the reaped shard rejoins inline (the WAL already
/// holds the batch), recovering even its owner outcomes. Everything
/// downstream — report, record multiset, fresh queries — stays
/// bit-identical to the in-process oracle.
#[test]
fn apply_failure_mid_broadcast_rejoins_inline_without_divergence() {
    let _guard = COUNTER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let c = RpcCounters::global();
    let kills = Arc::new(AtomicU32::new(0));
    let (_, dist, oracle, batches) = apply_fault_fixture(0xAF01, &kills);

    let r_d = dist.apply_updates(&batches[0]).unwrap();
    let r_o = oracle.apply_updates(&batches[0]).unwrap();
    assert_eq!(report_key(&r_d), report_key(&r_o), "clean batch diverged");

    // Shard 1 dies on its Apply of batch 2; the rejoin's replacement
    // endpoint draws no charge and comes back healthy.
    kills.store(1, Ordering::SeqCst);
    let base = snap(&c);
    let r_d = dist.apply_updates(&batches[1]).unwrap();
    let r_o = oracle.apply_updates(&batches[1]).unwrap();
    assert_eq!(
        report_key(&r_d),
        report_key(&r_o),
        "inline rejoin must recover the dead shard's owner outcomes"
    );
    assert!(
        dist.dead_shards().is_empty(),
        "the killed shard must rejoin within the apply"
    );
    assert_eq!(
        snap(&c).rejoins - base.rejoins,
        1,
        "exactly one inline rejoin"
    );

    // Fresh misses agree with the oracle — proof that the shards
    // *after* the failing one still received the batch.
    let fresh = probe_requests(&[vec![0.2, 0.5, 0.8], vec![0.7, 0.6, 0.1]], 5);
    let got = dist.run_batch(&fresh);
    let want = oracle.run_batch(&fresh);
    for (i, (g, w)) in got.responses.iter().zip(&want.responses).enumerate() {
        assert!(!g.failed, "probe {i} failed");
        assert_eq!(g.ids, w.ids, "probe {i} ids diverged after the fault");
    }
    assert_eq!(
        dataset_key(dist.records_snapshot().unwrap()),
        dataset_key(oracle.records_snapshot().unwrap()),
        "record multiset diverged"
    );
    assert_live(&c);
    dist.shutdown();
}

/// The worst case: the inline rejoin fails too (the replacement worker
/// also dies on its replay `Apply`). The shard stays dead — visibly,
/// not silently — the broadcast still reaches every later shard, the
/// snapshot roll is skipped (a cut needs all workers), and the next
/// update batch rejoins the shard up front, converging both sides
/// bit-identically.
#[test]
fn apply_failure_with_failed_rejoin_leaves_shard_dead_then_converges() {
    let _guard = COUNTER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let c = RpcCounters::global();
    let kills = Arc::new(AtomicU32::new(0));
    let (_, dist, oracle, batches) = apply_fault_fixture(0xAF02, &kills);

    dist.apply_updates(&batches[0]).unwrap();
    oracle.apply_updates(&batches[0]).unwrap();

    // Charge 1 kills the live worker mid-broadcast; charge 2 kills the
    // rejoin replacement on its first replay Apply. Batch 2 is epoch 2
    // (snapshot cadence boundary): the roll must be skipped, not fail.
    kills.store(2, Ordering::SeqCst);
    dist.apply_updates(&batches[1]).unwrap();
    oracle.apply_updates(&batches[1]).unwrap();
    assert_eq!(
        dist.dead_shards(),
        vec![1],
        "a failed rejoin must leave the shard visibly dead"
    );

    // The next batch rejoins up front (no charges left) and replays the
    // full WAL suffix — nothing was skipped anywhere.
    let r_d = dist.apply_updates(&batches[2]).unwrap();
    let r_o = oracle.apply_updates(&batches[2]).unwrap();
    assert_eq!(
        (r_d.inserted, r_d.deleted, r_d.missed_deletes),
        (r_o.inserted, r_o.deleted, r_o.missed_deletes),
        "post-recovery owner outcomes diverged"
    );
    assert!(dist.dead_shards().is_empty(), "up-front rejoin failed");

    let fresh = probe_requests(&[vec![0.15, 0.45, 0.85], vec![0.65, 0.7, 0.2]], 4);
    let got = dist.run_batch(&fresh);
    let want = oracle.run_batch(&fresh);
    for (i, (g, w)) in got.responses.iter().zip(&want.responses).enumerate() {
        assert!(!g.failed, "probe {i} failed");
        assert_eq!(g.ids, w.ids, "probe {i} ids diverged after recovery");
    }
    assert_eq!(
        dataset_key(dist.records_snapshot().unwrap()),
        dataset_key(oracle.records_snapshot().unwrap()),
        "record multiset diverged after recovery"
    );
    assert_live(&c);
    dist.shutdown();
}

/// A snapshot roll that fails *after* its batch reached every shard:
/// shard 1 dies on the roll's `Cut` at the epoch-2 boundary, right
/// after a dominating insert. The batch landed, so the cache must be
/// reconciled with it — before the fix the failed roll surfaced as an
/// apply error that skipped reconciliation, and every probe below was a
/// stale hit missing the new record. The roll failure itself is
/// non-fatal: counted, retried at the next boundary.
#[test]
fn failed_snapshot_roll_still_reconciles_the_cache() {
    let _guard = COUNTER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let c = RpcCounters::global();
    let d = 3;
    let mut live = records(120, d, 0xC07A);
    let kills = Arc::new(AtomicU32::new(0));
    let dist = DistributedGirServer::launch(
        &live,
        ScoringFunction::linear(d),
        dist_cfg(2, Placement::Hash),
        cut_kill_factory(1, kills.clone()),
    )
    .unwrap();
    let reqs: Vec<TopKRequest> = (0..20)
        .map(|i| {
            let j = 0.0005 * (i % 11) as f64;
            TopKRequest::new(vec![0.55 + j, 0.6 - j, 0.45 + j / 2.0], 5)
        })
        .collect();

    // Epoch 1: an ordinary batch (no roll), then warm the cache.
    let filler = Record::new(8_000_000, vec![0.3, 0.2, 0.1]);
    dist.apply_updates(&[Update::Insert(filler.clone())])
        .unwrap();
    live.push(filler);
    let warm = dist.run_batch(&reqs);
    assert!(warm.stats.hits > 0, "jittered probes must hit the cache");

    // Epoch 2 is a snapshot boundary (`snapshot_every: 2`): shard 1
    // dies on the roll's Cut.
    kills.store(1, Ordering::SeqCst);
    let champion = Record::new(8_000_001, vec![0.99, 0.99, 0.99]);
    let applied = dist.apply_updates(&[Update::Insert(champion.clone())]);
    live.push(champion);

    // Bring the shard back (snapshot + WAL suffix) so misses compute;
    // every answer must then be the exact top-k of the live set.
    assert_eq!(dist.rejoin_dead().unwrap(), 1);
    let out = dist.run_batch(&reqs);
    for (i, (req, resp)) in reqs.iter().zip(&out.responses).enumerate() {
        assert!(!resp.failed, "probe {i} failed: {:?}", resp.error);
        let truth = naive_topk(&live, dist.scoring(), &req.weights, req.k);
        assert_eq!(
            resp.ids,
            truth.ids(),
            "probe {i}: stale answer after the failed roll (from_cache={})",
            resp.from_cache
        );
    }
    let report = applied.expect("a failed roll must not fail the applied batch");
    assert_eq!(report.inserted, 1);
    assert_eq!(dist.snapshot_failures(), 1, "the failed roll is counted");
    assert_live(&c);
    dist.shutdown();
}
