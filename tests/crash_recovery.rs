//! The durability differential: **recovery ≡ never-crashed**.
//!
//! A [`DurableServer`] over a [`ShardedGirServer`] runs random churn
//! with a crash point injected at a proptest-chosen mutating-I/O op
//! index ([`CrashClock`] / [`CrashDir`]): the fatal append persists a
//! deterministic *torn prefix* of its frame, and every later mutating
//! op fails, leaving the in-memory server in degraded read-only mode
//! (queries keep serving, `apply_updates` returns `Err`, never a
//! panic). The surviving [`MemDir`] is the disk image; "reboot" =
//! [`DurableServer::recover_in`] over it.
//!
//! The oracle is a *never-crashed* server built from the same initial
//! records that applies exactly the committed batch prefix recovery
//! reports. The committed prefix is `ok` or `ok + 1` batches — the
//! classic ambiguity: an append whose ack was lost may still have
//! persisted its full frame. Equivalence is then asserted on every
//! observable the paper's serving layer exposes:
//!
//! * the record multiset, **bit-exactly** (the wire format must not
//!   perturb a single f64 bit — facets would move), and the per-shard
//!   partition (placement is pure, so the cut must reproduce it);
//! * top-k responses for probe queries under both [`RegionKind`]s,
//!   across a miss pass *and* a cache-hit pass (same `ids`, same
//!   `from_cache`, same `failed`);
//! * GIR region facets (reduced non-result contributor ids) computed
//!   over both datasets;
//! * maintenance counters of one further identical update batch
//!   applied to both sides (evict/repair/shrink/untouched classify the
//!   same way), plus post-maintenance probe agreement (cache
//!   freshness).
//!
//! Grid: S ∈ {1, 2, 4, 8} × both placements × both kinds × random
//! fsync policy, snapshot cadence, crash budget and torn seed. Honors
//! `PROPTEST_CASES` and `GIR_SEED` (the vendored proptest folds them
//! into its per-test deterministic RNG).

mod common;

use common::oracle::{
    build_tree, dataset_key, materialize, probe_requests, reduced_contributors, report_key, Op,
    SHARDINGS,
};
use gir::core::{GirEngine, Method};
use gir::prelude::*;
use gir::serve::{DurabilityConfig, DurabilityError, DurableServer};
use gir::shard::ShardedGirServer;
use gir::storage::{CrashClock, CrashDir, FsyncPolicy, MemDir};
use proptest::prelude::*;

const FSYNCS: [FsyncPolicy; 3] = [
    FsyncPolicy::Always,
    FsyncPolicy::EveryN(2),
    FsyncPolicy::Never,
];

fn server_cfg() -> ServerConfig {
    ServerConfig {
        threads: 1, // deterministic probe order: hit patterns comparable
        shards: 4,
        shard_capacity: 16,
        method: Method::FacetPruning,
        force_path: None,
        ..ServerConfig::default()
    }
}

fn build_server(d: usize, records: &[Record], s: usize, p: Placement) -> ShardedGirServer {
    let data = ShardedDataset::build(d, records, s, p).unwrap();
    ShardedGirServer::new(data, ScoringFunction::linear(d), server_cfg())
}

fn assert_responses_equal(
    got: &gir::serve::BatchResult,
    want: &gir::serve::BatchResult,
    ctx: &str,
) {
    prop_assert_eq!(got.responses.len(), want.responses.len());
    for (i, (g, w)) in got.responses.iter().zip(&want.responses).enumerate() {
        prop_assert_eq!(&g.ids, &w.ids, "{}: probe {} top-k diverged", ctx, i);
        prop_assert_eq!(
            g.failed,
            w.failed,
            "{}: probe {} failed-flag diverged",
            ctx,
            i
        );
        prop_assert_eq!(
            g.from_cache,
            w.from_cache,
            "{}: probe {} hit/miss diverged",
            ctx,
            i
        );
    }
}

#[allow(clippy::too_many_arguments)]
fn run_one(
    d: usize,
    records: &[Record],
    batches: &[Vec<Update>],
    requests: &[TopKRequest],
    s: usize,
    p: Placement,
    budget: u64,
    torn_seed: u64,
    fsync: FsyncPolicy,
    snapshot_every: u64,
) {
    let ctx = format!("S={s} {p:?} fsync={fsync:?} snap={snapshot_every} budget={budget}");
    let disk = MemDir::new();
    let clock = CrashClock::new(u64::MAX, torn_seed);
    let dcfg = DurabilityConfig {
        dir: std::path::PathBuf::new(), // unused by the *_in constructors
        fsync,
        snapshot_every,
    };
    let durable = DurableServer::create_in(
        Box::new(CrashDir::new(disk.clone(), clock.clone())),
        build_server(d, records, s, p),
        dcfg.clone(),
    )
    .unwrap();

    // The fault window opens only now: creation I/O was free.
    clock.arm(budget);
    let mut ok = 0u64;
    let mut crashed = false;
    for batch in batches {
        // Interleaved probes admit cache entries pre-crash (reads never
        // tick the crash clock).
        let pre = durable.run_batch(requests);
        prop_assert_eq!(pre.responses.len(), requests.len());
        match durable.apply_updates(batch) {
            Ok(_) => ok += 1,
            Err(_) => {
                crashed = true;
                // Degraded read-only mode: later writes are rejected up
                // front, reads keep serving — and never panic.
                prop_assert!(
                    durable.is_read_only(),
                    "{}: apply failed but not read-only",
                    ctx
                );
                match durable.apply_updates(&batches[0]) {
                    Err(DurabilityError::ReadOnly) => {}
                    Err(e) => panic!("{ctx}: expected ReadOnly, got {e}"),
                    Ok(_) => panic!("{ctx}: write accepted after degradation"),
                }
                let post = durable.run_batch(requests);
                prop_assert_eq!(post.responses.len(), requests.len());
                prop_assert!(
                    post.responses.iter().all(|r| !r.failed),
                    "{}: degraded reads failed",
                    ctx
                );
                break;
            }
        }
    }
    drop(durable);
    if std::env::var("CRASH_DEBUG").is_ok() {
        eprintln!("{ctx}: ok={ok} crashed={crashed}");
    }

    // Reboot: recover from the surviving disk image. The inner MemDir
    // holds exactly what "survived the crash", torn prefix included.
    clock.disarm();
    let (recovered, report) = DurableServer::recover_in(Box::new(disk), dcfg, |snap| {
        let recs: Vec<Record> = snap.shards.into_iter().flatten().collect();
        let data = ShardedDataset::build(d, &recs, s, p)?;
        Ok(ShardedGirServer::new(
            data,
            ScoringFunction::linear(d),
            server_cfg(),
        ))
    })
    .unwrap();
    let total = report.batches();
    prop_assert!(
        total >= ok && total <= ok + u64::from(crashed),
        "{}: recovered {} batches outside committed window [{}, {}]",
        ctx,
        total,
        ok,
        ok + u64::from(crashed)
    );

    // The never-crashed oracle applies exactly the committed prefix.
    let oracle = build_server(d, records, s, p);
    for batch in &batches[..total as usize] {
        oracle.apply_updates(batch).unwrap();
    }

    // Dataset: bit-exact multiset, identical partition.
    let rec_records = recovered.inner().records_snapshot().unwrap();
    let ora_records = oracle.records_snapshot().unwrap();
    prop_assert_eq!(
        dataset_key(rec_records.clone()),
        dataset_key(ora_records.clone()),
        "{}: recovered record multiset diverged",
        ctx
    );
    prop_assert_eq!(
        recovered.inner().dataset().occupancy(),
        oracle.dataset().occupancy(),
        "{}: recovered partition diverged",
        ctx
    );

    // Responses: a miss pass, then a hit pass — ids, failure flags and
    // hit/miss pattern must match (both start from a cold cache).
    for pass in 0..2 {
        let got = recovered.run_batch(requests);
        let want = oracle.run_batch(requests);
        assert_responses_equal(&got, &want, &format!("{ctx} pass {pass}"));
    }
    prop_assert_eq!(
        recovered.inner().cache_stats().hits,
        oracle.cache_stats().hits,
        "{}: cache freshness diverged",
        ctx
    );

    // Region facets: the GIR over both datasets (records sorted by id
    // so tree construction is identical) must agree facet-for-facet.
    let sort = |mut v: Vec<Record>| {
        v.sort_unstable_by_key(|r| r.id);
        v
    };
    let (rec_tree, ora_tree) = (
        build_tree(&sort(rec_records)),
        build_tree(&sort(ora_records)),
    );
    let q = QueryVector::new(requests[0].weights.clone());
    let k = requests[0].k;
    let got = GirEngine::new(&rec_tree)
        .gir(&q, k, Method::FacetPruning)
        .unwrap();
    let want = GirEngine::new(&ora_tree)
        .gir(&q, k, Method::FacetPruning)
        .unwrap();
    prop_assert_eq!(
        got.result.ids(),
        want.result.ids(),
        "{}: GIR top-k diverged",
        ctx
    );
    prop_assert_eq!(
        reduced_contributors(&got.region),
        reduced_contributors(&want.region),
        "{}: GIR facets diverged",
        ctx
    );

    // Maintenance: one further identical batch classifies the cached
    // entries the same way on both sides, and probes still agree.
    if (total as usize) < batches.len() {
        let extra = &batches[total as usize];
        let r_rec = recovered.apply_updates(extra).unwrap();
        let r_ora = oracle.apply_updates(extra).unwrap();
        prop_assert_eq!(
            report_key(&r_rec),
            report_key(&r_ora),
            "{}: maintenance counters diverged",
            ctx
        );
        let got = recovered.run_batch(requests);
        let want = oracle.run_batch(requests);
        assert_responses_equal(&got, &want, &format!("{ctx} post-maintenance"));
    }
}

#[allow(clippy::too_many_arguments)] // one arg per proptest-drawn knob
fn run_case(
    d: usize,
    floats: Vec<Vec<f64>>,
    ops: Vec<Vec<Op>>,
    probes: Vec<Vec<f64>>,
    k: usize,
    budget: u64,
    torn_seed: u64,
    fsync_idx: usize,
    snapshot_every: u64,
) {
    let records: Vec<Record> = floats
        .into_iter()
        .enumerate()
        .map(|(i, attrs)| Record::new(i as u64, attrs))
        .collect();
    let batches = materialize(&records, &ops);
    let requests = probe_requests(&probes, k);
    let fsync = FSYNCS[fsync_idx % FSYNCS.len()];
    for (s, p) in SHARDINGS {
        run_one(
            d,
            &records,
            &batches,
            &requests,
            s,
            p,
            budget,
            torn_seed,
            fsync,
            snapshot_every,
        );
    }
}

macro_rules! crash_suite {
    ($name:ident, $d:literal, $cases:literal) => {
        proptest! {
            #![proptest_config(ProptestConfig::with_cases($cases))]
            #[test]
            fn $name(
                floats in proptest::collection::vec(
                    proptest::collection::vec(0.0f64..1.0, $d), 60..110),
                ops in proptest::collection::vec(
                    proptest::collection::vec(
                        (0u8..10, proptest::collection::vec(0.0f64..1.0, $d), 0u64..1 << 40),
                        2..5),
                    4..8),
                probes in proptest::collection::vec(
                    proptest::collection::vec(0.05f64..0.95, $d), 3),
                k in 3usize..8,
                budget in 1u64..48,
                torn_seed in 1u64..u64::MAX,
                fsync_idx in 0usize..3,
                snapshot_every in 1u64..5,
            ) {
                run_case($d, floats, ops, probes, k, budget, torn_seed,
                         fsync_idx, snapshot_every);
            }
        }
    };
}

crash_suite!(recovery_equals_never_crashed_d2, 2, 4);
crash_suite!(recovery_equals_never_crashed_d3, 3, 4);
