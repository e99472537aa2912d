//! The traced run: per-layer metrics for one workload.
//!
//! 1. An untraced window on a plain server gives the reference
//!    throughput.
//! 2. A traced window on a second server, built with the timing
//!    decorators and a span around every client call, serves the same
//!    inputs; the program's own counters (planner, prune index, RPC)
//!    are read before and after it.
//! 3. The layer replay ([`crate::replay`]) runs the traced window's
//!    inputs again through the lower layers' public functions and must
//!    reproduce its answers.
//!
//! Spans are written to `.girbench-out/` when the run ends.

use crate::decor::{call_kind, shadow, CallRecord, IoTotals, TimingDir};
use crate::drive::{run_phase, Answer, ClientLog, Decor, PhaseOpts, Server};
use crate::oracle::{LiveSet, Verdict};
use crate::replay::{DistReplay, GirReplay, LpCounter, Replay};
use crate::stats::{median_f64, Summary};
use crate::trace::{ledger, write_jsonl, SpanRec, Tracer};
use crate::workloads::{Inputs, Spec, Target};
use crate::{metric, note_failures, report, setup, state_dir, verify, Knobs, Metric, Verified};
use gir_core::plan::MissPath;
use gir_query::ScoringFunction;
use gir_serve::DurableServer;
use gir_storage::{FsDir, LogDir, MemPageStore, PageStore, PAGE_SIZE};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Share of `--seconds` each served window gets.
const WINDOW_SHARE: f64 = 0.25;
/// One slice of the interleaved windows.
const SLICE: Duration = Duration::from_millis(200);
/// Misses re-run with the LP counter installed.
const LP_SAMPLE: usize = 64;
/// Spans written to the trace file at most.
const SPANS_WRITTEN: usize = 50_000;

struct Window {
    log: ClientLog,
    wall: Duration,
    next_batch: usize,
    plain_qps: f64,
}

/// Serves the same batches on the plain and the traced server in
/// alternating slices of [`SLICE`], so that drift in machine speed cancels
/// out of the traced/untraced comparison. Only the traced server's log is
/// kept.
fn serve_interleaved(
    plain: &Server,
    traced: &Server,
    spec: &Spec,
    inputs: &Inputs,
    len: Duration,
    tracer: &Tracer,
) -> Window {
    let stop = Instant::now() + len.mul_f64(2.0);
    let mut next = spec.warmup_batches;
    let (mut plain_queries, mut plain_wall) = (0usize, Duration::ZERO);
    let mut log = ClientLog::default();
    let mut wall = Duration::ZERO;
    while Instant::now() < stop && next < inputs.batches.len() {
        let p = run_phase(
            plain,
            spec,
            inputs,
            next,
            &PhaseOpts {
                deadline: Instant::now() + SLICE,
                end_batch: usize::MAX,
                served_before: Duration::ZERO,
                trace: None,
            },
        );
        let t = run_phase(
            traced,
            spec,
            inputs,
            next,
            &PhaseOpts {
                deadline: Instant::now() + Duration::from_secs(3600),
                end_batch: p.next_batch,
                served_before: Duration::ZERO,
                trace: Some(tracer),
            },
        );
        plain_queries += p.log.query_ns.len();
        plain_wall += p.wall;
        wall += t.wall;
        log.merge(t.log);
        next = p.next_batch;
    }
    Window {
        log,
        wall,
        next_batch: next,
        plain_qps: plain_queries as f64 / plain_wall.as_secs_f64(),
    }
}

fn p50_us(v: &[u64]) -> f64 {
    let mut v = v.to_vec();
    Summary::of(&mut v).map_or(0.0, |s| s.p50_ns as f64 / 1e3)
}

fn mean(v: &[u64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<u64>() as f64 / v.len() as f64
    }
}

fn spans_named<'a>(
    spans: &'a [SpanRec],
    phase: &'a str,
    name: &'a str,
) -> impl Iterator<Item = &'a SpanRec> {
    spans
        .iter()
        .filter(move |s| s.phase == phase && s.name == name)
}

fn rpc_counters() -> (u64, u64) {
    let c = gir_obs::rpc::RpcCounters::global();
    (c.failures.get(), c.retries.get())
}

/// Runs the traced mode; returns whether every check held.
pub fn run(spec: &Spec, inputs: &Inputs, seed: u64, seconds: u64) -> bool {
    let knobs = Knobs::of(spec, seed, seconds, true);
    let mut notes: Vec<String> = Vec::new();
    let window = Duration::from_secs(seconds).mul_f64(WINDOW_SHARE);
    let mut failed = 0u64;

    // 1–2. Plain and traced servers over the same batches, interleaved;
    // the traced one has the decorators installed and a span per call.
    let tracer = Arc::new(Tracer::new());
    let decor = Decor {
        tracer: tracer.clone(),
        io: Arc::new(Mutex::new(IoTotals::default())),
        calls: Arc::new(Mutex::new(Vec::new())),
    };
    let dir_a = state_dir(spec, seed, "plain");
    let (plain, _) = setup(spec, inputs, &dir_a, None);
    let dir_b = state_dir(spec, seed, "traced");
    let (server, _) = setup(spec, inputs, &dir_b, Some(&decor));
    let io0 = *decor.io.lock().expect("io totals");
    let calls0 = decor.calls.lock().expect("call log").len();
    let planner0 = server.gir().map(|g| g.planner_stats());
    let prune0 = server.gir().map(|g| g.prune_stats());
    let rpc0 = rpc_counters();
    tracer.set_phase("served");
    let mut traced = serve_interleaved(&plain, &server, spec, inputs, window, &tracer);
    tracer.set_phase("after");
    let calls1 = decor.calls.lock().expect("call log").len();
    let rpc1 = rpc_counters();
    let planner1 = server.gir().map(|g| g.planner_stats());
    let prune1 = server.gir().map(|g| g.prune_stats());
    let io1 = *decor.io.lock().expect("io totals");
    drop(plain);
    let _ = std::fs::remove_dir_all(&dir_a);
    let plain_qps = traced.plain_qps;
    let traced_qps = traced.log.query_ns.len() as f64 / traced.wall.as_secs_f64();
    let Verified {
        wrong,
        near_ties,
        live,
    } = verify(
        spec,
        inputs,
        &server,
        &mut traced.log,
        traced.next_batch,
        &mut notes,
    );
    failed += traced.log.failed + wrong;
    note_failures(&traced.log, &mut notes);

    // Recovery of the traced server's directory, through the decorator.
    let mut recover_s = 0.0;
    let mut replayed_batches = 0.0;
    if let Server::Durable(s, dir) = &server {
        let dir = dir.clone();
        if let Err(e) = s.sync() {
            notes.push(format!("wal sync failed: {e}"));
            failed += 1;
        }
        drop(server);
        tracer.set_phase("recover");
        let cfg = crate::drive::server_config(spec, Some(&dir));
        let dcfg = cfg.durability.clone().expect("durable config");
        let scoring = ScoringFunction::linear(spec.d);
        let fs = FsDir::new(&dir).expect("durable directory");
        let t0 = Instant::now();
        let rec = DurableServer::recover_in(
            Box::new(TimingDir::new(
                Box::new(fs),
                tracer.clone(),
                decor.io.clone(),
            )),
            dcfg,
            |snap| {
                let records: Vec<gir_query::Record> = snap.shards.into_iter().flatten().collect();
                let store: Arc<dyn PageStore> = Arc::new(MemPageStore::new(PAGE_SIZE));
                let tree = if records.is_empty() {
                    gir_rtree::RTree::new(store, spec.d)?
                } else {
                    gir_rtree::RTree::bulk_load(store, &records)?
                };
                Ok(gir_serve::GirServer::new(tree, scoring, cfg.clone()))
            },
        );
        recover_s = t0.elapsed().as_secs_f64();
        match rec {
            Ok((s, report)) => {
                replayed_batches = report.replayed as f64;
                let mut ids: Vec<u64> = s
                    .inner()
                    .records_snapshot()
                    .unwrap_or_default()
                    .iter()
                    .map(|r| r.id)
                    .collect();
                ids.sort_unstable();
                if ids != live.sorted_ids() {
                    notes.push("recovered records differ from the live set".into());
                    failed += 1;
                }
            }
            Err(e) => {
                notes.push(format!("recovery failed: {e}"));
                failed += 1;
            }
        }
    } else {
        drop(server);
    }
    let _ = std::fs::remove_dir_all(&dir_b);

    // 3. Layer replay of the traced window's inputs.
    let replay_decor = Decor {
        tracer: tracer.clone(),
        io: Arc::new(Mutex::new(IoTotals::default())),
        calls: Arc::new(Mutex::new(Vec::new())),
    };
    let dir_c = state_dir(spec, seed, "replay");
    tracer.set_phase("replay_setup");
    let replay = match spec.target {
        Target::DistUds => {
            DistReplay::new(spec, &inputs.data, replay_decor).map(|r| Replay::Dist(Box::new(r)))
        }
        Target::Durable => {
            let fs = FsDir::new(&dir_c).expect("replay directory");
            let dir: Box<dyn LogDir> = Box::new(TimingDir::new(
                Box::new(fs),
                tracer.clone(),
                replay_decor.io.clone(),
            ));
            GirReplay::new(spec, &inputs.data, Some(dir)).map(|r| Replay::Gir(Box::new(r)))
        }
        Target::Gir => GirReplay::new(spec, &inputs.data, None).map(|r| Replay::Gir(Box::new(r))),
    };
    let mut replay = match replay {
        Ok(r) => r,
        Err(e) => {
            eprintln!("girbench: replay set-up failed: {e}");
            return false;
        }
    };
    let ReplayOutcome {
        mismatches,
        near_ties: replay_near_ties,
        hits: replay_hits,
        misses: replay_misses,
        error: replay_err,
    } = run_replay(&mut replay, spec, inputs, &tracer, &traced);
    if let Some(e) = replay_err {
        notes.push(format!("replay failed: {e}"));
        failed += 1;
    }
    if mismatches > 0 {
        notes.push(format!(
            "replay answers differ from served answers: {mismatches}"
        ));
        failed += 1;
    }
    let served_hits = traced.log.hits;
    let served_misses = traced.log.miss_ns.len() as u64;
    if spec.clients == 1 && (replay_hits, replay_misses) != (served_hits, served_misses) {
        notes.push(format!(
            "replay hit/miss counts {replay_hits}/{replay_misses} differ from served {served_hits}/{served_misses}"
        ));
        failed += 1;
    }

    // LP calls per miss: a sample of misses re-run on their own path with
    // an event counter installed (outside every timed interval).
    let lp = Arc::new(AtomicU64::new(0));
    let lp_sample: Vec<_> = replay
        .samples_mut()
        .miss_queries
        .iter()
        .take(LP_SAMPLE)
        .cloned()
        .collect();
    tracing::set_collector(Arc::new(LpCounter(lp.clone())));
    for (req, path) in &lp_sample {
        replay.recompute(req, *path);
    }
    tracing::clear_collector();
    let lp_per_miss = lp.load(Ordering::Relaxed) as f64 / lp_sample.len().max(1) as f64;
    let samples = std::mem::take(replay.samples_mut());
    drop(replay);
    let _ = std::fs::remove_dir_all(&dir_c);

    // Ledger and span file.
    let spans = tracer.take();
    let (unattributed, self_ns) = ledger(&spans, "served", "replay");
    let out_dir = std::path::Path::new(".girbench-out");
    let _ = std::fs::create_dir_all(out_dir);
    let path = out_dir.join(format!("trace-{}-{seed}.jsonl", spec.name));
    let written = spans.len().min(SPANS_WRITTEN);
    if let Err(e) = write_jsonl(&path, &spans[..written]) {
        notes.push(format!("trace file not written: {e}"));
    }
    notes.push(format!(
        "spans: {} recorded, {written} written to {}",
        spans.len(),
        path.display()
    ));

    // Storage, from the traced window's spans and byte counts.
    let served_span_us = |name: &str| -> Vec<u64> {
        spans_named(&spans, "served", name)
            .map(|s| s.dur())
            .collect()
    };
    let snapshot_ns = served_span_us("storage.snapshot");
    let bytes_written = (io1.bytes_written - io0.bytes_written) as f64;
    let user_bytes: u64 = inputs.batches[spec.warmup_batches..traced.next_batch]
        .iter()
        .flat_map(|b| &b.updates)
        .map(|u| match u {
            gir_serve::Update::Insert(r) => 8 + 8 * r.attrs.coords().len() as u64,
            gir_serve::Update::Delete { attrs, .. } => 8 + 8 * attrs.coords().len() as u64,
        })
        .sum();

    // RPC, from the traced window's call log and its shadow replay.
    let calls: Vec<CallRecord> = decor.calls.lock().expect("call log").clone();
    let shadows = shadow(&calls);
    let window_calls: Vec<(&CallRecord, Option<crate::decor::Shadow>)> = calls
        .iter()
        .zip(shadows)
        .take(calls1)
        .skip(calls0)
        .collect();
    let kinds = ["topk", "phase2", "apply", "repair", "cut"];
    let mut call_ns: HashMap<&str, Vec<u64>> = HashMap::new();
    let mut worker_ns: HashMap<&str, Vec<u64>> = HashMap::new();
    let mut codec = Vec::new();
    let mut wire = Vec::new();
    let mut frames = Vec::new();
    let mut per_op_calls: HashMap<u64, (u64, u64)> = HashMap::new();
    let mut shadow_mismatches = 0u64;
    for (c, sh) in &window_calls {
        let kind = call_kind(&c.req);
        if !kinds.contains(&kind) {
            continue;
        }
        call_ns.entry(kind).or_default().push(c.call_ns);
        let e = per_op_calls.entry(c.op).or_default();
        e.0 += 1;
        e.1 += c.call_ns;
        if let Some(sh) = sh {
            shadow_mismatches += !sh.matches as u64;
            worker_ns.entry(kind).or_default().push(sh.worker_ns);
            codec.push(sh.codec_ns);
            wire.push(c.call_ns as f64 - sh.worker_ns as f64 - sh.codec_ns as f64);
            frames.push(sh.frame_bytes / 2);
        }
    }
    // Coordinator time per miss: the client-timed miss minus its calls.
    let miss_ops: Vec<(u64, u64)> = spans_named(&spans, "served", "op.query")
        .filter(|s| per_op_calls.contains_key(&s.req))
        .map(|s| (s.req, s.dur()))
        .collect();
    let coordinator: Vec<f64> = miss_ops
        .iter()
        .map(|(op, d)| *d as f64 - per_op_calls[op].1 as f64)
        .collect();
    let calls_per_miss = if miss_ops.is_empty() {
        0.0
    } else {
        miss_ops
            .iter()
            .map(|(op, _)| per_op_calls[op].0)
            .sum::<u64>() as f64
            / miss_ops.len() as f64
    };

    // Planner path shares and Phase-2 reuse, from the program's counters.
    let (mut shares, mut reuse) = ([0.0; 4], 0.0);
    if let (Some(p0), Some(p1)) = (planner0, planner1) {
        let by: Vec<u64> = (0..4).map(|i| p1.by_path[i] - p0.by_path[i]).collect();
        let total: u64 = by.iter().sum();
        for i in 0..4 {
            shares[i] = by[i] as f64 / total.max(1) as f64;
        }
    }
    if let (Some(a), Some(b)) = (prune0, prune1) {
        let hits = b.phase2_hits - a.phase2_hits;
        let misses = b.phase2_misses - a.phase2_misses;
        reuse = hits as f64 / (hits + misses).max(1) as f64;
    }
    let path_index = |p: MissPath| {
        MissPath::ALL
            .iter()
            .position(|&x| x == p)
            .expect("known path")
    };

    let s = &samples;
    let call_us = |k: &str| call_ns.get(k).map_or(0.0, |v| p50_us(v));
    let worker_us = |k: &str| worker_ns.get(k).map_or(0.0, |v| p50_us(v));
    let ratio = |a: u64, b: u64| a as f64 / b.max(1) as f64;
    let metrics: Vec<Metric> = vec![
        metric(
            "serve.cache.hit_rate",
            ratio(s.hits, s.hits + s.misses),
            "ratio",
        ),
        metric("serve.cache.get_us", p50_us(&s.get_ns), "us"),
        metric("serve.cache.admit_us", p50_us(&s.admit_ns), "us"),
        metric(
            "serve.cache.apply_batch_us",
            p50_us(&s.apply_batch_ns),
            "us",
        ),
        metric("serve.maint.evicted", s.maint[0] as f64, "count"),
        metric("serve.maint.repaired", s.maint[1] as f64, "count"),
        metric("serve.maint.shrunk", s.maint[2] as f64, "count"),
        metric("serve.maint.untouched", s.maint[3] as f64, "count"),
        metric("core.planner.plan_us", p50_us(&s.plan_ns), "us"),
        metric(
            "core.planner.path_share.cold",
            shares[path_index(MissPath::Cold)],
            "ratio",
        ),
        metric(
            "core.planner.path_share.indexed_recompute",
            shares[path_index(MissPath::IndexedRecompute)],
            "ratio",
        ),
        metric(
            "core.planner.path_share.indexed_reuse",
            shares[path_index(MissPath::IndexedReuse)],
            "ratio",
        ),
        metric(
            "core.planner.path_share.sharded",
            shares[path_index(MissPath::Sharded)],
            "ratio",
        ),
        metric("core.gir_cold_us", p50_us(&s.gir_cold_ns), "us"),
        metric("core.gir_indexed_us", p50_us(&s.gir_indexed_ns), "us"),
        metric("core.phase2_us", p50_us(&s.phase2_ns), "us"),
        metric("core.phase2.candidates", mean(&s.candidates), "count"),
        metric("core.phase2.halfspaces", mean(&s.halfspaces), "count"),
        metric("core.prune.phase2_reuse_rate", reuse, "ratio"),
        metric("core.prune.update_us", p50_us(&s.prune_update_ns), "us"),
        metric("core.prune.rebuild_us", p50_us(&s.rebuild_ns), "us"),
        metric("core.repair_us", p50_us(&s.repair_ns), "us"),
        metric("core.repair_calls", s.repair_ns.len() as f64, "count"),
        metric("query.topk_us", p50_us(&s.topk_ns), "us"),
        metric("query.topk_pages", mean(&s.topk_pages), "count"),
        metric("geometry.lp_calls_per_miss", lp_per_miss, "count"),
        metric("rtree.insert_us", p50_us(&s.insert_ns), "us"),
        metric("rtree.delete_us", p50_us(&s.delete_ns), "us"),
        metric(
            "storage.append_us",
            p50_us(&served_span_us("storage.append")),
            "us",
        ),
        metric(
            "storage.sync_us",
            p50_us(&served_span_us("storage.sync")),
            "us",
        ),
        metric(
            "storage.syncs",
            (io1.wal_syncs - io0.wal_syncs) as f64,
            "count",
        ),
        metric("storage.snapshot_us", p50_us(&snapshot_ns), "us"),
        metric("storage.bytes_written", bytes_written, "bytes"),
        metric(
            "storage.bytes_per_user_byte",
            if user_bytes == 0 {
                0.0
            } else {
                bytes_written / user_bytes as f64
            },
            "ratio",
        ),
        metric("storage.replayed_batches", replayed_batches, "count"),
        metric("rpc.call_us.topk", call_us("topk"), "us"),
        metric("rpc.call_us.phase2", call_us("phase2"), "us"),
        metric("rpc.call_us.apply", call_us("apply"), "us"),
        metric("rpc.call_us.repair", call_us("repair"), "us"),
        metric("rpc.call_us.cut", call_us("cut"), "us"),
        metric("rpc.worker_us.topk", worker_us("topk"), "us"),
        metric("rpc.worker_us.phase2", worker_us("phase2"), "us"),
        metric("rpc.worker_us.apply", worker_us("apply"), "us"),
        metric("rpc.worker_us.repair", worker_us("repair"), "us"),
        metric("rpc.worker_us.cut", worker_us("cut"), "us"),
        metric("rpc.codec_us", p50_us(&codec), "us"),
        metric("rpc.wire_us", median_f64(&wire).unwrap_or(0.0) / 1e3, "us"),
        metric(
            "rpc.coordinator_us",
            median_f64(&coordinator).unwrap_or(0.0) / 1e3,
            "us",
        ),
        metric("rpc.calls_per_miss", calls_per_miss, "count"),
        metric("rpc.frame_bytes", mean(&frames), "bytes"),
        metric("rpc.failures", (rpc1.0 - rpc0.0) as f64, "count"),
        metric("rpc.retries", (rpc1.1 - rpc0.1) as f64, "count"),
        metric("obs.trace_overhead", 1.0 - traced_qps / plain_qps, "ratio"),
        metric("layer.unattributed_share", unattributed, "ratio"),
        metric("recover_s", recover_s, "s"),
    ];
    let mut detail = vec![
        metric("queries_per_s_untraced", plain_qps, "1/s"),
        metric("queries_per_s_traced", traced_qps, "1/s"),
        metric("served_hits", served_hits as f64, "count"),
        metric("served_misses", served_misses as f64, "count"),
        metric("replay_hits", replay_hits as f64, "count"),
        metric("replay_misses", replay_misses as f64, "count"),
        metric("replay_mismatches", mismatches as f64, "count"),
        metric("replay_near_ties", replay_near_ties as f64, "count"),
        metric("oracle_near_ties", near_ties as f64, "count"),
        metric("rpc_shadow_mismatches", shadow_mismatches as f64, "count"),
    ];
    for (layer, ns) in &self_ns {
        detail.push(metric(format!("self_ms.{layer}"), *ns as f64 / 1e6, "ms"));
    }
    let attempted = (traced.log.query_ns.len() + traced.log.update_ns.len()) as u64;
    let correct = failed == 0;
    report(
        &knobs, &detail, &notes, correct, attempted, failed, &metrics,
    );
    correct
}

/// What the layer replay found.
#[derive(Default)]
struct ReplayOutcome {
    /// Answers the replay did not reproduce (near ties aside) or never
    /// reached.
    mismatches: u64,
    /// Answers that differ only in the order of near-tied records
    /// ([`crate::oracle::TIE_TOL`]), both right up to such ties. With
    /// several clients the replay's cache admits regions in another
    /// order than the server did, so a query at the tolerance's edge may
    /// hit in one and miss in the other.
    near_ties: u64,
    hits: u64,
    misses: u64,
    error: Option<String>,
}

/// Replays the warm-up prefix, then the traced window in the order the
/// server serialised it.
fn run_replay(
    replay: &mut Replay,
    spec: &Spec,
    inputs: &Inputs,
    tracer: &Tracer,
    window: &Window,
) -> ReplayOutcome {
    let scoring = ScoringFunction::linear(spec.d);
    let mut live = LiveSet::new(&inputs.data);
    let mut out = ReplayOutcome::default();
    let mut run = |replay: &mut Replay| -> Result<(), String> {
        for b in &inputs.batches[..spec.warmup_batches] {
            if !b.updates.is_empty() {
                replay.update(tracer, &b.updates)?;
                live.apply(&b.updates);
            }
            for i in 0..b.queries() {
                replay.query(tracer, &b.request(i, spec.d))?;
            }
        }
        *replay.samples_mut() = Default::default();
        tracer.set_phase("replay");
        let mut answers: Vec<&Answer> = window.log.answers.iter().collect();
        answers.sort_by_key(|a| (a.version, a.batch, a.index));
        let mut next = 0;
        for bi in spec.warmup_batches..window.next_batch {
            let b = &inputs.batches[bi];
            if !b.updates.is_empty() {
                tracer.set_req(crate::drive::op_id(bi, None));
                replay.update(tracer, &b.updates)?;
                live.apply(&b.updates);
            }
            while next < answers.len() && answers[next].version <= bi + 1 {
                let a = answers[next];
                next += 1;
                tracer.set_req(crate::drive::op_id(a.batch, Some(a.index)));
                let req = inputs.batches[a.batch].request(a.index, spec.d);
                let ids = replay.query(tracer, &req)?;
                if ids != a.ids {
                    let w = req.weights.coords();
                    let right = |ids: &[u64]| live.judge(&scoring, w, req.k, ids) != Verdict::Wrong;
                    if right(&ids) && right(&a.ids) {
                        out.near_ties += 1;
                    } else {
                        out.mismatches += 1;
                    }
                }
            }
        }
        out.mismatches += (answers.len() - next) as u64;
        Ok(())
    };
    out.error = run(replay).err();
    let s = replay.samples_mut();
    out.hits = s.hits;
    out.misses = s.misses;
    out
}
