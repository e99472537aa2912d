//! Serving-subsystem throughput: thread-scaling of the batch executor
//! with the sharded GIR cache, plus a write-mixed workload comparing
//! the incremental delta-repair pipeline against the PR 1 sweep
//! baseline.
//!
//! Not a paper figure — this tracks the ROADMAP's production-scale
//! direction. Writes machine-readable results to `BENCH_serve.json`
//! (one object per row, tagged with thread count, maintenance mode and
//! workload shape) so the perf trajectory is recorded across PRs and
//! gated in CI (`perf_gate`).
//!
//! Knobs: `GIR_N` (dataset size, default 20000), `GIR_SERVE_QUERIES`
//! (total queries, default 12000), `GIR_SERVE_THREADS`
//! (comma-separated thread counts, default "1,2,4,8"), `GIR_SEED`
//! (traffic/dataset seed, default 48764 — pin it in CI so runs are
//! deterministic and comparable across jobs).

use gir_bench::report::Table;
use gir_datagen::{synthetic, Distribution};
use gir_query::ScoringFunction;
use gir_rtree::RTree;
use gir_serve::{
    mixed_workload, GirServer, MaintenanceMode, ServeStats, ServerConfig, WorkloadConfig,
};
use gir_storage::{MemPageStore, PageStore, PAGE_SIZE};
use std::io::Write;
use std::sync::Arc;

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn env_u64(key: &str, default: u64) -> u64 {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Replays `traffic` against a fresh server and returns the aggregate
/// stats plus total facet repairs.
fn replay(
    data: &[gir_rtree::Record],
    d: usize,
    threads: usize,
    maintenance: MaintenanceMode,
    use_prune_index: bool,
    traffic: &[gir_serve::TrafficBatch],
) -> (ServeStats, usize) {
    let store: Arc<dyn PageStore> = Arc::new(MemPageStore::new(PAGE_SIZE));
    let tree = RTree::bulk_load(store, data).expect("bulk load");
    let server = GirServer::new(
        tree,
        ScoringFunction::linear(d),
        ServerConfig {
            threads,
            shards: 16,
            shard_capacity: 32,
            maintenance,
            use_prune_index,
            ..ServerConfig::default()
        },
    );
    let mut outs = Vec::with_capacity(traffic.len());
    let mut repaired = 0usize;
    for batch in traffic {
        let report = server.apply_updates(&batch.updates).expect("updates");
        repaired += report.repaired;
        outs.push(server.run_batch(&batch.queries));
    }
    (ServeStats::from_batches(&outs), repaired)
}

fn json_row(threads: usize, n: usize, mode: &str, workload: &str, stats: &ServeStats) -> String {
    format!(
        "{{\"threads\":{threads},\"n\":{n},\"mode\":\"{mode}\",\"workload\":\"{workload}\",\"stats\":{}}}",
        stats.to_json()
    )
}

fn main() {
    let d = 3;
    let n = env_usize("GIR_N", 20_000);
    let total_queries = env_usize("GIR_SERVE_QUERIES", 12_000);
    let seed = env_u64("GIR_SEED", 0xBE7C);
    let mut thread_counts: Vec<usize> = std::env::var("GIR_SERVE_THREADS")
        .unwrap_or_else(|_| "1,2,4,8".into())
        .split(',')
        .filter_map(|t| t.trim().parse().ok())
        .collect();
    if thread_counts.is_empty() {
        eprintln!("GIR_SERVE_THREADS parsed to nothing; using 1,2,4,8");
        thread_counts = vec![1, 2, 4, 8];
    }

    // Several anchors and k sizes keep a meaningful miss stream while
    // the steady-state working set (anchors × k-buckets) still fits in
    // the cache, so the table measures the cache fast path, the
    // compute path, and update reconciliation together.
    let batches = 24usize;
    let wl = WorkloadConfig {
        dim: d,
        anchors: 24,
        jitter: 0.02,
        batches,
        queries_per_batch: total_queries.div_ceil(batches),
        updates_per_batch: 8,
        insert_fraction: 0.7,
        insert_hot_fraction: 0.0,
        delete_hot_fraction: 0.0,
        k_choices: vec![5, 10, 20],
        seed,
    };

    let cores = std::thread::available_parallelism()
        .map(|c| c.get())
        .unwrap_or(1);
    println!(
        "serve throughput  (IND, n={n}, d={d}, k∈{{5,10,20}}, FP, seed {seed}; {} queries + \
         {} updates per run; {cores} core(s) available — speedup is bounded by cores)\n",
        wl.queries_per_batch * batches,
        wl.updates_per_batch * batches
    );

    let base_data = synthetic(Distribution::Independent, n, d, seed.wrapping_add(1));
    let mut table = Table::new(&[
        "threads",
        "queries/s",
        "hit rate",
        "p50 µs",
        "p99 µs",
        "miss p50 µs",
        "miss p99 µs",
        "speedup",
    ]);
    let mut json_rows: Vec<String> = Vec::new();
    let mut base_qps = 0.0f64;

    let traffic = mixed_workload(&wl, &base_data);
    for &threads in &thread_counts {
        // Fresh tree + server per thread count: identical traffic, cold
        // cache, no cross-contamination.
        let (agg, _) = replay(
            &base_data,
            d,
            threads,
            MaintenanceMode::DeltaRepair,
            true,
            &traffic,
        );
        if base_qps == 0.0 {
            base_qps = agg.qps;
        }
        table.row(vec![
            threads.to_string(),
            format!("{:.0}", agg.qps),
            format!("{:.1}%", agg.hit_rate() * 100.0),
            agg.p50_us.to_string(),
            agg.p99_us.to_string(),
            agg.miss_p50_us.to_string(),
            agg.miss_p99_us.to_string(),
            format!("{:.2}x", agg.qps / base_qps),
        ]);
        json_rows.push(json_row(threads, n, "delta", "read_heavy", &agg));
    }
    table.print("gir-serve batch executor (delta repair + prune index)");

    // Write-mixed comparison: ≥ 10% updates with competitive churn (hot
    // inserts shrink cached regions; hot deletes free them again). The
    // legacy sweep never recovers the lost region volume, so delta
    // repair must sustain a strictly higher hit rate — the tentpole win
    // the CI gate (`perf_gate --require-delta-win`) enforces. One
    // worker thread keeps the A/B free of admission races: same seed ⇒
    // bit-identical hit counts, on any machine.
    let mix_threads = 1;
    let mix = WorkloadConfig {
        updates_per_batch: (wl.queries_per_batch * 12).div_ceil(100),
        insert_fraction: 0.5,
        insert_hot_fraction: 0.6,
        delete_hot_fraction: 0.8,
        ..wl.clone()
    };
    let mix_traffic = mixed_workload(&mix, &base_data);
    let mix_updates = mix.updates_per_batch * batches;
    let mix_queries = mix.queries_per_batch * batches;
    println!(
        "\nmixed read/write workload: {mix_queries} queries + {mix_updates} updates \
         ({:.1}% updates, hot churn) on {mix_threads} thread(s)\n",
        100.0 * mix_updates as f64 / (mix_updates + mix_queries) as f64
    );

    let mut mix_table = Table::new(&[
        "pipeline",
        "queries/s",
        "hit rate",
        "p50 µs",
        "p99 µs",
        "miss p50 µs",
        "miss p99 µs",
        "repairs",
    ]);
    // The A/B/C: PR 1 sweeps, the PR 2 delta pipeline without the
    // prune index, and the full cold-miss fast path (delta + index).
    // Same traffic, same machine, single-threaded — the qps and
    // miss-percentile columns isolate exactly what the prune index
    // buys on the cold path.
    for (label, mode, indexed) in [
        ("sweep", MaintenanceMode::LegacySweep, false),
        ("delta_noindex", MaintenanceMode::DeltaRepair, false),
    ] {
        let (agg, repaired) = replay(&base_data, d, mix_threads, mode, indexed, &mix_traffic);
        mix_table.row(vec![
            label.to_string(),
            format!("{:.0}", agg.qps),
            format!("{:.1}%", agg.hit_rate() * 100.0),
            agg.p50_us.to_string(),
            agg.p99_us.to_string(),
            agg.miss_p50_us.to_string(),
            agg.miss_p99_us.to_string(),
            repaired.to_string(),
        ]);
        json_rows.push(json_row(mix_threads, n, label, "mixed", &agg));
    }
    // The observability-overhead A/B: the full delta + prune-index
    // pipeline with and without the gir-obs collector installed (every
    // span, event and registry metric live). `perf_gate
    // --max-obs-overhead` gates the enabled-path cost (≤5% qps) on this
    // pair, so the measurement has to be noise-resistant: run the two
    // configurations interleaved, three pairs, and report each side's
    // best replay. A frequency or scheduling wobble then has to hit the
    // same side in all three rounds to skew the ratio, instead of one
    // unlucky replay deciding the gate. Same seed on one thread keeps
    // the hit counts bit-identical regardless of which round wins.
    let mut best_plain: Option<(ServeStats, usize)> = None;
    let mut best_obs: Option<(ServeStats, usize)> = None;
    for _ in 0..3 {
        let (agg, repaired) = replay(
            &base_data,
            d,
            mix_threads,
            MaintenanceMode::DeltaRepair,
            true,
            &mix_traffic,
        );
        if best_plain.as_ref().is_none_or(|(b, _)| agg.qps > b.qps) {
            best_plain = Some((agg, repaired));
        }
        gir_obs::install_global_collector();
        let (agg, repaired) = replay(
            &base_data,
            d,
            mix_threads,
            MaintenanceMode::DeltaRepair,
            true,
            &mix_traffic,
        );
        tracing::clear_collector();
        if best_obs.as_ref().is_none_or(|(b, _)| agg.qps > b.qps) {
            best_obs = Some((agg, repaired));
        }
    }
    for (label, (agg, repaired)) in [
        ("delta", best_plain.expect("three rounds ran")),
        ("delta_obs", best_obs.expect("three rounds ran")),
    ] {
        mix_table.row(vec![
            label.to_string(),
            format!("{:.0}", agg.qps),
            format!("{:.1}%", agg.hit_rate() * 100.0),
            agg.p50_us.to_string(),
            agg.p99_us.to_string(),
            agg.miss_p50_us.to_string(),
            agg.miss_p99_us.to_string(),
            repaired.to_string(),
        ]);
        json_rows.push(json_row(mix_threads, n, label, "mixed", &agg));
    }
    // The sharded execution path (4 hash shards, shard-local deltas and
    // repair) on the same traffic: its row rides the same perf gate as
    // the single-tree modes (single-thread ⇒ hit rate, qps AND p99 all
    // gated). The deep shard matrix lives in `shard_scaling`
    // (BENCH_shard.json).
    {
        use gir_shard::{Placement, ShardedDataset, ShardedGirServer};
        let server = ShardedGirServer::new(
            ShardedDataset::build(d, &base_data, 4, Placement::Hash).expect("sharded build"),
            ScoringFunction::linear(d),
            ServerConfig {
                threads: mix_threads,
                ..ServerConfig::default()
            },
        );
        let mut outs = Vec::with_capacity(mix_traffic.len());
        let mut repaired = 0usize;
        for batch in &mix_traffic {
            let report = server.apply_updates(&batch.updates).expect("updates");
            repaired += report.repaired;
            outs.push(server.run_batch(&batch.queries));
        }
        let agg = ServeStats::from_batches(&outs);
        mix_table.row(vec![
            "sharded".to_string(),
            format!("{:.0}", agg.qps),
            format!("{:.1}%", agg.hit_rate() * 100.0),
            agg.p50_us.to_string(),
            agg.p99_us.to_string(),
            agg.miss_p50_us.to_string(),
            agg.miss_p99_us.to_string(),
            repaired.to_string(),
        ]);
        json_rows.push(json_row(mix_threads, n, "sharded", "mixed", &agg));
    }
    mix_table.print(
        "update pipeline under churn (sweep vs delta vs delta + prune index vs obs-enabled vs sharded)",
    );

    let json = format!("[\n  {}\n]\n", json_rows.join(",\n  "));
    // Cargo runs benches with CWD = the package root; anchor the report
    // at the workspace root so CI finds one canonical path.
    let path = match std::env::var("CARGO_MANIFEST_DIR") {
        Ok(dir) => std::path::Path::new(&dir).join("../../BENCH_serve.json"),
        Err(_) => std::path::PathBuf::from("BENCH_serve.json"),
    };
    match std::fs::File::create(&path).and_then(|mut f| f.write_all(json.as_bytes())) {
        Ok(()) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("\ncould not write {}: {e}", path.display()),
    }
}
