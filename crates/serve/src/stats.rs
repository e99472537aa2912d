//! Per-batch serving statistics.

use crate::server::BatchResult;

/// Measurements for one executed batch: cache effectiveness, latency
/// percentiles over per-request wall clock, and aggregate throughput.
///
/// Percentiles are reported three ways: blended over all requests
/// (`p50_us` …), and split by cache outcome (`hit_p50_us` …,
/// `miss_p50_us` …) — the blended numbers hide the cold path entirely
/// once the hit rate crosses the percentile, so cold-path improvements
/// are only visible in the split columns.
#[derive(Debug, Clone, Default)]
pub struct ServeStats {
    /// Requests in the batch.
    pub queries: usize,
    /// Requests served from the GIR cache.
    pub hits: usize,
    /// Requests that computed (and admitted) a fresh GIR.
    pub misses: usize,
    /// Worker threads used.
    pub threads: usize,
    /// Phase-2 method label for misses ("FP", "SP", …).
    pub method: &'static str,
    /// Batch wall-clock milliseconds.
    pub wall_ms: f64,
    /// Requests per second over the batch wall clock.
    pub qps: f64,
    /// Median per-request latency, microseconds (hits and misses
    /// blended).
    pub p50_us: u64,
    /// 95th-percentile per-request latency, microseconds (blended).
    pub p95_us: u64,
    /// 99th-percentile per-request latency, microseconds (blended).
    pub p99_us: u64,
    /// Worst per-request latency, microseconds.
    pub max_us: u64,
    /// Median latency of cache hits, microseconds.
    pub hit_p50_us: u64,
    /// 95th-percentile latency of cache hits, microseconds.
    pub hit_p95_us: u64,
    /// 99th-percentile latency of cache hits, microseconds.
    pub hit_p99_us: u64,
    /// Median latency of misses (cold GIR computations), microseconds.
    pub miss_p50_us: u64,
    /// 95th-percentile latency of misses, microseconds.
    pub miss_p95_us: u64,
    /// 99th-percentile latency of misses, microseconds.
    pub miss_p99_us: u64,
}

/// Publishes one batch's per-request measurements into the global
/// `gir_obs` registry: `serve.queries` / `serve.hits` / `serve.misses`
/// counters plus blended and outcome-split latency histograms. The
/// histogram percentiles use the same nearest-rank rule as
/// [`ServeStats`], so the legacy stats line and a registry snapshot
/// agree on identical inputs. The batch executor calls this only when
/// observability is enabled.
pub(crate) fn publish_to_registry(labeled: &[(u64, bool)]) {
    use gir_obs::{Registry, LATENCY_BUCKETS_US};
    let reg = Registry::global();
    let all = reg.histogram("serve.latency.us", LATENCY_BUCKETS_US);
    let hit = reg.histogram("serve.hit.us", LATENCY_BUCKETS_US);
    let miss = reg.histogram("serve.miss.us", LATENCY_BUCKETS_US);
    let mut hits = 0u64;
    for &(us, from_cache) in labeled {
        all.observe(us);
        if from_cache {
            hits += 1;
            hit.observe(us);
        } else {
            miss.observe(us);
        }
    }
    reg.counter("serve.queries").add(labeled.len() as u64);
    reg.counter("serve.hits").add(hits);
    reg.counter("serve.misses").add(labeled.len() as u64 - hits);
}

/// Publishes one planner decision to the global metrics registry: the
/// `planner.*` counter family (decision totals, per-path tallies,
/// probes, forced dispatches, calibrator drift/refit activity) plus
/// predicted/actual latency histograms whose divergence exposes model
/// error. Callers guard on [`tracing::enabled`] — with no collector
/// installed the planner costs nothing here.
pub(crate) fn publish_planner_decision(
    decision: &gir_core::plan::Decision,
    actual_ns: u64,
    outcome: gir_core::plan::ObserveOutcome,
) {
    use gir_core::plan::MissPath;
    use gir_obs::{Registry, LATENCY_BUCKETS_US};
    let reg = Registry::global();
    reg.counter("planner.decisions").inc();
    reg.counter(match decision.path {
        MissPath::Cold => "planner.path.cold",
        MissPath::IndexedRecompute => "planner.path.indexed_recompute",
        MissPath::IndexedReuse => "planner.path.indexed_reuse",
        MissPath::Sharded => "planner.path.sharded",
    })
    .inc();
    if decision.forced {
        reg.counter("planner.forced").inc();
    }
    if decision.probe {
        reg.counter("planner.probes").inc();
    }
    if outcome.drifted {
        reg.counter("planner.drifts").inc();
    }
    if outcome.refits > 0 {
        reg.counter("planner.refits").add(outcome.refits as u64);
    }
    if decision.predicted_ns.is_finite() {
        reg.histogram("planner.predicted.us", LATENCY_BUCKETS_US)
            .observe((decision.predicted_ns / 1e3) as u64);
    }
    reg.histogram("planner.actual.us", LATENCY_BUCKETS_US)
        .observe(actual_ns / 1000);
}

/// Nearest-rank percentile (the ⌈p·N⌉-th smallest sample). The
/// registry's histogram percentiles use the same rule, so the legacy
/// stats columns and `gir_obs` snapshots agree on identical inputs.
fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

impl ServeStats {
    /// Builds stats from `(latency_us, from_cache)` pairs (sorted
    /// internally). The preferred constructor: it populates both the
    /// blended and the hit/miss-split percentiles.
    pub fn from_labeled_latencies(
        labeled: Vec<(u64, bool)>,
        threads: usize,
        method: &'static str,
        wall_ms: f64,
    ) -> Self {
        let mut all: Vec<u64> = Vec::with_capacity(labeled.len());
        let mut hit_lat: Vec<u64> = Vec::new();
        let mut miss_lat: Vec<u64> = Vec::new();
        for (us, hit) in labeled {
            all.push(us);
            if hit {
                hit_lat.push(us);
            } else {
                miss_lat.push(us);
            }
        }
        all.sort_unstable();
        hit_lat.sort_unstable();
        miss_lat.sort_unstable();
        let queries = all.len();
        ServeStats {
            queries,
            hits: hit_lat.len(),
            misses: miss_lat.len(),
            threads,
            method,
            wall_ms,
            qps: if wall_ms > 0.0 {
                queries as f64 / (wall_ms / 1e3)
            } else {
                0.0
            },
            p50_us: percentile(&all, 0.50),
            p95_us: percentile(&all, 0.95),
            p99_us: percentile(&all, 0.99),
            max_us: all.last().copied().unwrap_or(0),
            hit_p50_us: percentile(&hit_lat, 0.50),
            hit_p95_us: percentile(&hit_lat, 0.95),
            hit_p99_us: percentile(&hit_lat, 0.99),
            miss_p50_us: percentile(&miss_lat, 0.50),
            miss_p95_us: percentile(&miss_lat, 0.95),
            miss_p99_us: percentile(&miss_lat, 0.99),
        }
    }

    /// Builds stats from unlabeled latencies plus a hit count. The
    /// split percentiles stay zero — kept for callers that do not track
    /// per-request outcomes.
    pub fn from_latencies(
        latencies_us: Vec<u64>,
        hits: usize,
        threads: usize,
        method: &'static str,
        wall_ms: f64,
    ) -> Self {
        let mut all = latencies_us;
        all.sort_unstable();
        let queries = all.len();
        ServeStats {
            queries,
            hits,
            misses: queries - hits,
            threads,
            method,
            wall_ms,
            qps: if wall_ms > 0.0 {
                queries as f64 / (wall_ms / 1e3)
            } else {
                0.0
            },
            p50_us: percentile(&all, 0.50),
            p95_us: percentile(&all, 0.95),
            p99_us: percentile(&all, 0.99),
            max_us: all.last().copied().unwrap_or(0),
            ..ServeStats::default()
        }
    }

    /// Batch-local hit rate.
    pub fn hit_rate(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            self.hits as f64 / self.queries as f64
        }
    }

    /// One aggregate over several batches. Percentiles are nearest-rank
    /// over the union of every batch's per-request samples (per-batch
    /// percentiles cannot be combined into a percentile of the whole);
    /// `wall_ms` sums the batches' wall clocks, so `qps` counts serving
    /// time only.
    pub fn from_batches(batches: &[BatchResult]) -> Self {
        let labeled = batches
            .iter()
            .flat_map(|b| &b.responses)
            .map(|r| (r.latency_us, r.from_cache))
            .collect();
        let threads = batches.iter().map(|b| b.stats.threads).max().unwrap_or(0);
        let method = batches.first().map_or("", |b| b.stats.method);
        let wall_ms = batches.iter().map(|b| b.stats.wall_ms).sum();
        ServeStats::from_labeled_latencies(labeled, threads, method, wall_ms)
    }

    /// One-object JSON rendering (no serializer dependency).
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"queries\":{},\"hits\":{},\"misses\":{},\"hit_rate\":{:.4},",
                "\"threads\":{},\"method\":\"{}\",\"wall_ms\":{:.3},\"qps\":{:.1},",
                "\"p50_us\":{},\"p95_us\":{},\"p99_us\":{},\"max_us\":{},",
                "\"hit_p50_us\":{},\"hit_p95_us\":{},\"hit_p99_us\":{},",
                "\"miss_p50_us\":{},\"miss_p95_us\":{},\"miss_p99_us\":{}}}"
            ),
            self.queries,
            self.hits,
            self.misses,
            self.hit_rate(),
            self.threads,
            self.method,
            self.wall_ms,
            self.qps,
            self.p50_us,
            self.p95_us,
            self.p99_us,
            self.max_us,
            self.hit_p50_us,
            self.hit_p95_us,
            self.hit_p99_us,
            self.miss_p50_us,
            self.miss_p95_us,
            self.miss_p99_us,
        )
    }
}

impl std::fmt::Display for ServeStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} queries on {} thread(s) [{}]: {:.0} q/s, hit rate {:.1}%, \
             p50 {} µs, p95 {} µs, p99 {} µs, max {} µs \
             (hit p50/p99 {}/{} µs, miss p50/p99 {}/{} µs)",
            self.queries,
            self.threads,
            self.method,
            self.qps,
            self.hit_rate() * 100.0,
            self.p50_us,
            self.p95_us,
            self.p99_us,
            self.max_us,
            self.hit_p50_us,
            self.hit_p99_us,
            self.miss_p50_us,
            self.miss_p99_us,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::TopKResponse;

    #[test]
    fn percentiles_from_known_distribution() {
        let lat: Vec<u64> = (1..=100).collect();
        let s = ServeStats::from_latencies(lat, 40, 4, "FP", 50.0);
        assert_eq!(s.queries, 100);
        assert_eq!(s.hits, 40);
        assert_eq!(s.misses, 60);
        assert_eq!(s.p50_us, 50); // nearest rank: ⌈0.5·100⌉ = 50th value
        assert_eq!(s.p95_us, 95);
        assert_eq!(s.p99_us, 99);
        assert_eq!(s.max_us, 100);
        assert!((s.hit_rate() - 0.4).abs() < 1e-12);
        assert!((s.qps - 2000.0).abs() < 1e-9);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        // The old implementation rounded `(N-1)·p`, which off-by-one'd
        // p50 on even N and could under-report p99. Nearest rank picks
        // the ⌈p·N⌉-th smallest sample, never interpolating.
        let s = ServeStats::from_latencies(vec![10, 20, 30, 40], 0, 1, "FP", 1.0);
        assert_eq!(s.p50_us, 20); // ⌈0.5·4⌉ = 2nd value, not 25 or 30
        assert_eq!(s.p99_us, 40); // ⌈0.99·4⌉ = 4th value: the max
        let lat: Vec<u64> = (1..=200).collect();
        let s = ServeStats::from_latencies(lat, 0, 1, "FP", 1.0);
        assert_eq!(s.p50_us, 100); // ⌈0.5·200⌉ = 100th
        assert_eq!(s.p95_us, 190); // ⌈0.95·200⌉ = 190th
        assert_eq!(s.p99_us, 198); // ⌈0.99·200⌉ = 198th
                                   // A single sample is every percentile.
        let s = ServeStats::from_latencies(vec![7], 0, 1, "FP", 1.0);
        assert_eq!((s.p50_us, s.p99_us, s.max_us), (7, 7, 7));
    }

    #[test]
    fn labeled_latencies_split_hit_and_miss_percentiles() {
        // Hits 1..=60 µs, misses 1000..=1040 µs: the blended p50 lands
        // in the hits and hides the misses; the split columns do not.
        let mut labeled: Vec<(u64, bool)> = (1..=60).map(|us| (us, true)).collect();
        labeled.extend((1000..=1040).map(|us| (us, false)));
        let s = ServeStats::from_labeled_latencies(labeled, 2, "FP", 10.0);
        assert_eq!(s.queries, 101);
        assert_eq!((s.hits, s.misses), (60, 41));
        assert_eq!(s.hit_p50_us, 30); // ⌈0.5·60⌉ = 30th of 1..=60
        assert_eq!(s.hit_p99_us, 60); // ⌈0.99·60⌉ = 60th
        assert_eq!(s.miss_p50_us, 1020);
        assert_eq!(s.miss_p99_us, 1040);
        assert!(s.p50_us <= 60, "blended p50 hides the misses");
        assert!(s.p99_us >= 1000);
    }

    #[test]
    fn aggregate_percentiles_are_nearest_rank_of_the_union() {
        let batch = |labeled: Vec<(u64, bool)>| BatchResult {
            responses: labeled
                .iter()
                .map(|&(latency_us, from_cache)| TopKResponse {
                    ids: Vec::new(),
                    from_cache,
                    latency_us,
                    failed: false,
                    pages: 0,
                    error: None,
                    explain: None,
                })
                .collect(),
            stats: ServeStats::from_labeled_latencies(labeled, 1, "FP", 1.0),
        };
        // Batch A: 100 hits at 1..=100 µs. Batch B: one hit at 200 µs
        // and one miss at 1000 µs. The union has 102 samples, so the
        // nearest-rank p50 is the 51st (51 µs) and p99 the 101st
        // (200 µs); the larger of the per-batch percentiles would say
        // 200 and 1000.
        let a = batch((1..=100).map(|us| (us, true)).collect());
        let b = batch(vec![(200, true), (1000, false)]);
        let agg = ServeStats::from_batches(&[a, b]);
        assert_eq!((agg.queries, agg.hits, agg.misses), (102, 101, 1));
        assert_eq!(agg.p50_us, 51);
        assert_eq!(agg.p99_us, 200);
        assert_eq!(agg.max_us, 1000);
        // Hits alone: 1..=100 plus 200, 101 samples → 51st and 100th.
        assert_eq!(agg.hit_p50_us, 51);
        assert_eq!(agg.hit_p99_us, 100);
        assert_eq!((agg.miss_p50_us, agg.miss_p99_us), (1000, 1000));
        assert!((agg.wall_ms - 2.0).abs() < 1e-12);
        assert_eq!((agg.threads, agg.method), (1, "FP"));
    }

    #[test]
    fn json_shape() {
        let s = ServeStats::from_labeled_latencies(vec![(5, true), (10, false)], 2, "FP", 1.0);
        let j = s.to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        for key in [
            "\"queries\":2",
            "\"hits\":1",
            "\"method\":\"FP\"",
            "\"p99_us\":10",
            "\"hit_p50_us\":5",
            "\"miss_p99_us\":10",
        ] {
            assert!(j.contains(key), "missing {key} in {j}");
        }
    }

    #[test]
    fn empty_batch_is_all_zeros() {
        let s = ServeStats::from_labeled_latencies(Vec::new(), 1, "FP", 0.0);
        assert_eq!(s.queries, 0);
        assert_eq!(s.p99_us, 0);
        assert_eq!(s.miss_p99_us, 0);
        assert_eq!(s.hit_rate(), 0.0);
    }
}
