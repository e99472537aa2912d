//! The workloads and their seeded inputs.
//!
//! Inputs are generated before any set-up is timed: the dataset from
//! `gir_datagen::synthetic`, the traffic from `gir_serve::mixed_workload`
//! seeded from the command line. The traffic is a sequence of segments,
//! each one `mixed_workload` stream with its own anchors that starts
//! from the live records the segments before it leave, so that one run
//! averages over many anchor sets rather than one seed's draw. Queries
//! are stored compactly (flat weights plus k) so that the input buffer
//! does not dominate the process's memory figure.

use crate::oracle::LiveSet;
use gir_core::Method;
use gir_datagen::{synthetic, Distribution};
use gir_query::Record;
use gir_serve::{mixed_workload, TopKRequest, Update, WorkloadConfig};
use gir_storage::FsyncPolicy;
use std::collections::HashMap;

/// Which server a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Target {
    /// `GirServer`, in memory.
    Gir,
    /// `DurableServer<GirServer>` over a fresh `FsDir`.
    Durable,
    /// `DistributedGirServer` over `UdsEndpoint` workers.
    DistUds,
}

/// One workload's fixed knobs.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Workload name as given on the command line.
    pub name: &'static str,
    /// Server under test.
    pub target: Target,
    /// Records in the initial dataset.
    pub n: usize,
    /// Dimensionality.
    pub d: usize,
    /// Phase-2 method.
    pub method: Method,
    /// Result sizes drawn per query.
    pub k_choices: &'static [usize],
    /// Preference anchors.
    pub anchors: usize,
    /// Per-query jitter around the anchor.
    pub jitter: f64,
    /// Queries per traffic batch.
    pub queries_per_batch: usize,
    /// Updates before each traffic batch (one `apply_updates` call).
    pub updates_per_batch: usize,
    /// Share of updates that insert.
    pub insert_fraction: f64,
    /// Share of inserts drawn in the competitive band.
    pub insert_hot_fraction: f64,
    /// Share of deletes that remove the oldest hot insert.
    pub delete_hot_fraction: f64,
    /// Concurrent closed-loop clients.
    pub clients: usize,
    /// Traffic batches replayed during set-up (cache and lazy index
    /// warm-up) before the first timed call.
    pub warmup_batches: usize,
    /// Traffic batches per segment.
    pub segment_batches: usize,
    /// Served queries per second the traffic generated before set-up is
    /// sized for; a faster run gets further segments, generated untimed.
    pub max_qps: f64,
    /// Every `oracle_stride`-th query is checked against the oracle
    /// (plus the first query after every update batch).
    pub oracle_stride: usize,
    /// Data shards (distributed target).
    pub shards: usize,
    /// WAL fsync policy (durable target).
    pub fsync: FsyncPolicy,
    /// Snapshot cadence in update batches (durable and distributed).
    pub snapshot_every: u64,
}

const SESSION_K: &[usize] = &[5, 10, 20];

/// Seed of every workload's dataset.
pub const DATA_SEED: u64 = 0x6D1_DA7A;

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 3] = ["session_read", "churn_durable", "dist_uds_s2"];

impl Spec {
    /// The workload called `name`.
    pub fn named(name: &str) -> Option<Spec> {
        let base = Spec {
            name: "",
            target: Target::Gir,
            n: 20_000,
            d: 3,
            method: Method::FacetPruning,
            k_choices: SESSION_K,
            anchors: 24,
            jitter: 0.02,
            queries_per_batch: 500,
            updates_per_batch: 8,
            insert_fraction: 0.7,
            insert_hot_fraction: 0.0,
            delete_hot_fraction: 0.0,
            clients: 1,
            warmup_batches: 2,
            segment_batches: 80,
            max_qps: 100_000.0,
            oracle_stride: 64,
            shards: 1,
            fsync: FsyncPolicy::Never,
            snapshot_every: 0,
        };
        let spec = match name {
            "session_read" => Spec {
                name: "session_read",
                clients: 2,
                warmup_batches: 4,
                segment_batches: 80,
                max_qps: 50_000.0,
                oracle_stride: 512,
                ..base
            },
            "churn_durable" => Spec {
                name: "churn_durable",
                target: Target::Durable,
                queries_per_batch: 64,
                insert_fraction: 0.5,
                insert_hot_fraction: 0.6,
                delete_hot_fraction: 0.8,
                warmup_batches: 8,
                segment_batches: 160,
                max_qps: 14_000.0,
                oracle_stride: 32,
                fsync: FsyncPolicy::EveryN(8),
                snapshot_every: 64,
                ..base
            },
            "dist_uds_s2" => Spec {
                name: "dist_uds_s2",
                target: Target::DistUds,
                queries_per_batch: 125,
                insert_fraction: 0.5,
                insert_hot_fraction: 0.6,
                delete_hot_fraction: 0.8,
                warmup_batches: 4,
                segment_batches: 40,
                max_qps: 6_500.0,
                oracle_stride: 32,
                shards: 2,
                snapshot_every: gir_rpc::RemoteConfig::default().snapshot_every,
                ..base
            },
            _ => return None,
        };
        Some(spec)
    }

    /// Transport label for the knob record.
    pub fn transport(&self) -> &'static str {
        match self.target {
            Target::DistUds => "uds",
            _ => "in-process",
        }
    }

    /// Fsync policy label for the knob record.
    pub fn fsync_label(&self) -> String {
        match (self.target, self.fsync) {
            (Target::Durable, FsyncPolicy::Always) => "always".into(),
            (Target::Durable, FsyncPolicy::EveryN(n)) => format!("every_{n}"),
            (Target::Durable, FsyncPolicy::Never) => "never".into(),
            // The coordinator's own WAL is in memory and always synced.
            (Target::DistUds, _) => "memdir_always".into(),
            (Target::Gir, _) => "none".into(),
        }
    }
}

/// One traffic batch: its updates (one call), then its queries.
#[derive(Debug, Clone)]
pub struct Batch {
    /// Updates applied before the queries.
    pub updates: Vec<Update>,
    /// Flat query weights, `d` per query.
    pub weights: Vec<f64>,
    /// Result size per query.
    pub ks: Vec<u16>,
}

impl Batch {
    /// Queries in this batch.
    pub fn queries(&self) -> usize {
        self.ks.len()
    }

    /// The `i`-th query as the request the server receives.
    pub fn request(&self, i: usize, d: usize) -> TopKRequest {
        TopKRequest::new(
            self.weights[i * d..(i + 1) * d].to_vec(),
            self.ks[i] as usize,
        )
    }
}

/// Everything a run replays, generated from the seed.
pub struct Inputs {
    /// The initial dataset.
    pub data: Vec<Record>,
    /// Warm-up batches followed by measured batches.
    pub batches: Vec<Batch>,
    /// Traffic seed.
    seed: u64,
    /// Segments generated so far.
    segments: u64,
    /// Live records after the last generated batch.
    live: LiveSet,
    /// First id no generated insert has used.
    next_id: u64,
}

impl Inputs {
    /// Frees the queries of the batches in `range`, which no client will
    /// serve again; their updates stay for the oracle.
    pub fn release(&mut self, range: std::ops::Range<usize>) {
        for b in &mut self.batches[range] {
            b.weights = Vec::new();
            b.ks = Vec::new();
        }
    }
}

/// A 64-bit mix so that nearby seeds give unrelated streams.
fn mix(seed: u64, salt: u64) -> u64 {
    let mut h = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^ (h >> 31)
}

impl Spec {
    /// Batches needed for `seconds` of traffic at `max_qps`, plus the
    /// warm-up prefix.
    pub fn batch_budget(&self, seconds: f64) -> usize {
        let queries = (self.max_qps * seconds).ceil() as usize;
        self.warmup_batches + queries.div_ceil(self.queries_per_batch).max(1)
    }

    /// Generates the dataset and the traffic for `seed`. The dataset is
    /// part of the workload's definition, like `n` and `d`: its seed is
    /// fixed, so that run-to-run spread measures the program and the
    /// traffic rather than which extreme records a seed happened to draw.
    /// The traffic — anchors, jitter, k, updates — comes from `seed`.
    pub fn generate(&self, seed: u64, seconds: f64) -> Inputs {
        let data = synthetic(Distribution::Independent, self.n, self.d, DATA_SEED);
        let mut inputs = Inputs {
            live: LiveSet::new(&data),
            next_id: data.iter().map(|r| r.id).max().unwrap_or(0) + 1_000_000,
            data,
            batches: Vec::new(),
            seed,
            segments: 0,
        };
        let budget = self.batch_budget(seconds);
        while inputs.batches.len() < budget {
            self.extend(&mut inputs);
        }
        inputs
    }

    /// Appends one segment of traffic: a `mixed_workload` stream over the
    /// live records the batches so far leave. Its inserts are renumbered
    /// so that no id is ever inserted twice in a run.
    pub fn extend(&self, inputs: &mut Inputs) {
        let cfg = WorkloadConfig {
            dim: self.d,
            anchors: self.anchors,
            jitter: self.jitter,
            batches: self.segment_batches,
            queries_per_batch: self.queries_per_batch,
            updates_per_batch: self.updates_per_batch,
            insert_fraction: self.insert_fraction,
            insert_hot_fraction: self.insert_hot_fraction,
            delete_hot_fraction: self.delete_hot_fraction,
            k_choices: self.k_choices.to_vec(),
            seed: mix(inputs.seed, 16 + inputs.segments),
        };
        inputs.segments += 1;
        let mut fresh: HashMap<u64, u64> = HashMap::new();
        for tb in mixed_workload(&cfg, inputs.live.records()) {
            let updates: Vec<Update> = tb
                .updates
                .into_iter()
                .map(|u| match u {
                    Update::Insert(mut rec) => {
                        rec.id = *fresh.entry(rec.id).or_insert_with(|| {
                            inputs.next_id += 1;
                            inputs.next_id - 1
                        });
                        Update::Insert(rec)
                    }
                    Update::Delete { id, attrs } => Update::Delete {
                        id: fresh.get(&id).copied().unwrap_or(id),
                        attrs,
                    },
                })
                .collect();
            inputs.live.apply(&updates);
            inputs.batches.push(Batch {
                updates,
                weights: tb
                    .queries
                    .iter()
                    .flat_map(|q| q.weights.coords().to_vec())
                    .collect(),
                ks: tb.queries.iter().map(|q| q.k as u16).collect(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_name_resolves_and_inputs_repeat_per_seed() {
        for name in NAMES {
            let spec = Spec::named(name).unwrap();
            assert_eq!(spec.name, name);
        }
        assert!(Spec::named("nope").is_none());
        let spec = Spec {
            n: 300,
            max_qps: 200.0,
            ..Spec::named("churn_durable").unwrap()
        };
        let a = spec.generate(7, 1.0);
        let b = spec.generate(7, 1.0);
        let c = spec.generate(8, 1.0);
        let segments = spec.batch_budget(1.0).div_ceil(spec.segment_batches);
        assert_eq!(a.batches.len(), segments * spec.segment_batches);
        assert_eq!(a.batches[3].weights, b.batches[3].weights);
        assert_ne!(a.batches[3].weights, c.batches[3].weights);
        assert_eq!(a.data[5].attrs.coords(), b.data[5].attrs.coords());
        let req = a.batches[0].request(1, spec.d);
        assert_eq!(req.weights.coords(), &a.batches[0].weights[3..6]);
    }

    #[test]
    fn segments_continue_the_live_set_with_fresh_ids() {
        let spec = Spec {
            n: 200,
            segment_batches: 5,
            max_qps: 1_000.0,
            ..Spec::named("churn_durable").unwrap()
        };
        let mut inputs = spec.generate(3, 1.0);
        spec.extend(&mut inputs);
        let mut live = LiveSet::new(&inputs.data);
        let mut inserted = std::collections::HashSet::new();
        for b in &inputs.batches {
            for u in &b.updates {
                match u {
                    Update::Insert(r) => assert!(inserted.insert(r.id), "id {} reused", r.id),
                    Update::Delete { id, .. } => {
                        assert!(live.records().iter().any(|r| r.id == *id), "{id} not live")
                    }
                }
                live.apply(std::slice::from_ref(u));
            }
        }
        assert_eq!(live.sorted_ids(), inputs.live.sorted_ids());
        inputs.release(2..10);
        assert_eq!(inputs.batches[1].queries(), spec.queries_per_batch);
        assert_eq!(inputs.batches[9].queries(), 0);
        assert_eq!(inputs.batches[10].queries(), spec.queries_per_batch);
    }
}
