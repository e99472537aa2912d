//! Building the server under test and driving it with closed-loop
//! clients.
//!
//! Each client waits for its reply before sending the next call. Every
//! query is its own `run_batch(&[req])` call and every traffic batch's
//! updates are one `apply_updates` call. All timing is the client's.

use crate::decor::{CallRecord, IoTotals, TimingDir, TimingEndpoint};
use crate::oracle::Sample;
use crate::trace::Tracer;
use crate::workloads::{Batch, Inputs, Spec, Target};
use gir_query::{Record, ScoringFunction};
use gir_rpc::{DistributedGirServer, DistributedServerConfig, ShardEndpoint, UdsEndpoint};
use gir_rtree::RTree;
use gir_serve::{
    DurabilityConfig, DurableServer, GirServer, ServerConfig, TopKRequest, TopKResponse, Update,
    UpdateReport,
};
use gir_shard::Placement;
use gir_storage::{FsDir, LogDir, MemPageStore, PageStore, PAGE_SIZE};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

/// The server under test.
pub enum Server {
    /// In-memory `GirServer`.
    Gir(GirServer),
    /// `DurableServer<GirServer>` and its directory.
    Durable(DurableServer<GirServer>, PathBuf),
    /// `DistributedGirServer` over UDS workers.
    Dist(DistributedGirServer),
}

/// Decorators a traced build installs.
#[derive(Clone)]
pub struct Decor {
    /// Span store.
    pub tracer: Arc<Tracer>,
    /// Storage byte counters.
    pub io: Arc<Mutex<IoTotals>>,
    /// Shard call log.
    pub calls: Arc<Mutex<Vec<CallRecord>>>,
}

/// The server configuration every in-process target uses.
pub fn server_config(spec: &Spec, dir: Option<&Path>) -> ServerConfig {
    ServerConfig {
        method: spec.method,
        durability: dir.map(|d| DurabilityConfig {
            dir: d.to_path_buf(),
            fsync: spec.fsync,
            snapshot_every: spec.snapshot_every,
        }),
        ..ServerConfig::default()
    }
}

/// Bulk-loads `data` into a fresh in-memory tree.
pub fn load_tree(data: &[Record]) -> RTree {
    let store: Arc<dyn PageStore> = Arc::new(MemPageStore::new(PAGE_SIZE));
    RTree::bulk_load(store, data).expect("bulk load of generated data")
}

/// A UDS worker endpoint factory, optionally decorated.
pub fn uds_factory(decor: Option<Decor>) -> gir_rpc::EndpointFactory {
    Box::new(move |s| {
        let ep: Box<dyn ShardEndpoint> = Box::new(UdsEndpoint::spawn().expect("spawn UDS worker"));
        match &decor {
            Some(d) => Box::new(TimingEndpoint::new(
                ep,
                s,
                d.tracer.clone(),
                d.calls.clone(),
            )),
            None => ep,
        }
    })
}

impl Server {
    /// Builds the workload's server over `inputs.data`; a durable
    /// target gets a fresh directory `dir`.
    pub fn build(
        spec: &Spec,
        inputs: &Inputs,
        dir: &Path,
        decor: Option<&Decor>,
    ) -> Result<Server, String> {
        let scoring = ScoringFunction::linear(spec.d);
        match spec.target {
            Target::Gir => Ok(Server::Gir(GirServer::new(
                load_tree(&inputs.data),
                scoring,
                server_config(spec, None),
            ))),
            Target::Durable => {
                let cfg = server_config(spec, Some(dir));
                let dcfg = cfg.durability.clone().expect("durable config");
                let fs = FsDir::new(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
                let log_dir: Box<dyn LogDir> = match decor {
                    Some(d) => {
                        Box::new(TimingDir::new(Box::new(fs), d.tracer.clone(), d.io.clone()))
                    }
                    None => Box::new(fs),
                };
                let inner = GirServer::new(load_tree(&inputs.data), scoring, cfg);
                DurableServer::create_in(log_dir, inner, dcfg)
                    .map(|s| Server::Durable(s, dir.to_path_buf()))
                    .map_err(|e| format!("durable create: {e}"))
            }
            Target::DistUds => {
                let cfg = DistributedServerConfig {
                    data_shards: spec.shards,
                    placement: Placement::Hash,
                    method: spec.method,
                    ..DistributedServerConfig::default()
                };
                DistributedGirServer::launch(
                    &inputs.data,
                    scoring,
                    cfg,
                    uds_factory(decor.cloned()),
                )
                .map(Server::Dist)
                .map_err(|e| format!("distributed launch: {e}"))
            }
        }
    }

    /// One query as its own batch.
    pub fn query(&self, req: &TopKRequest) -> TopKResponse {
        let reqs = std::slice::from_ref(req);
        let mut out = match self {
            Server::Gir(s) => s.run_batch(reqs),
            Server::Durable(s, _) => s.run_batch(reqs),
            Server::Dist(s) => s.run_batch(reqs),
        };
        out.responses.pop().expect("one response per request")
    }

    /// One update batch.
    pub fn update(&self, updates: &[Update]) -> Result<UpdateReport, String> {
        match self {
            Server::Gir(s) => s.apply_updates(updates).map_err(|e| e.to_string()),
            Server::Durable(s, _) => s.apply_updates(updates).map_err(|e| e.to_string()),
            Server::Dist(s) => s.apply_updates(updates).map_err(|e| e.to_string()),
        }
    }

    /// Every live record.
    pub fn records(&self) -> Result<Vec<Record>, String> {
        match self {
            Server::Gir(s) => s.records_snapshot(),
            Server::Durable(s, _) => s.inner().records_snapshot(),
            Server::Dist(s) => s.records_snapshot(),
        }
        .map_err(|e| e.to_string())
    }

    /// The in-process `GirServer`, if any (for its counters).
    pub fn gir(&self) -> Option<&GirServer> {
        match self {
            Server::Gir(s) => Some(s),
            Server::Durable(s, _) => Some(s.inner()),
            Server::Dist(_) => None,
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Server::Dist(s) = self {
            s.shutdown();
        }
    }
}

/// Serves `batches` untimed (the set-up warm-up prefix).
pub fn warm_up(server: &Server, spec: &Spec, batches: &[Batch]) -> Result<(), String> {
    for b in batches {
        if !b.updates.is_empty() {
            server.update(&b.updates)?;
        }
        for i in 0..b.queries() {
            let resp = server.query(&b.request(i, spec.d));
            if resp.failed {
                return Err(format!("warm-up query failed: {:?}", resp.error));
            }
        }
    }
    Ok(())
}

/// One served query, as the client saw it.
#[derive(Debug, Clone)]
pub struct Answer {
    /// Batch index (into `Inputs::batches`).
    pub batch: usize,
    /// Query index within the batch.
    pub index: usize,
    /// Served ids.
    pub ids: Vec<u64>,
    /// Dataset version served under.
    pub version: usize,
}

/// What one client measured.
#[derive(Default)]
pub struct ClientLog {
    /// Every query's latency, ns.
    pub query_ns: Vec<u64>,
    /// Queries completed in each second of served time.
    pub per_second: Vec<u64>,
    /// Latencies of successful misses, ns.
    pub miss_ns: Vec<u64>,
    /// Latencies of cache hits, ns.
    pub hit_ns: Vec<u64>,
    /// Cache hits.
    pub hits: u64,
    /// Every update call's latency, ns.
    pub update_ns: Vec<u64>,
    /// Failed responses plus failed update calls.
    pub failed: u64,
    /// Answers kept for the oracle.
    pub samples: Vec<Sample>,
    /// Every answer (traced runs only).
    pub answers: Vec<Answer>,
    /// Update batches this client applied: (batch index, error).
    pub applied: Vec<(usize, Option<String>)>,
}

impl ClientLog {
    /// A log whose latency vectors take `queries` samples without
    /// growing. Growth would copy them and leave the old block behind, so
    /// the process's peak memory would jump with the number served;
    /// capacity never written is not resident.
    fn with_capacity(queries: usize) -> ClientLog {
        ClientLog {
            query_ns: Vec::with_capacity(queries),
            miss_ns: Vec::with_capacity(queries),
            hit_ns: Vec::with_capacity(queries),
            ..ClientLog::default()
        }
    }

    /// Appends another log.
    pub fn merge(&mut self, o: ClientLog) {
        append(&mut self.query_ns, o.query_ns);
        if self.per_second.len() < o.per_second.len() {
            self.per_second.resize(o.per_second.len(), 0);
        }
        for (a, b) in self.per_second.iter_mut().zip(o.per_second) {
            *a += b;
        }
        append(&mut self.miss_ns, o.miss_ns);
        self.hits += o.hits;
        append(&mut self.hit_ns, o.hit_ns);
        self.update_ns.extend(o.update_ns);
        self.failed += o.failed;
        self.samples.extend(o.samples);
        self.answers.extend(o.answers);
        self.applied.extend(o.applied);
    }
}

/// Appends `b` to `a`; moves it, with its capacity, when `a` is empty.
fn append<T>(a: &mut Vec<T>, b: Vec<T>) {
    if a.is_empty() {
        *a = b;
    } else {
        a.extend(b);
    }
}

/// How a phase is driven.
pub struct PhaseOpts<'a> {
    /// Stop sending new calls after this instant.
    pub deadline: Instant,
    /// Hand out no batch at or past this index.
    pub end_batch: usize,
    /// Served time of the phases before this one, so that per-second
    /// counts continue across phases.
    pub served_before: Duration,
    /// Keep every answer and stamp exact versions (traced runs).
    pub trace: Option<&'a Tracer>,
}

/// Result of a query phase.
pub struct Phase {
    /// Merged client logs.
    pub log: ClientLog,
    /// Wall time from start to the last client's stop.
    pub wall: Duration,
    /// First batch not handed out (the phase's end).
    pub next_batch: usize,
    /// True when the generated traffic ran out before the deadline.
    pub exhausted: bool,
}

/// Drives `inputs.batches[start..]` with `spec.clients` closed-loop
/// clients until the deadline.
pub fn run_phase(
    server: &Server,
    spec: &Spec,
    inputs: &Inputs,
    start: usize,
    opts: &PhaseOpts<'_>,
) -> Phase {
    let cursor = Mutex::new(start);
    // Dataset version = traffic batches whose updates have been applied.
    // `started` moves before an apply, `done` after it, so a query that
    // read `done` before its call and `started` after it saw a version
    // in that range.
    let started = AtomicUsize::new(start);
    let done = AtomicUsize::new(start);
    // Traced runs serialise queries against updates in the client too,
    // so every answer has one exact version for the replay.
    let gate = RwLock::new(());
    let end = opts.end_batch.min(inputs.batches.len());
    // Each client may serve every remaining query.
    let capacity = end.saturating_sub(start) * spec.queries_per_batch;
    let t0 = Instant::now();
    let client = || {
        let mut log = ClientLog::with_capacity(capacity);
        'outer: loop {
            if Instant::now() >= opts.deadline {
                break;
            }
            let bi = {
                let mut c = cursor.lock().expect("cursor lock");
                if *c >= end {
                    break;
                }
                let bi = *c;
                *c += 1;
                let b = &inputs.batches[bi];
                // Traced runs hold the gate across the apply and the
                // version bump, so a query reading `done` under the gate
                // saw exactly that version.
                let gate_w = opts.trace.map(|_| gate.write().expect("gate"));
                started.store(bi + 1, Ordering::SeqCst);
                if !b.updates.is_empty() {
                    if let Some(t) = opts.trace {
                        t.set_req(op_id(bi, None));
                    }
                    let span = opts.trace.map(|t| t.span("op.update"));
                    let u0 = Instant::now();
                    let r = server.update(&b.updates);
                    log.update_ns.push(u0.elapsed().as_nanos() as u64);
                    drop(span);
                    if r.is_err() {
                        log.failed += 1;
                    }
                    log.applied.push((bi, r.err()));
                }
                done.store(bi + 1, Ordering::SeqCst);
                drop(gate_w);
                bi
            };
            let b = &inputs.batches[bi];
            for qi in 0..b.queries() {
                let req = b.request(qi, spec.d);
                let _r = opts.trace.map(|_| gate.read().expect("gate"));
                if let Some(t) = opts.trace {
                    t.set_req(op_id(bi, Some(qi)));
                }
                let lo = done.load(Ordering::SeqCst);
                let span = opts.trace.map(|t| t.span("op.query"));
                let q0 = Instant::now();
                let resp = server.query(&req);
                let q1 = Instant::now();
                drop(span);
                let hi = started.load(Ordering::SeqCst);
                let ns = (q1 - q0).as_nanos() as u64;
                log.query_ns.push(ns);
                let sec = (opts.served_before + (q1 - t0)).as_secs() as usize;
                if log.per_second.len() <= sec {
                    log.per_second.resize(sec + 1, 0);
                }
                log.per_second[sec] += 1;
                if resp.failed {
                    log.failed += 1;
                } else if resp.from_cache {
                    log.hits += 1;
                    log.hit_ns.push(ns);
                } else {
                    log.miss_ns.push(ns);
                }
                let global = bi * spec.queries_per_batch + qi;
                if qi < 2 || global.is_multiple_of(spec.oracle_stride) {
                    log.samples.push(Sample {
                        batch: bi,
                        index: qi,
                        weights: req.weights.coords().to_vec(),
                        k: req.k,
                        lo,
                        hi,
                        ids: resp.ids.clone(),
                    });
                }
                if opts.trace.is_some() {
                    log.answers.push(Answer {
                        batch: bi,
                        index: qi,
                        ids: resp.ids,
                        version: lo,
                    });
                }
                if q1 >= opts.deadline {
                    break 'outer;
                }
            }
        }
        log
    };
    let mut log = ClientLog::default();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..spec.clients).map(|_| s.spawn(client)).collect();
        for h in handles {
            log.merge(h.join().expect("client thread panicked"));
        }
    });
    let wall = t0.elapsed();
    let next_batch = *cursor.lock().expect("cursor lock");
    Phase {
        log,
        wall,
        next_batch,
        exhausted: next_batch >= end && Instant::now() < opts.deadline,
    }
}

/// Request id of a query (`Some(index)`) or of a batch's update call.
pub fn op_id(batch: usize, query: Option<usize>) -> u64 {
    ((batch as u64) << 20) | query.map_or(0xF_FFFF, |q| q as u64)
}
