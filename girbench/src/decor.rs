//! Timing decorators for the program's two pluggable seams: the
//! durability tier's [`LogDir`]/[`LogFile`] and the coordinator's
//! [`ShardEndpoint`]. Both forward every call unchanged (pinned by the
//! transparency tests) and time it from outside.

use crate::trace::Tracer;
use gir_core::{ShardRequest, ShardResponse};
use gir_rpc::{RpcError, ShardEndpoint};
use gir_storage::{LogDir, LogFile};
use std::io;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Byte counters of a [`TimingDir`].
#[derive(Debug, Default, Clone, Copy)]
pub struct IoTotals {
    /// Bytes appended to any file.
    pub bytes_written: u64,
    /// WAL syncs.
    pub wal_syncs: u64,
}

/// A [`LogDir`] that records a span per file operation.
pub struct TimingDir {
    inner: Box<dyn LogDir>,
    tracer: Arc<Tracer>,
    totals: Arc<Mutex<IoTotals>>,
    snap_start: Mutex<Option<Instant>>,
}

impl TimingDir {
    /// Wraps `inner`; spans go to `tracer`, byte counts to `totals`.
    pub fn new(inner: Box<dyn LogDir>, tracer: Arc<Tracer>, totals: Arc<Mutex<IoTotals>>) -> Self {
        TimingDir {
            inner,
            tracer,
            totals,
            snap_start: Mutex::new(None),
        }
    }

    fn wrap(&self, name: &str, file: Box<dyn LogFile>) -> Box<dyn LogFile> {
        Box::new(TimingFile {
            inner: file,
            snapshot: name.starts_with("snap-"),
            tracer: self.tracer.clone(),
            totals: self.totals.clone(),
        })
    }
}

impl LogDir for TimingDir {
    fn create(&self, name: &str) -> io::Result<Box<dyn LogFile>> {
        if name.starts_with("snap-") {
            *self.snap_start.lock().expect("snap lock") = Some(Instant::now());
        }
        let f = self.inner.create(name)?;
        Ok(self.wrap(name, f))
    }

    fn open(&self, name: &str) -> io::Result<Box<dyn LogFile>> {
        let f = self.inner.open(name)?;
        Ok(self.wrap(name, f))
    }

    fn exists(&self, name: &str) -> io::Result<bool> {
        self.inner.exists(name)
    }

    fn rename(&self, from: &str, to: &str) -> io::Result<()> {
        let r = self.inner.rename(from, to);
        if to.starts_with("snap-") {
            if let Some(t0) = self.snap_start.lock().expect("snap lock").take() {
                let parent = self.tracer.current();
                self.tracer
                    .record("storage.snapshot", t0, Instant::now(), parent, 0);
            }
        }
        r
    }

    fn remove(&self, name: &str) -> io::Result<()> {
        self.inner.remove(name)
    }

    fn list(&self) -> io::Result<Vec<String>> {
        self.inner.list()
    }
}

struct TimingFile {
    inner: Box<dyn LogFile>,
    snapshot: bool,
    tracer: Arc<Tracer>,
    totals: Arc<Mutex<IoTotals>>,
}

impl LogFile for TimingFile {
    fn append(&mut self, data: &[u8]) -> io::Result<()> {
        let t0 = Instant::now();
        let r = self.inner.append(data);
        let t1 = Instant::now();
        let name = if self.snapshot {
            "storage.snapshot_append"
        } else {
            "storage.append"
        };
        let parent = self.tracer.current();
        self.tracer.record(name, t0, t1, parent, data.len() as u64);
        self.totals.lock().expect("totals lock").bytes_written += data.len() as u64;
        r
    }

    fn sync(&mut self) -> io::Result<()> {
        let t0 = Instant::now();
        let r = self.inner.sync();
        let t1 = Instant::now();
        let name = if self.snapshot {
            "storage.snapshot_sync"
        } else {
            self.totals.lock().expect("totals lock").wal_syncs += 1;
            "storage.sync"
        };
        let parent = self.tracer.current();
        self.tracer.record(name, t0, t1, parent, 0);
        r
    }

    fn len(&self) -> io::Result<u64> {
        self.inner.len()
    }

    fn read_all(&mut self) -> io::Result<Vec<u8>> {
        self.inner.read_all()
    }

    fn truncate(&mut self, len: u64) -> io::Result<()> {
        self.inner.truncate(len)
    }
}

/// One forwarded shard call, kept for the shadow analysis that runs
/// after the timed phase.
#[derive(Debug, Clone)]
pub struct CallRecord {
    /// Shard the call went to.
    pub shard: usize,
    /// Operation (request id) that issued it.
    pub op: u64,
    /// The request.
    pub req: ShardRequest,
    /// The response, when the call succeeded.
    pub resp: Option<ShardResponse>,
    /// Client-timed call duration.
    pub call_ns: u64,
}

/// Span name of a request kind (the `rpc.call_us.*` families).
pub fn call_kind(req: &ShardRequest) -> &'static str {
    match req {
        ShardRequest::TopK { .. } => "topk",
        ShardRequest::Phase2 { .. } => "phase2",
        ShardRequest::Apply { .. } => "apply",
        ShardRequest::RepairSweep { .. } | ShardRequest::RepairStarSweep { .. } => "repair",
        ShardRequest::Cut => "cut",
        ShardRequest::Load { .. } => "load",
        _ => "other",
    }
}

fn span_name(kind: &str) -> &'static str {
    match kind {
        "topk" => "rpc.topk",
        "phase2" => "rpc.phase2",
        "apply" => "rpc.apply",
        "repair" => "rpc.repair",
        "cut" => "rpc.cut",
        "load" => "rpc.load",
        _ => "rpc.other",
    }
}

/// A [`ShardEndpoint`] that times every call and logs it.
pub struct TimingEndpoint {
    inner: Box<dyn ShardEndpoint>,
    shard: usize,
    tracer: Arc<Tracer>,
    log: Arc<Mutex<Vec<CallRecord>>>,
}

impl TimingEndpoint {
    /// Wraps shard `shard`'s endpoint.
    pub fn new(
        inner: Box<dyn ShardEndpoint>,
        shard: usize,
        tracer: Arc<Tracer>,
        log: Arc<Mutex<Vec<CallRecord>>>,
    ) -> Self {
        TimingEndpoint {
            inner,
            shard,
            tracer,
            log,
        }
    }
}

impl ShardEndpoint for TimingEndpoint {
    fn call(&mut self, req: &ShardRequest, timeout: Duration) -> Result<ShardResponse, RpcError> {
        let t0 = Instant::now();
        let r = self.inner.call(req, timeout);
        let t1 = Instant::now();
        let parent = self.tracer.current();
        self.tracer
            .record(span_name(call_kind(req)), t0, t1, parent, self.shard as u64);
        self.log.lock().expect("call log lock").push(CallRecord {
            shard: self.shard,
            op: self.tracer.req(),
            req: req.clone(),
            resp: r.as_ref().ok().cloned(),
            call_ns: (t1 - t0).as_nanos() as u64,
        });
        r
    }

    fn shutdown(&mut self) {
        self.inner.shutdown()
    }
}

/// Per-call shadow timings: the worker's own handling (a fresh
/// `ShardWorker` fed the same request stream) and the four codec steps.
#[derive(Debug, Clone, Copy)]
pub struct Shadow {
    /// `ShardWorker::handle` time.
    pub worker_ns: u64,
    /// Request encode + decode plus response encode + decode.
    pub codec_ns: u64,
    /// Request frame plus response frame, bytes.
    pub frame_bytes: u64,
    /// The shadow worker answered exactly as the real one did.
    pub matches: bool,
}

/// Replays `log` (in call order per shard) through shadow workers.
/// Returns one entry per record, aligned with `log`.
pub fn shadow(log: &[CallRecord]) -> Vec<Option<Shadow>> {
    let shards = log.iter().map(|c| c.shard + 1).max().unwrap_or(0);
    let mut workers: Vec<gir_rpc::ShardWorker> =
        (0..shards).map(|_| gir_rpc::ShardWorker::new()).collect();
    log.iter()
        .map(|c| {
            let t0 = Instant::now();
            let (out, _) = workers[c.shard].handle(c.req.clone());
            let worker_ns = t0.elapsed().as_nanos() as u64;
            let resp = c.resp.as_ref()?;
            let matches = &out == resp;
            let t1 = Instant::now();
            let req_payload = std::hint::black_box(c.req.encode());
            let _ = std::hint::black_box(ShardRequest::decode(&req_payload));
            let resp_payload = std::hint::black_box(resp.encode());
            let _ = std::hint::black_box(ShardResponse::decode(&resp_payload));
            let codec_ns = t1.elapsed().as_nanos() as u64;
            Some(Shadow {
                worker_ns,
                codec_ns,
                frame_bytes: (c.req.to_frame().len() + resp.to_frame().len()) as u64,
                matches,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    //! The decorators must be invisible to the program: same answers,
    //! same bytes on disk.

    use super::*;
    use crate::drive::load_tree;
    use gir_query::ScoringFunction;
    use gir_rpc::{DistributedGirServer, DistributedServerConfig, ThreadEndpoint, UdsEndpoint};
    use gir_serve::{
        mixed_workload, DurabilityConfig, DurableServer, GirServer, ServerConfig, TrafficBatch,
        WorkloadConfig,
    };
    use gir_storage::{FsyncPolicy, MemDir};

    fn small() -> (Vec<gir_query::Record>, Vec<TrafficBatch>) {
        let data = gir_datagen::synthetic(gir_datagen::Distribution::Independent, 600, 3, 5);
        let cfg = WorkloadConfig {
            batches: 10,
            queries_per_batch: 24,
            updates_per_batch: 6,
            insert_fraction: 0.5,
            insert_hot_fraction: 0.6,
            delete_hot_fraction: 0.8,
            k_choices: vec![5, 10],
            ..WorkloadConfig::default()
        };
        let traffic = mixed_workload(&cfg, &data);
        (data, traffic)
    }

    type Files = Vec<(String, Vec<u8>)>;

    fn files(dir: &MemDir) -> Files {
        let mut names = dir.list().unwrap();
        names.sort();
        names
            .into_iter()
            .map(|n| {
                let bytes = dir.open(&n).unwrap().read_all().unwrap();
                (n, bytes)
            })
            .collect()
    }

    fn run_durable(decorate: bool) -> (Vec<Vec<u64>>, Files, IoTotals) {
        let (data, traffic) = small();
        let mem = MemDir::new();
        let tracer = Arc::new(Tracer::new());
        let totals = Arc::new(Mutex::new(IoTotals::default()));
        let dir: Box<dyn LogDir> = if decorate {
            Box::new(TimingDir::new(
                Box::new(mem.clone()),
                tracer,
                totals.clone(),
            ))
        } else {
            Box::new(mem.clone())
        };
        let dcfg = DurabilityConfig {
            dir: "unused".into(),
            fsync: FsyncPolicy::EveryN(2),
            snapshot_every: 3,
        };
        let server = DurableServer::create_in(
            dir,
            GirServer::new(
                load_tree(&data),
                ScoringFunction::linear(3),
                ServerConfig::default(),
            ),
            dcfg,
        )
        .unwrap();
        let mut answers = Vec::new();
        for b in &traffic {
            server.apply_updates(&b.updates).unwrap();
            for q in &b.queries {
                answers.push(
                    server.run_batch(std::slice::from_ref(q)).responses[0]
                        .ids
                        .clone(),
                );
            }
        }
        server.sync().unwrap();
        drop(server);
        let t = *totals.lock().unwrap();
        (answers, files(&mem), t)
    }

    #[test]
    fn timing_dir_is_transparent() {
        let (plain_answers, plain_files, _) = run_durable(false);
        let (answers, files, totals) = run_durable(true);
        assert_eq!(answers, plain_answers);
        assert!(
            plain_files.len() >= 2,
            "{:?}",
            plain_files.iter().map(|f| &f.0).collect::<Vec<_>>()
        );
        assert_eq!(files, plain_files, "WAL and snapshot bytes must match");
        assert!(totals.bytes_written > 0 && totals.wal_syncs > 0);
    }

    fn run_dist(decorate: bool, uds: bool) -> (Vec<Vec<u64>>, Vec<u64>, usize) {
        let (data, traffic) = small();
        let tracer = Arc::new(Tracer::new());
        let log = Arc::new(Mutex::new(Vec::new()));
        let log2 = log.clone();
        let factory: gir_rpc::EndpointFactory = Box::new(move |s| {
            let ep: Box<dyn ShardEndpoint> = if uds {
                Box::new(UdsEndpoint::spawn().unwrap())
            } else {
                Box::new(ThreadEndpoint::spawn())
            };
            if decorate {
                Box::new(TimingEndpoint::new(ep, s, tracer.clone(), log2.clone()))
            } else {
                ep
            }
        });
        let cfg = DistributedServerConfig {
            data_shards: 2,
            ..DistributedServerConfig::default()
        };
        let server =
            DistributedGirServer::launch(&data, ScoringFunction::linear(3), cfg, factory).unwrap();
        let mut answers = Vec::new();
        for b in &traffic {
            server.apply_updates(&b.updates).unwrap();
            for q in &b.queries {
                answers.push(
                    server.run_batch(std::slice::from_ref(q)).responses[0]
                        .ids
                        .clone(),
                );
            }
        }
        let mut live: Vec<u64> = server
            .records_snapshot()
            .unwrap()
            .iter()
            .map(|r| r.id)
            .collect();
        live.sort_unstable();
        server.shutdown();
        let calls = log.lock().unwrap().len();
        (answers, live, calls)
    }

    #[test]
    fn timing_endpoint_is_transparent() {
        let (plain, plain_live, _) = run_dist(false, true);
        let (answers, live, calls) = run_dist(true, true);
        assert_eq!(answers, plain);
        assert_eq!(live, plain_live);
        assert!(calls > 0);
        let (thread_answers, _, _) = run_dist(true, false);
        assert_eq!(thread_answers, plain);
    }

    #[test]
    fn shadow_worker_reproduces_responses() {
        let (data, traffic) = small();
        let tracer = Arc::new(Tracer::new());
        let log = Arc::new(Mutex::new(Vec::new()));
        let (t2, l2) = (tracer.clone(), log.clone());
        let factory: gir_rpc::EndpointFactory = Box::new(move |s| {
            Box::new(TimingEndpoint::new(
                Box::new(ThreadEndpoint::spawn()),
                s,
                t2.clone(),
                l2.clone(),
            ))
        });
        let cfg = DistributedServerConfig {
            data_shards: 2,
            ..DistributedServerConfig::default()
        };
        let server =
            DistributedGirServer::launch(&data, ScoringFunction::linear(3), cfg, factory).unwrap();
        for b in traffic.iter().take(4) {
            server.apply_updates(&b.updates).unwrap();
            server.run_batch(&b.queries);
        }
        server.shutdown();
        let log = log.lock().unwrap().clone();
        let shadows = shadow(&log);
        assert_eq!(shadows.len(), log.len());
        // Every answered call gets shadow timings and frame sizes.
        for (c, s) in log.iter().zip(&shadows) {
            assert_eq!(c.resp.is_some(), s.is_some());
            if let Some(s) = s {
                assert!(s.frame_bytes > 0);
                assert!(s.matches, "shadow worker diverged on {:?}", c.req);
            }
        }
    }
}
