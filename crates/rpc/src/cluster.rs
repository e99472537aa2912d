//! The coordinator side: S shard workers behind [`ShardEndpoint`]s,
//! a WAL that doubles as the replica catch-up stream, and snapshot
//! cuts at `DeltaBatch` boundaries.
//!
//! [`RemoteShards`] is the distributed counterpart of
//! `gir_shard::ShardedDataset`: same placement function, same merge
//! (`gir_core::merge_ranked_lists`), same per-shard Phase-2 stage
//! (`shard_gir_system` runs *inside* each worker), and per-shard
//! results accumulated in shard order — so the produced top-k, region
//! facets, and provenance are bit-identical to the in-process plan
//! (pinned by `tests/rpc_differential.rs`).
//!
//! Durability and rejoin reuse the PR 8 machinery verbatim: every
//! applied batch is WAL-appended *before* broadcast (the WAL is the
//! authority), snapshots are `SnapshotState` frames cut at batch
//! boundaries, and a restarted worker rejoins from the newest snapshot
//! plus the WAL suffix ([`RemoteShards::rejoin`]) — the same
//! snapshot + suffix-replay contract `gir_serve::DurableServer` proves
//! against its never-crashed oracle.
//!
//! Failure semantics extend the PR 4 contract: a dead or hung worker
//! fails *that shard's* call — the coordinator degrades the one
//! affected response, never the batch — and `rpc.*` counters record
//! every attempt (see `gir_obs::rpc` for the liveness invariant).

use crate::endpoint::ShardEndpoint;
use crate::error::RpcError;
use crate::worker::placement_tag;
use gir_core::phase1::ordering_halfspaces;
use gir_core::{
    merge_ranked_lists, DeltaBatch, GirError, GirOutput, GirRegion, GirStats, Method, RegionKind,
    ShardRequest, ShardResponse, SnapshotState, WalBatch, WireError,
};
use gir_geometry::hyperplane::HalfSpace;
use gir_geometry::vector::PointD;
use gir_obs::rpc::RpcCounters;
use gir_query::{QueryVector, Record, ScoringFunction, TopKResult};
use gir_serve::{wal_batch_from_updates, Update, UpdateReport};
use gir_shard::{Placement, RepairSweeps};
use gir_storage::{read_snapshot, write_snapshot, FsyncPolicy, LogDir, MemDir, StorageError, Wal};
use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Builds the endpoint for shard `s` — called at launch and again on
/// every rejoin (a restarted worker is a *fresh* endpoint).
pub type EndpointFactory = Box<dyn Fn(usize) -> Box<dyn ShardEndpoint> + Send + Sync>;

/// Coordinator-side knobs.
#[derive(Debug, Clone)]
pub struct RemoteConfig {
    /// Per-call deadline.
    pub timeout: Duration,
    /// Extra attempts after a timed-out call. A retry can only succeed
    /// when the timeout never touched the worker's stream (e.g. an
    /// injected delay that ate the deadline before sending): once a
    /// request's bytes are in flight, the endpoint poisons itself on
    /// timeout — a late response must never answer a newer request —
    /// so the retry observes `Closed`, fails fast, and the shard is
    /// reaped for snapshot + WAL rejoin instead.
    pub retries: u32,
    /// Backoff before the first retry; doubles per attempt.
    pub backoff: Duration,
    /// Snapshot cut cadence, in applied batches (at least 1).
    pub snapshot_every: u64,
}

impl Default for RemoteConfig {
    fn default() -> RemoteConfig {
        RemoteConfig {
            timeout: Duration::from_secs(10),
            retries: 1,
            backoff: Duration::from_millis(1),
            snapshot_every: 4,
        }
    }
}

/// Anything the coordinator cannot recover from inline.
#[derive(Debug)]
pub enum ClusterError {
    /// An RPC to one shard failed after retries.
    Rpc {
        /// The shard whose call failed.
        shard: usize,
        /// The transport/worker error.
        error: RpcError,
    },
    /// The durability tier failed (WAL or snapshot I/O).
    Storage(StorageError),
    /// A persisted frame failed to decode.
    Wire(WireError),
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::Rpc { shard, error } => write!(f, "shard {shard}: {error}"),
            ClusterError::Storage(e) => write!(f, "storage: {e}"),
            ClusterError::Wire(e) => write!(f, "wire: {e}"),
        }
    }
}

impl std::error::Error for ClusterError {}

impl From<StorageError> for ClusterError {
    fn from(e: StorageError) -> ClusterError {
        ClusterError::Storage(e)
    }
}

impl From<WireError> for ClusterError {
    fn from(e: WireError) -> ClusterError {
        ClusterError::Wire(e)
    }
}

/// One applied update batch, as the serving layer needs it: the
/// owner-outcome-derived report plus the cache-maintenance inputs.
pub struct ClusterApply {
    /// `inserted` / `deleted` / `missed_deletes` (cache fields zero;
    /// the server fills them from its own sweep).
    pub report: UpdateReport,
    /// The delta the region cache reconciles against.
    pub batch: DeltaBatch,
    /// Owner shards of every applied delete, for scoping repair sweeps.
    pub removed_owner: HashMap<u64, BTreeSet<usize>>,
}

struct Slot {
    endpoint: Option<Box<dyn ShardEndpoint>>,
}

/// S shard workers plus the coordinator's durable state (WAL +
/// snapshots in a [`MemDir`]) — the distributed dataset.
pub struct RemoteShards {
    scoring: ScoringFunction,
    placement: Placement,
    num_shards: usize,
    dim: usize,
    cfg: RemoteConfig,
    slots: Vec<Mutex<Slot>>,
    factory: EndpointFactory,
    dir: Box<dyn LogDir>,
    wal: Mutex<Wal>,
    /// Batches applied since launch (the replica epoch).
    epoch: AtomicU64,
    /// Epoch captured by the newest on-disk snapshot.
    snap_epoch: AtomicU64,
    /// Live records across all shards (owner outcomes keep it exact).
    records: AtomicU64,
    /// Snapshot rolls that failed (non-fatal; see [`Self::apply`]).
    snapshot_failures: AtomicU64,
    counters: RpcCounters,
}

fn snap_name(epoch: u64) -> String {
    format!("snap-{epoch:016x}")
}

impl RemoteShards {
    /// Partitions `records`, persists the epoch-0 snapshot, opens the
    /// WAL, and launches + loads one worker per shard.
    pub fn launch(
        scoring: ScoringFunction,
        placement: Placement,
        num_shards: usize,
        records: &[Record],
        cfg: RemoteConfig,
        factory: EndpointFactory,
    ) -> Result<RemoteShards, ClusterError> {
        assert!(num_shards >= 1, "need at least one shard");
        assert!(cfg.snapshot_every >= 1, "snapshot_every must be at least 1");
        let dim = scoring.dim();
        let mut parts: Vec<Vec<Record>> = vec![Vec::new(); num_shards];
        for rec in records {
            parts[placement.shard_of(rec.id, &rec.attrs, num_shards)].push(rec.clone());
        }

        let dir: Box<dyn LogDir> = Box::new(MemDir::new());
        let snap = SnapshotState {
            batches: 0,
            shards: parts.clone(),
        };
        write_snapshot(dir.as_ref(), &snap_name(0), &snap.encode())?;
        let wal_file = dir.create("wal").map_err(StorageError::from)?;
        let wal = Wal::create(wal_file, FsyncPolicy::Always);

        let cluster = RemoteShards {
            scoring,
            placement,
            num_shards,
            dim,
            cfg,
            slots: (0..num_shards)
                .map(|_| Mutex::new(Slot { endpoint: None }))
                .collect(),
            factory,
            dir,
            wal: Mutex::new(wal),
            epoch: AtomicU64::new(0),
            snap_epoch: AtomicU64::new(0),
            records: AtomicU64::new(records.len() as u64),
            snapshot_failures: AtomicU64::new(0),
            counters: RpcCounters::global(),
        };
        for (s, part) in parts.into_iter().enumerate() {
            let mut ep = (cluster.factory)(s);
            let resp = cluster.call_ep(ep.as_mut(), s, &cluster.load_request(s, 0, part))?;
            match resp {
                ShardResponse::Loaded { .. } => {}
                other => {
                    return Err(ClusterError::Rpc {
                        shard: s,
                        error: RpcError::Protocol(format!("expected Loaded, got {other:?}")),
                    })
                }
            }
            cluster.lock_slot(s).endpoint = Some(ep);
        }
        Ok(cluster)
    }

    fn load_request(&self, shard: usize, epoch: u64, records: Vec<Record>) -> ShardRequest {
        ShardRequest::Load {
            shard: shard as u32,
            num_shards: self.num_shards as u32,
            placement: placement_tag(self.placement),
            scoring: self.scoring.clone(),
            epoch,
            records,
        }
    }

    fn lock_slot(&self, s: usize) -> std::sync::MutexGuard<'_, Slot> {
        self.slots[s].lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// One counted call on a specific endpoint, with timeout retries.
    /// Counting covers *every* attempt, including rejoin traffic, so
    /// the `rpc.*` liveness invariant holds globally.
    fn call_ep(
        &self,
        ep: &mut dyn ShardEndpoint,
        shard: usize,
        req: &ShardRequest,
    ) -> Result<ShardResponse, ClusterError> {
        let mut attempt: u32 = 0;
        loop {
            self.counters.requests.inc();
            let span = tracing::span!("rpc_call", shard = shard);
            let res = ep.call(req, self.cfg.timeout);
            drop(span);
            match res {
                Ok(ShardResponse::Error { message }) => {
                    // A well-formed worker-side error is a response for
                    // liveness purposes — the transport worked.
                    self.counters.responses.inc();
                    return Err(ClusterError::Rpc {
                        shard,
                        error: RpcError::Worker(message),
                    });
                }
                Ok(resp) => {
                    self.counters.responses.inc();
                    return Ok(resp);
                }
                Err(e) => {
                    self.counters.failures.inc();
                    if e == RpcError::Timeout {
                        self.counters.timeouts.inc();
                    }
                    if e == RpcError::Timeout && attempt < self.cfg.retries {
                        attempt += 1;
                        self.counters.retries.inc();
                        std::thread::sleep(self.cfg.backoff * (1u32 << (attempt - 1).min(16)));
                        continue;
                    }
                    return Err(ClusterError::Rpc { shard, error: e });
                }
            }
        }
    }

    /// One counted call on shard `s`'s live endpoint. A dead slot fails
    /// immediately with [`RpcError::Closed`] (no attempt is made, so no
    /// counters move); an endpoint that turns out to be closed is
    /// reaped, marking the slot dead for [`Self::dead_shards`].
    fn call_shard(&self, s: usize, req: &ShardRequest) -> Result<ShardResponse, ClusterError> {
        let mut slot = self.lock_slot(s);
        let Some(ep) = slot.endpoint.as_mut() else {
            return Err(ClusterError::Rpc {
                shard: s,
                error: RpcError::Closed,
            });
        };
        let res = self.call_ep(ep.as_mut(), s, req);
        if let Err(ClusterError::Rpc {
            error: RpcError::Closed | RpcError::Timeout,
            ..
        }) = &res
        {
            // Closed: the worker is gone. Timeout (post-retry): the
            // stream may still carry the late response, so it cannot be
            // reused — reap it; the worker rejoins via snapshot + WAL.
            if let Some(mut dead) = slot.endpoint.take() {
                dead.shutdown();
            }
        }
        res
    }

    /// Tears down shard `s`'s endpoint (if any live one remains) and
    /// marks the slot dead until a rejoin.
    fn reap(&self, s: usize) {
        if let Some(mut dead) = self.lock_slot(s).endpoint.take() {
            dead.shutdown();
        }
    }

    /// Shards whose endpoint is currently dead (killed, hung, or never
    /// rejoined).
    pub fn dead_shards(&self) -> Vec<usize> {
        (0..self.num_shards)
            .filter(|&s| self.lock_slot(s).endpoint.is_none())
            .collect()
    }

    /// The applied-batch epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// The scoring function the cluster was launched with.
    pub fn scoring(&self) -> &ScoringFunction {
        &self.scoring
    }

    /// Shard count.
    pub fn shards(&self) -> usize {
        self.num_shards
    }

    /// Live records across all shards.
    pub fn records(&self) -> u64 {
        self.records.load(Ordering::SeqCst)
    }

    /// Snapshot rolls that failed since launch. Each is non-fatal: the
    /// WAL still replays from the previous snapshot, and the roll is
    /// retried at the next `snapshot_every` boundary.
    pub fn snapshot_failures(&self) -> u64 {
        self.snapshot_failures.load(Ordering::SeqCst)
    }

    /// Restarts shard `s` from the newest snapshot plus the WAL suffix
    /// — the delta-stream catch-up of the PR 8 durability contract.
    ///
    /// Returns the epoch and owner outcomes of the *last* replayed WAL
    /// batch (`None` when the suffix was empty): when [`Self::apply`]
    /// loses a shard mid-broadcast, the batch is already in the WAL, so
    /// the replay both catches the fresh worker up *and* recovers the
    /// outcomes the broadcast failed to collect.
    pub fn rejoin(&self, s: usize) -> Result<Option<(u64, Vec<u8>)>, ClusterError> {
        let snap_epoch = self.snap_epoch.load(Ordering::SeqCst);
        let payload = read_snapshot(self.dir.as_ref(), &snap_name(snap_epoch))?;
        let snap = SnapshotState::decode(&payload)?;
        let mut ep = (self.factory)(s);
        let records = snap.shards.get(s).cloned().unwrap_or_default();
        match self.call_ep(ep.as_mut(), s, &self.load_request(s, snap.batches, records))? {
            ShardResponse::Loaded { .. } => {}
            other => {
                return Err(ClusterError::Rpc {
                    shard: s,
                    error: RpcError::Protocol(format!("expected Loaded, got {other:?}")),
                })
            }
        }
        let tail = {
            let mut wal = self.wal.lock().unwrap_or_else(PoisonError::into_inner);
            wal.tail(snap.batches)?
        };
        let mut last = None;
        for (i, payload) in tail.iter().enumerate() {
            let batch = WalBatch::decode(payload)?;
            let epoch = snap.batches + i as u64 + 1;
            match self.call_ep(ep.as_mut(), s, &ShardRequest::Apply { epoch, batch })? {
                ShardResponse::Applied { outcomes, .. } => last = Some((epoch, outcomes)),
                other => {
                    return Err(ClusterError::Rpc {
                        shard: s,
                        error: RpcError::Protocol(format!("expected Applied, got {other:?}")),
                    })
                }
            }
        }
        self.lock_slot(s).endpoint = Some(ep);
        self.counters.rejoins.inc();
        tracing::event!("rpc_rejoin");
        Ok(last)
    }

    /// Rejoins every dead shard; returns how many came back.
    pub fn rejoin_dead(&self) -> Result<usize, ClusterError> {
        let dead = self.dead_shards();
        for &s in &dead {
            self.rejoin(s)?;
        }
        Ok(dead.len())
    }

    /// Applies one update batch: WAL-append first (the WAL is the
    /// authority a rejoining replica replays), then broadcast to every
    /// worker, then derive the report from the *owner* outcomes.
    ///
    /// Dead shards are rejoined up front so owner outcomes are exact —
    /// this is what keeps `UpdateReport` parity with the in-process
    /// server even after a kill (the in-process dataset never loses a
    /// shard, so the distributed one catches the shard up before
    /// consulting it).
    ///
    /// Returns `Err` only when nothing was applied (the up-front rejoin
    /// or the WAL append failed): once the batch is in the WAL, shard
    /// failures are absorbed by inline rejoins and a failed snapshot
    /// roll is counted ([`Self::snapshot_failures`]), not returned.
    pub fn apply(&self, updates: &[Update]) -> Result<ClusterApply, ClusterError> {
        self.rejoin_dead()?;
        let wal_batch = wal_batch_from_updates(updates);
        let epoch = {
            let mut wal = self.wal.lock().unwrap_or_else(PoisonError::into_inner);
            wal.append(&wal_batch.encode())?;
            self.epoch.fetch_add(1, Ordering::SeqCst) + 1
        };

        // Owner outcome per op, gathered across the broadcast. The
        // broadcast never aborts on a per-shard failure: the shards
        // after a failing one must still receive this batch, or they
        // would stay live while silently missing it — permanent
        // divergence no later call could detect (worker epochs would
        // just mirror the next Apply).
        let mut owner_outcomes: Vec<u8> = vec![gir_core::wire::outcome::NONE; updates.len()];
        for s in 0..self.num_shards {
            let resp = self.call_shard(
                s,
                &ShardRequest::Apply {
                    epoch,
                    batch: wal_batch.clone(),
                },
            );
            let outcomes = match resp {
                Ok(ShardResponse::Applied { outcomes, .. }) => Some(outcomes),
                Ok(_) | Err(_) => {
                    // Worker error, protocol violation, or transport
                    // failure: the shard's apply state is unknown (a
                    // worker that failed mid-batch holds a partial
                    // prefix and shuts itself down). Reap it and rejoin
                    // inline — the WAL already holds this batch, so the
                    // replay lands the fresh worker exactly at this
                    // boundary and recovers its owner outcomes. If the
                    // rejoin fails too, the shard stays dead (the next
                    // apply rejoins it up front); only its owner
                    // outcomes for this one batch are lost.
                    self.reap(s);
                    match self.rejoin(s) {
                        Ok(Some((e, outcomes))) if e == epoch => Some(outcomes),
                        Ok(_) | Err(_) => None,
                    }
                }
            };
            let Some(outcomes) = outcomes else { continue };
            for (i, &code) in outcomes.iter().enumerate() {
                if code != gir_core::wire::outcome::NONE && code != gir_core::wire::outcome::PURGED
                {
                    owner_outcomes[i] = code;
                }
            }
        }

        let mut report = UpdateReport::default();
        let mut batch = DeltaBatch::new();
        let mut removed_owner: HashMap<u64, BTreeSet<usize>> = HashMap::new();
        for (u, &code) in updates.iter().zip(&owner_outcomes) {
            match u {
                Update::Insert(rec) => {
                    if code == gir_core::wire::outcome::INSERTED {
                        report.inserted += 1;
                        batch.record_insert(rec);
                    }
                }
                Update::Delete { id, attrs } => {
                    if code == gir_core::wire::outcome::DELETED {
                        report.deleted += 1;
                        removed_owner
                            .entry(*id)
                            .or_default()
                            .insert(self.placement.shard_of(*id, attrs, self.num_shards));
                        batch.record_delete_at(*id, attrs);
                    } else {
                        report.missed_deletes += 1;
                    }
                }
            }
        }

        self.records
            .fetch_add(report.inserted as u64, Ordering::SeqCst);
        self.records
            .fetch_sub(report.deleted as u64, Ordering::SeqCst);
        // A snapshot cut needs every worker live; with a shard still
        // dead (its inline rejoin failed above) skip the roll. Skipping
        // or failing it is safe: the WAL is never rotated, so the
        // previous snapshot still seeds any replay, and the roll is
        // retried at the next boundary. The batch is applied either
        // way, so a failed roll must not fail the apply — the caller
        // would skip reconciling its cache with a batch that landed.
        if epoch % self.cfg.snapshot_every == 0 && self.dead_shards().is_empty() {
            if let Err(e) = self.roll_snapshot(epoch) {
                let total = self.snapshot_failures.fetch_add(1, Ordering::SeqCst) + 1;
                tracing::event!("snapshot_failed", total = total, error = e.to_string());
            }
        }
        Ok(ClusterApply {
            report,
            batch,
            removed_owner,
        })
    }

    /// Cuts a consistent snapshot at the current batch boundary and
    /// retires the previous one. The WAL itself is never rotated —
    /// [`Wal::tail`] indexes from record 0, so any snapshot epoch can
    /// seed a replay.
    fn roll_snapshot(&self, epoch: u64) -> Result<(), ClusterError> {
        let cut = self.cut_all()?;
        let snap = SnapshotState {
            batches: epoch,
            shards: cut,
        };
        write_snapshot(self.dir.as_ref(), &snap_name(epoch), &snap.encode())?;
        let old = self.snap_epoch.swap(epoch, Ordering::SeqCst);
        if old != epoch {
            let _ = self.dir.remove(&snap_name(old));
        }
        Ok(())
    }

    /// Per-shard record lists at an identical epoch across all shards —
    /// the distributed consistent cut (every worker sits at a
    /// `DeltaBatch` boundary between `Apply` calls, so equal epochs
    /// prove the cut is a global state; cf. `gir_obs::ShardScopes`).
    pub fn cut_all(&self) -> Result<Vec<Vec<Record>>, ClusterError> {
        let want = self.epoch();
        let mut shards = Vec::with_capacity(self.num_shards);
        for s in 0..self.num_shards {
            match self.call_shard(s, &ShardRequest::Cut)? {
                ShardResponse::CutState { epoch, records } => {
                    if epoch != want {
                        return Err(ClusterError::Storage(StorageError::Corrupt(format!(
                            "inconsistent cut: shard {s} at epoch {epoch}, coordinator at {want}"
                        ))));
                    }
                    shards.push(records);
                }
                other => {
                    return Err(ClusterError::Rpc {
                        shard: s,
                        error: RpcError::Protocol(format!("expected CutState, got {other:?}")),
                    })
                }
            }
        }
        Ok(shards)
    }

    /// Global top-k: per-shard `TopK` RPCs merged with the same
    /// `(score desc, id desc)` order as the in-process fan-out.
    pub fn topk(&self, q: &QueryVector, k: usize) -> Result<(TopKResult, u64), GirError> {
        let mut runs: Vec<TopKResult> = Vec::with_capacity(self.num_shards);
        let mut pages = 0u64;
        for s in 0..self.num_shards {
            let req = ShardRequest::TopK {
                weights: q.weights.clone(),
                k: k as u32,
            };
            match self.call_shard(s, &req) {
                Ok(ShardResponse::Ranked { ranked, pages: p }) => {
                    pages += p;
                    runs.push(TopKResult { ranked });
                }
                Ok(other) => {
                    return Err(GirError::ShardUnavailable {
                        shard: s,
                        reason: format!("unexpected response {other:?}"),
                    })
                }
                Err(e) => {
                    return Err(GirError::ShardUnavailable {
                        shard: s,
                        reason: e.to_string(),
                    })
                }
            }
        }
        let ranked = merge_ranked_lists(&runs, k);
        if ranked.is_empty() {
            return Err(GirError::EmptyResult);
        }
        Ok((TopKResult { ranked }, pages))
    }

    /// Global top-k plus its region over RPC: merge, then one `Phase2`
    /// RPC per shard, accumulated in shard order — the distributed
    /// execution of `gir_core::gir_sharded` / `gir_star_sharded`.
    pub fn region(
        &self,
        kind: RegionKind,
        q: &QueryVector,
        k: usize,
        method: Method,
    ) -> Result<GirOutput, GirError> {
        if !method.supports(&self.scoring) {
            return Err(GirError::UnsupportedScoring { method });
        }
        let t0 = Instant::now();
        let (result, topk_pages) = self.topk(q, k)?;
        let topk_ms = t0.elapsed().as_secs_f64() * 1e3;

        let t1 = Instant::now();
        let mut halfspaces: Vec<HalfSpace> = match kind {
            RegionKind::Gir => ordering_halfspaces(&result, &self.scoring),
            RegionKind::GirStar => Vec::new(),
        };
        let mut candidates = 0usize;
        let mut structure_total = 0usize;
        let mut gir_pages = 0u64;
        for s in 0..self.num_shards {
            let req = ShardRequest::Phase2 {
                kind,
                method,
                weights: q.weights.clone(),
                k: k as u32,
                ranked: result.ranked.clone(),
            };
            match self.call_shard(s, &req) {
                Ok(ShardResponse::System {
                    halfspaces: hs,
                    structure,
                    cached: _,
                    pages,
                }) => {
                    candidates += hs.len();
                    structure_total += structure as usize;
                    gir_pages += pages;
                    halfspaces.extend(hs);
                }
                Ok(other) => {
                    return Err(GirError::ShardUnavailable {
                        shard: s,
                        reason: format!("unexpected response {other:?}"),
                    })
                }
                Err(e) => {
                    return Err(GirError::ShardUnavailable {
                        shard: s,
                        reason: e.to_string(),
                    })
                }
            }
        }
        let region = GirRegion::new(self.dim, q.weights.clone(), halfspaces);
        let stats = GirStats {
            topk_ms,
            topk_pages,
            gir_cpu_ms: t1.elapsed().as_secs_f64() * 1e3,
            gir_pages,
            candidates,
            structure_size: structure_total,
            halfspaces: region.num_halfspaces(),
        };
        Ok(GirOutput {
            result,
            region,
            stats,
        })
    }

    /// Shuts every worker down (best-effort).
    pub fn shutdown(&self) {
        for s in 0..self.num_shards {
            if let Some(mut ep) = self.lock_slot(s).endpoint.take() {
                ep.shutdown();
            }
        }
    }
}

impl Drop for RemoteShards {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The repair sweeps of `gir_shard`'s cache-maintenance algorithms,
/// executed worker-side over RPC: the coordinator's repair logic
/// ([`gir_shard::repair_region_sharded_with`]) runs unchanged, each FP
/// sweep becoming one `RepairSweep` RPC to the owning shard. Any RPC
/// failure declines the sweep (`None`), which evicts the entry —
/// sound, merely non-maximal, exactly like a declined in-process sweep.
impl RepairSweeps for RemoteShards {
    fn num_shards(&self) -> usize {
        self.num_shards
    }

    fn shard_of(&self, id: u64, attrs: &PointD) -> usize {
        self.placement.shard_of(id, attrs, self.num_shards)
    }

    fn fp_sweep(
        &self,
        shard: usize,
        _scoring: &ScoringFunction,
        result: &TopKResult,
        interim: &[HalfSpace],
        seeds: &[Record],
    ) -> Option<Vec<HalfSpace>> {
        let req = ShardRequest::RepairSweep {
            ranked: result.ranked.clone(),
            interim: interim.to_vec(),
            seeds: seeds.to_vec(),
        };
        match self.call_shard(shard, &req) {
            Ok(ShardResponse::Swept { halfspaces }) => halfspaces,
            _ => None,
        }
    }

    fn fp_star_sweep(
        &self,
        shard: usize,
        _scoring: &ScoringFunction,
        result: &TopKResult,
        seeds: &[Record],
    ) -> Option<Vec<HalfSpace>> {
        let req = ShardRequest::RepairStarSweep {
            ranked: result.ranked.clone(),
            seeds: seeds.to_vec(),
        };
        match self.call_shard(shard, &req) {
            Ok(ShardResponse::Swept { halfspaces }) => halfspaces,
            _ => None,
        }
    }
}
