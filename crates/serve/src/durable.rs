//! Durability tier: WAL-ahead updates, generation snapshots, crash
//! recovery (ARCHITECTURE.md "Durability").
//!
//! [`DurableServer`] wraps a [`Server`] over any [`Backend`] (the
//! single-tree [`GirServer`] or the sharded server in `gir-shard`) and
//! makes its update stream survive a crash. It relies on two things the
//! serve loop guarantees for every backend: `apply_updates` applies a
//! batch atomically with respect to readers, and
//! [`Server::consistent_cut`] returns the records at a batch boundary.
//!
//! * every update batch is encoded as a [`WalBatch`] and **appended to
//!   the WAL before it is applied** (write-ahead), with fsync timing
//!   governed by [`FsyncPolicy`];
//! * every `snapshot_every` batches a consistent cut of the dataset is
//!   written as generation `g+1` (`snap-<g+1>` via the atomic
//!   tmp/fsync/rename protocol, then a fresh empty `wal-<g+1>`), after
//!   which generation `g`'s files are retired. Only *records* are
//!   persisted — regions, the prune index and cache entries are
//!   derived state and are rebuilt on recovery;
//! * [`DurableServer::recover_in`] loads the newest valid snapshot and
//!   replays the WAL suffix (torn tails are truncated by
//!   `gir_storage::Wal::open`), yielding a server whose observable
//!   behaviour is identical to one that applied the same committed
//!   prefix and never crashed — the property the crash-point proptest
//!   harness (`tests/crash_recovery.rs`) proves differentially.
//!
//! **Failure semantics.** A WAL append or inner-apply error flips the
//! server into degraded *read-only* mode: the failed and all later
//! `apply_updates` calls return `Err` (never a panic), while queries
//! keep serving from the in-memory state. A *snapshot* failure before
//! its atomic commit point is non-fatal (the WAL remains the source of
//! truth; the snapshot is retried at the next boundary); a failure
//! *after* the commit rename also degrades to read-only, because new
//! appends would land in the old generation's WAL, which recovery no
//! longer reads.

use crate::server::{Backend, BatchResult, GirServer, Server, TopKRequest, Update, UpdateReport};
use gir_core::{SnapshotState, WalBatch, WalOp, WireError};
use gir_query::{Record, ScoringFunction};
use gir_rtree::{RTree, RTreeError};
use gir_storage::{
    read_snapshot, write_snapshot, FsDir, FsyncPolicy, LogDir, MemPageStore, PageStore,
    StorageError, Wal, PAGE_SIZE,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use tracing::{event, span};

/// Durability knobs (`ServerConfig::durability`). The cost model for
/// these knobs is tabulated in the README.
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// Directory holding `snap-*` / `wal-*` files. Used by the
    /// filesystem-backed constructors; the `*_in` constructors take an
    /// explicit [`LogDir`] instead (fault injection, tests).
    pub dir: PathBuf,
    /// When WAL appends reach stable storage.
    pub fsync: FsyncPolicy,
    /// Snapshot after this many applied batches; `0` disables
    /// snapshotting (the WAL grows without bound and recovery replays
    /// it all).
    pub snapshot_every: u64,
}

impl Default for DurabilityConfig {
    fn default() -> Self {
        DurabilityConfig {
            dir: PathBuf::from("gir-durable"),
            fsync: FsyncPolicy::EveryN(8),
            snapshot_every: 64,
        }
    }
}

/// Errors surfaced by the durability tier. Mutation-path errors flip
/// the server read-only; queries are unaffected.
#[derive(Debug)]
pub enum DurabilityError {
    /// WAL create/append/sync/open failed.
    Wal(StorageError),
    /// Snapshot write/read failed.
    Snapshot(StorageError),
    /// A persisted payload decoded to garbage (CRC passed but the
    /// structure didn't — e.g. a foreign file).
    Wire(WireError),
    /// The wrapped server's own apply/scan failed.
    Tree(RTreeError),
    /// `recover` found no valid snapshot in the directory.
    NoSnapshot,
    /// `create` found an existing generation (refusing to clobber
    /// durable state; use `recover`).
    AlreadyExists,
    /// The server is in degraded read-only mode after an earlier
    /// mutation-path failure.
    ReadOnly,
    /// `ServerConfig::durability` was `None`.
    Disabled,
}

impl std::fmt::Display for DurabilityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DurabilityError::Wal(e) => write!(f, "wal: {e}"),
            DurabilityError::Snapshot(e) => write!(f, "snapshot: {e}"),
            DurabilityError::Wire(e) => write!(f, "wire: {e}"),
            DurabilityError::Tree(e) => write!(f, "tree: {e}"),
            DurabilityError::NoSnapshot => write!(f, "no valid snapshot found"),
            DurabilityError::AlreadyExists => {
                write!(f, "durable state already exists (use recover)")
            }
            DurabilityError::ReadOnly => write!(f, "server is in degraded read-only mode"),
            DurabilityError::Disabled => write!(f, "durability not configured"),
        }
    }
}

impl std::error::Error for DurabilityError {}

/// What recovery found and did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Generation of the snapshot recovered from.
    pub generation: u64,
    /// Update batches already folded into that snapshot.
    pub snapshot_batches: u64,
    /// WAL batches replayed on top of it.
    pub replayed: u64,
    /// Torn-tail bytes truncated from the WAL on open.
    pub truncated_bytes: u64,
}

impl RecoveryReport {
    /// Total committed batches the recovered server has applied
    /// (snapshot + replay).
    pub fn batches(&self) -> u64 {
        self.snapshot_batches + self.replayed
    }
}

/// Converts an update batch into its durable wire form.
pub fn wal_batch_from_updates(updates: &[Update]) -> WalBatch {
    WalBatch {
        ops: updates
            .iter()
            .map(|u| match u {
                Update::Insert(rec) => WalOp::Insert(rec.clone()),
                Update::Delete { id, attrs } => WalOp::Delete {
                    id: *id,
                    attrs: attrs.clone(),
                },
            })
            .collect(),
    }
}

/// Converts a replayed wire batch back into server updates.
pub fn updates_from_wal_batch(batch: &WalBatch) -> Vec<Update> {
    batch
        .ops
        .iter()
        .map(|op| match op {
            WalOp::Insert(rec) => Update::Insert(rec.clone()),
            WalOp::Delete { id, attrs } => Update::Delete {
                id: *id,
                attrs: attrs.clone(),
            },
        })
        .collect()
}

struct DurableState {
    wal: Wal,
    generation: u64,
    /// Committed batches since creation (snapshot + post-snapshot).
    batches: u64,
    since_snapshot: u64,
    snapshot_failures: u64,
}

/// A [`Server`] with a write-ahead log and generation snapshots
/// underneath. Queries pass through untouched; updates are
/// logged before they are applied.
pub struct DurableServer<S> {
    inner: S,
    dir: Box<dyn LogDir>,
    cfg: DurabilityConfig,
    state: Mutex<DurableState>,
    read_only: AtomicBool,
}

impl<S> std::fmt::Debug for DurableServer<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        f.debug_struct("DurableServer")
            .field("generation", &st.generation)
            .field("batches", &st.batches)
            .field("read_only", &self.read_only.load(Ordering::Acquire))
            .finish_non_exhaustive()
    }
}

fn snap_name(generation: u64) -> String {
    format!("snap-{generation:016x}")
}

fn wal_name(generation: u64) -> String {
    format!("wal-{generation:016x}")
}

fn parse_generation(name: &str, prefix: &str) -> Option<u64> {
    let hex = name.strip_prefix(prefix)?;
    if hex.len() != 16 {
        return None;
    }
    u64::from_str_radix(hex, 16).ok()
}

impl<B: Backend> DurableServer<Server<B>> {
    /// Starts a fresh durable history in `dir`: writes the generation-0
    /// snapshot of `inner`'s current records and an empty WAL. Refuses
    /// to run over a directory that already holds a snapshot
    /// ([`DurabilityError::AlreadyExists`]) — recovery, not re-creation,
    /// is the path back into existing state.
    pub fn create_in(
        dir: Box<dyn LogDir>,
        inner: Server<B>,
        cfg: DurabilityConfig,
    ) -> Result<Self, DurabilityError> {
        let existing = dir.list().map_err(|e| DurabilityError::Wal(e.into()))?;
        if existing
            .iter()
            .any(|n| parse_generation(n, "snap-").is_some())
        {
            return Err(DurabilityError::AlreadyExists);
        }
        let cut = inner.consistent_cut().map_err(DurabilityError::Tree)?;
        let payload = SnapshotState {
            batches: 0,
            shards: cut,
        }
        .encode();
        write_snapshot(dir.as_ref(), &snap_name(0), &payload).map_err(DurabilityError::Snapshot)?;
        let file = dir
            .create(&wal_name(0))
            .map_err(|e| DurabilityError::Wal(e.into()))?;
        let wal = Wal::create(file, cfg.fsync);
        Ok(DurableServer {
            inner,
            dir,
            cfg,
            state: Mutex::new(DurableState {
                wal,
                generation: 0,
                batches: 0,
                since_snapshot: 0,
                snapshot_failures: 0,
            }),
            read_only: AtomicBool::new(false),
        })
    }

    /// Recovers from `dir`: picks the newest generation whose snapshot
    /// validates, rebuilds the server via `build` from the snapshot's
    /// per-shard records, replays the generation's WAL suffix (torn
    /// tail truncated), and retires files from older generations.
    ///
    /// A missing `wal-<g>` is legitimate (crash in the window between
    /// the snapshot rename and the WAL create) and replays nothing.
    pub fn recover_in(
        dir: Box<dyn LogDir>,
        cfg: DurabilityConfig,
        build: impl FnOnce(SnapshotState) -> Result<Server<B>, RTreeError>,
    ) -> Result<(Self, RecoveryReport), DurabilityError> {
        let _span = span!("recover");
        let names = dir.list().map_err(|e| DurabilityError::Wal(e.into()))?;
        let mut generations: Vec<u64> = names
            .iter()
            .filter_map(|n| parse_generation(n, "snap-"))
            .collect();
        generations.sort_unstable_by(|a, b| b.cmp(a));

        // Newest valid snapshot wins; a corrupt one (e.g. bit rot) falls
        // back to the previous generation if its files still exist.
        let mut chosen = None;
        for g in generations {
            match read_snapshot(dir.as_ref(), &snap_name(g)) {
                Ok(payload) => {
                    let state = SnapshotState::decode(&payload).map_err(DurabilityError::Wire)?;
                    chosen = Some((g, state));
                    break;
                }
                Err(StorageError::Corrupt(_)) => continue,
                Err(e) => return Err(DurabilityError::Snapshot(e)),
            }
        }
        let (generation, snap) = chosen.ok_or(DurabilityError::NoSnapshot)?;
        let snapshot_batches = snap.batches;
        let inner = build(snap).map_err(DurabilityError::Tree)?;

        let wal_file_name = wal_name(generation);
        let (wal, payloads, open_report) = if dir
            .exists(&wal_file_name)
            .map_err(|e| DurabilityError::Wal(e.into()))?
        {
            let file = dir
                .open(&wal_file_name)
                .map_err(|e| DurabilityError::Wal(e.into()))?;
            Wal::open(file, cfg.fsync).map_err(DurabilityError::Wal)?
        } else {
            let file = dir
                .create(&wal_file_name)
                .map_err(|e| DurabilityError::Wal(e.into()))?;
            (
                Wal::create(file, cfg.fsync),
                Vec::new(),
                gir_storage::WalOpenReport::default(),
            )
        };

        let mut replayed = 0u64;
        for payload in &payloads {
            let batch = WalBatch::decode(payload).map_err(DurabilityError::Wire)?;
            let updates = updates_from_wal_batch(&batch);
            inner
                .apply_updates(&updates)
                .map_err(DurabilityError::Tree)?;
            replayed += 1;
        }
        event!(
            "recovered",
            generation = generation,
            replayed = replayed,
            truncated_bytes = open_report.truncated_bytes
        );

        // Retire files from older generations and stray tmp files; all
        // best-effort (a failure here is retried by the next recovery).
        for name in &names {
            let stale_gen = parse_generation(name, "snap-")
                .or_else(|| parse_generation(name, "wal-"))
                .is_some_and(|g| g != generation);
            if stale_gen || name.ends_with(".tmp") {
                let _ = dir.remove(name);
            }
        }

        let report = RecoveryReport {
            generation,
            snapshot_batches,
            replayed,
            truncated_bytes: open_report.truncated_bytes,
        };
        let server = DurableServer {
            inner,
            dir,
            cfg,
            state: Mutex::new(DurableState {
                wal,
                generation,
                batches: snapshot_batches + replayed,
                since_snapshot: replayed,
                snapshot_failures: 0,
            }),
            read_only: AtomicBool::new(false),
        };
        Ok((server, report))
    }

    /// Logs the batch to the WAL, then applies it to the wrapped
    /// server, then (at a `snapshot_every` boundary) rolls a new
    /// snapshot generation. Any WAL or apply failure degrades the
    /// server to read-only and surfaces as `Err`; queries keep working.
    pub fn apply_updates(&self, updates: &[Update]) -> Result<UpdateReport, DurabilityError> {
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if self.read_only.load(Ordering::Acquire) {
            return Err(DurabilityError::ReadOnly);
        }
        let payload = wal_batch_from_updates(updates).encode();
        if let Err(e) = st.wal.append(&payload) {
            self.degrade("wal append failed");
            return Err(DurabilityError::Wal(e));
        }
        let report = match self.inner.apply_updates(updates) {
            Ok(r) => r,
            Err(e) => {
                // The WAL holds the full batch but the in-memory apply
                // died partway; recovery replays the whole batch, so
                // the durable state is the *intended* one. Meanwhile
                // this process must stop mutating.
                self.degrade("inner apply failed");
                return Err(DurabilityError::Tree(e));
            }
        };
        st.batches += 1;
        st.since_snapshot += 1;
        if self.cfg.snapshot_every > 0 && st.since_snapshot >= self.cfg.snapshot_every {
            match self.roll_generation(&mut st) {
                Ok(()) => {}
                Err(RollError::BeforeCommit(e)) => {
                    // Nothing renamed: the WAL is still authoritative
                    // and intact. Count it and retry next boundary.
                    st.snapshot_failures += 1;
                    event!("snapshot_failed", total = st.snapshot_failures);
                    drop(e);
                }
                Err(RollError::AfterCommit(e)) => {
                    // snap-(g+1) committed but its WAL could not be
                    // created: further appends would go to wal-g, which
                    // recovery (picking g+1) would ignore. Stop writing.
                    self.degrade("wal rotation failed after snapshot commit");
                    return Err(e);
                }
            }
        }
        Ok(report)
    }

    /// Rolls generation `g` → `g+1`: consistent cut, snapshot write
    /// (atomic commit at its rename), fresh WAL, retire `g`'s files.
    fn roll_generation(&self, st: &mut DurableState) -> Result<(), RollError> {
        let _span = span!("snapshot_roll", generation = st.generation + 1);
        let cut = self
            .inner
            .consistent_cut()
            .map_err(|e| RollError::BeforeCommit(DurabilityError::Tree(e)))?;
        let payload = SnapshotState {
            batches: st.batches,
            shards: cut,
        }
        .encode();
        let next = st.generation + 1;
        write_snapshot(self.dir.as_ref(), &snap_name(next), &payload)
            .map_err(|e| RollError::BeforeCommit(DurabilityError::Snapshot(e)))?;
        // ---- commit point: recovery now prefers generation `next` ----
        let file = self
            .dir
            .create(&wal_name(next))
            .map_err(|e| RollError::AfterCommit(DurabilityError::Wal(e.into())))?;
        let old = st.generation;
        st.wal = Wal::create(file, self.cfg.fsync);
        st.generation = next;
        st.since_snapshot = 0;
        let _ = self.dir.remove(&snap_name(old));
        let _ = self.dir.remove(&wal_name(old));
        Ok(())
    }

    /// Serves a query batch. Works in degraded read-only mode too —
    /// reads never touch the WAL.
    pub fn run_batch(&self, requests: &[TopKRequest]) -> BatchResult {
        self.inner.run_batch(requests)
    }

    /// Forces an fsync of the WAL regardless of policy.
    pub fn sync(&self) -> Result<(), DurabilityError> {
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        st.wal.sync().map_err(DurabilityError::Wal)
    }

    /// The wrapped server (read-path accessors; mutating it directly
    /// bypasses the WAL and voids the recovery guarantee).
    pub fn inner(&self) -> &Server<B> {
        &self.inner
    }

    /// True once a mutation-path failure has degraded the server.
    pub fn is_read_only(&self) -> bool {
        self.read_only.load(Ordering::Acquire)
    }

    /// Committed update batches since history creation.
    pub fn batches(&self) -> u64 {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .batches
    }

    /// Current snapshot generation.
    pub fn generation(&self) -> u64 {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .generation
    }

    /// Snapshot attempts that failed before their commit point (the
    /// WAL stayed authoritative and the server kept accepting writes).
    pub fn snapshot_failures(&self) -> u64 {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .snapshot_failures
    }

    fn degrade(&self, why: &'static str) {
        self.read_only.store(true, Ordering::Release);
        event!("durability_degraded", reason = why);
    }
}

enum RollError {
    /// Failed before the snapshot rename: nothing changed on disk that
    /// recovery would prefer; safe to keep writing the current WAL.
    BeforeCommit(DurabilityError),
    /// Failed after the rename: the new generation is committed but
    /// has no WAL; continuing to write the old WAL would lose batches.
    AfterCommit(DurabilityError),
}

impl DurableServer<GirServer> {
    /// Filesystem-backed creation per `cfg.durability`
    /// ([`DurabilityError::Disabled`] when `None`): builds the
    /// [`GirServer`] and starts its durable history in
    /// `durability.dir`.
    pub fn create(
        tree: RTree,
        scoring: ScoringFunction,
        cfg: crate::server::ServerConfig,
    ) -> Result<Self, DurabilityError> {
        let dcfg = cfg.durability.clone().ok_or(DurabilityError::Disabled)?;
        let dir = FsDir::new(&dcfg.dir).map_err(|e| DurabilityError::Wal(e.into()))?;
        let inner = GirServer::new(tree, scoring, cfg);
        Self::create_in(Box::new(dir), inner, dcfg)
    }

    /// Filesystem-backed recovery per `cfg.durability`: rebuilds the
    /// R\*-tree from the recovered records (bulk load over a fresh
    /// [`MemPageStore`]) and replays the WAL suffix.
    pub fn recover(
        scoring: ScoringFunction,
        cfg: crate::server::ServerConfig,
    ) -> Result<(Self, RecoveryReport), DurabilityError> {
        let dcfg = cfg.durability.clone().ok_or(DurabilityError::Disabled)?;
        let dir = FsDir::new(&dcfg.dir).map_err(|e| DurabilityError::Wal(e.into()))?;
        let dim = scoring.dim();
        Self::recover_in(Box::new(dir), dcfg, move |snap| {
            let records: Vec<Record> = snap.shards.into_iter().flatten().collect();
            let store: Arc<dyn PageStore> = Arc::new(MemPageStore::new(PAGE_SIZE));
            // Bulk load when possible; a fully-deleted dataset rebuilds
            // as an empty tree and replays from the WAL.
            let tree = if records.is_empty() {
                RTree::new(store, dim)?
            } else {
                RTree::bulk_load(store, &records)?
            };
            Ok(GirServer::new(tree, scoring, cfg))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::ServerConfig;
    use gir_storage::{CrashClock, CrashDir, MemDir};

    fn scoring() -> ScoringFunction {
        ScoringFunction::linear(2)
    }

    fn server(records: &[Record]) -> GirServer {
        let store: Arc<dyn PageStore> = Arc::new(MemPageStore::new(PAGE_SIZE));
        let tree = if records.is_empty() {
            RTree::new(store, 2).unwrap()
        } else {
            RTree::bulk_load(store, records).unwrap()
        };
        GirServer::new(
            tree,
            scoring(),
            ServerConfig {
                threads: 1,
                ..ServerConfig::default()
            },
        )
    }

    fn rebuild(snap: SnapshotState) -> Result<GirServer, RTreeError> {
        let records: Vec<Record> = snap.shards.into_iter().flatten().collect();
        Ok(server(&records))
    }

    fn seed_records(n: u64) -> Vec<Record> {
        (0..n)
            .map(|i| {
                Record::new(
                    i,
                    vec![(i as f64 * 0.37) % 1.0, (i as f64 * 0.61 + 0.11) % 1.0],
                )
            })
            .collect()
    }

    fn churn(i: u64) -> Vec<Update> {
        vec![
            Update::Insert(Record::new(
                1_000 + i,
                vec![
                    (i as f64 * 0.29 + 0.05) % 1.0,
                    (i as f64 * 0.43 + 0.31) % 1.0,
                ],
            )),
            Update::Delete {
                id: i,
                attrs: vec![(i as f64 * 0.37) % 1.0, (i as f64 * 0.61 + 0.11) % 1.0].into(),
            },
        ]
    }

    fn sorted_ids(s: &GirServer) -> Vec<u64> {
        let mut ids: Vec<u64> = s
            .records_snapshot()
            .unwrap()
            .into_iter()
            .map(|r| r.id)
            .collect();
        ids.sort_unstable();
        ids
    }

    fn cfg(snapshot_every: u64) -> DurabilityConfig {
        DurabilityConfig {
            dir: PathBuf::new(),
            fsync: FsyncPolicy::Always,
            snapshot_every,
        }
    }

    #[test]
    fn create_apply_recover_roundtrip_with_generation_rolls() {
        let disk = MemDir::new();
        let durable = DurableServer::create_in(
            Box::new(disk.clone()),
            server(&seed_records(40)),
            cfg(3), // several generation rolls over 8 batches
        )
        .unwrap();
        for i in 0..8 {
            durable.apply_updates(&churn(i)).unwrap();
        }
        assert_eq!(durable.batches(), 8);
        assert!(durable.generation() >= 2, "snapshot_every=3 over 8 batches");
        let expected = sorted_ids(durable.inner());
        drop(durable);

        let (recovered, report) =
            DurableServer::recover_in(Box::new(disk.clone()), cfg(3), rebuild).unwrap();
        assert_eq!(report.batches(), 8);
        assert_eq!(report.truncated_bytes, 0);
        assert_eq!(sorted_ids(recovered.inner()), expected);

        // Old generations were retired on the way.
        let files = disk.list().unwrap();
        assert_eq!(
            files.len(),
            2,
            "exactly one snap + one wal should remain, got {files:?}"
        );
    }

    #[test]
    fn create_refuses_to_clobber_existing_history() {
        let disk = MemDir::new();
        DurableServer::create_in(Box::new(disk.clone()), server(&seed_records(5)), cfg(0)).unwrap();
        let err =
            DurableServer::create_in(Box::new(disk), server(&seed_records(5)), cfg(0)).unwrap_err();
        assert!(matches!(err, DurabilityError::AlreadyExists));
    }

    #[test]
    fn recover_on_empty_dir_is_no_snapshot() {
        let err = DurableServer::recover_in(Box::new(MemDir::new()), cfg(0), rebuild).unwrap_err();
        assert!(matches!(err, DurabilityError::NoSnapshot));
    }

    #[test]
    fn wal_failure_degrades_to_read_only_and_queries_survive() {
        let disk = MemDir::new();
        let clock = CrashClock::new(u64::MAX, 7);
        let crash_dir = CrashDir::new(disk.clone(), clock.clone());
        let durable =
            DurableServer::create_in(Box::new(crash_dir), server(&seed_records(40)), cfg(0))
                .unwrap();
        durable.apply_updates(&churn(0)).unwrap();

        clock.arm(1); // next mutating I/O op dies
        let err = durable.apply_updates(&churn(1)).unwrap_err();
        assert!(matches!(err, DurabilityError::Wal(_)), "got {err}");
        assert!(durable.is_read_only());

        // Later writes are rejected up front; reads keep serving.
        let err = durable.apply_updates(&churn(2)).unwrap_err();
        assert!(matches!(err, DurabilityError::ReadOnly));
        let batch = durable.run_batch(&[TopKRequest::new(vec![0.6, 0.4], 5)]);
        assert!(!batch.responses[0].failed);
        assert_eq!(batch.responses[0].ids.len(), 5);

        // Reboot. The committed prefix is 1 batch, or 2 when the fatal
        // op persisted the full in-flight frame before erroring (the
        // classic ambiguity: an append whose *ack* was lost may still
        // be durable). Either way the recovered state must equal a
        // never-crashed server that applied exactly that prefix.
        clock.disarm();
        let (recovered, report) =
            DurableServer::recover_in(Box::new(disk), cfg(0), rebuild).unwrap();
        assert!(
            (1..=2).contains(&report.batches()),
            "committed prefix {} outside the ok/in-flight window",
            report.batches()
        );
        let mut oracle_ids: Vec<u64> = seed_records(40).iter().map(|r| r.id).collect();
        for i in 0..report.batches() {
            oracle_ids.retain(|&id| id != i);
            oracle_ids.push(1_000 + i);
        }
        oracle_ids.sort_unstable();
        assert_eq!(sorted_ids(recovered.inner()), oracle_ids);
    }

    #[test]
    fn torn_wal_tail_recovers_the_valid_prefix() {
        let disk = MemDir::new();
        let durable =
            DurableServer::create_in(Box::new(disk.clone()), server(&seed_records(40)), cfg(0))
                .unwrap();
        for i in 0..3 {
            durable.apply_updates(&churn(i)).unwrap();
        }
        drop(durable);

        // Simulate a torn append: half a frame of a fourth batch.
        {
            let mut f = disk.open(&super::wal_name(0)).unwrap();
            let frame_len = f.len().unwrap() / 3;
            f.append(&vec![0xAB; (frame_len / 2) as usize]).unwrap();
        }

        let (recovered, report) =
            DurableServer::recover_in(Box::new(disk), cfg(0), rebuild).unwrap();
        assert_eq!(report.replayed, 3);
        assert!(report.truncated_bytes > 0);
        assert_eq!(recovered.batches(), 3);
    }

    #[test]
    fn snapshot_failure_before_commit_is_non_fatal() {
        let disk = MemDir::new();
        let clock = CrashClock::new(u64::MAX, 3);
        let crash_dir = CrashDir::new(disk.clone(), clock.clone());
        let durable =
            DurableServer::create_in(Box::new(crash_dir), server(&seed_records(40)), cfg(2))
                .unwrap();
        durable.apply_updates(&churn(0)).unwrap();

        // Budget 2: the WAL append of batch #2 survives (op 1), the
        // snapshot tmp-create dies (op 2). That failure is before the
        // rename commit, so the server stays writable.
        clock.arm(2);
        durable.apply_updates(&churn(1)).unwrap();
        assert!(!durable.is_read_only());
        assert_eq!(durable.snapshot_failures(), 1);
        assert_eq!(durable.generation(), 0);

        // With the fault cleared the next boundary rolls a generation.
        clock.disarm();
        durable.apply_updates(&churn(2)).unwrap();
        durable.apply_updates(&churn(3)).unwrap();
        assert_eq!(durable.generation(), 1);
        let expected = sorted_ids(durable.inner());
        drop(durable);

        let (recovered, report) =
            DurableServer::recover_in(Box::new(disk), cfg(2), rebuild).unwrap();
        assert_eq!(report.batches(), 4);
        assert_eq!(sorted_ids(recovered.inner()), expected);
    }

    #[test]
    fn filesystem_backed_create_and_recover() {
        let dir = std::env::temp_dir().join(format!("gir-durable-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let dcfg = DurabilityConfig {
            dir: dir.clone(),
            fsync: FsyncPolicy::EveryN(2),
            snapshot_every: 2,
        };
        let server_cfg = ServerConfig {
            threads: 1,
            durability: Some(dcfg),
            ..ServerConfig::default()
        };

        let records = seed_records(60);
        let store: Arc<dyn PageStore> = Arc::new(MemPageStore::new(PAGE_SIZE));
        let tree = RTree::bulk_load(store, &records).unwrap();
        let durable = DurableServer::create(tree, scoring(), server_cfg.clone()).unwrap();
        for i in 0..5 {
            durable.apply_updates(&churn(i)).unwrap();
        }
        let expected = sorted_ids(durable.inner());
        let probe = TopKRequest::new(vec![0.7, 0.3], 8);
        let expected_top = durable.run_batch(std::slice::from_ref(&probe)).responses[0]
            .ids
            .clone();
        drop(durable);

        let (recovered, report) = DurableServer::recover(scoring(), server_cfg).unwrap();
        assert_eq!(report.batches(), 5);
        assert_eq!(sorted_ids(recovered.inner()), expected);
        assert_eq!(recovered.run_batch(&[probe]).responses[0].ids, expected_top);
        std::fs::remove_dir_all(&dir).ok();
    }
}
