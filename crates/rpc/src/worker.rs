//! The shard worker: one shard's R\*-tree and prune index behind the
//! wire protocol.
//!
//! A worker is a pure request→response state machine over
//! [`ShardRequest`]/[`ShardResponse`] — it owns no threads and no
//! transport, so the same [`ShardWorker::handle`] body runs behind a
//! loopback thread, a Unix socketpair, or (with `process-worker`) a
//! real child process. Determinism is the design constraint: every
//! handler is the extracted per-shard stage of the in-process plan
//! (`gir_core::sharded`), so a distributed coordinator replaying the
//! same request sequence reproduces the in-process results bit for bit
//! (pinned by `tests/rpc_differential.rs`).
//!
//! Update semantics mirror `ShardedDataset` exactly from the owner's
//! point of view: the owning shard inserts/deletes and repairs its own
//! index; a non-owning shard purges delete victims from its Phase-2
//! cache ([`gir_core::PruneIndex::purge_record`] is a pure retain, so
//! purging an id the shard never cached is a no-op — which is what
//! makes the unconditional broadcast equivalent to the in-process
//! found-only purge when record ids are unique).

use crate::transport::{Conn, FrameConn};
use gir_core::wire::{outcome, KIND_REQUEST};
use gir_core::{
    shard_gir_system, shard_star_system, GirPhase2Ctx, PruneIndex, RegionKind, ShardRequest,
    ShardResponse, ShardView, StarMethod, StarPhase2Ctx, WalOp,
};
use gir_query::{QueryVector, ScoringFunction, TopKResult};
use gir_rtree::RTree;
use gir_shard::Placement;
use gir_storage::{MemPageStore, PAGE_SIZE};
use std::sync::Arc;

/// Decodes the placement byte of a `Load` request.
pub fn placement_from_tag(tag: u8) -> Option<Placement> {
    match tag {
        0 => Some(Placement::Hash),
        1 => Some(Placement::Grid),
        _ => None,
    }
}

/// Encodes a placement for a `Load` request.
pub fn placement_tag(placement: Placement) -> u8 {
    match placement {
        Placement::Hash => 0,
        Placement::Grid => 1,
    }
}

/// One loaded shard: the worker-side mirror of a `ShardedDataset` slot.
struct WorkerState {
    shard: u32,
    num_shards: u32,
    placement: Placement,
    scoring: ScoringFunction,
    epoch: u64,
    tree: RTree,
    index: PruneIndex,
}

impl WorkerState {
    fn view(&self) -> ShardView<'_> {
        ShardView {
            tree: &self.tree,
            index: &self.index,
        }
    }
}

/// A shard worker: transport-agnostic handler for the wire protocol.
///
/// Starts empty; the first request must be `Load` (anything else
/// before that answers `ShardResponse::Error`).
#[derive(Default)]
pub struct ShardWorker {
    state: Option<WorkerState>,
}

impl ShardWorker {
    /// An unloaded worker.
    pub fn new() -> ShardWorker {
        ShardWorker::default()
    }

    /// Handles one request. Returns the response and whether the worker
    /// should shut down afterwards (`Shutdown`, or a mid-batch `Apply`
    /// failure that left partial state behind).
    pub fn handle(&mut self, req: ShardRequest) -> (ShardResponse, bool) {
        match req {
            ShardRequest::Ping => (ShardResponse::Pong, false),
            ShardRequest::Shutdown => (ShardResponse::Bye, true),
            ShardRequest::Load {
                shard,
                num_shards,
                placement,
                scoring,
                epoch,
                records,
            } => (
                self.load(shard, num_shards, placement, scoring, epoch, records),
                false,
            ),
            other => match self.state.as_mut() {
                None => (
                    ShardResponse::Error {
                        message: "worker not loaded".to_string(),
                    },
                    false,
                ),
                Some(st) => Self::dispatch(st, other),
            },
        }
    }

    fn load(
        &mut self,
        shard: u32,
        num_shards: u32,
        placement: u8,
        scoring: ScoringFunction,
        epoch: u64,
        records: Vec<gir_query::Record>,
    ) -> ShardResponse {
        let Some(placement) = placement_from_tag(placement) else {
            return ShardResponse::Error {
                message: format!("unknown placement tag {placement}"),
            };
        };
        if shard >= num_shards || num_shards == 0 {
            return ShardResponse::Error {
                message: format!("shard {shard} out of range for {num_shards} shards"),
            };
        }
        let dim = scoring.dim();
        let store = Arc::new(MemPageStore::new(PAGE_SIZE));
        let tree = if records.is_empty() {
            RTree::new(store, dim)
        } else {
            RTree::bulk_load(store, &records)
        };
        let tree = match tree {
            Ok(t) => t,
            Err(e) => {
                return ShardResponse::Error {
                    message: format!("load failed: {e}"),
                }
            }
        };
        self.state = Some(WorkerState {
            shard,
            num_shards,
            placement,
            scoring,
            epoch,
            tree,
            index: PruneIndex::new(),
        });
        ShardResponse::Loaded { epoch }
    }

    /// Dispatches a post-`Load` request. The second return is the
    /// shutdown flag: `true` only for a mid-batch `Apply` failure,
    /// where the shard holds a partially-applied batch — staying alive
    /// would let the coordinator keep using a diverged shard, so the
    /// worker answers the error and dies (the coordinator reaps the
    /// endpoint and rejoins from snapshot + WAL).
    fn dispatch(st: &mut WorkerState, req: ShardRequest) -> (ShardResponse, bool) {
        let resp = match req {
            ShardRequest::Apply { epoch, batch } => {
                // Batches are a contiguous replica stream: accepting a
                // gap would silently skip every batch in between (the
                // coordinator cannot tell — worker epochs would just
                // mirror the last Apply). Answer an error with state
                // untouched; the coordinator must rejoin this shard.
                if epoch != st.epoch + 1 {
                    return (
                        ShardResponse::Error {
                            message: format!("epoch gap: worker at {}, batch is {epoch}", st.epoch),
                        },
                        false,
                    );
                }
                let mut outcomes = Vec::with_capacity(batch.ops.len());
                for op in &batch.ops {
                    let out = match Self::apply_op(st, op) {
                        Ok(code) => code,
                        Err(e) => {
                            return (
                                ShardResponse::Error {
                                    message: format!("apply failed: {e}"),
                                },
                                true,
                            )
                        }
                    };
                    outcomes.push(out);
                }
                st.epoch = epoch;
                ShardResponse::Applied { epoch, outcomes }
            }
            ShardRequest::TopK { weights, k } => {
                let io_before = st.tree.store().stats();
                let state = match st.index.snapshot(&st.tree) {
                    Ok(s) => s,
                    Err(e) => {
                        return (
                            ShardResponse::Error {
                                message: format!("snapshot failed: {e}"),
                            },
                            false,
                        )
                    }
                };
                let mirror = match state.mirror(&st.tree) {
                    Ok(m) => m,
                    Err(e) => {
                        return (
                            ShardResponse::Error {
                                message: format!("mirror failed: {e}"),
                            },
                            false,
                        )
                    }
                };
                let (res, _frontier) = mirror.topk(&st.scoring, &weights, k as usize);
                ShardResponse::Ranked {
                    ranked: res.ranked,
                    pages: st.tree.store().stats().reads_since(&io_before),
                }
            }
            ShardRequest::Phase2 {
                kind,
                method,
                weights,
                k,
                ranked,
            } => Self::phase2(st, kind, method, weights, k as usize, ranked),
            ShardRequest::RepairSweep {
                ranked,
                interim,
                seeds,
            } => {
                let result = TopKResult { ranked };
                let swept =
                    gir_core::fp::fp_repair(&st.tree, &st.scoring, &result, &interim, &seeds)
                        .ok()
                        .map(|(hs, _stats)| hs);
                ShardResponse::Swept { halfspaces: swept }
            }
            ShardRequest::RepairStarSweep { ranked, seeds } => {
                let result = TopKResult { ranked };
                let swept = gir_core::fp_star_repair(&st.tree, &st.scoring, &result, &seeds)
                    .ok()
                    .map(|(hs, _stats)| hs);
                ShardResponse::Swept { halfspaces: swept }
            }
            ShardRequest::Cut => match st.tree.scan_all() {
                Ok(records) => ShardResponse::CutState {
                    epoch: st.epoch,
                    records,
                },
                Err(e) => ShardResponse::Error {
                    message: format!("cut failed: {e}"),
                },
            },
            ShardRequest::Records => match st.tree.scan_all() {
                Ok(records) => ShardResponse::RecordsDump { records },
                Err(e) => ShardResponse::Error {
                    message: format!("scan failed: {e}"),
                },
            },
            ShardRequest::Ping | ShardRequest::Shutdown | ShardRequest::Load { .. } => {
                unreachable!("handled by the caller")
            }
        };
        (resp, false)
    }

    fn apply_op(st: &mut WorkerState, op: &WalOp) -> Result<u8, gir_rtree::RTreeError> {
        match op {
            WalOp::Insert(rec) => {
                let owner = st
                    .placement
                    .shard_of(rec.id, &rec.attrs, st.num_shards as usize);
                if owner == st.shard as usize {
                    st.tree.insert(rec.clone())?;
                    st.index.on_insert(rec);
                    Ok(outcome::INSERTED)
                } else {
                    Ok(outcome::NONE)
                }
            }
            WalOp::Delete { id, attrs } => {
                let owner = st.placement.shard_of(*id, attrs, st.num_shards as usize);
                if owner == st.shard as usize {
                    if st.tree.delete(*id, attrs)? {
                        st.index.on_delete(&st.tree, *id, attrs)?;
                        Ok(outcome::DELETED)
                    } else {
                        Ok(outcome::DELETE_MISS)
                    }
                } else {
                    st.index.purge_record(*id);
                    Ok(outcome::PURGED)
                }
            }
        }
    }

    fn phase2(
        st: &mut WorkerState,
        kind: RegionKind,
        method: gir_core::Method,
        weights: gir_geometry::vector::PointD,
        k: usize,
        ranked: Vec<(gir_query::Record, f64)>,
    ) -> ShardResponse {
        let io_before = st.tree.store().stats();
        let state = match st.index.snapshot(&st.tree) {
            Ok(s) => s,
            Err(e) => {
                return ShardResponse::Error {
                    message: format!("snapshot failed: {e}"),
                }
            }
        };
        let mirror = match state.mirror(&st.tree) {
            Ok(m) => m,
            Err(e) => {
                return ShardResponse::Error {
                    message: format!("mirror failed: {e}"),
                }
            }
        };
        let result = TopKResult { ranked };
        let q = QueryVector::new(weights);
        // Re-run the shard's own top-k to regenerate the BRS leftovers
        // (shard-ranked records plus the retained frontier) exactly as
        // the in-process fan-out holds them between its merge and
        // Phase-2 stages. BRS over an identical mirror is
        // deterministic, so this reproduces the same frontier bit for
        // bit; it costs one extra zero-I/O mirror descent per query.
        let (shard_res, frontier) = mirror.topk(&st.scoring, &q.weights, k);
        let resp = match kind {
            RegionKind::Gir => {
                let ctx = GirPhase2Ctx::new(&result);
                match shard_gir_system(
                    st.view(),
                    state.as_ref(),
                    mirror.as_ref(),
                    &st.scoring,
                    &q,
                    method,
                    &result,
                    &ctx,
                    &shard_res,
                    frontier,
                ) {
                    Ok((hs, structure, cached)) => ShardResponse::System {
                        halfspaces: hs.to_vec(),
                        structure: structure as u64,
                        cached,
                        pages: st.tree.store().stats().reads_since(&io_before),
                    },
                    Err(e) => ShardResponse::Error {
                        message: format!("phase2 failed: {e}"),
                    },
                }
            }
            RegionKind::GirStar => {
                let ctx = StarPhase2Ctx::new(&result, &st.scoring);
                let (hs, structure, cached) = shard_star_system(
                    st.view(),
                    state.as_ref(),
                    mirror.as_ref(),
                    &st.scoring,
                    StarMethod::for_method(method),
                    method,
                    &result,
                    &ctx,
                    &shard_res,
                    frontier,
                );
                ShardResponse::System {
                    halfspaces: hs.to_vec(),
                    structure: structure as u64,
                    cached,
                    pages: st.tree.store().stats().reads_since(&io_before),
                }
            }
        };
        resp
    }

    /// Serves requests off a framed connection until `Shutdown` arrives
    /// or the peer closes. Malformed frames answer `Error` (the
    /// connection survives — the frame layer already guaranteed we
    /// consumed exactly one frame).
    pub fn serve<C: Conn>(mut self, mut conn: FrameConn<C>) {
        loop {
            let (kind, payload) = match conn.recv(None) {
                Ok(f) => f,
                Err(_) => return, // peer gone — nothing to answer
            };
            let resp = if kind != KIND_REQUEST {
                ShardResponse::Error {
                    message: format!("unexpected frame kind {kind}"),
                }
            } else {
                match ShardRequest::decode(&payload) {
                    Ok(req) => {
                        let (resp, shutdown) = self.handle(req);
                        if shutdown {
                            let _ = conn.send_frame(&resp.to_frame());
                            conn.shutdown();
                            return;
                        }
                        resp
                    }
                    Err(e) => ShardResponse::Error {
                        message: format!("bad request: {e}"),
                    },
                }
            };
            if conn.send_frame(&resp.to_frame()).is_err() {
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gir_core::WalBatch;
    use gir_query::Record;

    fn records(n: usize, d: usize, seed: u64) -> Vec<Record> {
        let mut s = seed | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..n)
            .map(|i| Record::new(i as u64 + 1, (0..d).map(|_| next()).collect::<Vec<_>>()))
            .collect()
    }

    #[test]
    fn unloaded_worker_rejects_queries() {
        let mut w = ShardWorker::new();
        let (resp, done) = w.handle(ShardRequest::TopK {
            weights: vec![0.5, 0.5].into(),
            k: 3,
        });
        assert!(!done);
        assert!(matches!(resp, ShardResponse::Error { .. }));
        let (resp, _) = w.handle(ShardRequest::Ping);
        assert_eq!(resp, ShardResponse::Pong);
    }

    #[test]
    fn load_apply_topk_round_trip() {
        let recs = records(200, 2, 0x9e3779b9);
        let scoring = ScoringFunction::linear(2);
        let mut w = ShardWorker::new();
        let (resp, _) = w.handle(ShardRequest::Load {
            shard: 0,
            num_shards: 1,
            placement: placement_tag(Placement::Hash),
            scoring: scoring.clone(),
            epoch: 0,
            records: recs.clone(),
        });
        assert_eq!(resp, ShardResponse::Loaded { epoch: 0 });

        let batch = WalBatch {
            ops: vec![
                WalOp::Insert(Record::new(9001, vec![0.99, 0.99])),
                WalOp::Delete {
                    id: recs[0].id,
                    attrs: recs[0].attrs.clone(),
                },
            ],
        };
        let (resp, _) = w.handle(ShardRequest::Apply { epoch: 1, batch });
        assert_eq!(
            resp,
            ShardResponse::Applied {
                epoch: 1,
                outcomes: vec![outcome::INSERTED, outcome::DELETED],
            }
        );

        let (resp, _) = w.handle(ShardRequest::TopK {
            weights: vec![0.7, 0.3].into(),
            k: 5,
        });
        let ShardResponse::Ranked { ranked, .. } = resp else {
            panic!("expected Ranked, got {resp:?}");
        };
        assert_eq!(ranked.len(), 5);
        assert_eq!(ranked[0].0.id, 9001);
    }

    #[test]
    fn non_owner_delete_purges() {
        let recs = records(50, 2, 0xfeed);
        let scoring = ScoringFunction::linear(2);
        let mut w = ShardWorker::new();
        // Load as shard 1 of 2: roughly half the records are foreign.
        let mine: Vec<Record> = recs
            .iter()
            .filter(|r| Placement::Hash.shard_of(r.id, &r.attrs, 2) == 1)
            .cloned()
            .collect();
        let foreign = recs
            .iter()
            .find(|r| Placement::Hash.shard_of(r.id, &r.attrs, 2) == 0)
            .unwrap();
        w.handle(ShardRequest::Load {
            shard: 1,
            num_shards: 2,
            placement: placement_tag(Placement::Hash),
            scoring,
            epoch: 0,
            records: mine,
        });
        let batch = WalBatch {
            ops: vec![WalOp::Delete {
                id: foreign.id,
                attrs: foreign.attrs.clone(),
            }],
        };
        let (resp, _) = w.handle(ShardRequest::Apply { epoch: 1, batch });
        assert_eq!(
            resp,
            ShardResponse::Applied {
                epoch: 1,
                outcomes: vec![outcome::PURGED],
            }
        );
    }

    #[test]
    fn apply_rejects_epoch_gaps_without_touching_state() {
        let recs = records(60, 2, 0xdead);
        let scoring = ScoringFunction::linear(2);
        let mut w = ShardWorker::new();
        w.handle(ShardRequest::Load {
            shard: 0,
            num_shards: 1,
            placement: placement_tag(Placement::Hash),
            scoring,
            epoch: 0,
            records: recs,
        });
        let batch = WalBatch {
            ops: vec![WalOp::Insert(Record::new(9001, vec![0.5, 0.5]))],
        };
        // A gap (worker at 0, batch claims 2) must be rejected — the
        // skipped batch 1 would otherwise vanish silently.
        let (resp, done) = w.handle(ShardRequest::Apply {
            epoch: 2,
            batch: batch.clone(),
        });
        assert!(!done, "an epoch gap is recoverable, not fatal");
        let ShardResponse::Error { message } = resp else {
            panic!("expected Error, got {resp:?}");
        };
        assert!(
            message.contains("epoch gap"),
            "reason names the gap: {message}"
        );
        // State untouched: the contiguous batch still applies cleanly…
        let (resp, _) = w.handle(ShardRequest::Apply {
            epoch: 1,
            batch: batch.clone(),
        });
        assert_eq!(
            resp,
            ShardResponse::Applied {
                epoch: 1,
                outcomes: vec![outcome::INSERTED],
            }
        );
        // …and replaying the same epoch is itself a gap (1 ≠ 1 + 1).
        let (resp, _) = w.handle(ShardRequest::Apply { epoch: 1, batch });
        assert!(matches!(resp, ShardResponse::Error { .. }));
    }
}
