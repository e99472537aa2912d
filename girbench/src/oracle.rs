//! The correctness oracle: the benchmark's own simulation of the live
//! record set, and exact top-k over it.
//!
//! Checks run outside every timed interval. A served answer is checked
//! against the live set of the dataset version it was served under;
//! with several clients a query that overlapped an update batch may
//! have seen either side of it, and passes if it matches one of them.
//!
//! Ranks whose scores lie within [`TIE_TOL`] are ties to the program: a
//! cached region admits a query up to `gir_geometry::EPS` outside its
//! score-order half-spaces, so a cache hit may order two records whose
//! scores differ by less than that either way. Such an answer is counted
//! as a near tie, not as wrong.

use gir_query::{Record, ScoringFunction};
use gir_serve::Update;
use std::collections::{HashMap, HashSet};

/// Largest score gap between two records that the program may rank
/// either way: the slack its cache containment test allows on a
/// score-order half-space (`score(winner) − score(loser) ≥ −EPS`).
pub const TIE_TOL: f64 = gir_geometry::EPS;

/// How a served ranking compares with the exact one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The exact ranked ids.
    Exact,
    /// Distinct live ids whose score at every rank is within
    /// [`TIE_TOL`] of the exact ranking's.
    NearTie,
    /// Anything else.
    Wrong,
}

/// The live records, updated in the order the server applied them.
#[derive(Clone)]
pub struct LiveSet {
    records: Vec<Record>,
    pos: HashMap<u64, usize>,
}

impl LiveSet {
    /// The initial dataset.
    pub fn new(data: &[Record]) -> LiveSet {
        let records = data.to_vec();
        let pos = records.iter().enumerate().map(|(i, r)| (r.id, i)).collect();
        LiveSet { records, pos }
    }

    /// Applies one update batch; a delete of an absent id is a no-op,
    /// as in the server.
    pub fn apply(&mut self, updates: &[Update]) {
        for u in updates {
            match u {
                Update::Insert(rec) => {
                    self.pos.insert(rec.id, self.records.len());
                    self.records.push(rec.clone());
                }
                Update::Delete { id, .. } => {
                    if let Some(i) = self.pos.remove(id) {
                        self.records.swap_remove(i);
                        if i < self.records.len() {
                            self.pos.insert(self.records[i].id, i);
                        }
                    }
                }
            }
        }
    }

    /// Live records, in no particular order.
    pub fn records(&self) -> &[Record] {
        &self.records
    }

    /// Live ids, sorted.
    pub fn sorted_ids(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self.records.iter().map(|r| r.id).collect();
        ids.sort_unstable();
        ids
    }

    /// Judges a served ranking `ids` for the query `(weights, k)`.
    pub fn judge(
        &self,
        scoring: &ScoringFunction,
        weights: &[f64],
        k: usize,
        ids: &[u64],
    ) -> Verdict {
        let exact = self.topk_ids(scoring, weights, k);
        if exact == ids {
            return Verdict::Exact;
        }
        if exact.len() != ids.len() {
            return Verdict::Wrong;
        }
        let w = gir_geometry::vector::PointD::from(weights.to_vec());
        let score = |id: &u64| {
            self.pos
                .get(id)
                .map(|&i| scoring.score(&w, &self.records[i].attrs))
        };
        let mut seen = HashSet::new();
        for (a, e) in ids.iter().zip(&exact) {
            match (seen.insert(*a), score(a), score(e)) {
                (true, Some(sa), Some(se)) if (sa - se).abs() <= TIE_TOL => {}
                _ => return Verdict::Wrong,
            }
        }
        Verdict::NearTie
    }

    /// Exact ranked top-k ids under `scoring`: score descending, ties
    /// by id ascending — the order of `gir_query::naive_topk`, without
    /// cloning every record.
    pub fn topk_ids(&self, scoring: &ScoringFunction, weights: &[f64], k: usize) -> Vec<u64> {
        let w = gir_geometry::vector::PointD::from(weights.to_vec());
        let mut scored: Vec<(f64, u64)> = self
            .records
            .iter()
            .map(|r| (scoring.score(&w, &r.attrs), r.id))
            .collect();
        let order = |a: &(f64, u64), b: &(f64, u64)| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1));
        if k < scored.len() {
            scored.select_nth_unstable_by(k, order);
            scored.truncate(k);
        }
        scored.sort_by(order);
        scored.into_iter().map(|(_, id)| id).collect()
    }
}

/// One served answer kept for checking.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Batch the query belongs to.
    pub batch: usize,
    /// Index within the batch.
    pub index: usize,
    /// Query weights.
    pub weights: Vec<f64>,
    /// Result size.
    pub k: usize,
    /// Earliest dataset version (applied batches) it may have seen.
    pub lo: usize,
    /// Latest dataset version it may have seen.
    pub hi: usize,
    /// Served ids, in rank order.
    pub ids: Vec<u64>,
}

/// What [`check`] found.
#[derive(Debug, Default)]
pub struct Checked {
    /// Samples that matched no version in their range.
    pub wrong: Vec<Sample>,
    /// Samples that matched some version only up to near ties.
    pub near_ties: u64,
}

/// Checks `samples` against the live set replayed through `updates`
/// (`updates[v]` turns version `v` into `v + 1`). A sample is exact if
/// some version in its range gives its ids exactly, else a near tie if
/// some version accepts it as one, else wrong.
pub fn check(
    initial: &[Record],
    updates: &[&[Update]],
    scoring: &ScoringFunction,
    samples: &mut [Sample],
) -> Checked {
    samples.sort_by_key(|s| (s.lo, s.batch, s.index));
    let mut live = LiveSet::new(initial);
    let mut best = vec![Verdict::Wrong; samples.len()];
    let mut first = 0;
    for v in 0..=updates.len() {
        // Samples are sorted by `lo`; every sample with lo ≤ v < … is
        // in [first, end).
        let end = samples.partition_point(|s| s.lo <= v);
        for (i, s) in samples.iter().enumerate().take(end).skip(first) {
            if best[i] == Verdict::Exact || s.hi < v {
                continue;
            }
            match live.judge(scoring, &s.weights, s.k, &s.ids) {
                Verdict::Wrong => {}
                verdict => best[i] = verdict,
            }
        }
        while first < end && (best[first] == Verdict::Exact || samples[first].hi <= v) {
            first += 1;
        }
        if let Some(batch) = updates.get(v) {
            live.apply(batch);
        }
    }
    let mut out = Checked::default();
    for (s, verdict) in samples.iter().zip(&best) {
        match verdict {
            Verdict::Exact => {}
            Verdict::NearTie => out.near_ties += 1,
            Verdict::Wrong => out.wrong.push(s.clone()),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gir_query::naive_topk;

    fn data(n: usize, d: usize) -> Vec<Record> {
        gir_datagen::synthetic(gir_datagen::Distribution::Independent, n, d, 11)
    }

    #[test]
    fn topk_matches_naive_topk() {
        let recs = data(500, 3);
        let live = LiveSet::new(&recs);
        let scoring = ScoringFunction::linear(3);
        for (i, k) in [1usize, 5, 20, 600].into_iter().enumerate() {
            let w = vec![0.3 + 0.1 * i as f64, 0.7, 0.5];
            let truth = naive_topk(&recs, &scoring, &w.clone().into(), k).ids();
            assert_eq!(live.topk_ids(&scoring, &w, k), truth);
        }
    }

    #[test]
    fn live_set_follows_updates() {
        let recs = data(50, 2);
        let mut live = LiveSet::new(&recs);
        let ins = Record::new(10_000, vec![0.99, 0.99]);
        live.apply(&[
            Update::Insert(ins.clone()),
            Update::Delete {
                id: recs[3].id,
                attrs: recs[3].attrs.clone(),
            },
            Update::Delete {
                id: 777_777,
                attrs: recs[0].attrs.clone(),
            },
        ]);
        let ids = live.sorted_ids();
        assert_eq!(ids.len(), 50);
        assert!(ids.contains(&10_000) && !ids.contains(&recs[3].id));
        let scoring = ScoringFunction::linear(2);
        assert_eq!(live.topk_ids(&scoring, &[0.5, 0.5], 1), vec![10_000]);
    }

    #[test]
    fn corrupted_answer_is_caught() {
        let recs = data(400, 3);
        let scoring = ScoringFunction::linear(3);
        let hot = Record::new(50_000, vec![0.999, 0.999, 0.999]);
        let batch = vec![Update::Insert(hot)];
        let updates: Vec<&[Update]> = vec![&batch];
        let w = vec![0.4, 0.6, 0.5];
        let before = LiveSet::new(&recs).topk_ids(&scoring, &w, 5);
        let mut after_live = LiveSet::new(&recs);
        after_live.apply(&batch);
        let after = after_live.topk_ids(&scoring, &w, 5);
        assert_ne!(before, after);
        let sample = |lo, hi, ids: Vec<u64>| Sample {
            batch: 0,
            index: 0,
            weights: w.clone(),
            k: 5,
            lo,
            hi,
            ids,
        };
        let mut corrupted = after.clone();
        corrupted.swap(1, 2);
        let mut samples = vec![
            sample(1, 1, after.clone()),
            sample(0, 0, before.clone()),
            // Overlapped the update: either side passes.
            sample(0, 1, after.clone()),
            // Stale answer served after the update.
            sample(1, 1, before.clone()),
            // Rank order corrupted.
            sample(1, 1, corrupted),
            // Missing a member.
            sample(0, 0, before[..4].to_vec()),
        ];
        let checked = check(&recs, &updates, &scoring, &mut samples);
        assert_eq!(checked.wrong.len(), 3, "{:?}", checked.wrong);
        assert_eq!(checked.near_ties, 0);
    }

    #[test]
    fn near_ties_pass_only_within_tolerance() {
        let scoring = ScoringFunction::linear(2);
        let w = [0.5, 0.5];
        // Scores 0.9, 0.8 + δ, 0.8, 0.1: ranks 2 and 3 differ by δ.
        let set = |delta: f64| {
            LiveSet::new(&[
                Record::new(1, vec![0.9, 0.9]),
                Record::new(2, vec![0.8 + delta, 0.8 + delta]),
                Record::new(3, vec![0.8, 0.8]),
                Record::new(4, vec![0.1, 0.1]),
            ])
        };
        let tied = set(TIE_TOL / 4.0);
        assert_eq!(tied.judge(&scoring, &w, 3, &[1, 2, 3]), Verdict::Exact);
        assert_eq!(tied.judge(&scoring, &w, 3, &[1, 3, 2]), Verdict::NearTie);
        // Rank 3 may be either near-tied record, never another one.
        assert_eq!(tied.judge(&scoring, &w, 2, &[1, 3]), Verdict::NearTie);
        assert_eq!(tied.judge(&scoring, &w, 3, &[1, 2, 4]), Verdict::Wrong);
        assert_eq!(tied.judge(&scoring, &w, 3, &[1, 2, 2]), Verdict::Wrong);
        assert_eq!(tied.judge(&scoring, &w, 3, &[1, 2, 99]), Verdict::Wrong);
        assert_eq!(tied.judge(&scoring, &w, 3, &[1, 2]), Verdict::Wrong);
        let apart = set(TIE_TOL * 4.0);
        assert_eq!(apart.judge(&scoring, &w, 3, &[1, 3, 2]), Verdict::Wrong);
    }
}
