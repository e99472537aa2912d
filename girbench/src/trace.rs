//! Spans recorded from the benchmark's own code around calls into the
//! program's layers.
//!
//! Each span has a name (`<layer>.<call>`), start and end in nanoseconds
//! since the tracer's epoch, a parent span and a request id. Spans are
//! kept in memory and written out once the run ends. Nothing here is
//! installed into the program: the program runs unmodified and the
//! spans bracket its public calls.

use std::cell::{Cell, RefCell};
use std::io::Write;
use std::sync::Mutex;
use std::time::Instant;

/// No parent (a root span).
pub const NO_PARENT: u32 = u32::MAX;

/// One closed span.
#[derive(Debug, Clone)]
pub struct SpanRec {
    /// `<layer>.<call>`.
    pub name: &'static str,
    /// Start, ns since the tracer's epoch.
    pub start: u64,
    /// End, ns since the tracer's epoch.
    pub end: u64,
    /// Index of the parent span, or [`NO_PARENT`].
    pub parent: u32,
    /// Request (operation) id.
    pub req: u64,
    /// Phase of the run that recorded it.
    pub phase: &'static str,
    /// Optional payload (bytes, candidates …), 0 when unused.
    pub value: u64,
}

impl SpanRec {
    /// Duration in nanoseconds.
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }

    /// The layer: the name up to the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// The in-memory span store shared by clients, decorators and replay.
pub struct Tracer {
    epoch: Instant,
    store: Mutex<Store>,
}

/// Spans in fixed-size chunks, so that recording never copies the spans
/// already held (a flat vector's doubling would stall the traced run).
struct Store {
    chunks: Vec<Vec<SpanRec>>,
    len: usize,
    phase: &'static str,
}

const CHUNK: usize = 1 << 16;

impl Store {
    fn get_mut(&mut self, idx: u32) -> Option<&mut SpanRec> {
        let i = idx as usize;
        self.chunks.get_mut(i / CHUNK)?.get_mut(i % CHUNK)
    }
}

thread_local! {
    static STACK: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
    static REQ: Cell<u64> = const { Cell::new(0) };
}

impl Tracer {
    /// An empty tracer whose epoch is now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            store: Mutex::new(Store {
                chunks: Vec::new(),
                len: 0,
                phase: "setup",
            }),
        }
    }

    /// Nanoseconds since the epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Converts an instant to epoch nanoseconds.
    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Sets the request id that root spans opened from now on by this
    /// thread carry; child spans inherit their parent's.
    pub fn set_req(&self, req: u64) {
        REQ.with(|r| r.set(req));
    }

    /// This thread's current request id.
    pub fn req(&self) -> u64 {
        REQ.with(|r| r.get())
    }

    /// Labels the spans recorded from now on.
    pub fn set_phase(&self, phase: &'static str) {
        self.store.lock().expect("tracer lock").phase = phase;
    }

    fn push(&self, mut rec: SpanRec) -> u32 {
        let mut st = self.store.lock().expect("tracer lock");
        rec.phase = st.phase;
        rec.req = match st.get_mut(rec.parent) {
            Some(parent) => parent.req,
            None => self.req(),
        };
        if st.len.is_multiple_of(CHUNK) {
            st.chunks.push(Vec::with_capacity(CHUNK));
        }
        st.chunks.last_mut().expect("a chunk").push(rec);
        st.len += 1;
        (st.len - 1) as u32
    }

    /// Opens a span under the calling thread's innermost open span.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        let parent = STACK.with(|s| s.borrow().last().copied().unwrap_or(NO_PARENT));
        self.span_under(name, parent)
    }

    /// Opens a span under an explicit parent (for callbacks that run on
    /// pool threads).
    pub fn span_under(&self, name: &'static str, parent: u32) -> SpanGuard<'_> {
        let idx = self.push(SpanRec {
            name,
            start: self.now(),
            end: 0,
            parent,
            req: 0,
            phase: "",
            value: 0,
        });
        STACK.with(|s| s.borrow_mut().push(idx));
        SpanGuard { tracer: self, idx }
    }

    /// Records an already-timed interval as a closed span.
    pub fn record(
        &self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: u32,
        value: u64,
    ) {
        self.push(SpanRec {
            name,
            start: self.at(start),
            end: self.at(end),
            parent,
            req: 0,
            phase: "",
            value,
        });
    }

    /// The innermost open span on this thread.
    pub fn current(&self) -> u32 {
        STACK.with(|s| s.borrow().last().copied().unwrap_or(NO_PARENT))
    }

    /// Every span recorded so far, in recording order.
    pub fn take(&self) -> Vec<SpanRec> {
        let mut st = self.store.lock().expect("tracer lock");
        st.len = 0;
        std::mem::take(&mut st.chunks).concat()
    }
}

/// Closes its span on drop.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    idx: u32,
}

impl SpanGuard<'_> {
    /// The span's index (a parent for explicit children).
    pub fn id(&self) -> u32 {
        self.idx
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let end = self.tracer.now();
        if let Ok(mut st) = self.tracer.store.lock() {
            if let Some(rec) = st.get_mut(self.idx) {
                rec.end = end;
            }
        }
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            if let Some(pos) = s.iter().rposition(|&i| i == self.idx) {
                s.truncate(pos);
            }
        });
    }
}

/// Length of the union of `intervals` (unsorted, possibly overlapping).
pub fn union_len(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(s, e) in intervals.iter() {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// The layer ledger: `layer.unattributed_share` and the replay's
/// per-layer self time in ns.
///
/// The share is 1 − layer time ÷ client-timed time. Layer time is the
/// wall time the layer spans under each replayed `op.*` root (phase
/// `replay`) cover, so that calls fanned out in parallel count once;
/// client-timed time is the duration of the `op.*` roots in phase
/// `served` with the same request ids. Whatever the served program
/// spends outside the layer calls the replay times — request and
/// response building, locks, waiting for the other client — is
/// therefore unattributed. A negative share means the replayed layer
/// calls took longer than the served operations did.
pub fn ledger(spans: &[SpanRec], served: &str, replay: &str) -> (f64, Vec<(&'static str, u64)>) {
    let is_op_root = |s: &SpanRec| s.parent == NO_PARENT && s.layer() == "op";
    let mut children: Vec<Vec<u32>> = vec![Vec::new(); spans.len()];
    let mut root = vec![NO_PARENT; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if s.phase != replay {
            continue;
        }
        if s.parent == NO_PARENT {
            root[i] = i as u32;
        } else {
            children[s.parent as usize].push(i as u32);
            // Parents are recorded before their children.
            root[i] = root[s.parent as usize];
        }
    }
    let covered = |i: usize| {
        let s = &spans[i];
        let mut iv: Vec<(u64, u64)> = children[i]
            .iter()
            .map(|&c| {
                let c = &spans[c as usize];
                let start = c.start.max(s.start);
                (start, c.end.min(s.end).max(start))
            })
            .collect();
        union_len(&mut iv)
    };
    let mut replayed = std::collections::HashSet::new();
    let mut layer_ns = 0u64;
    let mut self_ns: std::collections::BTreeMap<&'static str, u64> = Default::default();
    for (i, s) in spans.iter().enumerate() {
        if s.phase != replay || root[i] == NO_PARENT || !is_op_root(&spans[root[i] as usize]) {
            continue;
        }
        if s.parent == NO_PARENT {
            replayed.insert(s.req);
            layer_ns += covered(i);
        } else {
            *self_ns.entry(s.layer()).or_default() += s.dur().saturating_sub(covered(i));
        }
    }
    let client_ns: u64 = spans
        .iter()
        .filter(|s| s.phase == served && is_op_root(s) && replayed.contains(&s.req))
        .map(|s| s.dur())
        .sum();
    let share = if client_ns == 0 {
        0.0
    } else {
        1.0 - layer_ns as f64 / client_ns as f64
    };
    (share, self_ns.into_iter().collect())
}

/// Writes spans as JSON lines.
pub fn write_jsonl(path: &std::path::Path, spans: &[SpanRec]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, s) in spans.iter().enumerate() {
        let parent = if s.parent == NO_PARENT {
            "null".to_string()
        } else {
            s.parent.to_string()
        };
        writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{},\"phase\":\"{}\",\"value\":{}}}",
            s.name, s.start, s.end, s.req, s.phase, s.value
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_merges_overlaps() {
        assert_eq!(union_len(&mut [(0, 10), (5, 15), (20, 25)]), 20);
        assert_eq!(union_len(&mut []), 0);
        assert_eq!(union_len(&mut [(3, 4), (0, 10)]), 10);
    }

    fn closed(
        name: &'static str,
        start: u64,
        end: u64,
        parent: u32,
        req: u64,
        phase: &'static str,
    ) -> SpanRec {
        SpanRec {
            name,
            start,
            end,
            parent,
            req,
            phase,
            value: 0,
        }
    }

    #[test]
    fn ledger_divides_replayed_layer_time_by_served_time() {
        let spans = vec![
            // Served: two client-timed operations, 10 and 30 ns.
            closed("op.query", 0, 10, NO_PARENT, 1, "served"),
            closed("op.update", 10, 40, NO_PARENT, 2, "served"),
            // An operation the replay does not cover: not counted.
            closed("op.query", 40, 1040, NO_PARENT, 3, "served"),
            // Replay: layer calls, one nested in another.
            closed("op.query", 100, 108, NO_PARENT, 1, "replay"),
            closed("serve.get", 101, 105, 3, 1, "replay"),
            closed("op.update", 110, 140, NO_PARENT, 2, "replay"),
            closed("rtree.insert", 111, 131, 5, 2, "replay"),
            closed("core.repair", 120, 126, 6, 2, "replay"),
            // Two calls in parallel under one operation count once.
            closed("op.query", 200, 220, NO_PARENT, 4, "replay"),
            closed("rpc.topk", 202, 210, 8, 4, "replay"),
            closed("rpc.topk", 203, 211, 8, 4, "replay"),
            closed("op.query", 2000, 2020, NO_PARENT, 4, "served"),
            // A parentless layer span outside any operation: ignored.
            closed("rpc.call", 150, 190, NO_PARENT, 0, "replay"),
        ];
        let (share, layers) = ledger(&spans, "served", "replay");
        // Layer time 4 + 20 + 9 = 33 ns of 60 ns served.
        assert!((share - 0.45).abs() < 1e-12, "{share}");
        assert_eq!(
            layers,
            vec![("core", 6), ("rpc", 16), ("rtree", 14), ("serve", 4)]
        );
    }

    #[test]
    fn ledger_without_served_time_reads_zero() {
        let t = Tracer::new();
        t.set_phase("replay");
        {
            let _op = t.span("op.query");
            let _a = t.span("serve.get");
        }
        let spans = t.take();
        assert_eq!(spans[1].parent, 0);
        assert_eq!(ledger(&spans, "served", "replay").0, 0.0);
    }
}
