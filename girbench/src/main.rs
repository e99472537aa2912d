//! The GIR serving benchmark.
//!
//! ```text
//! cargo run --release --manifest-path girbench/Cargo.toml -- \
//!     --workload session_read --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with nothing installed in
//! the program; `--trace 1` is the separate traced run that yields the
//! per-layer ledger. The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. See
//! `README.md` beside this crate for the workloads and the metric map.

mod decor;
mod drive;
mod oracle;
mod replay;
mod stats;
mod trace;
mod traced;
mod workloads;

use drive::{run_phase, warm_up, ClientLog, PhaseOpts, Server};
use gir_query::ScoringFunction;
use gir_serve::{DurableServer, Update};
use stats::Summary;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use workloads::{Inputs, Spec, Target};

/// Set-ups whose servers are dropped before the measured server's own
/// set-up (the process's first set-ups run on cold caches and heap).
const SETUP_REPS_BEFORE: usize = 2;
/// The measured phase is served in this many slices of equal served
/// time, with one more set-up, dropped at once, between each two. The
/// machine's speed drifts over seconds; set-ups spread over the whole
/// run see the same drift as the serving metrics, where set-ups bunched
/// at its ends would each see one moment of it. `setup_s` is the median
/// of all set-ups, the measured server's included.
const SERVE_SLICES: u32 = 12;
/// Recoveries per durable run; `recover_s` is their median.
const RECOVER_REPS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(val),
            "--seed" => seed = Some(val.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(val.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds: u64 = seconds.unwrap_or(10);
    if seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// Variables that change the program being measured.
const FORBIDDEN_ENV: [&str; 2] = ["GIR_FORCE_PATH", "GIR_OBS"];

fn env_or_unset(name: &str) -> String {
    std::env::var(name).unwrap_or_else(|_| "unset".into())
}

/// Peak resident set of this process, MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

extern "C" {
    fn malloc_trim(pad: usize) -> i32;
}

/// Returns freed heap to the kernel and resets the peak-RSS mark, so
/// that input generation and the servers already dropped do not count
/// towards `peak_rss_mb`.
fn reset_peak_rss() -> bool {
    // SAFETY: glibc's `malloc_trim` takes no pointers and only releases
    // free memory at the top of the heap; it is safe to call at any time.
    unsafe {
        malloc_trim(0);
    }
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Scratch directory for durable state, inside the working directory.
fn state_dir(spec: &Spec, seed: u64, tag: &str) -> PathBuf {
    Path::new(".girbench-tmp").join(format!("{}-{}-{seed}-{tag}", spec.name, std::process::id()))
}

/// Knob record printed with every result.
pub struct Knobs(pub Vec<(&'static str, String)>);

impl Knobs {
    fn of(spec: &Spec, seed: u64, seconds: u64, trace: bool) -> Knobs {
        let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
        let k: Vec<String> = spec.k_choices.iter().map(|k| k.to_string()).collect();
        Knobs(vec![
            ("workload", spec.name.into()),
            ("seed", seed.to_string()),
            ("seconds", seconds.to_string()),
            ("trace", (trace as u8).to_string()),
            ("n", spec.n.to_string()),
            ("d", spec.d.to_string()),
            ("method", spec.method.label().into()),
            ("k", k.join("/")),
            ("clients", spec.clients.to_string()),
            ("shards", spec.shards.to_string()),
            ("transport", spec.transport().into()),
            ("fsync", spec.fsync_label()),
            ("snapshot_every", spec.snapshot_every.to_string()),
            ("queries_per_batch", spec.queries_per_batch.to_string()),
            ("updates_per_batch", spec.updates_per_batch.to_string()),
            ("segment_batches", spec.segment_batches.to_string()),
            ("cores", cores.to_string()),
            ("GIR_POOL_THREADS", env_or_unset("GIR_POOL_THREADS")),
            ("GIR_POOL_MIN_ITEMS", env_or_unset("GIR_POOL_MIN_ITEMS")),
        ])
    }

    fn json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(k, v)| format!("\"{k}\":\"{v}\""))
            .collect();
        format!("{{{}}}", body.join(","))
    }
}

/// A named metric value with its unit.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// Prints the human-readable block, the detail line and the result line.
pub fn report(
    knobs: &Knobs,
    detail: &[Metric],
    notes: &[String],
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[Metric],
) {
    println!("# girbench {}", knobs.json());
    for m in metrics.iter().chain(detail) {
        println!("{:<40} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for n in notes {
        println!("note: {n}");
        if !correct {
            eprintln!("girbench: {n}");
        }
    }
    println!("correct: {correct}  attempted: {attempted}  failed: {failed}");
    if !correct {
        eprintln!("girbench: run failed: {failed} of {attempted} operations");
    }
    let detail_json: Vec<String> = detail
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            )
        })
        .collect();
    println!("detail: {{{}}}", detail_json.join(","));
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
            m.name,
            json_num(m.value),
            m.unit
        );
    }
    out.push_str("}}");
    println!("{out}");
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("girbench: {e}");
            eprintln!("usage: girbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    for var in FORBIDDEN_ENV {
        if std::env::var_os(var).is_some() {
            eprintln!("girbench: refusing to run with {var} set: it changes the program measured");
            std::process::exit(2);
        }
    }
    let Some(spec) = Spec::named(&args.workload) else {
        eprintln!(
            "girbench: unknown workload {:?}; expected one of {:?}",
            args.workload,
            workloads::NAMES
        );
        std::process::exit(2);
    };
    let mut inputs = spec.generate(args.seed, args.seconds as f64);
    let ok = if args.trace {
        traced::run(&spec, &inputs, args.seed, args.seconds)
    } else {
        end_to_end(&spec, &mut inputs, args.seed, args.seconds)
    };
    let _ = std::fs::remove_dir(".girbench-tmp");
    std::process::exit(if ok { 0 } else { 1 });
}

/// Builds the server and replays the warm-up prefix; returns the
/// server and the set-up time.
pub fn setup(
    spec: &Spec,
    inputs: &Inputs,
    dir: &Path,
    decor: Option<&drive::Decor>,
) -> (Server, f64) {
    let t0 = Instant::now();
    let server = Server::build(spec, inputs, dir, decor).unwrap_or_else(|e| fail(&e));
    warm_up(&server, spec, &inputs.batches[..spec.warmup_batches]).unwrap_or_else(|e| fail(&e));
    (server, t0.elapsed().as_secs_f64())
}

/// One set-up whose server is dropped at once; returns its time.
fn setup_and_drop(spec: &Spec, inputs: &Inputs, seed: u64, rep: usize) -> f64 {
    let dir = state_dir(spec, seed, &format!("setup{rep}"));
    let (server, s) = setup(spec, inputs, &dir, None);
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
    s
}

fn fail(msg: &str) -> ! {
    eprintln!("girbench: {msg}");
    let _ = std::fs::remove_dir_all(".girbench-tmp");
    std::process::exit(1);
}

/// Per-batch update slices in version order (`[v]` turns version `v`
/// into `v + 1`), through batch `end`.
pub fn version_updates(inputs: &Inputs, end: usize) -> Vec<&[Update]> {
    inputs.batches[..end]
        .iter()
        .map(|b| b.updates.as_slice())
        .collect()
}

/// The oracle's verdict on a run.
pub struct Verified {
    /// Wrong answers, plus one if the server's final records differ.
    pub wrong: u64,
    /// Sampled answers right only up to near ties ([`oracle::TIE_TOL`]).
    pub near_ties: u64,
    /// The live set after the run.
    pub live: oracle::LiveSet,
}

/// Oracle verdict over a phase's samples plus the final record set.
pub fn verify(
    spec: &Spec,
    inputs: &Inputs,
    server: &Server,
    log: &mut ClientLog,
    end: usize,
    notes: &mut Vec<String>,
) -> Verified {
    let scoring = ScoringFunction::linear(spec.d);
    let versions = version_updates(inputs, end);
    let checked = oracle::check(&inputs.data, &versions, &scoring, &mut log.samples);
    let bad = checked.wrong;
    for s in bad.iter().take(5) {
        notes.push(format!(
            "wrong answer: batch {} query {} (versions {}..={}): {:?}",
            s.batch, s.index, s.lo, s.hi, s.ids
        ));
    }
    let mut live = oracle::LiveSet::new(&inputs.data);
    for u in &versions {
        live.apply(u);
    }
    let mut wrong = bad.len() as u64;
    match server.records() {
        Ok(recs) => {
            let mut ids: Vec<u64> = recs.iter().map(|r| r.id).collect();
            ids.sort_unstable();
            if ids != live.sorted_ids() {
                notes.push(format!(
                    "live records differ: server {} vs oracle {}",
                    ids.len(),
                    live.records().len()
                ));
                wrong += 1;
            }
        }
        Err(e) => {
            notes.push(format!("records snapshot failed: {e}"));
            wrong += 1;
        }
    }
    Verified {
        wrong,
        near_ties: checked.near_ties,
        live,
    }
}

/// Notes the failed update calls and the count of failed responses.
pub fn note_failures(log: &ClientLog, notes: &mut Vec<String>) {
    let mut failed_updates = 0;
    for (bi, err) in &log.applied {
        if let Some(e) = err {
            notes.push(format!("update batch {bi} failed: {e}"));
            failed_updates += 1;
        }
    }
    if log.failed > failed_updates {
        notes.push(format!("failed responses: {}", log.failed - failed_updates));
    }
}

/// Throughput as the median of the per-second query counts over the
/// whole seconds served, so that a passing slowdown of the machine moves
/// it less than a mean would; runs shorter than a second use the mean.
fn queries_per_s(per_second: &[u64], wall: Duration) -> f64 {
    let whole = (wall.as_secs() as usize).min(per_second.len());
    let counts: Vec<f64> = per_second[..whole].iter().map(|&c| c as f64).collect();
    stats::median_f64(&counts)
        .unwrap_or_else(|| per_second.iter().sum::<u64>() as f64 / wall.as_secs_f64())
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// The end-to-end run: nothing installed in the program.
fn end_to_end(spec: &Spec, inputs: &mut Inputs, seed: u64, seconds: u64) -> bool {
    let knobs = Knobs::of(spec, seed, seconds, false);
    let mut notes = Vec::new();
    // The peak-RSS mark is reset before the measured server's set-up,
    // so that the mark holds the inputs, that set-up and serving.
    let mut setups: Vec<f64> = (0..SETUP_REPS_BEFORE)
        .map(|rep| setup_and_drop(spec, inputs, seed, rep))
        .collect();
    if !reset_peak_rss() {
        notes.push("peak RSS mark not reset: includes input generation and set-ups".into());
    }
    let dir = state_dir(spec, seed, "measured");
    let (server, s) = setup(spec, inputs, &dir, None);
    setups.push(s);

    // The measured phase runs for `seconds` of served time, in slices.
    // Should the traffic generated up front run out first, the clients
    // pause while another segment is generated, untimed, and then resume.
    let total = Duration::from_secs(seconds);
    let mut log = ClientLog::default();
    let (mut wall, mut next, mut extended) = (Duration::ZERO, spec.warmup_batches, 0u32);
    let mut peak_rss: f64 = 0.0;
    for slice in 1..=SERVE_SLICES {
        let target = total * slice / SERVE_SLICES;
        loop {
            let phase = run_phase(
                &server,
                spec,
                inputs,
                next,
                &PhaseOpts {
                    deadline: Instant::now() + target.saturating_sub(wall),
                    end_batch: usize::MAX,
                    served_before: wall,
                    trace: None,
                },
            );
            wall += phase.wall;
            next = phase.next_batch;
            log.merge(phase.log);
            if !phase.exhausted || wall >= target {
                break;
            }
            inputs.release(spec.warmup_batches..next);
            spec.extend(inputs);
            extended += 1;
        }
        // The serving process's peak: set-up and the measured phase,
        // not the set-ups between slices, the oracle's checks or
        // recovery. Each set-up's server is dropped and the mark reset
        // before serving resumes.
        peak_rss = peak_rss.max(peak_rss_mb());
        if slice < SERVE_SLICES {
            setups.push(setup_and_drop(spec, inputs, seed, setups.len()));
            reset_peak_rss();
        }
    }

    let Verified {
        wrong,
        near_ties,
        live,
    } = verify(spec, inputs, &server, &mut log, next, &mut notes);
    let mut failed = log.failed + wrong;
    note_failures(&log, &mut notes);

    let mut detail = Vec::new();
    let mut recovered_ok = true;
    if spec.target == Target::Durable {
        let scoring = ScoringFunction::linear(spec.d);
        let cfg = drive::server_config(spec, Some(&dir));
        if let Server::Durable(s, _) = &server {
            s.sync().unwrap_or_else(|e| fail(&format!("wal sync: {e}")));
        }
        drop(server);
        let mut times = Vec::new();
        for _ in 0..RECOVER_REPS {
            let t0 = Instant::now();
            let rec = DurableServer::recover(scoring.clone(), cfg.clone());
            let dt = t0.elapsed().as_secs_f64();
            match rec {
                Ok((s, report)) => {
                    times.push(dt);
                    let mut ids: Vec<u64> = s
                        .inner()
                        .records_snapshot()
                        .unwrap_or_default()
                        .iter()
                        .map(|r| r.id)
                        .collect();
                    ids.sort_unstable();
                    if ids != live.sorted_ids() {
                        notes.push(format!(
                            "recovered records differ from the live set (replayed {})",
                            report.replayed
                        ));
                        recovered_ok = false;
                    }
                }
                Err(e) => {
                    notes.push(format!("recovery failed: {e}"));
                    recovered_ok = false;
                }
            }
        }
        if !recovered_ok {
            failed += 1;
        }
        detail.push(metric(
            "recover_s",
            stats::median_f64(&times).unwrap_or(0.0),
            "s",
        ));
    } else {
        drop(server);
    }
    let _ = std::fs::remove_dir_all(&dir);

    let queries = log.query_ns.len() as u64;
    let updates = log.update_ns.len() as u64;
    let attempted = queries + updates;
    let q = Summary::of(&mut log.query_ns);
    let m = Summary::of(&mut log.miss_ns);
    let u = Summary::of(&mut log.update_ns);
    let h = Summary::of(&mut log.hit_ns);
    let (Some(q), Some(m), Some(u), Some(h)) = (q, m, u, h) else {
        eprintln!("girbench: a run must serve hits, misses and updates");
        return false;
    };
    let metrics = vec![
        metric("queries_per_s", queries_per_s(&log.per_second, wall), "1/s"),
        metric("hit_p50_us", us(h.p50_ns), "us"),
        metric("miss_p50_us", us(m.p50_ns), "us"),
        metric("update_p50_us", us(u.p50_ns), "us"),
        metric("setup_s", stats::median_f64(&setups).unwrap_or(0.0), "s"),
        metric("peak_rss_mb", peak_rss, "MiB"),
    ];
    detail.extend([
        metric(
            "error_rate",
            failed as f64 / attempted.max(1) as f64,
            "ratio",
        ),
        metric("query_p50_us", us(q.p50_ns), "us"),
        metric("query_tail_us", us(q.tail_ns), "us"),
        metric("query_tail_pct", q.tail_pct, "pct"),
        metric("miss_tail_us", us(m.tail_ns), "us"),
        metric("miss_tail_pct", m.tail_pct, "pct"),
        metric("update_tail_us", us(u.tail_ns), "us"),
        metric("update_tail_pct", u.tail_pct, "pct"),
        metric(
            "queries_per_s_mean",
            queries as f64 / wall.as_secs_f64(),
            "1/s",
        ),
        metric("queries", queries as f64, "count"),
        metric("hits", log.hits as f64, "count"),
        metric("misses", m.count as f64, "count"),
        metric("updates", updates as f64, "count"),
        metric("hit_rate", log.hits as f64 / queries.max(1) as f64, "ratio"),
        metric("oracle_checks", log.samples.len() as f64, "count"),
        metric("oracle_near_ties", near_ties as f64, "count"),
        metric("segments_added", extended as f64, "count"),
    ]);
    let correct = failed == 0;
    report(
        &knobs, &detail, &notes, correct, attempted, failed, &metrics,
    );
    correct
}
