//! In-memory span recorder wrapped around the benchmark's calls into each
//! layer's public functions.
//!
//! A span is (name, start, end, parent, op id, lane). Spans nest per
//! thread through a thread-local parent stack; a span opened on another
//! thread (the prefetch lane) carries its op id explicitly and has no
//! parent. Recording is off unless [`enable`] was called, in which case
//! [`span`] is one relaxed atomic load plus the wrapped call.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU32 = AtomicU32::new(1);
static NEXT_OP: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    /// Open spans of this thread: (span id, op id).
    static STACK: RefCell<Vec<(u32, u64)>> = const { RefCell::new(Vec::new()) };
}

fn origin() -> Instant {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    *ORIGIN.get_or_init(crate::clock::now)
}

fn now_ns() -> u64 {
    origin().elapsed().as_nanos() as u64
}

/// One closed span.
#[derive(Debug, Clone)]
pub(crate) struct Span {
    pub(crate) id: u32,
    pub(crate) name: &'static str,
    pub(crate) start_ns: u64,
    pub(crate) end_ns: u64,
    pub(crate) parent: Option<u32>,
    pub(crate) op: u64,
    /// 0 = the op's own thread; 1 = a helper lane (not part of coverage).
    pub(crate) lane: u8,
}

impl Span {
    pub(crate) fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Turns recording on or off for every thread.
pub(crate) fn enable(on: bool) {
    origin();
    ENABLED.store(on, Ordering::SeqCst);
}

pub(crate) fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Runs `f` as the root span of a fresh op; returns its result.
pub(crate) fn op<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    if !enabled() {
        return f();
    }
    let op = NEXT_OP.fetch_add(1, Ordering::Relaxed);
    record(name, op, None, 0, f)
}

/// Runs `f` as a child of the innermost open span of this thread (or as
/// a root span of op 0 when none is open).
pub(crate) fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    if !enabled() {
        return f();
    }
    let (parent, op) = STACK.with(|s| s.borrow().last().copied()).unzip();
    record(name, op.unwrap_or(0), parent, 0, f)
}

/// The op id of this thread's innermost open span (0 when none).
pub(crate) fn current_op() -> u64 {
    STACK.with(|s| s.borrow().last().map_or(0, |&(_, op)| op))
}

/// Runs `f` as a span on a helper lane of op `op` (another thread).
pub(crate) fn lane_span<T>(name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
    if !enabled() {
        return f();
    }
    record(name, op, None, 1, f)
}

fn record<T>(
    name: &'static str,
    op: u64,
    parent: Option<u32>,
    lane: u8,
    f: impl FnOnce() -> T,
) -> T {
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    STACK.with(|s| s.borrow_mut().push((id, op)));
    let start_ns = now_ns();
    let out = f();
    let end_ns = now_ns();
    STACK.with(|s| s.borrow_mut().pop());
    let span = Span {
        id,
        name,
        start_ns,
        end_ns,
        parent,
        op,
        lane,
    };
    SPANS.lock().unwrap_or_else(|e| e.into_inner()).push(span);
    out
}

/// A copy of every span recorded so far.
pub(crate) fn snapshot() -> Vec<Span> {
    SPANS.lock().unwrap_or_else(|e| e.into_inner()).clone()
}

/// Takes every span recorded so far.
pub(crate) fn drain() -> Vec<Span> {
    std::mem::take(&mut *SPANS.lock().unwrap_or_else(|e| e.into_inner()))
}

/// Writes spans as JSON lines.
pub(crate) fn write_jsonl(spans: &[Span], path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"op\":{},\"lane\":{}}}",
            s.id,
            s.name,
            s.start_ns,
            s.end_ns,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            s.op,
            s.lane
        )?;
    }
    out.flush()
}

/// Per-op aggregation of a span set.
pub(crate) struct Analysis {
    /// name → one entry per op that ran it: summed duration in that op.
    busy: BTreeMap<&'static str, Vec<f64>>,
    /// name → one entry per op: summed self time (duration minus children).
    self_time: BTreeMap<&'static str, Vec<f64>>,
    /// Per root span with children: share of its time no child covers.
    uncovered: Vec<f64>,
}

impl Analysis {
    /// Aggregates only the ops whose root span is named `root`.
    pub(crate) fn of_ops(spans: &[Span], root: &str) -> Analysis {
        let ops: std::collections::BTreeSet<u64> = spans
            .iter()
            .filter(|s| s.parent.is_none() && s.lane == 0 && s.name == root)
            .map(|s| s.op)
            .collect();
        let kept: Vec<Span> = spans
            .iter()
            .filter(|s| ops.contains(&s.op))
            .cloned()
            .collect();
        Analysis::of(&kept)
    }

    pub(crate) fn of(spans: &[Span]) -> Analysis {
        let mut child_secs: BTreeMap<u32, f64> = BTreeMap::new();
        for s in spans {
            if let Some(p) = s.parent {
                *child_secs.entry(p).or_default() += s.secs();
            }
        }
        let mut busy_by: BTreeMap<(&'static str, u64), f64> = BTreeMap::new();
        let mut self_by: BTreeMap<(&'static str, u64), f64> = BTreeMap::new();
        let mut uncovered = Vec::new();
        for s in spans {
            let children = child_secs.get(&s.id).copied();
            *busy_by.entry((s.name, s.op)).or_default() += s.secs();
            *self_by.entry((s.name, s.op)).or_default() += s.secs() - children.unwrap_or(0.0);
            if s.parent.is_none() && s.lane == 0 {
                if let Some(c) = children {
                    uncovered.push(((s.secs() - c) / s.secs()).max(0.0));
                }
            }
        }
        let collect = |by: BTreeMap<(&'static str, u64), f64>| {
            let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
            for ((name, _), v) in by {
                out.entry(name).or_default().push(v);
            }
            out
        };
        Analysis {
            busy: collect(busy_by),
            self_time: collect(self_by),
            uncovered,
        }
    }

    /// Median per-op busy seconds of a layer (0 when it never ran).
    pub(crate) fn busy(&self, name: &str) -> f64 {
        self.busy.get(name).map_or(0.0, |v| crate::stats::median(v))
    }

    /// Median per-op self seconds of a layer (0 when it never ran).
    pub(crate) fn self_s(&self, name: &str) -> f64 {
        self.self_time
            .get(name)
            .map_or(0.0, |v| crate::stats::median(v))
    }

    /// Every per-op duration of a layer, seconds.
    pub(crate) fn samples(&self, name: &str) -> &[f64] {
        self.busy.get(name).map_or(&[], Vec::as_slice)
    }

    /// The 99th percentile over ops of the share of an op's time that no
    /// child span covers.
    pub(crate) fn uncovered_p99(&self) -> f64 {
        crate::stats::quantile(&self.uncovered, 0.99)
    }

    /// Ops checked for coverage.
    pub(crate) fn covered_ops(&self) -> usize {
        self.uncovered.len()
    }
}
