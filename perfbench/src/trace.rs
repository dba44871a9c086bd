//! In-memory spans around calls into the workspace's layers, and the
//! ledger that reconciles their self times with the traced wall time.
//!
//! A span keeps its name, start, end, parent, worker and item id. Worker
//! threads buffer spans locally and hand them to a global sink when their
//! [`Tracer`] is dropped; the benchmark writes them out when it ends.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Top-level span of one measured repetition (main thread).
pub const REP: &str = "bench.rep";
/// Prefix of a span during which worker threads run items in parallel.
pub const PHASE_PREFIX: &str = "phase.";

#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    /// 0 for a root span.
    pub parent: u64,
    pub name: &'static str,
    pub worker: u32,
    pub item: u64,
    pub start: u64,
    pub end: u64,
    /// Work done inside the span (events, bytes), 0 when not counted.
    pub value: u64,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }
}

static SINK: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_WORKER: AtomicU32 = AtomicU32::new(0);

/// Takes every span flushed so far.
pub fn drain() -> Vec<Span> {
    std::mem::take(&mut *SINK.lock().expect("span sink poisoned"))
}

/// Per-thread span recorder. When off, `enter`/`exit` do nothing, so the
/// same decomposed code path runs traced and untraced.
pub struct Tracer {
    on: bool,
    worker: u32,
    root: u64,
    stack: Vec<usize>,
    spans: Vec<Span>,
}

/// Handle of an open span.
#[must_use]
pub struct Open(usize);

impl Tracer {
    /// A recorder for a new thread whose outermost spans hang under
    /// `root` (0 for none).
    pub fn new(on: bool, root: u64) -> Self {
        Tracer {
            on,
            worker: NEXT_WORKER.fetch_add(1, Ordering::Relaxed),
            root,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    pub fn enter(&mut self, name: &'static str, item: u64) -> Open {
        if !self.on {
            return Open(usize::MAX);
        }
        let parent = match self.stack.last() {
            Some(&i) => self.spans[i].id,
            None => self.root,
        };
        self.spans.push(Span {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            parent,
            name,
            worker: self.worker,
            item,
            start: now_ns(),
            end: 0,
            value: 0,
        });
        self.stack.push(self.spans.len() - 1);
        Open(self.spans.len() - 1)
    }

    /// Closes `open`, recording `value` units of work.
    pub fn exit(&mut self, open: Open, value: u64) {
        if open.0 == usize::MAX {
            return;
        }
        let top = self.stack.pop().expect("exit without enter");
        assert_eq!(top, open.0, "spans must close innermost first");
        let span = &mut self.spans[open.0];
        span.end = now_ns();
        span.value = value;
    }

    /// Id of the innermost open span (the parent for work handed to other
    /// threads), or 0.
    pub fn current(&self) -> u64 {
        self.stack.last().map_or(0, |&i| self.spans[i].id)
    }

    pub fn is_on(&self) -> bool {
        self.on
    }
}

impl Drop for Tracer {
    fn drop(&mut self) {
        if !self.spans.is_empty() {
            if let Ok(mut sink) = SINK.lock() {
                sink.append(&mut self.spans);
            }
        }
    }
}

/// Durations and work of every span of one name.
#[derive(Default, Debug)]
pub struct LayerStats {
    pub durs_ns: Vec<u64>,
    pub value: u64,
}

impl LayerStats {
    pub fn calls(&self) -> usize {
        self.durs_ns.len()
    }
    pub fn busy_s(&self) -> f64 {
        self.durs_ns.iter().sum::<u64>() as f64 * 1e-9
    }
    /// Quantile `q` of the span durations in nanoseconds (0 when empty).
    pub fn quantile_ns(&self, q: f64) -> f64 {
        quantile(&self.durs_ns, q)
    }
}

/// Nearest-rank quantile of `xs` (0 when empty).
pub fn quantile(xs: &[u64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_unstable();
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1] as f64
}

/// Median of `xs` (0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Where the traced capacity (`workers` × traced wall) went.
#[derive(Debug, Default)]
pub struct Ledger {
    pub workers: usize,
    /// Sum of the repetition spans' durations, in seconds.
    pub wall_s: f64,
    /// Self time per layer name, in seconds.
    pub self_s: BTreeMap<&'static str, f64>,
    /// Worker time spent waiting: the part of each parallel phase no item
    /// covered (thread start-up, tail imbalance), plus the other workers'
    /// time while the main thread runs a serial layer (checkpoint
    /// barriers).
    pub idle_s: f64,
    /// Main-thread time inside a repetition that no span covers, times
    /// `workers`.
    pub unaccounted_s: f64,
}

impl Ledger {
    pub fn capacity_s(&self) -> f64 {
        self.workers as f64 * self.wall_s
    }
    pub fn unaccounted_frac(&self) -> f64 {
        crate::metrics::ratio(self.unaccounted_s, self.capacity_s())
    }
}

/// Builds the ledger of a traced run. Parallel phases (`phase.*`) own the
/// item spans their workers ran; every other span's self time is its
/// duration minus its same-thread children.
pub fn ledger(spans: &[Span], workers: usize) -> Ledger {
    let by_id: HashMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let mut child_ns: HashMap<u64, u64> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            *child_ns.entry(s.parent).or_default() += s.dur();
        }
    }
    let mut out = Ledger {
        workers,
        ..Ledger::default()
    };
    let w = workers as f64;
    for s in spans {
        let dur = s.dur() as f64 * 1e-9;
        let children = child_ns.get(&s.id).copied().unwrap_or(0) as f64 * 1e-9;
        if s.name == REP {
            out.wall_s += dur;
            out.unaccounted_s += w * (dur - children);
        } else if s.name.starts_with(PHASE_PREFIX) {
            out.idle_s += w * dur - children;
        } else {
            *out.self_s.entry(s.name).or_default() += dur - children;
            let serial = by_id.get(&s.parent).is_some_and(|p| p.name == REP);
            if serial {
                out.idle_s += (w - 1.0) * dur;
            }
        }
    }
    out
}

/// Groups spans by name (repetition and phase spans excluded).
pub fn layer_stats(spans: &[Span]) -> BTreeMap<&'static str, LayerStats> {
    let mut out: BTreeMap<&'static str, LayerStats> = BTreeMap::new();
    for s in spans {
        if s.name == REP || s.name.starts_with(PHASE_PREFIX) {
            continue;
        }
        let e = out.entry(s.name).or_default();
        e.durs_ns.push(s.dur());
        e.value += s.value;
    }
    out
}

/// One span as a JSON line.
pub fn span_json(s: &Span) -> String {
    format!(
        "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"worker\":{},\"item\":{},\"start_ns\":{},\"end_ns\":{},\"value\":{}}}",
        s.id, s.parent, s.name, s.worker, s.item, s.start, s.end, s.value
    )
}

/// Per-tree latency probe for the public entry points: the SimConfig
/// factory a campaign entry point calls once per tree stamps the calling
/// thread, and the gap between two stamps on one thread is one tree's
/// cost along the entry point's path. A thread's last tree has no closing
/// stamp and is not sampled.
pub mod probe {
    use std::cell::Cell;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Mutex;

    static STAMPS: Mutex<Vec<(u64, u64)>> = Mutex::new(Vec::new());
    static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static THREAD: Cell<u64> = const { Cell::new(0) };
    }

    pub fn stamp() {
        let tid = THREAD.with(|t| {
            if t.get() == 0 {
                t.set(NEXT_THREAD.fetch_add(1, Ordering::Relaxed));
            }
            t.get()
        });
        let at = super::now_ns();
        STAMPS.lock().expect("probe poisoned").push((tid, at));
    }

    /// Gaps between consecutive stamps of each thread since the last
    /// call, in nanoseconds.
    pub fn take_gaps() -> Vec<u64> {
        let mut stamps = std::mem::take(&mut *STAMPS.lock().expect("probe poisoned"));
        stamps.sort_unstable();
        stamps
            .windows(2)
            .filter(|w| w[0].0 == w[1].0)
            .map(|w| w[1].1 - w[0].1)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, worker: u32, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name,
            worker,
            item: 0,
            start,
            end,
            value: 0,
        }
    }

    #[test]
    fn ledger_reconciles_capacity() {
        // One 100 ns repetition on 2 workers: a 60 ns parallel phase whose
        // items cover 50 + 40 ns, then a 30 ns serial save, 10 ns uncovered.
        let s = vec![
            span(1, 0, REP, 0, 0, 100),
            span(2, 1, "phase.run", 0, 0, 60),
            span(3, 2, "item", 1, 0, 50),
            span(4, 3, "engine.run", 1, 5, 45),
            span(5, 2, "item", 2, 10, 50),
            span(6, 1, "durability.save", 0, 60, 90),
        ];
        let l = ledger(&s, 2);
        let busy: f64 = l.self_s.values().sum();
        let total = busy + l.idle_s + l.unaccounted_s;
        assert!((total - l.capacity_s()).abs() < 1e-15, "{l:?}");
        assert!((l.idle_s - (30e-9 + 30e-9)).abs() < 1e-15);
        assert!((l.unaccounted_s - 20e-9).abs() < 1e-15);
        assert!((l.self_s["engine.run"] - 40e-9).abs() < 1e-15);
    }

    #[test]
    fn quantiles_use_nearest_rank() {
        let xs: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&xs, 0.5), 50.0);
        assert_eq!(quantile(&xs, 0.99), 99.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }
}
