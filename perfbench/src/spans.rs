//! Spans recorded by the benchmark around its own calls into each
//! layer's public functions.
//!
//! A [`Tracer`] is either off — [`Tracer::span`] is then a plain call —
//! or on, in which case every span is kept in memory with its thread,
//! its parent (the span open on the same thread when it began) and its
//! start and end, and written out when the run ends.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// The crates the benchmark drives, one span layer each.
pub const LAYERS: [&str; 7] = [
    "mcc-workloads",
    "mcc-placement",
    "mcc-trace",
    "mcc-cache",
    "mcc-core",
    "mcc-live",
    "mcc-check",
];

/// The stretch of a run the traced pass took, in tracer nanoseconds.
#[derive(Clone, Copy, Debug)]
pub struct Window {
    pub from: u64,
    pub to: u64,
}

impl Window {
    pub fn secs(self) -> f64 {
        (self.to - self.from) as f64 * 1e-9
    }
}

/// One closed span.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub thread: u32,
    pub layer: &'static str,
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start: u64,
    pub end: u64,
}

impl Span {
    fn secs(&self) -> f64 {
        (self.end - self.start) as f64 * 1e-9
    }
}

static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);

thread_local! {
    static THREAD: u32 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
    static OPEN: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

/// Records spans when on; costs one branch per span when off.
pub struct Tracer {
    epoch: Instant,
    on: bool,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            on,
            next_id: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Nanoseconds since the epoch, for window marks.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` as the traced pass, returning its window.
    pub fn pass<T>(&self, f: impl FnOnce() -> T) -> (T, Window) {
        let from = self.now();
        let out = f();
        (
            out,
            Window {
                from,
                to: self.now(),
            },
        )
    }

    /// Runs `f` inside a span of `layer`.
    pub fn span<T>(&self, layer: &'static str, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with(|open| {
            let mut open = open.borrow_mut();
            let parent = open.last().copied();
            open.push(id);
            parent
        });
        let start = self.now();
        let out = f();
        let end = self.now();
        OPEN.with(|open| open.borrow_mut().pop());
        let span = Span {
            id,
            parent,
            thread: THREAD.with(|t| *t),
            layer,
            name,
            start,
            end,
        };
        self.spans.lock().expect("span list poisoned").push(span);
        out
    }

    /// Records an interval observed inside `parent` (not around a call)
    /// as one of its children.
    pub fn record_child(
        &self,
        parent: &Span,
        layer: &'static str,
        name: &'static str,
        start: u64,
        end: u64,
    ) {
        let span = Span {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent: Some(parent.id),
            thread: parent.thread,
            layer,
            name,
            start: start.clamp(parent.start, parent.end),
            end: end.clamp(parent.start, parent.end),
        };
        self.spans.lock().expect("span list poisoned").push(span);
    }

    /// Every span closed so far, ordered by start.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.spans.lock().expect("span list poisoned").clone();
        spans.sort_by_key(|s| (s.start, s.id));
        spans
    }

    /// Total seconds of the spans of one name.
    pub fn total_secs(&self, name: &str) -> f64 {
        self.spans
            .lock()
            .expect("span list poisoned")
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .sum()
    }

    /// Durations in seconds of the spans of one name, in start order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans()
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"thread\":{},\"layer\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.thread, s.layer, s.name, s.start, s.end
            )?;
        }
        out.flush()
    }
}

/// Each layer's self time in seconds: a span's duration minus the part
/// its children on the same thread cover. Spans on other threads run
/// in parallel with their cause, so they are never subtracted, and the
/// layer totals of a parallel run can exceed its wall time.
pub fn self_secs(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut child_secs: BTreeMap<u32, f64> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *child_secs.entry(p).or_default() += s.secs();
        }
    }
    let mut by_layer: BTreeMap<&'static str, f64> = LAYERS.iter().map(|&l| (l, 0.0)).collect();
    for s in spans {
        let own = s.secs() - child_secs.get(&s.id).copied().unwrap_or(0.0);
        *by_layer.entry(s.layer).or_default() += own.max(0.0);
    }
    by_layer
}

/// The share of the window during which at least one span, on any
/// thread, was open.
pub fn coverage(spans: &[Span], window: Window) -> f64 {
    let Window { from, to } = window;
    let mut intervals: Vec<(u64, u64)> = spans
        .iter()
        .map(|s| (s.start.max(from), s.end.min(to)))
        .filter(|(a, b)| a < b)
        .collect();
    intervals.sort_unstable();
    let mut covered = 0u64;
    let mut reach = from;
    for (a, b) in intervals {
        if b > reach {
            covered += b - a.max(reach);
            reach = b;
        }
    }
    covered as f64 / (to - from).max(1) as f64
}
