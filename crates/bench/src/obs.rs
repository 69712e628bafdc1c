//! Observability wiring for the run router.
//!
//! When a binary asks for `--events-out`, `--metrics-out`, or
//! `--events-ring`, the router takes this module's path instead of the
//! plain one: it builds one sink per shard (sharded engines must never
//! contend on a single sink), attaches them to the run, merges the
//! captured streams in shard index order, and writes the requested
//! artifacts. On failure it
//! additionally renders the flight recorder — the last-K events plus
//! the offending block's classification timeline — onto stderr, so a
//! dead run leaves behind the "what was the protocol doing" context the
//! aggregate counters cannot provide.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use mcc_core::{DirectorySim, SimError, SimResult};
use mcc_obs::{
    lock_sink, shared, BufferSink, Event, FlightRecorder, MetricsRecorder, RingSink, SharedSink,
    DEFAULT_INTERVAL, DEFAULT_RING,
};
use mcc_trace::Trace;

use crate::experiments::RunOptions;

/// Observability outputs requested for a run. All fields default to
/// "off"; the router only takes the instrumented path when
/// [`ObsOptions::is_active`] is true, so un-instrumented runs stay on
/// the exact pre-observability code path.
#[derive(Clone, Debug, Default)]
pub struct ObsOptions {
    /// Write the merged event stream here as JSON Lines.
    pub events_out: Option<PathBuf>,
    /// Write the metrics registry here as JSON.
    pub metrics_out: Option<PathBuf>,
    /// Retain only the last K events per shard (flight-recorder mode;
    /// 0 means "not requested" — a full buffer is kept if another
    /// output needs it, or [`DEFAULT_RING`] is used for crash dumps).
    pub events_ring: usize,
}

impl ObsOptions {
    /// Whether any observability output was requested.
    pub fn is_active(&self) -> bool {
        self.events_out.is_some() || self.metrics_out.is_some() || self.events_ring > 0
    }

    /// The flight-recorder ring capacity: the requested size, or
    /// [`DEFAULT_RING`] when none was given.
    pub fn ring_capacity(&self) -> usize {
        if self.events_ring == 0 {
            DEFAULT_RING
        } else {
            self.events_ring
        }
    }

    /// Whether the full event stream must be retained (a file export
    /// or metrics replay needs every event; a ring-only request does
    /// not).
    fn wants_full_stream(&self) -> bool {
        self.events_out.is_some() || self.metrics_out.is_some()
    }
}

/// Per-shard sink set: full buffers when an export needs every event,
/// bounded rings when only a crash dump was requested.
struct Capture {
    full: Vec<Arc<Mutex<BufferSink>>>,
    rings: Vec<Arc<Mutex<RingSink>>>,
    handles: Vec<SharedSink>,
}

impl Capture {
    fn new(obs: &ObsOptions, shards: usize) -> Capture {
        let mut cap = Capture {
            full: Vec::new(),
            rings: Vec::new(),
            handles: Vec::new(),
        };
        for _ in 0..shards {
            if obs.wants_full_stream() {
                let (sink, handle) = shared(BufferSink::new());
                cap.full.push(sink);
                cap.handles.push(handle);
            } else {
                let (sink, handle) = shared(RingSink::new(obs.ring_capacity()));
                cap.rings.push(sink);
                cap.handles.push(handle);
            }
        }
        cap
    }

    /// The captured events, concatenated in shard index order — the
    /// canonical merge order for sharded streams (shard 0's events,
    /// then shard 1's, …), which per-shard determinism makes stable
    /// across thread schedules.
    fn merged(&self) -> Vec<Event> {
        let mut events = Vec::new();
        for sink in &self.full {
            events.extend_from_slice(lock_sink(sink).events());
        }
        for sink in &self.rings {
            events.extend(lock_sink(sink).events().copied());
        }
        events
    }
}

/// The instrumented router path: `try_run_protocol`'s run with one sink
/// per shard attached, then writes the requested artifacts and renders
/// the flight recorder if the run died.
pub(crate) fn run_observed(
    sim: &DirectorySim,
    trace: &Trace,
    shards: usize,
    opts: &RunOptions,
) -> Result<(SimResult, Option<mcc_core::SnapshotGeneration>), SimError> {
    let obs = &opts.obs;
    let resume = opts
        .resume
        .as_deref()
        .map(crate::experiments::load_resume_checkpoint)
        .transpose()?;
    // A resumed run replays the snapshot's own shard layout, so the
    // sink count must match the snapshot, not the --shards flag.
    let shards = resume.as_ref().map_or(shards, |(c, _)| c.shard_count());
    let capture = Capture::new(obs, shards);
    let mut run = sim
        .runner(trace)
        .shards(shards)
        .sinks(&capture.handles)
        .checkpoint(&opts.checkpoint);
    if let Some((checkpoint, _)) = &resume {
        run = run.resume(checkpoint);
    }
    let outcome = run.run();
    finish(obs, &capture, outcome).map(|r| (r, resume.map(|(_, generation)| generation)))
}

/// Writes the requested artifacts from the captured stream (on success
/// *and* failure — a partial stream from a dead run is exactly what a
/// post-mortem wants), renders the flight recorder when the run died,
/// and passes the outcome through.
fn finish(
    obs: &ObsOptions,
    capture: &Capture,
    outcome: Result<SimResult, SimError>,
) -> Result<SimResult, SimError> {
    let events = capture.merged();
    if let Some(path) = &obs.events_out {
        if let Err(e) = write_events_jsonl(path, &events) {
            eprintln!("mcc-bench: writing {}: {e}", path.display());
        }
    }
    if let Some(path) = &obs.metrics_out {
        let registry = MetricsRecorder::replay(events.iter(), DEFAULT_INTERVAL);
        if let Err(e) = std::fs::write(path, registry.to_json()) {
            eprintln!("mcc-bench: writing {}: {e}", path.display());
        }
    }
    if let Err(e) = &outcome {
        eprint!("{}", flight_dump(&events, obs.ring_capacity(), e));
    }
    outcome
}

/// Renders the crash-dump context for a failed run: the error, then the
/// last-K event dump and — when the error names a block — that block's
/// classification timeline.
pub fn flight_dump(events: &[Event], ring_capacity: usize, error: &SimError) -> String {
    let recorder = FlightRecorder::replay(events.iter(), ring_capacity);
    format!(
        "mcc-bench: run failed: {error}\n{}",
        recorder.report(error.block().map(|b| b.index()))
    )
}

/// Writes an event stream as JSON Lines (one [`Event::to_json`] object
/// per line).
pub fn write_events_jsonl(path: &Path, events: &[Event]) -> std::io::Result<()> {
    use std::io::Write as _;
    let file = std::fs::File::create(path)?;
    let mut out = std::io::BufWriter::new(file);
    for event in events {
        writeln!(out, "{}", event.to_json())?;
    }
    out.flush()
}
