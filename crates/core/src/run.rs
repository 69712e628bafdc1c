//! The one run pipeline behind every [`DirectorySim`] entry point.
//!
//! Materialized and streamed, sequential and sharded, supervised,
//! checkpointed and resumed runs all go through one private pipeline,
//! configured by the [`Run`] builder. The pipeline reads its records
//! through a crate-private source seam that [`Trace`] and
//! [`TraceStream`] both implement: a record total, an identity, a page
//! placement resolved from the whole source, and per-shard passes that
//! yield `(absolute index, record)` pairs. Everything else is shared:
//!
//! * **Placement is resolved once, from the full source.** Profiled and
//!   first-touch placements are trace-derived; profiling one shard's
//!   records could home pages differently than the sequential run.
//!   Every shard engine receives a clone of the same placement.
//! * **Sharding is exact.** Directory state is keyed by block, and with
//!   infinite caches no reference to one block touches another block's
//!   state, so the blocks are split into K shards by
//!   [`shard_of_block`], each shard replays its records in global order
//!   on its own engine, and the per-shard [`SimResult`]s sum to the
//!   sequential result **bit-exactly**. Finite caches couple blocks
//!   through set eviction, so K > 1 requires [`CacheConfig::Infinite`]
//!   and reports [`SimError::ShardingUnsupported`] otherwise. Each
//!   shard draws faults from its own stream, derived from
//!   `(plan.seed, shard)` by [`FaultPlan::for_shard`], so a faulted
//!   K-shard run reproduces regardless of thread scheduling.
//! * **Cursors are absolute.** A shard's cursor is the index into the
//!   whole source below which it has applied every record it owns, so
//!   snapshot cadence ("whenever a cursor crosses a multiple of
//!   `every`"), resume points and [`Checkpoint`]s mean the same thing
//!   for every shard count and for both sources, and a resumed stream
//!   seeks each shard straight to its cursor.
//! * **Supervision is uniform.** A K = 1 run stays on the calling
//!   thread. K > 1 shards (and every shard of
//!   [`DirectorySim::run_supervised`]) run on detached threads behind
//!   `catch_unwind`: a panicking shard becomes
//!   [`SimError::ShardPanicked`], a shard past its deadline becomes
//!   [`SimError::ShardTimedOut`], and the supervisor never joins a
//!   wedged thread. Outcomes fold in shard order, so thread completion
//!   order never shows in a result, and the lowest-indexed failed
//!   shard's error is the one reported.
//! * **Checks are uniform.** Every run that returns a `Result` sweeps
//!   the global invariants with a [`Monitor`] as it goes and once at the
//!   end; only the panicking [`DirectorySim::run`] and
//!   [`DirectorySim::run_sharded`] skip the sweeps.

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use mcc_cache::CacheConfig;
use mcc_obs::{Event as ObsEvent, SharedSink};
use mcc_placement::PagePlacement;
use mcc_trace::{shard_of_block, BlockSize, MemRef, ReadTraceError, Trace, TraceStream};

use crate::checkpoint::{
    stream_fingerprint, trace_fingerprint, Checkpoint, CheckpointPolicy, EngineSnapshot,
    ShardSnapshot,
};
use crate::engine::{AnyEngine, Engine};
use crate::error::SimError;
use crate::faults::FaultPlan;
use crate::monitor::Monitor;
use crate::policy::Protocol;
use crate::result::SimResult;
use crate::sim::{DirectorySim, PlacementPolicy};
use crate::storage::{RealStorage, Storage};

/// How often a shard polls its wall-clock deadline, in records.
/// Checking at every reference would put an `Instant::now()` on the hot
/// path; every 1024 references bounds the overshoot to well under a
/// millisecond of simulation work.
const DEADLINE_STRIDE: usize = 1024;

/// Cooperative crash and wedge hooks for supervision tests.
///
/// Production shards never panic or stall on purpose, so the
/// supervisor's isolation would otherwise be untestable. Setting a hook
/// makes exactly one shard of subsequent supervised (detached) runs
/// panic, or spin — cooperatively polling its deadline, making no
/// progress. Process-global: tests that set one must be the only
/// supervised runs in flight and must clear it afterwards.
#[doc(hidden)]
pub mod test_hooks {
    use std::sync::atomic::{AtomicI64, Ordering};

    /// `-1` = no shard wedged; otherwise the wedged shard id.
    static WEDGED_SHARD: AtomicI64 = AtomicI64::new(-1);

    /// Makes shard `shard` of subsequent supervised runs spin instead
    /// of replaying its records.
    pub fn wedge_shard(shard: u32) {
        WEDGED_SHARD.store(i64::from(shard), Ordering::SeqCst);
    }

    /// Releases the wedge.
    pub fn clear_wedge() {
        WEDGED_SHARD.store(-1, Ordering::SeqCst);
    }

    /// The currently wedged shard, if any.
    pub fn wedged() -> Option<u32> {
        u32::try_from(WEDGED_SHARD.load(Ordering::SeqCst)).ok()
    }

    /// `-1` = no shard poisoned; otherwise the shard id that panics.
    static POISONED_SHARD: AtomicI64 = AtomicI64::new(-1);

    /// Makes shard `shard` of subsequent supervised runs panic before
    /// replaying its records — a deterministic stand-in for any shard
    /// crash, used to prove `catch_unwind` isolation and salvage.
    pub fn poison_shard(shard: u32) {
        POISONED_SHARD.store(i64::from(shard), Ordering::SeqCst);
    }

    /// Releases the poison.
    pub fn clear_poison() {
        POISONED_SHARD.store(-1, Ordering::SeqCst);
    }

    /// The currently poisoned shard, if any.
    pub fn poisoned() -> Option<u32> {
        u32::try_from(POISONED_SHARD.load(Ordering::SeqCst)).ok()
    }
}

// ---------------------------------------------------------------------
// The source seam
// ---------------------------------------------------------------------

/// One shard's records: `(absolute index, record)` pairs in source
/// order, from a cursor on.
pub(crate) trait Pass {
    /// Records the pass holds. A stream pass reports the underlying
    /// total: a filtered stream cannot count its records without
    /// reading them.
    fn len_hint(&self) -> u64;

    /// The pass's records whose absolute index is at least `from`.
    fn walk(
        &self,
        from: u64,
    ) -> Result<impl Iterator<Item = Result<(u64, MemRef), ReadTraceError>> + '_, SimError>;
}

/// What a run reads records from: a materialized trace or a stream.
pub(crate) trait Source: Sync {
    /// The whole source as one pass, for a K = 1 run on the calling
    /// thread.
    type Whole<'s>: Pass
    where
        Self: 's;
    /// An owned pass over one shard's records, movable to a shard
    /// thread.
    type Part: Pass + Send + 'static;

    /// Records in the whole source.
    fn total(&self) -> u64;
    /// The identity a checkpoint stores: [`trace_fingerprint`] or
    /// [`stream_fingerprint`].
    fn identity(&self) -> Result<u64, SimError>;
    /// The page placement, resolved from every record of the source.
    fn placement(&self, sim: &DirectorySim) -> Result<PagePlacement, SimError>;
    /// The whole source, borrowed.
    fn whole(&self) -> Self::Whole<'_>;
    /// One owned pass per shard, partitioned by [`shard_of_block`].
    fn parts(&self, block_size: BlockSize, shards: usize) -> Vec<Self::Part>;
}

impl Pass for &Trace {
    fn len_hint(&self) -> u64 {
        self.len() as u64
    }

    fn walk(
        &self,
        from: u64,
    ) -> Result<impl Iterator<Item = Result<(u64, MemRef), ReadTraceError>> + '_, SimError> {
        let start = usize::try_from(from).map_or(self.len(), |f| f.min(self.len()));
        Ok(self.as_slice()[start..]
            .iter()
            .zip(start as u64..)
            .map(|(r, i)| Ok((i, *r))))
    }
}

impl Pass for Vec<(u64, MemRef)> {
    fn len_hint(&self) -> u64 {
        self.len() as u64
    }

    fn walk(
        &self,
        from: u64,
    ) -> Result<impl Iterator<Item = Result<(u64, MemRef), ReadTraceError>> + '_, SimError> {
        let start = self.partition_point(|&(i, _)| i < from);
        Ok(self[start..].iter().map(|&record| Ok(record)))
    }
}

impl Pass for TraceStream {
    fn len_hint(&self) -> u64 {
        self.len()
    }

    fn walk(
        &self,
        from: u64,
    ) -> Result<impl Iterator<Item = Result<(u64, MemRef), ReadTraceError>> + '_, SimError> {
        self.records_from(from).map_err(trace_err)
    }
}

impl Source for Trace {
    type Whole<'s> = &'s Trace;
    type Part = Vec<(u64, MemRef)>;

    fn total(&self) -> u64 {
        self.len() as u64
    }

    fn identity(&self) -> Result<u64, SimError> {
        Ok(trace_fingerprint(self))
    }

    fn placement(&self, sim: &DirectorySim) -> Result<PagePlacement, SimError> {
        let nodes = sim.config.nodes;
        Ok(match sim.config.placement {
            PlacementPolicy::RoundRobin => PagePlacement::round_robin(nodes),
            PlacementPolicy::FirstTouch => PagePlacement::first_touch(self, nodes),
            PlacementPolicy::Profiled => PagePlacement::profiled(self, nodes),
        })
    }

    fn whole(&self) -> &Trace {
        self
    }

    fn parts(&self, block_size: BlockSize, shards: usize) -> Vec<Vec<(u64, MemRef)>> {
        let mut parts: Vec<Vec<(u64, MemRef)>> = (0..shards)
            .map(|_| Vec::with_capacity(self.len() / shards))
            .collect();
        for (i, r) in self.iter().enumerate() {
            parts[shard_of_block(r.addr.block(block_size), shards)].push((i as u64, *r));
        }
        parts
    }
}

/// A stream source is always the whole underlying trace: any shard
/// filter on the stream handed in is ignored, as placement and identity
/// ignore it.
impl Source for TraceStream {
    type Whole<'s> = TraceStream;
    type Part = TraceStream;

    fn total(&self) -> u64 {
        self.len()
    }

    fn identity(&self) -> Result<u64, SimError> {
        stream_fingerprint(self).map_err(trace_err)
    }

    fn placement(&self, sim: &DirectorySim) -> Result<PagePlacement, SimError> {
        sim.resolve_placement_stream(self)
    }

    fn whole(&self) -> TraceStream {
        self.unfiltered()
    }

    fn parts(&self, block_size: BlockSize, shards: usize) -> Vec<TraceStream> {
        (0..shards)
            .map(|id| self.unfiltered().with_shard_filter(block_size, id, shards))
            .collect()
    }
}

fn trace_err(e: ReadTraceError) -> SimError {
    SimError::TraceUnreadable {
        reason: e.to_string(),
    }
}

// ---------------------------------------------------------------------
// The builder
// ---------------------------------------------------------------------

/// What a [`Run`] reads: a materialized trace or an out-of-core stream.
#[derive(Clone, Copy, Debug)]
pub enum RunInput<'a> {
    /// An in-memory trace.
    Trace(&'a Trace),
    /// A re-openable stream, held one record at a time.
    Stream(&'a TraceStream),
}

impl<'a> From<&'a Trace> for RunInput<'a> {
    fn from(trace: &'a Trace) -> Self {
        RunInput::Trace(trace)
    }
}

impl<'a> From<&'a TraceStream> for RunInput<'a> {
    fn from(stream: &'a TraceStream) -> Self {
        RunInput::Stream(stream)
    }
}

/// One directory run, configured by composition: shard count,
/// observability sinks, snapshot storage, deadline, a checkpoint to
/// resume from and a checkpoint policy, over a trace or a stream.
/// Created by [`DirectorySim::runner`]; every combination runs through
/// the same pipeline and returns the result an unobserved,
/// uninterrupted sequential run would.
///
/// # Examples
///
/// ```
/// use mcc_core::{DirectorySim, DirectorySimConfig, Protocol};
/// use mcc_trace::{Addr, MemRef, NodeId, Trace};
///
/// let mut t = Trace::new();
/// for i in 0..256u64 {
///     t.push(MemRef::write(NodeId::new((i % 4) as u16), Addr::new(i * 16)));
/// }
/// let sim = DirectorySim::new(Protocol::Basic, &DirectorySimConfig::default());
/// let sharded = sim.runner(&t).shards(4).run().unwrap();
/// assert_eq!(sharded, sim.run(&t));
/// ```
#[must_use]
#[derive(Clone)]
pub struct Run<'a> {
    sim: &'a DirectorySim,
    input: RunInput<'a>,
    shards: usize,
    sinks: Option<&'a [SharedSink]>,
    storage: Arc<dyn Storage>,
    deadline: Option<Duration>,
    resume: Option<&'a Checkpoint>,
    policy: Option<&'a CheckpointPolicy>,
    /// Whether the [`Monitor`] sweeps run (off only for the panicking
    /// entry points).
    monitored: bool,
    /// Absolute record index the run stops before, for
    /// [`DirectorySim::checkpoint_after`].
    stop: Option<u64>,
}

impl<'a> Run<'a> {
    /// Partitions the blocks into `shards` address shards, each on its
    /// own thread (1, the default, runs on the calling thread).
    ///
    /// # Panics
    ///
    /// The run panics if `shards` is zero.
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Streams shard `i`'s structured events into `sinks[i]`. K > 1
    /// shard streams are framed by `ShardStarted`/`ShardFinished`;
    /// every published snapshot emits `CheckpointSaved`, and a shard
    /// resumed past record zero opens with `CheckpointLoaded`. Events
    /// are derived observations: the result is bit-exact with an
    /// unobserved run.
    ///
    /// # Panics
    ///
    /// The run panics unless there is exactly one sink per shard.
    pub fn sinks(mut self, sinks: &'a [SharedSink]) -> Self {
        self.sinks = Some(sinks);
        self
    }

    /// Writes snapshots through `storage` (the default is the real
    /// filesystem) — the fault-injection seam of the torture harness.
    pub fn storage(mut self, storage: Arc<dyn Storage>) -> Self {
        self.storage = storage;
        self
    }

    /// Bounds the run's wall-clock time: shards poll the deadline every
    /// 1024 records, and a shard past it fails with
    /// [`SimError::ShardTimedOut`].
    pub fn deadline(mut self, budget: impl Into<Option<Duration>>) -> Self {
        self.deadline = budget.into();
        self
    }

    /// Continues the run from `checkpoint`, with the snapshot's own
    /// shard count: each shard restores its engine and replays only the
    /// records past its cursor. The run refuses, with
    /// [`SimError::BadCheckpoint`], a snapshot of another source,
    /// protocol, configuration, fault plan or shard count.
    pub fn resume(mut self, checkpoint: &'a Checkpoint) -> Self {
        self.shards = checkpoint.shard_count();
        self.resume = Some(checkpoint);
        self
    }

    /// Writes a crash-safe snapshot of every shard to `policy.path`
    /// whenever a shard's cursor crosses a multiple of `policy.every`,
    /// and once more on completion. Resumed runs keep the same
    /// boundaries.
    pub fn checkpoint(mut self, policy: impl Into<Option<&'a CheckpointPolicy>>) -> Self {
        self.policy = policy.into();
        self
    }

    /// Runs to completion and folds the shards' results.
    ///
    /// # Errors
    ///
    /// Coherence violations, retry exhaustion, livelock and bad node
    /// indices as a typed [`SimError`] (the lowest-indexed failing
    /// shard's), plus [`SimError::ShardingUnsupported`],
    /// [`SimError::BadCheckpoint`], [`SimError::TraceUnreadable`], and
    /// the supervisor's panic and deadline errors.
    pub fn run(self) -> Result<SimResult, SimError> {
        let (outcomes, ..) = self.dispatch(self.shards > 1, <AnyEngine as Engine>::finish)?;
        ShardedReport {
            protocol: self.sim.protocol,
            outcomes,
        }
        .merged()
    }

    /// Runs every shard — even a single one — on a detached, supervised
    /// thread and returns the per-shard outcomes instead of failing the
    /// whole run: a panicking shard becomes [`SimError::ShardPanicked`]
    /// and a shard past the deadline [`SimError::ShardTimedOut`], while
    /// the other shards' results survive. The supervisor stops waiting
    /// once the deadline is spent and abandons (never joins) a wedged
    /// thread.
    ///
    /// # Errors
    ///
    /// Failures that precede any shard — an unshardable configuration,
    /// a mismatched checkpoint, an unreadable source. Per-shard
    /// failures are reported inside the [`ShardedReport`].
    pub fn supervise(self) -> Result<ShardedReport, SimError> {
        let (outcomes, ..) = self.dispatch(true, <AnyEngine as Engine>::finish)?;
        Ok(ShardedReport {
            protocol: self.sim.protocol,
            outcomes,
        })
    }

    fn dispatch<T: Send + 'static>(
        &self,
        detached: bool,
        end: fn(AnyEngine) -> T,
    ) -> Result<Driven<T>, SimError> {
        match self.input {
            RunInput::Trace(trace) => self.drive(trace, detached, end),
            RunInput::Stream(stream) => self.drive(stream, detached, end),
        }
    }

    /// The pipeline: validates, resolves placement, builds or restores
    /// each shard's engine, and runs the shards inline (`detached ==
    /// false`, K = 1 only) or under the supervisor. Each shard's engine
    /// is handed to `end` on its own thread.
    fn drive<S: Source, T: Send + 'static>(
        &self,
        source: &S,
        detached: bool,
        end: fn(AnyEngine) -> T,
    ) -> Result<Driven<T>, SimError> {
        let sim = *self.sim;
        let shards = self.shards;
        assert!(shards > 0, "shard count must be positive");
        if let Some(sinks) = self.sinks {
            assert_eq!(
                sinks.len(),
                shards,
                "need exactly one sink per shard ({} sinks for {shards} shards)",
                sinks.len()
            );
        }
        if shards > 1 && sim.config.cache != CacheConfig::Infinite {
            return Err(SimError::ShardingUnsupported {
                reason: "finite caches couple blocks through set eviction; \
                         sharded runs require CacheConfig::Infinite",
            });
        }
        let total = source.total();
        let keyed = self.resume.is_some() || self.policy.is_some() || self.stop.is_some();
        let identity = if keyed { source.identity()? } else { 0 };
        if let Some(checkpoint) = self.resume {
            sim.validate(checkpoint, shards, total, identity)?;
        }
        let placement = source.placement(&sim)?;

        let starts: Vec<Option<ShardSnapshot>> = match self.resume {
            Some(checkpoint) => checkpoint.shards.iter().cloned().map(Some).collect(),
            None => vec![None; shards],
        };
        let ledger = self.policy.map(|policy| Ledger {
            storage: Arc::clone(&self.storage),
            path: policy.path.clone(),
            every: policy.every,
            head: Mutex::new(Checkpoint {
                protocol: sim.protocol,
                config: sim.config,
                faults: sim.faults,
                total,
                identity,
                shards: starts
                    .iter()
                    .enumerate()
                    .map(|(id, start)| match start {
                        Some(snapshot) => snapshot.clone(),
                        None => ShardSnapshot {
                            cursor: 0,
                            engine: EngineSnapshot::capture(&sim.fresh_engine(
                                placement.clone(),
                                id,
                                shards,
                            )),
                        },
                    })
                    .collect(),
            }),
        });
        let deadline = self.deadline.map(|d| (Instant::now() + d, d));
        let ctx = Arc::new(ShardCtx {
            sim,
            placement,
            shards,
            total,
            stop: self.stop.map_or(total, |n| n.min(total)),
            monitored: self.monitored,
            deadline,
            ledger,
        });
        let sink = |id: usize| self.sinks.map(|s| s[id].clone());

        let outcomes = if detached {
            let jobs = source
                .parts(sim.config.block_size, shards)
                .into_iter()
                .zip(starts)
                .enumerate()
                .map(|(id, (part, start))| {
                    let ctx = Arc::clone(&ctx);
                    let sink = sink(id);
                    Box::new(move || ctx.shard(id, &part, start, sink).map(end)) as Job<T>
                })
                .collect();
            supervise(jobs, deadline)
        } else {
            let start = starts.into_iter().next().flatten();
            vec![ctx.shard(0, &source.whole(), start, sink(0)).map(end)]
        };
        Ok((outcomes, total, identity))
    }
}

/// Per-shard outcomes, with the source's record total and identity.
type Driven<T> = (Vec<Result<T, SimError>>, u64, u64);

/// One shard's work, boxed for a supervised thread.
type Job<T> = Box<dyn FnOnce() -> Result<T, SimError> + Send>;

/// Everything a shard needs besides its own records, start state and
/// sink; shared by every shard of one run.
struct ShardCtx {
    sim: DirectorySim,
    placement: PagePlacement,
    shards: usize,
    total: u64,
    stop: u64,
    monitored: bool,
    deadline: Option<(Instant, Duration)>,
    ledger: Option<Ledger>,
}

impl ShardCtx {
    /// The record loop: every run of every kind steps its records here.
    fn shard<P: Pass>(
        &self,
        id: usize,
        pass: &P,
        start: Option<ShardSnapshot>,
        sink: Option<SharedSink>,
    ) -> Result<AnyEngine, SimError> {
        let sim = &self.sim;
        let (mut engine, from) = match start {
            Some(snapshot) => (
                snapshot.engine.restore_any(
                    sim.engine,
                    sim.protocol,
                    &sim.config,
                    self.placement.clone(),
                    sim.shard_plan(id, self.shards),
                )?,
                snapshot.cursor,
            ),
            None => (sim.fresh_engine(self.placement.clone(), id, self.shards), 0),
        };
        // Snapshots deliberately exclude sinks; attach after the restore.
        engine.set_sink(sink);
        let records = pass.len_hint();
        let framed = self.shards > 1;
        if framed {
            engine.emit_obs(&ObsEvent::ShardStarted {
                shard: id as u32,
                records,
            });
        }
        if from > 0 {
            engine.emit_obs(&ObsEvent::CheckpointLoaded {
                step: engine.steps(),
                records: from,
            });
        }
        let mut monitor = self.monitored.then(|| Monitor::for_run_length(records));
        // The next absolute boundary at which this shard publishes: the
        // first multiple of `every` above its cursor.
        let every = self.ledger.as_ref().map_or(0, |l| l.every);
        let after = |cursor: u64| {
            cursor
                .checked_div(every)
                .map_or(u64::MAX, |b| (b + 1).saturating_mul(every))
        };
        let mut next_publish = after(from);
        let (stop, total, deadline) = (self.stop, self.total, self.deadline);
        for (n, item) in pass.walk(from)?.enumerate() {
            let (i, r) = item.map_err(trace_err)?;
            if i >= stop {
                break;
            }
            // Cooperative deadline poll, including at the first record
            // so a zero budget times out deterministically.
            if let Some((at, budget)) = deadline {
                if n % DEADLINE_STRIDE == 0 && Instant::now() >= at {
                    return Err(timed_out(id, budget));
                }
            }
            engine.try_step(r)?;
            if let Some(m) = monitor.as_mut() {
                m.after_step(&engine)?;
            }
            let cursor = i + 1;
            if cursor >= next_publish && cursor < total {
                next_publish = after(cursor);
                self.publish(id, cursor, &engine)?;
            }
        }
        if let Some(m) = monitor.as_mut() {
            m.verify(&engine)?;
        }
        self.publish(id, self.stop, &engine)?;
        if framed {
            engine.emit_obs(&ObsEvent::ShardFinished {
                shard: id as u32,
                records,
            });
        }
        Ok(engine)
    }

    /// Publishes shard `id`'s state at `cursor` through the ledger, if
    /// the run keeps one.
    fn publish(&self, id: usize, cursor: u64, engine: &AnyEngine) -> Result<(), SimError> {
        if let Some(ledger) = &self.ledger {
            ledger.publish(id, cursor, engine)?;
            engine.emit_obs(&ObsEvent::CheckpointSaved {
                step: engine.steps(),
                records: cursor,
            });
        }
        Ok(())
    }
}

/// The progress ledger the shards of a checkpointed run write through:
/// every file written holds *every* shard's latest snapshot, taken
/// under one lock, so a kill at any moment leaves a consistent (if
/// per-shard uneven) file behind.
struct Ledger {
    storage: Arc<dyn Storage>,
    path: PathBuf,
    every: u64,
    head: Mutex<Checkpoint>,
}

impl Ledger {
    fn publish(&self, shard: usize, cursor: u64, engine: &AnyEngine) -> Result<(), SimError> {
        let snapshot = ShardSnapshot {
            cursor,
            engine: EngineSnapshot::capture(engine),
        };
        let mut head = self.head.lock().expect("ledger lock poisoned");
        head.shards[shard] = snapshot;
        head.save_with(&*self.storage, &self.path)
            .map_err(|e| SimError::BadCheckpoint {
                reason: format!("writing {}: {e}", self.path.display()),
            })
    }
}

fn timed_out(shard: usize, budget: Duration) -> SimError {
    SimError::ShardTimedOut {
        shard: shard as u32,
        budget_ms: budget.as_millis() as u64,
    }
}

/// Renders a caught panic payload for [`SimError::ShardPanicked`].
fn panic_message(payload: Box<dyn Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs each job on its own detached thread behind `catch_unwind` and
/// collects one outcome per job, in job order. Threads are detached,
/// not scoped, so a wedged shard cannot block the supervisor on a join:
/// past the deadline the supervisor stops waiting and reports the
/// missing shards as timed out.
fn supervise<T: Send + 'static>(
    jobs: Vec<Job<T>>,
    deadline: Option<(Instant, Duration)>,
) -> Vec<Result<T, SimError>> {
    let shards = jobs.len();
    let (tx, rx) = mpsc::channel::<(usize, Result<T, SimError>)>();
    for (id, job) in jobs.into_iter().enumerate() {
        let shard_tx = tx.clone();
        let spawned = thread::Builder::new()
            .name(format!("mcc-shard-{id}"))
            .spawn(move || {
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    if test_hooks::poisoned() == Some(id as u32) {
                        panic!("shard {id} poisoned by test hook");
                    }
                    while test_hooks::wedged() == Some(id as u32) {
                        if let Some((at, budget)) = deadline {
                            if Instant::now() >= at {
                                return Err(timed_out(id, budget));
                            }
                        }
                        thread::sleep(Duration::from_millis(1));
                    }
                    job()
                }))
                .unwrap_or_else(|payload| {
                    Err(SimError::ShardPanicked {
                        shard: id as u32,
                        message: panic_message(payload),
                    })
                });
                let _ = shard_tx.send((id, outcome));
            });
        if let Err(e) = spawned {
            let _ = tx.send((
                id,
                Err(SimError::ShardPanicked {
                    shard: id as u32,
                    message: format!("thread spawn failed: {e}"),
                }),
            ));
        }
    }
    drop(tx);

    let mut outcomes: Vec<Option<Result<T, SimError>>> = (0..shards).map(|_| None).collect();
    let mut received = 0usize;
    while received < shards {
        let message = match deadline {
            None => rx.recv().ok(),
            Some((at, _)) => rx
                .recv_timeout(at.saturating_duration_since(Instant::now()))
                .ok(),
        };
        match message {
            Some((id, outcome)) => {
                outcomes[id] = Some(outcome);
                received += 1;
            }
            // Timeout, or every sender gone without reporting.
            None => break,
        }
    }
    outcomes
        .into_iter()
        .enumerate()
        .map(|(id, o)| {
            o.unwrap_or_else(|| {
                Err(match deadline {
                    Some((_, budget)) => timed_out(id, budget),
                    // No deadline was set, yet the thread vanished
                    // without reporting: only possible if it died
                    // outside `catch_unwind`'s reach.
                    None => SimError::ShardPanicked {
                        shard: id as u32,
                        message: "shard thread vanished without reporting".to_string(),
                    },
                })
            })
        })
        .collect()
}

/// The salvageable outcome of a supervised run: one [`SimResult`] or
/// one typed [`SimError`] per shard, in shard order.
///
/// Produced by [`Run::supervise`]. A single shard panicking or blowing
/// its deadline does not discard the sweep: [`ShardedReport::salvaged`]
/// folds whatever completed, while [`ShardedReport::merged`] reproduces
/// the strict all-or-nothing semantics of [`Run::run`].
#[derive(Clone, Debug)]
pub struct ShardedReport {
    protocol: Protocol,
    outcomes: Vec<Result<SimResult, SimError>>,
}

impl ShardedReport {
    /// Per-shard outcomes, indexed by shard id.
    pub fn outcomes(&self) -> &[Result<SimResult, SimError>] {
        &self.outcomes
    }

    /// The strict merge: the fold of every shard's result, or — when
    /// any shard failed — the error of the *lowest-indexed* failed
    /// shard (deterministic regardless of thread scheduling).
    pub fn merged(&self) -> Result<SimResult, SimError> {
        let mut merged = SimResult::empty(self.protocol);
        for outcome in &self.outcomes {
            merged += outcome.clone()?;
        }
        Ok(merged)
    }

    /// The partial merge: the fold of the shards that *did* complete.
    /// Counters cover only the surviving shards' records; pair with
    /// [`ShardedReport::failed_shards`] when reporting.
    pub fn salvaged(&self) -> SimResult {
        let mut merged = SimResult::empty(self.protocol);
        for outcome in self.outcomes.iter().flatten() {
            merged += *outcome;
        }
        merged
    }

    /// Ids of the shards that failed, with their errors.
    pub fn failed_shards(&self) -> Vec<(u32, &SimError)> {
        self.outcomes
            .iter()
            .enumerate()
            .filter_map(|(id, o)| o.as_ref().err().map(|e| (id as u32, e)))
            .collect()
    }

    /// Whether every shard completed.
    pub fn all_completed(&self) -> bool {
        self.outcomes.iter().all(Result::is_ok)
    }
}

// ---------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------

impl DirectorySim {
    /// Starts configuring a run over `input` — a `&Trace` or a
    /// `&TraceStream` — sequential, unobserved, with no snapshots until
    /// the [`Run`] setters say otherwise.
    pub fn runner<'a>(&'a self, input: impl Into<RunInput<'a>>) -> Run<'a> {
        Run {
            sim: self,
            input: input.into(),
            shards: 1,
            sinks: None,
            storage: Arc::new(RealStorage),
            deadline: None,
            resume: None,
            policy: None,
            monitored: true,
            stop: None,
        }
    }

    /// Runs the whole trace: resolves page placement (profiling the trace
    /// if configured), processes every reference, and returns the tally.
    ///
    /// # Panics
    ///
    /// Panics if the trace references nodes outside the configuration, or
    /// if the protocol violates coherence (which would be a bug in this
    /// crate, not in the caller), or if a configured fault plan exhausts
    /// its retries.
    pub fn run(&self, trace: &Trace) -> SimResult {
        self.run_sharded(trace, 1)
    }

    /// Runs the trace on `shards` parallel engines partitioned by block
    /// address, producing exactly the result [`DirectorySim::run`]
    /// would. Like `run`, it skips the [`Monitor`] sweeps.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero, on anything [`DirectorySim::run`]
    /// panics on, and if the configuration cannot shard (finite
    /// caches). Use [`Run::run`] to observe failures as values.
    ///
    /// # Examples
    ///
    /// ```
    /// use mcc_core::{DirectorySim, DirectorySimConfig, Protocol};
    /// use mcc_trace::{Addr, MemRef, NodeId, Trace};
    ///
    /// let mut t = Trace::new();
    /// for i in 0..256u64 {
    ///     t.push(MemRef::write(NodeId::new((i % 4) as u16), Addr::new(i * 16)));
    /// }
    /// let sim = DirectorySim::new(Protocol::Basic, &DirectorySimConfig::default());
    /// assert_eq!(sim.run_sharded(&t, 4), sim.run(&t));
    /// ```
    pub fn run_sharded(&self, trace: &Trace, shards: usize) -> SimResult {
        Run {
            monitored: false,
            ..self.runner(trace).shards(shards)
        }
        .run()
        .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Runs `shards` supervised shards with an optional wall-clock
    /// `deadline`, returning the per-shard outcomes; see
    /// [`Run::supervise`].
    ///
    /// # Errors
    ///
    /// As for [`Run::supervise`].
    ///
    /// # Examples
    ///
    /// ```
    /// use mcc_core::{DirectorySim, DirectorySimConfig, Protocol};
    /// use mcc_trace::{Addr, MemRef, NodeId, Trace};
    ///
    /// let mut t = Trace::new();
    /// for i in 0..256u64 {
    ///     t.push(MemRef::write(NodeId::new((i % 4) as u16), Addr::new(i * 16)));
    /// }
    /// let sim = DirectorySim::new(Protocol::Basic, &DirectorySimConfig::default());
    /// let report = sim.run_supervised(&t, 4, None).unwrap();
    /// assert!(report.all_completed());
    /// assert_eq!(report.merged().unwrap(), sim.run(&t));
    /// ```
    pub fn run_supervised(
        &self,
        trace: &Trace,
        shards: usize,
        deadline: Option<Duration>,
    ) -> Result<ShardedReport, SimError> {
        self.runner(trace)
            .shards(shards)
            .deadline(deadline)
            .supervise()
    }

    /// Replays every record below absolute index `records` (each shard
    /// its own) and captures the state as a [`Checkpoint`] without
    /// touching the filesystem — the programmatic kill. The snapshot is
    /// what a checkpointed run would have persisted had every shard's
    /// cursor stood at `records`, which makes every-boundary
    /// resume-equivalence tests cheap to express.
    ///
    /// # Errors
    ///
    /// Everything the replayed prefix can report.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn checkpoint_after<'a>(
        &'a self,
        input: impl Into<RunInput<'a>>,
        shards: usize,
        records: u64,
    ) -> Result<Checkpoint, SimError> {
        let run = Run {
            stop: Some(records),
            ..self.runner(input).shards(shards)
        };
        let (outcomes, total, identity) =
            run.dispatch(shards > 1, |engine| EngineSnapshot::capture(&engine))?;
        let cursor = records.min(total);
        Ok(Checkpoint {
            protocol: self.protocol,
            config: self.config,
            faults: self.faults,
            total,
            identity,
            shards: outcomes
                .into_iter()
                .map(|o| o.map(|engine| ShardSnapshot { cursor, engine }))
                .collect::<Result<_, _>>()?,
        })
    }

    /// `self.runner(trace).run()`: a sequential, monitored run. Kept
    /// because `perfbench/` calls it.
    ///
    /// # Errors
    ///
    /// As for [`Run::run`].
    pub fn try_run(&self, trace: &Trace) -> Result<SimResult, SimError> {
        self.runner(trace).run()
    }

    /// `self.runner(stream).run()`. Kept because `perfbench/` calls it.
    ///
    /// # Errors
    ///
    /// As for [`Run::run`].
    pub fn try_run_stream(&self, stream: &TraceStream) -> Result<SimResult, SimError> {
        self.runner(stream).run()
    }

    /// `self.runner(stream).shards(shards).run()`. Kept because
    /// `perfbench/` calls it.
    ///
    /// # Errors
    ///
    /// As for [`Run::run`].
    pub fn try_run_stream_sharded(
        &self,
        stream: &TraceStream,
        shards: usize,
    ) -> Result<SimResult, SimError> {
        self.runner(stream).shards(shards).run()
    }

    /// `self.runner(stream).shards(shards).checkpoint(policy).run()`.
    /// Kept because `perfbench/` calls it.
    ///
    /// # Errors
    ///
    /// As for [`Run::run`].
    pub fn run_stream_resumable(
        &self,
        stream: &TraceStream,
        shards: usize,
        policy: &CheckpointPolicy,
    ) -> Result<SimResult, SimError> {
        self.runner(stream).shards(shards).checkpoint(policy).run()
    }

    /// `self.runner(stream).resume(checkpoint).checkpoint(policy).run()`.
    /// Kept because `perfbench/` calls it.
    ///
    /// # Errors
    ///
    /// As for [`Run::run`].
    pub fn resume_stream_from(
        &self,
        stream: &TraceStream,
        checkpoint: &Checkpoint,
        policy: Option<&CheckpointPolicy>,
    ) -> Result<SimResult, SimError> {
        self.runner(stream)
            .resume(checkpoint)
            .checkpoint(policy)
            .run()
    }

    /// [`DirectorySim::checkpoint_after`] over a stream. Kept because
    /// `perfbench/` calls it.
    ///
    /// # Errors
    ///
    /// As for [`DirectorySim::checkpoint_after`].
    pub fn stream_checkpoint_after(
        &self,
        stream: &TraceStream,
        shards: usize,
        records: u64,
    ) -> Result<Checkpoint, SimError> {
        self.checkpoint_after(stream, shards, records)
    }

    /// Resolves page placement from a stream exactly as a materialized
    /// run resolves it from the whole trace: one pass over the **full**
    /// stream (any shard filter on `stream` is ignored), through the
    /// same single-pass resolvers. Kept because `perfbench/` calls it.
    ///
    /// # Errors
    ///
    /// [`SimError::TraceUnreadable`] when the stream cannot be read.
    pub fn resolve_placement_stream(
        &self,
        stream: &TraceStream,
    ) -> Result<PagePlacement, SimError> {
        let nodes = self.config.nodes;
        if self.config.placement == PlacementPolicy::RoundRobin {
            return Ok(PagePlacement::round_robin(nodes));
        }
        // The resolvers take a plain `MemRef` iterator, so a mid-pass
        // read error is parked in a cell and re-raised afterwards —
        // the resolver drains the iterator before returning, so a
        // parked error is always observed before the placement is used.
        let mut error: Option<ReadTraceError> = None;
        let full = stream.unfiltered();
        let records = full.records().map_err(trace_err)?;
        let ok_records = records.map_while(|item| match item {
            Ok((_, r)) => Some(r),
            Err(e) => {
                error = Some(e);
                None
            }
        });
        let placement = match self.config.placement {
            PlacementPolicy::RoundRobin => unreachable!("handled above"),
            PlacementPolicy::FirstTouch => PagePlacement::first_touch_stream(ok_records, nodes),
            PlacementPolicy::Profiled => PagePlacement::profiled_stream(ok_records, nodes),
        };
        match error {
            Some(e) => Err(trace_err(e)),
            None => Ok(placement),
        }
    }

    /// The fault plan shard `id` of a `shards`-way run draws from: the
    /// base stream when sequential, a per-shard derived stream
    /// otherwise. Fresh and restored engines must agree on it.
    fn shard_plan(&self, id: usize, shards: usize) -> Option<FaultPlan> {
        self.faults.map(|plan| match shards {
            1 => plan,
            _ => plan.for_shard(id as u32),
        })
    }

    fn fresh_engine(&self, placement: PagePlacement, id: usize, shards: usize) -> AnyEngine {
        let engine = AnyEngine::new(self.engine, self.protocol, &self.config, placement);
        match self.shard_plan(id, shards) {
            Some(plan) => engine.with_faults(plan),
            None => engine,
        }
    }

    /// Refuses a snapshot that does not belong to this run, before any
    /// state is rebuilt from it.
    fn validate(
        &self,
        checkpoint: &Checkpoint,
        shards: usize,
        total: u64,
        identity: u64,
    ) -> Result<(), SimError> {
        let reason = if checkpoint.protocol != self.protocol {
            format!(
                "snapshot is of protocol {} but this run simulates {}",
                checkpoint.protocol, self.protocol
            )
        } else if checkpoint.config != self.config {
            "snapshot configuration differs from this run's".to_string()
        } else if checkpoint.faults != self.faults {
            "snapshot fault plan differs from this run's".to_string()
        } else if checkpoint.shard_count() != shards {
            format!(
                "snapshot has {} shards but this run has {shards}",
                checkpoint.shard_count()
            )
        } else if checkpoint.total != total {
            format!(
                "snapshot covers {} records but this source holds {total}",
                checkpoint.total
            )
        } else if checkpoint.identity != identity {
            "source fingerprint mismatch".to_string()
        } else if let Err(shape) = checkpoint.check_shape() {
            shape.to_string()
        } else {
            return Ok(());
        };
        Err(SimError::BadCheckpoint { reason })
    }
}

#[cfg(test)]
mod tests {
    use mcc_cache::{CacheConfig, CacheGeometry};
    use mcc_trace::{Addr, BlockSize, MemRef, NodeId, Trace};

    use crate::error::SimError;
    use crate::faults::FaultPlan;
    use crate::policy::Protocol;
    use crate::sim::{DirectorySim, DirectorySimConfig};

    /// A few nodes passing a handful of blocks around: enough migratory
    /// and shared behaviour to exercise every protocol path.
    fn mixed_trace() -> Trace {
        let mut t = Trace::new();
        for round in 0..50u64 {
            for obj in 0..16u64 {
                let node = NodeId::new(((round + obj) % 8) as u16);
                let addr = Addr::new(obj * 64);
                t.push(MemRef::read(node, addr));
                t.push(MemRef::read(node, addr));
                t.push(MemRef::write(node, addr));
            }
            // One widely shared block, read by everyone.
            for n in 0..8u16 {
                t.push(MemRef::read(NodeId::new(n), Addr::new(0x4000)));
            }
        }
        t
    }

    fn config() -> DirectorySimConfig {
        DirectorySimConfig {
            nodes: 8,
            ..DirectorySimConfig::default()
        }
    }

    #[test]
    fn sharded_matches_sequential_for_every_protocol() {
        let trace = mixed_trace();
        for protocol in Protocol::PAPER_SET {
            let sim = DirectorySim::new(protocol, &config());
            let sequential = sim.run(&trace);
            for shards in [1usize, 2, 4, 8] {
                assert_eq!(
                    sim.run_sharded(&trace, shards),
                    sequential,
                    "{protocol}/{shards} shards diverged"
                );
            }
        }
    }

    #[test]
    fn try_run_sharded_matches_try_run() {
        let trace = mixed_trace();
        let sim = DirectorySim::new(Protocol::Aggressive, &config());
        assert_eq!(
            sim.runner(&trace).shards(4).run().unwrap(),
            sim.try_run(&trace).unwrap()
        );
    }

    #[test]
    fn empty_trace_shards_to_an_empty_result() {
        let sim = DirectorySim::new(Protocol::Basic, &config());
        let r = sim.run_sharded(&Trace::new(), 8);
        assert_eq!(r.total_messages(), 0);
        assert_eq!(r.events.refs(), 0);
        assert_eq!(r.protocol, Protocol::Basic);
    }

    #[test]
    fn finite_caches_cannot_shard() {
        let cfg = DirectorySimConfig {
            cache: CacheConfig::Finite(CacheGeometry::new(4 * 1024, BlockSize::B16, 4).unwrap()),
            ..config()
        };
        let sim = DirectorySim::new(Protocol::Basic, &cfg);
        match sim.runner(&mixed_trace()).shards(2).run() {
            Err(SimError::ShardingUnsupported { reason }) => {
                assert!(reason.contains("Infinite"), "{reason}");
            }
            other => panic!("expected ShardingUnsupported, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "shard count must be positive")]
    fn zero_shards_rejected() {
        let sim = DirectorySim::new(Protocol::Basic, &config());
        let _ = sim.run_sharded(&Trace::new(), 0);
    }

    #[test]
    fn out_of_range_node_reported_from_any_shard() {
        let mut trace = mixed_trace();
        trace.push(MemRef::read(NodeId::new(200), Addr::new(0x9000)));
        let sim = DirectorySim::new(Protocol::Basic, &config());
        match sim.runner(&trace).shards(4).run() {
            Err(SimError::NodeOutOfRange { node, nodes }) => {
                assert_eq!(node, NodeId::new(200));
                assert_eq!(nodes, 8);
            }
            other => panic!("expected NodeOutOfRange, got {other:?}"),
        }
    }

    #[test]
    fn supervised_run_matches_unsupervised_when_healthy() {
        let trace = mixed_trace();
        let sim = DirectorySim::new(Protocol::Aggressive, &config());
        let report = sim.run_supervised(&trace, 4, None).unwrap();
        assert!(report.all_completed());
        assert!(report.failed_shards().is_empty());
        assert_eq!(
            report.merged().unwrap(),
            sim.runner(&trace).shards(4).run().unwrap()
        );
        assert_eq!(report.salvaged(), report.merged().unwrap());
    }

    // Shard-panic isolation and salvage live in the dedicated
    // `tests/supervisor_panic.rs` binary: the cooperative poison hook
    // is process-global, so running it alongside this module's healthy
    // supervised runs would crash their shards too. (It used to live
    // here, driven by the old 64-node CopySet cap; the widened CopySet
    // no longer panics on large node ids.)

    #[test]
    fn zero_deadline_times_out_instead_of_hanging() {
        let trace = mixed_trace();
        let sim = DirectorySim::new(Protocol::Basic, &config());
        let report = sim
            .run_supervised(&trace, 4, Some(std::time::Duration::ZERO))
            .unwrap();
        match report.merged() {
            Err(SimError::ShardTimedOut { budget_ms, .. }) => assert_eq!(budget_ms, 0),
            other => panic!("expected ShardTimedOut, got {other:?}"),
        }
    }

    #[test]
    fn generous_deadline_completes_normally() {
        let trace = mixed_trace();
        let sim = DirectorySim::new(Protocol::Conservative, &config());
        let report = sim
            .run_supervised(&trace, 2, Some(std::time::Duration::from_secs(600)))
            .unwrap();
        assert!(report.all_completed());
        assert_eq!(
            report.merged().unwrap(),
            sim.runner(&trace).shards(2).run().unwrap()
        );
    }

    #[test]
    fn faulted_sharded_runs_are_reproducible() {
        let trace = mixed_trace();
        let sim = DirectorySim::new(Protocol::Basic, &config())
            .with_faults(FaultPlan::uniform(7, 50_000));
        let first = sim.runner(&trace).shards(4).run().unwrap();
        for _ in 0..3 {
            assert_eq!(sim.runner(&trace).shards(4).run().unwrap(), first);
        }
    }

    #[test]
    fn faulted_sharded_delivers_the_sequential_protocol_traffic() {
        let trace = mixed_trace();
        let cfg = config();
        for protocol in Protocol::PAPER_SET {
            let reliable = DirectorySim::new(protocol, &cfg).run(&trace);
            let faulted = DirectorySim::new(protocol, &cfg)
                .with_faults(FaultPlan::uniform(11, 50_000))
                .runner(&trace)
                .shards(4)
                .run()
                .unwrap();
            assert_eq!(faulted.messages.delivered(), reliable.messages.delivered());
            // Protocol events must match except the fault-overhead trio.
            let mut scrubbed = faulted;
            scrubbed.events.nacks = 0;
            scrubbed.events.retries = 0;
            scrubbed.events.backoff_units = 0;
            assert_eq!(scrubbed.events, reliable.events);
        }
    }
}

#[cfg(test)]
mod stream_tests {
    use mcc_trace::{Addr, MemRef, NodeId, Trace, TraceStream};

    use crate::checkpoint::{stream_fingerprint, StreamCheckpoint};
    use crate::error::SimError;
    use crate::faults::FaultPlan;
    use crate::policy::Protocol;
    use crate::repr::DirectoryRepr;
    use crate::sim::{DirectorySim, DirectorySimConfig};

    fn gen_stream(refs: u64, nodes: u16) -> TraceStream {
        TraceStream::from_generator(refs, move |i| {
            // A deterministic mix of migratory blocks (passed around),
            // widely shared blocks, and node-private blocks.
            let node = NodeId::new(((i / 3) % u64::from(nodes)) as u16);
            let obj = i % 24;
            let addr = Addr::new(obj * 64 + (i % 3) * 8);
            if i % 3 == 2 {
                MemRef::write(node, addr)
            } else {
                MemRef::read(node, addr)
            }
        })
    }

    fn materialize(stream: &TraceStream) -> Trace {
        stream.collect_trace().unwrap()
    }

    fn config() -> DirectorySimConfig {
        DirectorySimConfig {
            nodes: 8,
            ..DirectorySimConfig::default()
        }
    }

    #[test]
    fn sequential_stream_run_matches_materialized() {
        let stream = gen_stream(3000, 8);
        let trace = materialize(&stream);
        let sim = DirectorySim::new(Protocol::Basic, &config());
        assert_eq!(
            sim.try_run_stream(&stream).unwrap(),
            sim.try_run(&trace).unwrap()
        );
    }

    #[test]
    fn sharded_stream_run_matches_materialized_for_all_k() {
        let stream = gen_stream(3000, 8);
        let trace = materialize(&stream);
        let sim = DirectorySim::new(Protocol::Aggressive, &config());
        let reference = sim.runner(&trace).shards(4).run().unwrap();
        for k in [1usize, 2, 4, 8] {
            assert_eq!(
                sim.try_run_stream_sharded(&stream, k).unwrap(),
                reference,
                "K = {k}"
            );
        }
    }

    #[test]
    fn stream_runs_agree_across_representations() {
        let stream = gen_stream(2000, 8);
        let trace = materialize(&stream);
        for directory in [
            DirectoryRepr::FullMap,
            DirectoryRepr::LimitedPointer { pointers: 2 },
            DirectoryRepr::CoarseVector { region_size: 4 },
            DirectoryRepr::Sparse {
                pointers: 2,
                region_size: 4,
            },
        ] {
            let cfg = DirectorySimConfig {
                directory,
                ..config()
            };
            let sim = DirectorySim::new(Protocol::Basic, &cfg);
            assert_eq!(
                sim.try_run_stream(&stream).unwrap(),
                sim.try_run(&trace).unwrap(),
                "repr {directory}"
            );
        }
    }

    #[test]
    fn fingerprint_distinguishes_streams_cheaply() {
        let a = gen_stream(1000, 8);
        let b = gen_stream(1001, 8);
        let fa = stream_fingerprint(&a).unwrap();
        assert_eq!(fa, stream_fingerprint(&a).unwrap());
        assert_ne!(fa, stream_fingerprint(&b).unwrap(), "length must matter");
        // Same length, one record changed at the end probe.
        let c = TraceStream::from_generator(1000, |i| {
            if i == 999 {
                MemRef::write(NodeId::new(7), Addr::new(0xdead0))
            } else {
                gen(i)
            }
        });
        fn gen(i: u64) -> MemRef {
            let node = NodeId::new(((i / 3) % 8) as u16);
            let obj = i % 24;
            let addr = Addr::new(obj * 64 + (i % 3) * 8);
            if i % 3 == 2 {
                MemRef::write(node, addr)
            } else {
                MemRef::read(node, addr)
            }
        }
        assert_ne!(fa, stream_fingerprint(&c).unwrap());
        // The filter does not change identity.
        let filtered = a.clone().with_shard_filter(config().block_size, 0, 4);
        assert_eq!(fa, stream_fingerprint(&filtered).unwrap());
    }

    #[test]
    fn stream_checkpoint_roundtrips_through_bytes() {
        let stream = gen_stream(500, 8);
        let sim = DirectorySim::new(Protocol::Aggressive, &config())
            .with_faults(FaultPlan::uniform(5, 40_000));
        let ckpt = sim.stream_checkpoint_after(&stream, 2, 200).unwrap();
        let mut bytes = Vec::new();
        ckpt.write_to(&mut bytes).unwrap();
        let back = StreamCheckpoint::read_from(&mut bytes.as_slice()).unwrap();
        assert_eq!(back, ckpt);
        assert_eq!(back.total_records(), 500);
        assert!(!back.is_complete());
    }

    #[test]
    fn corrupt_stream_checkpoints_are_rejected_not_panicked() {
        let stream = gen_stream(300, 8);
        let sim = DirectorySim::new(Protocol::Basic, &config());
        let ckpt = sim.stream_checkpoint_after(&stream, 1, 100).unwrap();
        let mut bytes = Vec::new();
        ckpt.write_to(&mut bytes).unwrap();
        // Truncations and single-bit flips at every offset must produce
        // a typed error, never a panic or a silently-wrong snapshot.
        for cut in 0..bytes.len().min(64) {
            let _ = StreamCheckpoint::read_from(&mut &bytes[..cut]);
        }
        for bit in 0..(bytes.len() * 8).min(512) {
            let mut corrupt = bytes.clone();
            corrupt[bit / 8] ^= 1 << (bit % 8);
            if let Ok(back) = StreamCheckpoint::read_from(&mut corrupt.as_slice()) {
                assert_eq!(back, ckpt, "undetected corruption at bit {bit}");
            }
        }
    }

    #[test]
    fn resume_refuses_wrong_stream_and_wrong_identity() {
        let stream = gen_stream(400, 8);
        let sim = DirectorySim::new(Protocol::Basic, &config());
        let ckpt = sim.stream_checkpoint_after(&stream, 1, 100).unwrap();

        // Different length.
        let longer = gen_stream(401, 8);
        assert!(matches!(
            sim.resume_stream_from(&longer, &ckpt, None),
            Err(SimError::BadCheckpoint { .. })
        ));
        // Same length, different contents.
        let other = TraceStream::from_generator(400, |i| {
            MemRef::read(NodeId::new((i % 8) as u16), Addr::new(i * 16))
        });
        assert!(matches!(
            sim.resume_stream_from(&other, &ckpt, None),
            Err(SimError::BadCheckpoint { .. })
        ));
        // Different protocol.
        let other_sim = DirectorySim::new(Protocol::Conventional, &config());
        assert!(matches!(
            other_sim.resume_stream_from(&stream, &ckpt, None),
            Err(SimError::BadCheckpoint { .. })
        ));
    }
}
