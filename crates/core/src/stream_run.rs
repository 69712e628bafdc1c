//! Out-of-core simulation: directory runs driven by a [`TraceStream`]
//! instead of a materialized [`Trace`](mcc_trace::Trace).
//!
//! A materialized run holds the whole trace in memory; these paths
//! hold one record at a time, so a billion-reference trace simulates
//! in an RSS bounded by the *directory state* (blocks touched), never
//! by the trace length. Everything else is deliberately identical to
//! the materialized engine:
//!
//! * **Placement** is resolved by a single streaming pass over the
//!   **full, unfiltered** stream — profiling a shard's sub-stream
//!   could home pages differently, so every path (sequential, sharded,
//!   resumed) profiles the same records the materialized
//!   [`DirectorySim::try_run`] would and reaches the same placement.
//! * **Sharding** composes the stream with the block-hash filter
//!   ([`TraceStream::with_shard_filter`]); each shard replays exactly
//!   the sub-trace [`Trace::partition_by_block`] would hand it, in the
//!   same order, so the merged [`SimResult`] is bit-exact with
//!   [`DirectorySim::try_run_sharded`].
//! * **Checkpoints** ([`StreamCheckpoint`]) phrase every cursor as an
//!   **absolute record index** into the underlying stream. Absolute
//!   indices mean the same thing in every shard and survive re-opening
//!   the stream, so a killed run resumes with one O(1) seek per shard
//!   ([`TraceStream::records_from`]) — no replay, no materialization.
//!   Cadence is absolute too: a snapshot is published whenever a
//!   shard's cursor crosses a multiple of `policy.every`, so original
//!   and resumed runs publish at the same boundaries.
//!
//! A checkpoint cannot carry an 11 GB trace, and re-hashing a billion
//! records on resume would defeat the O(1) seek, so stream identity is
//! checked by a **probe fingerprint** ([`stream_fingerprint`]): the
//! total record count plus up to 64 records sampled at evenly spaced
//! absolute indices (always including the first and last). Both stream
//! sources are index-addressable, which makes the probe O(64)
//! regardless of trace length; a wrong trace, a different generator,
//! or a resized file is rejected before any engine state is rebuilt.

use std::io::{Read, Write};
use std::path::Path;
use std::sync::Mutex;
use std::thread;

use mcc_placement::PagePlacement;
use mcc_trace::{ReadTraceError, TraceStream};

use crate::checkpoint::{
    decode_config, decode_fault_plan, decode_protocol, encode_config, encode_fault_plan,
    encode_protocol, fnv1a_64, prev_path, put_u16, put_u32, put_u64, read_envelope,
    sibling_tmp_path, write_envelope, CheckpointError, CheckpointPolicy, EngineSnapshot,
    PayloadReader,
};
use crate::engine::Engine;
use crate::error::SimError;
use crate::faults::FaultPlan;
use crate::policy::Protocol;
use crate::result::SimResult;
use crate::sim::{DirectorySim, DirectorySimConfig, PlacementPolicy};
use crate::storage::{RealStorage, Storage};

/// Magic + format version header of a streaming checkpoint file:
/// `MCCR` (resumable stream), version 1, three bytes of padding (the
/// MCCT convention). Distinct from every other on-disk magic, so a
/// live shard snapshot (`MCCS`) handed to [`StreamCheckpoint::load`]
/// fails as bad magic instead of mis-decoding.
pub const STREAM_CHECKPOINT_MAGIC: [u8; 8] = *b"MCCR\x01\0\0\0";

fn trace_err(e: ReadTraceError) -> SimError {
    SimError::TraceUnreadable {
        reason: e.to_string(),
    }
}

/// The probe fingerprint identifying a stream's underlying trace: FNV-1a
/// over the total record count and up to 64 `(index, node, op, addr)`
/// probes at evenly spaced absolute indices, first and last included.
/// Any shard filter on `stream` is ignored — identity belongs to the
/// underlying trace.
///
/// O(64) for any trace length; collisions require agreeing on the count
/// *and* all sampled records, which no accidental corruption (and no
/// honest re-configuration mistake) does.
///
/// # Errors
///
/// [`ReadTraceError`] when a probe cannot be read.
pub fn stream_fingerprint(stream: &TraceStream) -> Result<u64, ReadTraceError> {
    let full = stream.unfiltered();
    let total = full.len();
    let mut bytes = Vec::with_capacity(8 + 64 * 19);
    put_u64(&mut bytes, total);
    if total > 0 {
        let probes = 64u64.min(total);
        for k in 0..probes {
            let i = if probes == 1 {
                0
            } else {
                ((u128::from(k) * u128::from(total - 1)) / u128::from(probes - 1)) as u64
            };
            let r = full.record_at(i)?;
            put_u64(&mut bytes, i);
            put_u16(&mut bytes, r.node.index() as u16);
            bytes.push(u8::from(r.op.is_write()));
            put_u64(&mut bytes, r.addr.get());
        }
    }
    Ok(fnv1a_64(&bytes))
}

// ---------------------------------------------------------------------
// Streaming checkpoints
// ---------------------------------------------------------------------

/// One shard's progress through a streamed run: the absolute record
/// index up to which the underlying stream has been consumed (every
/// owned record below `cursor` is applied) and the engine state at that
/// boundary.
#[derive(Clone, Debug, PartialEq)]
pub struct StreamShardSnapshot {
    pub(crate) cursor: u64,
    pub(crate) engine: EngineSnapshot,
}

impl StreamShardSnapshot {
    /// Absolute record index the shard's next pass resumes from.
    pub fn cursor(&self) -> u64 {
        self.cursor
    }
}

/// A resumable snapshot of a streamed directory run.
///
/// The streaming sibling of [`Checkpoint`](crate::Checkpoint): same
/// envelope discipline (versioned magic, length, checksum, typed
/// rejection of anything malformed), but cursors are absolute indices
/// into the underlying stream and trace identity is the probe
/// fingerprint of [`stream_fingerprint`] instead of per-shard
/// whole-sub-trace hashes — a streamed trace is exactly what cannot be
/// re-hashed in full on every resume.
#[derive(Clone, Debug, PartialEq)]
pub struct StreamCheckpoint {
    pub(crate) protocol: Protocol,
    pub(crate) config: DirectorySimConfig,
    pub(crate) faults: Option<FaultPlan>,
    pub(crate) total: u64,
    pub(crate) identity: u64,
    pub(crate) shards: Vec<StreamShardSnapshot>,
}

impl StreamCheckpoint {
    /// The protocol the snapshotted run simulates.
    pub fn protocol(&self) -> Protocol {
        self.protocol
    }

    /// Number of shards the run was partitioned into (1 = sequential).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Per-shard progress snapshots.
    pub fn shards(&self) -> &[StreamShardSnapshot] {
        &self.shards
    }

    /// Total records in the underlying stream.
    pub fn total_records(&self) -> u64 {
        self.total
    }

    /// Whether every shard has consumed the whole stream (resuming
    /// replays nothing).
    pub fn is_complete(&self) -> bool {
        self.shards.iter().all(|s| s.cursor == self.total)
    }

    /// Serializes the checkpoint to a writer.
    ///
    /// # Errors
    ///
    /// Any I/O failure of the writer.
    pub fn write_to<W: Write>(&self, w: &mut W) -> Result<(), CheckpointError> {
        let mut payload = Vec::new();
        encode_protocol(&mut payload, self.protocol);
        encode_config(&mut payload, &self.config);
        encode_fault_plan(&mut payload, self.faults.as_ref());
        put_u64(&mut payload, self.total);
        put_u64(&mut payload, self.identity);
        put_u32(&mut payload, self.shards.len() as u32);
        for s in &self.shards {
            put_u64(&mut payload, s.cursor);
            s.engine.encode_into(&mut payload);
        }
        write_envelope(w, STREAM_CHECKPOINT_MAGIC, &payload)
    }

    /// Deserializes a streaming checkpoint, verifying magic, version,
    /// length, and checksum.
    ///
    /// # Errors
    ///
    /// A typed [`CheckpointError`] for every way the input can be
    /// malformed; never panics.
    pub fn read_from<R: Read>(r: &mut R) -> Result<StreamCheckpoint, CheckpointError> {
        let payload = read_envelope(r, STREAM_CHECKPOINT_MAGIC)?;
        let mut r = PayloadReader::new(&payload);
        let protocol = decode_protocol(&mut r)?;
        let config = decode_config(&mut r)?;
        let faults = decode_fault_plan(&mut r)?;
        let total = r.u64()?;
        let identity = r.u64()?;
        let count = r.u32()?;
        let count = r.check_count(u64::from(count), 8)?;
        let mut shards = Vec::with_capacity(count);
        for _ in 0..count {
            let cursor = r.u64()?;
            let engine = EngineSnapshot::decode(&mut r)?;
            if cursor > total {
                return Err(CheckpointError::Corrupt("cursor beyond stream length"));
            }
            // A filtered shard steps only its owned records, so its
            // step count is bounded by — not equal to — the cursor.
            if engine.steps > cursor {
                return Err(CheckpointError::Corrupt("engine steps beyond cursor"));
            }
            shards.push(StreamShardSnapshot { cursor, engine });
        }
        if shards.is_empty() {
            return Err(CheckpointError::Corrupt("checkpoint with zero shards"));
        }
        r.finish()?;
        Ok(StreamCheckpoint {
            protocol,
            config,
            faults,
            total,
            identity,
            shards,
        })
    }

    /// Writes the checkpoint to `path` durably and atomically with
    /// previous-generation rotation, exactly as
    /// [`Checkpoint::save`](crate::Checkpoint::save) does.
    ///
    /// # Errors
    ///
    /// Any filesystem failure.
    pub fn save(&self, path: &Path) -> Result<(), CheckpointError> {
        self.save_with(&RealStorage, path)
    }

    /// [`StreamCheckpoint::save`] through an explicit [`Storage`].
    ///
    /// # Errors
    ///
    /// Any storage failure (including injected ones).
    pub fn save_with<S: Storage + ?Sized>(
        &self,
        storage: &S,
        path: &Path,
    ) -> Result<(), CheckpointError> {
        let tmp = sibling_tmp_path(path);
        let mut bytes = Vec::new();
        self.write_to(&mut bytes)?;
        storage.write_file(&tmp, &bytes)?;
        storage.sync(&tmp)?;
        if storage.exists(path) {
            storage.rename(path, &prev_path(path))?;
        }
        storage.rename(&tmp, path)?;
        storage.sync_parent(path).map_err(CheckpointError::from)
    }

    /// Reads a streaming checkpoint from `path`.
    ///
    /// # Errors
    ///
    /// See [`StreamCheckpoint::read_from`]; file-open failures surface
    /// as [`CheckpointError::Io`].
    pub fn load(path: &Path) -> Result<StreamCheckpoint, CheckpointError> {
        StreamCheckpoint::load_from(&RealStorage, path)
    }

    /// [`StreamCheckpoint::load`] through an explicit [`Storage`].
    ///
    /// # Errors
    ///
    /// As for [`StreamCheckpoint::load`].
    pub fn load_from<S: Storage + ?Sized>(
        storage: &S,
        path: &Path,
    ) -> Result<StreamCheckpoint, CheckpointError> {
        let bytes = storage.read(path).map_err(CheckpointError::Io)?;
        StreamCheckpoint::read_from(&mut bytes.as_slice())
    }
}

/// Shared progress ledger for streamed resumable runs: every published
/// file contains every shard's latest snapshot, taken under one lock.
struct StreamLedger<'a> {
    sim: &'a DirectorySim,
    policy: &'a CheckpointPolicy,
    storage: &'a dyn Storage,
    total: u64,
    identity: u64,
    shards: Mutex<Vec<StreamShardSnapshot>>,
}

impl StreamLedger<'_> {
    fn publish(&self, shard: usize, snapshot: StreamShardSnapshot) -> Result<(), SimError> {
        let mut shards = self.shards.lock().expect("ledger lock poisoned");
        shards[shard] = snapshot;
        let checkpoint = StreamCheckpoint {
            protocol: self.sim.protocol,
            config: self.sim.config,
            faults: self.sim.faults,
            total: self.total,
            identity: self.identity,
            shards: shards.clone(),
        };
        checkpoint
            .save_with(self.storage, &self.policy.path)
            .map_err(|e| SimError::BadCheckpoint {
                reason: format!("writing {}: {e}", self.policy.path.display()),
            })
    }
}

// ---------------------------------------------------------------------
// Streaming runs
// ---------------------------------------------------------------------

impl DirectorySim {
    /// Resolves page placement from a stream exactly as a materialized
    /// run resolves it from the whole trace: one pass over the **full**
    /// stream (any shard filter on `stream` is ignored), through the
    /// same single-pass resolvers. Streaming and materialized runs of
    /// the same trace therefore home every page identically — the
    /// foundation of their bit-exactness.
    ///
    /// # Errors
    ///
    /// [`SimError::TraceUnreadable`] when the stream cannot be read.
    pub fn resolve_placement_stream(
        &self,
        stream: &TraceStream,
    ) -> Result<PagePlacement, SimError> {
        let full = stream.unfiltered();
        let nodes = self.config.nodes;
        if self.config.placement == PlacementPolicy::RoundRobin {
            return Ok(PagePlacement::round_robin(nodes));
        }
        // The resolvers take a plain `MemRef` iterator, so a mid-pass
        // read error is parked in a cell and re-raised afterwards —
        // the resolver drains the iterator before returning, so a
        // parked error is always observed before the placement is used.
        let mut error: Option<ReadTraceError> = None;
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

    /// Runs the stream sequentially, producing exactly the result of
    /// [`DirectorySim::try_run`] on the materialized trace — while
    /// holding one record in memory at a time. A shard filter on
    /// `stream` restricts the replayed records (placement still comes
    /// from the full stream), which is how a single shard of a larger
    /// partition is simulated in isolation.
    ///
    /// # Errors
    ///
    /// Everything [`DirectorySim::try_run`] can report, plus
    /// [`SimError::TraceUnreadable`] for stream failures.
    pub fn try_run_stream(&self, stream: &TraceStream) -> Result<SimResult, SimError> {
        let placement = self.resolve_placement_stream(stream)?;
        let mut engine = self.fresh_engine(placement, 0, 1);
        for item in stream.records().map_err(trace_err)? {
            let (_, r) = item.map_err(trace_err)?;
            engine.try_step(r)?;
        }
        engine.verify()?;
        Ok(engine.finish())
    }

    /// Runs the stream on `shards` parallel engines composed from
    /// block-hash shard filters, producing exactly the result of
    /// [`DirectorySim::try_run_sharded`] on the materialized trace.
    /// Each shard opens its own filtered pass over the stream, so peak
    /// memory is `shards` read buffers plus directory state — never the
    /// trace.
    ///
    /// # Errors
    ///
    /// Everything [`DirectorySim::try_run_sharded`] can report, plus
    /// [`SimError::TraceUnreadable`] for stream failures.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn try_run_stream_sharded(
        &self,
        stream: &TraceStream,
        shards: usize,
    ) -> Result<SimResult, SimError> {
        assert!(shards > 0, "shard count must be positive");
        self.check_shardable(shards)?;
        let placement = self.resolve_placement_stream(stream)?;
        let outcomes: Vec<Result<SimResult, SimError>> = thread::scope(|scope| {
            let handles: Vec<_> = (0..shards)
                .map(|id| {
                    let placement = placement.clone();
                    let filtered =
                        stream
                            .unfiltered()
                            .with_shard_filter(self.config.block_size, id, shards);
                    scope.spawn(move || -> Result<SimResult, SimError> {
                        let mut engine = self.fresh_engine(placement, id as u32, shards);
                        for item in filtered.records().map_err(trace_err)? {
                            let (_, r) = item.map_err(trace_err)?;
                            engine.try_step(r)?;
                        }
                        engine.verify()?;
                        Ok(engine.finish())
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("stream shard thread panicked"))
                .collect()
        });
        let mut merged = SimResult::empty(self.protocol);
        for outcome in outcomes {
            merged += outcome?;
        }
        Ok(merged)
    }

    /// Runs the stream with periodic crash-safe snapshots, producing
    /// exactly the result of [`DirectorySim::try_run_stream`] (for
    /// `shards == 1`) or [`DirectorySim::try_run_stream_sharded`]. A
    /// snapshot lands atomically at `policy.path` whenever a shard's
    /// absolute cursor crosses a multiple of `policy.every`, and once
    /// more on completion. If the process dies,
    /// [`DirectorySim::resume_stream_from`] with a **re-opened** stream
    /// seeks straight to each shard's cursor and replays only the tail.
    ///
    /// # Errors
    ///
    /// Everything the underlying run can report, plus
    /// [`SimError::BadCheckpoint`] when a snapshot cannot be written.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn run_stream_resumable(
        &self,
        stream: &TraceStream,
        shards: usize,
        policy: &CheckpointPolicy,
    ) -> Result<SimResult, SimError> {
        self.stream_resumable(stream, shards, None, Some(policy), &RealStorage)
    }

    /// [`DirectorySim::run_stream_resumable`] through an explicit
    /// [`Storage`] — the fault-injection seam.
    ///
    /// # Errors
    ///
    /// As for [`DirectorySim::run_stream_resumable`].
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn run_stream_resumable_on(
        &self,
        stream: &TraceStream,
        shards: usize,
        policy: &CheckpointPolicy,
        storage: &dyn Storage,
    ) -> Result<SimResult, SimError> {
        self.stream_resumable(stream, shards, None, Some(policy), storage)
    }

    /// Continues a streamed run from `checkpoint`: validates the
    /// identity (protocol, configuration, fault plan, stream length,
    /// probe fingerprint), seeks each shard to its absolute cursor, and
    /// replays only the tail — reaching a [`SimResult`] bit-exact with
    /// the uninterrupted run. The stream may be a fresh re-open of the
    /// same file or a re-created generator; only its contents matter.
    ///
    /// # Errors
    ///
    /// [`SimError::BadCheckpoint`] when the snapshot does not belong to
    /// this simulation or stream, plus everything the replay reports.
    pub fn resume_stream_from(
        &self,
        stream: &TraceStream,
        checkpoint: &StreamCheckpoint,
        policy: Option<&CheckpointPolicy>,
    ) -> Result<SimResult, SimError> {
        self.stream_resumable(
            stream,
            checkpoint.shard_count(),
            Some(checkpoint),
            policy,
            &RealStorage,
        )
    }

    /// [`DirectorySim::resume_stream_from`] through an explicit
    /// [`Storage`] for the snapshots the resumed run keeps writing.
    ///
    /// # Errors
    ///
    /// As for [`DirectorySim::resume_stream_from`].
    pub fn resume_stream_from_on(
        &self,
        stream: &TraceStream,
        checkpoint: &StreamCheckpoint,
        policy: Option<&CheckpointPolicy>,
        storage: &dyn Storage,
    ) -> Result<SimResult, SimError> {
        self.stream_resumable(
            stream,
            checkpoint.shard_count(),
            Some(checkpoint),
            policy,
            storage,
        )
    }

    /// Replays the stream up to absolute record index `records` (every
    /// shard consumes its owned records below that index) and captures
    /// the state as a [`StreamCheckpoint`] without touching the
    /// filesystem — the programmatic kill, making kill-at-every-
    /// boundary resume-equivalence tests cheap to express.
    ///
    /// # Errors
    ///
    /// Everything the replayed prefix can report.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn stream_checkpoint_after(
        &self,
        stream: &TraceStream,
        shards: usize,
        records: u64,
    ) -> Result<StreamCheckpoint, SimError> {
        assert!(shards > 0, "shard count must be positive");
        self.check_shardable(shards)?;
        let placement = self.resolve_placement_stream(stream)?;
        let total = stream.unfiltered().len();
        let cut = records.min(total);
        let mut snapshots = Vec::with_capacity(shards);
        for id in 0..shards {
            let filtered =
                stream
                    .unfiltered()
                    .with_shard_filter(self.config.block_size, id, shards);
            let mut engine = self.fresh_engine(placement.clone(), id as u32, shards);
            for item in filtered.records().map_err(trace_err)? {
                let (i, r) = item.map_err(trace_err)?;
                if i >= cut {
                    break;
                }
                engine.try_step(r)?;
            }
            snapshots.push(StreamShardSnapshot {
                cursor: cut,
                engine: EngineSnapshot::capture(&engine),
            });
        }
        Ok(StreamCheckpoint {
            protocol: self.protocol,
            config: self.config,
            faults: self.faults,
            total,
            identity: stream_fingerprint(stream).map_err(trace_err)?,
            shards: snapshots,
        })
    }

    fn validate_stream_identity(
        &self,
        ckpt: &StreamCheckpoint,
        total: u64,
        identity: u64,
    ) -> Result<(), SimError> {
        if ckpt.protocol != self.protocol {
            return Err(SimError::BadCheckpoint {
                reason: format!(
                    "snapshot is of protocol {} but this run simulates {}",
                    ckpt.protocol, self.protocol
                ),
            });
        }
        if ckpt.config != self.config {
            return Err(SimError::BadCheckpoint {
                reason: "snapshot configuration differs from this run's".to_string(),
            });
        }
        if ckpt.faults != self.faults {
            return Err(SimError::BadCheckpoint {
                reason: "snapshot fault plan differs from this run's".to_string(),
            });
        }
        if ckpt.total != total {
            return Err(SimError::BadCheckpoint {
                reason: format!(
                    "snapshot covers a {}-record stream but this one holds {total}",
                    ckpt.total
                ),
            });
        }
        if ckpt.identity != identity {
            return Err(SimError::BadCheckpoint {
                reason: "stream probe fingerprint mismatch".to_string(),
            });
        }
        Ok(())
    }

    fn stream_resumable(
        &self,
        stream: &TraceStream,
        shards: usize,
        start: Option<&StreamCheckpoint>,
        policy: Option<&CheckpointPolicy>,
        storage: &dyn Storage,
    ) -> Result<SimResult, SimError> {
        assert!(shards > 0, "shard count must be positive");
        self.check_shardable(shards)?;
        let total = stream.unfiltered().len();
        let identity = stream_fingerprint(stream).map_err(trace_err)?;
        if let Some(ckpt) = start {
            self.validate_stream_identity(ckpt, total, identity)?;
        }
        let placement = self.resolve_placement_stream(stream)?;

        let initial: Vec<StreamShardSnapshot> = match start {
            Some(ckpt) => ckpt.shards.clone(),
            None => (0..shards)
                .map(|id| StreamShardSnapshot {
                    cursor: 0,
                    engine: EngineSnapshot::capture(&self.fresh_engine(
                        placement.clone(),
                        id as u32,
                        shards,
                    )),
                })
                .collect(),
        };

        let ledger = policy.map(|p| StreamLedger {
            sim: self,
            policy: p,
            storage,
            total,
            identity,
            shards: Mutex::new(initial.clone()),
        });

        let run_one = |id: usize| -> Result<SimResult, SimError> {
            let snap = &initial[id];
            let mut engine = snap.engine.restore_any(
                self.engine,
                self.protocol,
                &self.config,
                placement.clone(),
                self.shard_plan(id as u32, shards),
            )?;
            let filtered = if shards == 1 {
                stream.unfiltered()
            } else {
                stream
                    .unfiltered()
                    .with_shard_filter(self.config.block_size, id, shards)
            };
            let every = policy.map_or(0, |p| p.every);
            let mut bucket = snap.cursor.checked_div(every).unwrap_or(0);
            for item in filtered.records_from(snap.cursor).map_err(trace_err)? {
                let (i, r) = item.map_err(trace_err)?;
                engine.try_step(r)?;
                let cursor = i + 1;
                if every > 0 && cursor / every > bucket && cursor < total {
                    bucket = cursor / every;
                    if let Some(ledger) = &ledger {
                        ledger.publish(
                            id,
                            StreamShardSnapshot {
                                cursor,
                                engine: EngineSnapshot::capture(&engine),
                            },
                        )?;
                    }
                }
            }
            engine.verify()?;
            if let Some(ledger) = &ledger {
                ledger.publish(
                    id,
                    StreamShardSnapshot {
                        cursor: total,
                        engine: EngineSnapshot::capture(&engine),
                    },
                )?;
            }
            Ok(engine.finish())
        };

        let outcomes: Vec<Result<SimResult, SimError>> = if shards == 1 {
            vec![run_one(0)]
        } else {
            thread::scope(|scope| {
                let run_one = &run_one;
                let handles: Vec<_> = (0..shards)
                    .map(|id| scope.spawn(move || run_one(id)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("stream resumable shard thread panicked"))
                    .collect()
            })
        };

        let mut merged = SimResult::empty(self.protocol);
        for outcome in outcomes {
            merged += outcome?;
        }
        Ok(merged)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcc_trace::{Addr, MemRef, NodeId, Trace};

    use crate::repr::DirectoryRepr;

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
        let reference = sim.try_run_sharded(&trace, 4).unwrap();
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
