//! `stream-wide`: a generator-backed stream over 256 nodes, aggressive
//! protocol, `FastEngine`, round-robin placement, K=2 block-hash
//! shards. A full-map cell and a Dir4B cell each run through
//! `run_stream_resumable` with a handful of checkpoint saves. Trace
//! decode, the shard filter (each shard decodes the whole stream), wide
//! copy sets, representation charging and checkpoint writes do the
//! work; the cache model and the reference engine sit idle.

use std::cell::Cell;
use std::path::{Path, PathBuf};
use std::thread;

use mcc_core::{
    stream_fingerprint, AnyEngine, CheckpointPolicy, DirectoryRepr, DirectorySim,
    DirectorySimConfig, Engine, EngineKind, PlacementPolicy, Protocol, SimResult, StreamCheckpoint,
};
use mcc_trace::{Addr, MemRef, NodeId, TraceStream};

use crate::spans::Tracer;
use crate::{
    median, repeated, set_trace_summary, set_window, timed_passes, Report, RunArgs, Sample,
};

const NODES: u16 = 256;
const SHARDS: usize = 2;
const PROTOCOL: Protocol = Protocol::Aggressive;
/// References per cell.
const REFS: u64 = 16_000_000;
/// Checkpoint cadence: each shard saves as its cursor crosses every
/// quarter of the stream, and once more at the end.
const EVERY: u64 = REFS / 4;
/// Snapshot saves per cell: three interior quarter marks per shard,
/// plus each shard's final save.
const SAVES: usize = SHARDS * 4;
/// Records of the prefix the parity and resume checks replay.
const PREFIX: u64 = 400_000;
/// Records per decode chunk in the traced decomposition.
const CHUNK: usize = 1 << 16;
const SETUP_REPS: usize = 3;

thread_local! {
    /// Records a counted stream produced on this thread: a per-thread
    /// count, so shards do not contend on it.
    static DECODED: Cell<u64> = const { Cell::new(0) };
}

const CELLS: [(&str, DirectoryRepr); 2] = [
    ("full-map", DirectoryRepr::FullMap),
    ("dir4b", DirectoryRepr::LimitedPointer { pointers: 4 }),
];

/// The seed's variant of the mix: which node starts the rotations and
/// the strides of the rotating readers. Addresses do not depend on the
/// seed, so every seed splits the blocks between the shards the same
/// way and `shard.imbalance` is a property of the mix, not of the seed.
#[derive(Clone, Copy)]
struct Mix {
    offset: u64,
    reader_stride: u64,
    writer_stride: u64,
}

impl Mix {
    fn from_seed(seed: u64) -> Mix {
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        let h = z ^ (z >> 31);
        Mix {
            offset: h % u64::from(NODES),
            reader_stride: [7, 11, 13, 19][(h >> 8) as usize & 3],
            writer_stride: [11, 5, 9, 21][(h >> 10) as usize & 3],
        }
    }

    /// Record `i`: epochs of eight references mix a migratory ring
    /// (read then write, handed to the next node each epoch), four hot
    /// read-shared blocks whose readers rotate over the machine with a
    /// write every 31 epochs that fans invalidations out over the
    /// accumulated copy set, and per-node private traffic.
    fn record(&self, i: u64) -> MemRef {
        let nodes = u64::from(NODES);
        let node = |x: u64| NodeId::new((x.wrapping_add(self.offset) % nodes) as u16);
        let epoch = i / 8;
        match i % 8 {
            // Object `epoch % 256` moves one node further round the
            // machine on each visit.
            0 => MemRef::read(node(epoch + epoch / 256), Addr::new((epoch % 256) * 16)),
            1 => MemRef::write(node(epoch + epoch / 256), Addr::new((epoch % 256) * 16)),
            2..=4 => {
                let hot = Addr::new((1 << 20) + (i % 4) * 16);
                MemRef::read(node(epoch.wrapping_mul(self.reader_stride) + i), hot)
            }
            5 => {
                let hot = Addr::new((1 << 20) + (epoch % 4) * 16);
                if epoch % 31 == 30 {
                    MemRef::write(node(epoch), hot)
                } else {
                    MemRef::read(node(epoch.wrapping_mul(self.writer_stride) + 3), hot)
                }
            }
            _ => {
                let owner = (epoch + i) % nodes;
                let addr = Addr::new((1 << 24) + owner * 4096 + (i % 8) * 16);
                if i.is_multiple_of(3) {
                    MemRef::write(node(owner), addr)
                } else {
                    MemRef::read(node(owner), addr)
                }
            }
        }
    }

    /// A `refs`-record stream of the mix. A counted stream adds every
    /// record it produces to the calling thread's [`DECODED`].
    fn stream(self, refs: u64, counted: bool) -> TraceStream {
        if counted {
            TraceStream::from_generator(refs, move |i| {
                DECODED.with(|n| n.set(n.get() + 1));
                self.record(i)
            })
        } else {
            TraceStream::from_generator(refs, move |i| self.record(i))
        }
    }
}

fn sim(protocol: Protocol, directory: DirectoryRepr) -> DirectorySim {
    DirectorySim::new(protocol, &config(directory)).with_engine(EngineKind::Fast)
}

fn config(directory: DirectoryRepr) -> DirectorySimConfig {
    DirectorySimConfig {
        nodes: NODES,
        directory,
        placement: PlacementPolicy::RoundRobin,
        ..DirectorySimConfig::default()
    }
}

fn checkpoint_path(dir: &Path, cell: &str) -> PathBuf {
    dir.join(format!("{cell}.ckpt"))
}

pub fn run(args: &RunArgs, tracer: &Tracer, report: &mut Report) {
    let mix = Mix::from_seed(args.seed);
    let dir = args
        .out
        .join(format!("stream-seed{}-{}", args.seed, std::process::id()));

    // --- Set-up: a fresh checkpoint directory, the stream, its probe
    // fingerprint, the cells' simulators and placement, and — as the
    // `scale` sweep does before its cells — the parity and resume gates
    // on a prefix. ---
    let (setup_s, (stream, sims)) = repeated(SETUP_REPS, || {
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("checkpoint directory is creatable");
        let stream = mix.stream(REFS, false);
        std::hint::black_box(stream_fingerprint(&stream).expect("generator streams are readable"));
        let sims: Vec<DirectorySim> = CELLS.iter().map(|&(_, repr)| sim(PROTOCOL, repr)).collect();
        for s in &sims {
            std::hint::black_box(s.resolve_placement_stream(&stream).expect("round robin"));
        }
        check_prefix(mix, report);
        (stream, sims)
    });
    report.set("setup_s", setup_s);

    // --- Timed window: both cells, checkpointed, untraced. ---
    let passes = timed_passes(args.seconds, || {
        CELLS
            .iter()
            .zip(&sims)
            .map(|(&(cell, _), s)| {
                let policy = CheckpointPolicy::new(EVERY, checkpoint_path(&dir, cell));
                let r = s.run_stream_resumable(&stream, SHARDS, &policy);
                report
                    .ok(cell, r)
                    .unwrap_or_else(|| SimResult::empty(PROTOCOL))
            })
            .collect::<Vec<_>>()
    });
    let (samples, results): (Vec<_>, Vec<_>) = passes.into_iter().unzip();
    let cells = &results[0];
    for (i, later) in results.iter().enumerate().skip(1) {
        report.check(later == cells, || format!("pass {i} differs from pass 0"));
    }
    for (&(cell, _), r) in CELLS.iter().zip(cells) {
        report.check_result(cell, r);
        let saved = StreamCheckpoint::load(&checkpoint_path(&dir, cell));
        if let Some(ckpt) = report.ok(&format!("{cell} checkpoint load"), saved) {
            report.check(ckpt.is_complete() && ckpt.total_records() == REFS, || {
                format!("{cell}: final checkpoint is not a complete {REFS}-record snapshot")
            });
        }
    }
    let msgs: u64 = cells.iter().map(SimResult::total_messages).sum();
    let refs = REFS * CELLS.len() as u64;
    set_window(report, &samples, refs, msgs);

    // Model metrics, on the full-map cell; the conventional baseline
    // runs once, outside the window.
    let full_map = &cells[0];
    let conventional =
        sim(Protocol::Conventional, DirectoryRepr::FullMap).try_run_stream_sharded(&stream, SHARDS);
    if let Some(conv) = report.ok("conventional full-map", conventional) {
        report.set("msg_reduction_pct", full_map.percent_reduction_vs(&conv));
    }
    let per_ref = |r: &SimResult| r.total_messages() as f64 / REFS as f64;
    report.set("msgs_per_ref", per_ref(full_map));
    report.set_sim(full_map);
    report.set("repr.msgs_per_ref.full-map", per_ref(full_map));
    report.set("repr.msgs_per_ref.dir4b", per_ref(&cells[1]));
    report.set(
        "repr.broadcast_invalidations",
        cells[1].events.broadcast_invalidations as f64,
    );

    if tracer.is_on() {
        traced(mix, &dir, &sims, cells, &samples, tracer, report);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// K=2 against the sequential run, and a resume from a mid-prefix
/// checkpoint through a re-created stream against the uninterrupted
/// run, both on a prefix of the stream.
fn check_prefix(mix: Mix, report: &mut Report) {
    let prefix = mix.stream(PREFIX, false);
    let s = sim(PROTOCOL, DirectoryRepr::FullMap);
    let sequential = report.ok("prefix sequential", s.try_run_stream(&prefix));
    let sharded = report.ok("prefix K=2", s.try_run_stream_sharded(&prefix, SHARDS));
    let cut = s.stream_checkpoint_after(&prefix, SHARDS, PREFIX / 2);
    let resumed = report.ok("prefix checkpoint", cut).and_then(|ckpt| {
        let reopened = mix.stream(PREFIX, false);
        report.ok(
            "prefix resume",
            s.resume_stream_from(&reopened, &ckpt, None),
        )
    });
    if let (Some(seq), Some(k2), Some(res)) = (sequential, sharded, resumed) {
        report.check(seq == k2, || {
            "prefix: K=2 differs from the sequential run".into()
        });
        report.check(res == seq, || {
            "prefix: resumed run differs from uninterrupted".into()
        });
    }
}

/// One cell decomposed into the calls the production loop makes: each
/// shard decodes its filtered stream a chunk at a time, then steps the
/// chunk through the engine. Returns the merged result, the records
/// each shard stepped, and the records the shards decoded.
fn decompose(
    cfg: &DirectorySimConfig,
    s: &DirectorySim,
    stream: &TraceStream,
    tracer: &Tracer,
) -> Result<(SimResult, Vec<u64>, u64), String> {
    let placement = s
        .resolve_placement_stream(stream)
        .map_err(|e| e.to_string())?;
    let outcomes: Vec<Result<(SimResult, u64, u64), String>> = thread::scope(|scope| {
        let handles: Vec<_> = (0..SHARDS)
            .map(|id| {
                let placement = placement.clone();
                scope.spawn(move || {
                    DECODED.with(|n| n.set(0));
                    let filtered =
                        stream
                            .unfiltered()
                            .with_shard_filter(cfg.block_size, id, SHARDS);
                    let mut engine = AnyEngine::new(EngineKind::Fast, PROTOCOL, cfg, placement);
                    let mut records = filtered.records().map_err(|e| e.to_string())?;
                    let mut chunk: Vec<MemRef> = Vec::with_capacity(CHUNK);
                    let mut stepped = 0u64;
                    loop {
                        chunk.clear();
                        tracer.span("mcc-trace", "decode", || {
                            for item in records.by_ref().take(CHUNK) {
                                chunk.push(item.map_err(|e| e.to_string())?.1);
                            }
                            Ok::<(), String>(())
                        })?;
                        if chunk.is_empty() {
                            break;
                        }
                        stepped += chunk.len() as u64;
                        tracer
                            .span("mcc-core", "try_step", || {
                                chunk.iter().try_for_each(|&r| engine.try_step(r).map(drop))
                            })
                            .map_err(|e| e.to_string())?;
                    }
                    tracer
                        .span("mcc-core", "verify", || engine.verify())
                        .map_err(|e| e.to_string())?;
                    Ok((engine.finish(), stepped, DECODED.with(Cell::get)))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("shard thread panicked"))
            .collect()
    });
    let mut merged = SimResult::empty(PROTOCOL);
    let mut stepped = Vec::with_capacity(SHARDS);
    let mut decoded = 0;
    for outcome in outcomes {
        let (r, n, d) = outcome?;
        merged += r;
        stepped.push(n);
        decoded += d;
    }
    Ok((merged, stepped, decoded))
}

/// The traced run: the window again as decode and step chunks plus the
/// cell's checkpoint saves, then probes of an unfiltered decode and of
/// the K=1 run.
fn traced(
    mix: Mix,
    dir: &Path,
    sims: &[DirectorySim],
    untraced: &[SimResult],
    samples: &[Sample],
    tracer: &Tracer,
    report: &mut Report,
) {
    let stream = mix.stream(REFS, true);
    let mut shard_refs = Vec::new();
    let mut decoded = 0;
    let mut saved_bytes = 0;
    let ((), pass) = tracer.pass(|| {
        for ((&(cell, repr), s), want) in CELLS.iter().zip(sims).zip(untraced) {
            let decomposed = decompose(&config(repr), s, &stream, tracer);
            if let Some((r, stepped, d)) = report.ok(&format!("{cell} decomposition"), decomposed) {
                decoded += d;
                report.check(&r == want, || {
                    format!("{cell}: traced decomposition differs from the untraced run")
                });
                shard_refs.push(stepped);
            }
            // The saves the untraced cell made, of its final snapshot.
            let path = checkpoint_path(dir, cell);
            if let Some(ckpt) = report.ok("checkpoint reload", StreamCheckpoint::load(&path)) {
                for _ in 0..SAVES {
                    let saved =
                        tracer.span("mcc-core", "StreamCheckpoint::save", || ckpt.save(&path));
                    report.ok("checkpoint save", saved);
                }
                saved_bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
            }
        }
    });

    let stepped: u64 = shard_refs.iter().flatten().sum();
    let per_stepped = |name: &str| tracer.total_secs(name) * 1e9 / stepped as f64;
    report.set("engine.ns_per_ref.fast-wide", per_stepped("try_step"));
    report.set("trace.ns_per_ref.filtered", per_stepped("decode"));
    report.set("trace.scan_ratio", decoded as f64 / stepped as f64);
    if let Some(full_map) = shard_refs.first() {
        let max = full_map.iter().copied().max().unwrap_or(0) as f64;
        let mean = full_map.iter().sum::<u64>() as f64 / full_map.len() as f64;
        report.set("shard.imbalance", max / mean);
    }
    report.set(
        "checkpoint.save_ms",
        median(&tracer.durations("StreamCheckpoint::save")) * 1e3,
    );
    report.set("checkpoint.bytes", saved_bytes as f64);

    // Probe: one unfiltered pass of decode alone.
    let plain = mix.stream(REFS, false);
    let count = tracer.span("mcc-trace", "decode-unfiltered", || {
        plain
            .records()
            .map(|records| records.filter(Result::is_ok).count())
    });
    if let Some(n) = report.ok("unfiltered decode", count) {
        report.check(n as u64 == REFS, || {
            format!("unfiltered pass yielded {n} records")
        });
    }
    let secs = tracer.total_secs("decode-unfiltered");
    report.set("trace.ns_per_ref.unfiltered", secs * 1e9 / REFS as f64);

    // Probe: the full-map cell at K=1 and K=2, without checkpoints.
    let full = &sims[0];
    let k1 = tracer.span("mcc-core", "run-k1", || {
        full.try_run_stream_sharded(&plain, 1)
    });
    let k2 = tracer.span("mcc-core", "run-k2", || {
        full.try_run_stream_sharded(&plain, SHARDS)
    });
    if let (Some(a), Some(b)) = (report.ok("K=1 run", k1), report.ok("K=2 run", k2)) {
        report.check(a == b, || "full stream: K=1 and K=2 differ".into());
    }
    report.set(
        "shard.speedup_k2",
        tracer.total_secs("run-k1") / tracer.total_secs("run-k2"),
    );
    set_trace_summary(report, tracer, pass, samples);
}
