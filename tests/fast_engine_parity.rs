//! Differential parity: the dense `FastEngine` hot path must be
//! bit-exact against the reference `DirectoryEngine` — same `StepInfo`
//! per reference, same message counters, same directory entries, cache
//! states and version tags, same event stream, same errors, and the
//! same final `SimResult` — across all nine protocol points, every
//! placement policy, faulted and fault-free fabrics, sequential and
//! sharded, with infinite caches and with finite caches that evict
//! (a 1-set x 2-way cache and the paper's 4 KB and 64 KB geometries).
//!
//! The fast engine earns its keep only if "fast" never means
//! "different": any divergence here is a bug in the hot path, full
//! stop.

use mcc::cache::{CacheConfig, CacheGeometry};
use mcc::core::{
    AnyEngine, DirectorySim, DirectorySimConfig, Engine, EngineKind, FaultPlan, PlacementPolicy,
    Protocol,
};
use mcc::obs::{lock_sink, shared, BufferSink, Event};
use mcc::placement::PagePlacement;
use mcc::trace::{Addr, BlockSize, MemOp, MemRef, NodeId, Trace};
use mcc_check::protocol_points;

const NODES: u16 = 4;
const BLOCKS: u64 = 8;

fn config() -> DirectorySimConfig {
    DirectorySimConfig {
        nodes: NODES,
        ..DirectorySimConfig::default()
    }
}

/// The finite geometries under test: one that evicts on every set
/// conflict, and the paper's 4 KB and 64 KB 4-way caches.
fn finite_geometries() -> [(&'static str, CacheConfig); 3] {
    let paper = |kb: u64| {
        CacheConfig::Finite(CacheGeometry::paper_default(kb * 1024, BlockSize::B16).unwrap())
    };
    [
        (
            "1x2",
            CacheConfig::Finite(CacheGeometry::new(32, BlockSize::B16, 2).unwrap()),
        ),
        ("4k", paper(4)),
        ("64k", paper(64)),
    ]
}

fn finite_config(cache: CacheConfig) -> DirectorySimConfig {
    DirectorySimConfig { cache, ..config() }
}

/// Block-index stride that maps all `BLOCKS` trace blocks into one
/// cache set, so even the paper geometries evict (8 blocks, 4 ways).
fn conflict_stride(cache: CacheConfig) -> u64 {
    match cache {
        CacheConfig::Finite(g) => g.sets(),
        CacheConfig::Infinite => 1,
    }
}

/// A deterministic mixed trace: migratory hand-offs, read-shared
/// scans, write bursts and random traffic — enough to drive every
/// protocol action (migrate, replicate, upgrades, invalidation
/// broadcasts, reclassifications) over a small block set.
fn parity_trace(seed: u64, len: usize) -> Trace {
    strided_parity_trace(seed, len, 1)
}

/// [`parity_trace`] with block `b` placed at block index `b * stride`.
fn strided_parity_trace(seed: u64, len: usize, stride: u64) -> Trace {
    let mut rng = mcc_prng::SplitMix64::new(seed);
    let mut t = Trace::new();
    while t.len() < len {
        let node = NodeId::new(rng.gen_range(0..u64::from(NODES)) as u16);
        let addr = Addr::new(rng.gen_range(0..BLOCKS) * stride * 16);
        if rng.chance_ppm(350_000) {
            // Migratory visit: read then write from one node.
            t.push(MemRef::read(node, addr));
            t.push(MemRef::write(node, addr));
        } else if rng.chance_ppm(300_000) {
            // Read-shared scan: every node reads the block.
            for n in 0..NODES {
                t.push(MemRef::read(NodeId::new(n), addr));
            }
        } else if rng.chance_ppm(500_000) {
            t.push(MemRef::read(node, addr));
        } else {
            t.push(MemRef::write(node, addr));
        }
    }
    t
}

fn engine_pair(
    protocol: Protocol,
    cfg: &DirectorySimConfig,
    faults: Option<FaultPlan>,
) -> ((AnyEngine, SharedBuffer), (AnyEngine, SharedBuffer)) {
    let build = |kind: EngineKind| {
        let mut engine = AnyEngine::new(kind, protocol, cfg, PagePlacement::round_robin(NODES));
        if let Some(plan) = faults {
            engine = engine.with_faults(plan);
        }
        let (buffer, handle) = shared(BufferSink::new());
        engine.set_sink(Some(handle));
        (engine, buffer)
    };
    let reference = build(EngineKind::Reference);
    let fast = build(EngineKind::Fast);
    assert_eq!(fast.0.kind(), EngineKind::Fast);
    (reference, fast)
}

type SharedBuffer = std::sync::Arc<std::sync::Mutex<BufferSink>>;

fn drain(buffer: &SharedBuffer) -> Vec<Event> {
    std::mem::take(&mut *lock_sink(buffer)).into_events()
}

/// Steps both engines in lockstep over `trace`, comparing everything
/// observable after every reference. Returns early (comparing the
/// errors) if both engines reject a step.
fn lockstep(protocol: Protocol, faults: Option<FaultPlan>, trace: &Trace, label: &str) {
    lockstep_with(protocol, &config(), faults, trace, label);
}

/// [`lockstep`] under an explicit configuration. After every accepted
/// step the engines' snapshots must also match, which pins whole-engine
/// state — eviction victims' directory entries, write-backs and LRU
/// order included — not just the referenced block.
fn lockstep_with(
    protocol: Protocol,
    cfg: &DirectorySimConfig,
    faults: Option<FaultPlan>,
    trace: &Trace,
    label: &str,
) {
    let ((mut reference, ref_events), (mut fast, fast_events)) = engine_pair(protocol, cfg, faults);
    for (i, r) in trace.iter().enumerate() {
        let want = reference.try_step(*r);
        let got = fast.try_step(*r);
        assert_eq!(want, got, "{label} step {i} ({r}): StepInfo/error diverged");
        assert_eq!(
            drain(&ref_events),
            drain(&fast_events),
            "{label} step {i} ({r}): event streams diverged"
        );
        assert_eq!(
            reference.messages(),
            fast.messages(),
            "{label} step {i}: message counters diverged"
        );
        assert_eq!(
            reference.events(),
            fast.events(),
            "{label} step {i}: event counters diverged"
        );
        let block = r.addr.block(BlockSize::B16);
        assert_eq!(
            reference.dir_entry(block),
            fast.dir_entry(block),
            "{label} step {i}: directory entry diverged"
        );
        assert_eq!(
            reference.latest_version(block),
            fast.latest_version(block),
            "{label} step {i}: latest version diverged"
        );
        assert_eq!(
            reference.memory_version(block),
            fast.memory_version(block),
            "{label} step {i}: memory version diverged"
        );
        for n in 0..NODES {
            let node = NodeId::new(n);
            assert_eq!(
                reference.line_state(node, block),
                fast.line_state(node, block),
                "{label} step {i}: line state at node {n} diverged"
            );
            assert_eq!(
                reference.line_version(node, block),
                fast.line_version(node, block),
                "{label} step {i}: line version at node {n} diverged"
            );
        }
        if want.is_err() {
            // Both errored identically; state after an error is
            // implementation-defined (failed runs are discarded).
            return;
        }
        assert_eq!(
            reference.snapshot(),
            fast.snapshot(),
            "{label} step {i} ({r}): engine state diverged"
        );
    }
    // The reference engine's within-node line order is HashMap
    // iteration order; sort by (node, block) before comparing.
    let mut ref_lines = reference.resident_lines();
    let mut fast_lines = fast.resident_lines();
    ref_lines.sort_by_key(|&(node, block, ..)| (node, block));
    fast_lines.sort_by_key(|&(node, block, ..)| (node, block));
    assert_eq!(ref_lines, fast_lines, "{label}: resident lines diverged");
    assert_eq!(
        reference.snapshot(),
        fast.snapshot(),
        "{label}: snapshots diverged"
    );
    reference.verify().expect("reference invariants");
    fast.verify().expect("fast invariants");
    assert_eq!(
        reference.finish(),
        fast.finish(),
        "{label}: final results diverged"
    );
}

#[test]
fn lockstep_parity_across_all_protocol_points() {
    let trace = parity_trace(0x9a17_1e57, 600);
    for protocol in protocol_points() {
        lockstep(protocol, None, &trace, &format!("{protocol} clean"));
    }
}

#[test]
fn lockstep_parity_under_injected_faults() {
    // Fault delivery plans are drawn per transaction from the same
    // deterministic injector stream, so even nack/retry/backoff events
    // must match one-for-one. Several seeds, including a hostile rate
    // that exhausts retries (both engines must fail identically).
    let trace = parity_trace(0xfau64 << 32 | 0x17ed, 400);
    for protocol in protocol_points() {
        for (seed, ppm) in [(11, 40_000), (23, 120_000), (99, 450_000)] {
            lockstep(
                protocol,
                Some(FaultPlan::uniform(seed, ppm)),
                &trace,
                &format!("{protocol} faults({seed},{ppm})"),
            );
        }
    }
}

#[test]
fn full_run_parity_across_all_placements() {
    let trace = parity_trace(0x0071_ace5, 800);
    for protocol in protocol_points() {
        for placement in [
            PlacementPolicy::RoundRobin,
            PlacementPolicy::FirstTouch,
            PlacementPolicy::Profiled,
        ] {
            for faults in [None, Some(FaultPlan::uniform(7, 30_000))] {
                let cfg = DirectorySimConfig {
                    placement,
                    ..config()
                };
                let mut reference =
                    DirectorySim::new(protocol, &cfg).with_engine(EngineKind::Reference);
                let mut fast = DirectorySim::new(protocol, &cfg).with_engine(EngineKind::Fast);
                if let Some(plan) = faults {
                    reference = reference.with_faults(plan);
                    fast = fast.with_faults(plan);
                }
                let want = reference.try_run(&trace);
                let got = fast.try_run(&trace);
                assert_eq!(
                    want,
                    got,
                    "{protocol} {placement:?} faults={}",
                    faults.is_some()
                );
            }
        }
    }
}

#[test]
fn sharded_runs_match_the_sequential_reference_bit_exactly() {
    let trace = parity_trace(0x5aa5_d00d, 800);
    for protocol in protocol_points() {
        let reference = DirectorySim::new(protocol, &config()).with_engine(EngineKind::Reference);
        let fast = DirectorySim::new(protocol, &config()).with_engine(EngineKind::Fast);
        let sequential = reference.try_run(&trace).expect("reference run");
        for shards in [1usize, 4, 8] {
            let sharded_fast = fast
                .runner(&trace)
                .shards(shards)
                .run()
                .expect("fast sharded run");
            assert_eq!(
                sharded_fast, sequential,
                "{protocol} K={shards}: fast sharded diverged from sequential reference"
            );
        }
    }
}

#[test]
fn faulted_event_streams_match_after_scrubbing() {
    // Full-run event-stream parity under faults through the
    // DirectorySim front door. The streams are expected to be
    // *bit-exact* (same injector stream on both sides) — the scrub to
    // fault-free skeletons is a separately-pinned weaker guarantee
    // that stays meaningful even if jitter details ever diverge.
    let trace = parity_trace(0xeeee_0b5e, 400);
    let plan = FaultPlan::uniform(31, 60_000);
    for protocol in protocol_points() {
        let run = |kind: EngineKind| {
            let sim = DirectorySim::new(protocol, &config())
                .with_engine(kind)
                .with_faults(plan);
            let (buffer, handle) = shared(BufferSink::new());
            let result = sim.runner(&trace).sinks(&[handle]).run();
            let events = std::mem::take(&mut *lock_sink(&buffer)).into_events();
            (result, events)
        };
        let (want, ref_stream) = run(EngineKind::Reference);
        let (got, fast_stream) = run(EngineKind::Fast);
        assert_eq!(want, got, "{protocol}: faulted results diverged");
        assert_eq!(
            ref_stream, fast_stream,
            "{protocol}: faulted event streams diverged"
        );
        let scrub = |events: &[Event]| -> Vec<Event> {
            events
                .iter()
                .filter(|e| {
                    !matches!(
                        e,
                        Event::Nack { .. } | Event::Retry { .. } | Event::Backoff { .. }
                    )
                })
                .cloned()
                .collect()
        };
        assert_eq!(
            scrub(&ref_stream),
            scrub(&fast_stream),
            "{protocol}: scrubbed event skeletons diverged"
        );
    }
}

#[test]
fn read_and_write_only_traces_stay_in_parity() {
    // Degenerate corners: single-op traces exercise the pure
    // replication and pure ownership paths with no interleaving.
    for protocol in protocol_points() {
        for op in [MemOp::Read, MemOp::Write] {
            let mut t = Trace::new();
            for i in 0..200u64 {
                let node = NodeId::new((i % u64::from(NODES)) as u16);
                t.push(MemRef::new(node, op, Addr::new((i % BLOCKS) * 16)));
            }
            lockstep(protocol, None, &t, &format!("{protocol} {op:?}-only"));
        }
    }
}

#[test]
fn telemetry_plane_is_inert_and_observes() {
    // The live telemetry plane's sink must be invisible to the
    // simulation: a fully enabled `TelemetrySink` (batched local
    // aggregation publishing into shared atomics) produces bit-exact
    // results against an unobserved run, on both engines — while the
    // plane itself demonstrably sees the event stream.
    use mcc::obs::{NullSink, Telemetry, TelemetrySink, DEFAULT_PUBLISH_EVERY};

    let trace = parity_trace(0x7e1e_0b55, 4_000);
    for protocol in Protocol::PAPER_SET {
        let run = |kind: EngineKind, sink: mcc::obs::SharedSink| {
            let mut engine =
                AnyEngine::new(kind, protocol, &config(), PagePlacement::round_robin(NODES));
            engine.set_sink(Some(sink));
            for r in trace.iter() {
                engine.step(*r);
            }
            engine.finish()
        };
        let plane = Telemetry::new();
        let bare = run(EngineKind::Fast, shared(NullSink).1);
        let traced = run(
            EngineKind::Fast,
            shared(TelemetrySink::new(&plane, DEFAULT_PUBLISH_EVERY)).1,
        );
        assert_eq!(
            bare, traced,
            "{protocol}: a telemetry sink perturbed the fast engine"
        );
        let reference = run(
            EngineKind::Reference,
            shared(TelemetrySink::new(&plane, DEFAULT_PUBLISH_EVERY)).1,
        );
        assert_eq!(
            bare, reference,
            "{protocol}: a telemetry sink perturbed the reference engine"
        );
        // Both traced runs published: one Step record per reference.
        let snapshot = plane.snapshot();
        assert_eq!(
            snapshot.counter(mcc::obs::metrics::names::RECORDS),
            2 * trace.len() as u64,
            "{protocol}: the plane missed records despite inert results"
        );
    }
}

#[test]
fn lockstep_parity_with_finite_caches() {
    for (geometry, cache) in finite_geometries() {
        let cfg = finite_config(cache);
        let trace = strided_parity_trace(0x0f1_a17e, 600, conflict_stride(cache));
        for protocol in protocol_points() {
            lockstep_with(
                protocol,
                &cfg,
                None,
                &trace,
                &format!("{protocol} {geometry} clean"),
            );
        }
    }
}

#[test]
fn lockstep_parity_with_finite_caches_under_injected_faults() {
    for (geometry, cache) in finite_geometries() {
        let cfg = finite_config(cache);
        let trace = strided_parity_trace(0xfa_0f1e, 400, conflict_stride(cache));
        for protocol in protocol_points() {
            for (seed, ppm) in [(11, 40_000), (99, 450_000)] {
                lockstep_with(
                    protocol,
                    &cfg,
                    Some(FaultPlan::uniform(seed, ppm)),
                    &trace,
                    &format!("{protocol} {geometry} faults({seed},{ppm})"),
                );
            }
        }
    }
}

#[test]
fn finite_cache_lockstep_actually_evicts() {
    // The finite parity tests would pass vacuously if nothing were ever
    // evicted; every geometry must write back, drop clean copies and,
    // at some protocol point, reclassify under the copy-dropped rule.
    for (geometry, cache) in finite_geometries() {
        let trace = strided_parity_trace(0x0f1_a17e, 600, conflict_stride(cache));
        let mut copy_dropped = 0;
        for protocol in protocol_points() {
            let sim = DirectorySim::new(protocol, &finite_config(cache));
            let (buffer, handle) = shared(BufferSink::new());
            let result = sim
                .runner(&trace)
                .sinks(&[handle])
                .run()
                .expect("finite run");
            assert!(
                result.events.writebacks > 0,
                "{protocol} {geometry}: no write-backs"
            );
            assert!(
                result.events.clean_drops > 0,
                "{protocol} {geometry}: no clean drops"
            );
            copy_dropped += drain(&buffer)
                .iter()
                .filter(|e| {
                    matches!(
                        e,
                        Event::Promote { rule, .. } | Event::Demote { rule, .. }
                            if *rule == mcc::obs::Rule::CopyDropped
                    )
                })
                .count();
        }
        assert!(
            copy_dropped > 0,
            "{geometry}: no copy-dropped reclassification"
        );
    }
}

#[test]
fn finite_cache_checkpoints_cross_restore_with_identical_continuations() {
    // A mid-run snapshot taken under either engine is byte-identical to
    // the other's and, restored into either engine, continues with the
    // same event stream and the same final result.
    for (geometry, cache) in finite_geometries() {
        let cfg = finite_config(cache);
        let trace = strided_parity_trace(0xc0_ffee, 500, conflict_stride(cache));
        for protocol in protocol_points() {
            for faults in [None, Some(FaultPlan::uniform(5, 60_000))] {
                let sim = |kind: EngineKind| {
                    let sim = DirectorySim::new(protocol, &cfg).with_engine(kind);
                    match faults {
                        Some(plan) => sim.with_faults(plan),
                        None => sim,
                    }
                };
                let (reference, fast) = (sim(EngineKind::Reference), sim(EngineKind::Fast));
                let straight = reference.try_run(&trace);
                assert_eq!(straight, fast.try_run(&trace), "{protocol} {geometry}");
                let Ok(straight) = straight else { continue };
                for cut in [1u64, 137, 250, 499] {
                    let label = format!(
                        "{protocol} {geometry} faults={} cut {cut}",
                        faults.is_some()
                    );
                    let from_reference =
                        reference.checkpoint_after(&trace, 1, cut).expect("prefix");
                    let from_fast = fast.checkpoint_after(&trace, 1, cut).expect("prefix");
                    assert_eq!(from_reference, from_fast, "{label}: snapshots differ");
                    let continuation = |resume: &DirectorySim| {
                        let (buffer, handle) = shared(BufferSink::new());
                        let result = resume
                            .runner(&trace)
                            .resume(&from_reference)
                            .sinks(&[handle])
                            .run()
                            .expect("resume");
                        (result, drain(&buffer))
                    };
                    let (on_reference, ref_stream) = continuation(&reference);
                    let (on_fast, fast_stream) = continuation(&fast);
                    assert_eq!(on_reference, straight, "{label}: reference continuation");
                    assert_eq!(on_fast, straight, "{label}: reference -> fast continuation");
                    assert_eq!(ref_stream, fast_stream, "{label}: continuations diverged");
                }
            }
        }
    }
}
