//! Supervisor behavior against a shard that *panics* mid-run.
//!
//! The timeout path is covered by `supervisor_deadline.rs`; this file
//! crashes one shard via the cooperative poison hook and holds
//! `run_supervised` to its contract: the panic is contained by
//! `catch_unwind` and surfaced as a typed [`SimError::ShardPanicked`],
//! the surviving shards' results are salvaged bit-identically to a
//! clean run, and the strict merge still refuses the sweep. The hook
//! is process-global, which is why this test owns its own binary
//! instead of living next to the healthy supervised runs in the
//! `mcc-core` unit tests.

use mcc::core::supervision_test_hooks as hooks;
use mcc::core::{DirectorySim, DirectorySimConfig, Protocol, RunInput, SimError};
use mcc::trace::{Addr, MemRef, NodeId, Trace, TraceStream};

const SHARDS: usize = 4;

/// Enough references over enough blocks that every shard owns work.
fn busy_trace() -> Trace {
    let mut t = Trace::new();
    for round in 0..200u64 {
        for block in 0..32u64 {
            let node = NodeId::new(((round + block) % 4) as u16);
            t.push(MemRef::read(node, Addr::new(block * 16)));
            t.push(MemRef::write(node, Addr::new(block * 16)));
        }
    }
    t
}

/// Clears the poison hook even when the test body panics, so a failure
/// here cannot crash unrelated supervised runs in this binary.
struct PoisonGuard;

impl Drop for PoisonGuard {
    fn drop(&mut self) {
        hooks::clear_poison();
    }
}

#[test]
fn shard_panic_is_isolated_and_others_salvaged() {
    let _guard = PoisonGuard;
    const POISONED: u32 = 2;

    let trace = busy_trace();
    let records: Vec<MemRef> = trace.iter().copied().collect();
    let stream = TraceStream::from_generator(records.len() as u64, move |i| records[i as usize]);
    let cfg = DirectorySimConfig {
        nodes: 4,
        ..DirectorySimConfig::default()
    };
    let sim = DirectorySim::new(Protocol::Basic, &cfg);
    let clean = DirectorySim::new(Protocol::Basic, &cfg)
        .run_supervised(&busy_trace(), SHARDS, None)
        .expect("clean supervised run");
    assert!(clean.all_completed());

    for input in [RunInput::Trace(&trace), RunInput::Stream(&stream)] {
        hooks::poison_shard(POISONED);
        let report = sim
            .runner(input)
            .shards(SHARDS)
            .supervise()
            .expect("sharding is supported for this configuration");
        let strict = sim.runner(input).shards(SHARDS).run();
        hooks::clear_poison();

        // Exactly the poisoned shard failed, and it failed as a panic.
        let failed = report.failed_shards();
        assert_eq!(
            failed.len(),
            1,
            "{input:?}: only the poisoned shard may fail: {failed:?}"
        );
        let (shard, err) = (failed[0].0, failed[0].1);
        assert_eq!(shard, POISONED);
        match err {
            SimError::ShardPanicked { shard, message } => {
                assert_eq!(*shard, POISONED);
                assert!(message.contains("poisoned"), "{message}");
            }
            other => panic!("expected ShardPanicked, got {other:?}"),
        }
        assert!(!report.all_completed());

        // The strict merge reports the panic — as does a plain sharded
        // run, which must not take the caller down — while the salvage
        // keeps the three healthy shards' counters, identical to the
        // same shards of a clean run.
        assert!(matches!(
            report.merged(),
            Err(SimError::ShardPanicked { .. })
        ));
        assert!(
            matches!(strict, Err(SimError::ShardPanicked { .. })),
            "{input:?}: {strict:?}"
        );
        for (id, outcome) in report.outcomes().iter().enumerate() {
            if id as u32 == POISONED {
                continue;
            }
            assert_eq!(
                outcome.as_ref().expect("surviving shard completed"),
                clean.outcomes()[id].as_ref().unwrap(),
                "{input:?}: shard {id} diverged from the clean run"
            );
        }
        let healthy_refs: u64 = report
            .outcomes()
            .iter()
            .flatten()
            .map(|r| r.events.refs())
            .sum();
        assert!(healthy_refs > 0, "salvage kept survivor work");
        assert_eq!(report.salvaged().events.refs(), healthy_refs);
        assert!(report.salvaged().events.refs() < clean.merged().unwrap().events.refs());
    }
}
