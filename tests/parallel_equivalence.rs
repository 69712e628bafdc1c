//! Deterministic-equivalence harness for the address-sharded parallel
//! engine: sharded runs must reproduce the sequential engine
//! **bit-exactly**, for every paper protocol, at every shard count, on
//! random traces, workload-generated traces, and every placement
//! policy — and a faulted sharded run must be reproducible run-to-run
//! while delivering exactly the sequential protocol traffic.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use mcc::core::{
    AdaptivePolicy, DirectorySim, DirectorySimConfig, FaultPlan, PlacementPolicy, Protocol,
    SimError, SimResult,
};
use mcc::trace::{Addr, MemRef, NodeId, Trace};
use mcc::workloads::{Workload, WorkloadParams};
use mcc_prng::SplitMix64;

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// The paper's protocol set plus the points parity must also hold for:
/// the pure-migratory baseline (its dirty-read-miss path bypasses the
/// classifier entirely) and a custom policy (Stenström's variant, for
/// the hysteresis/remember knobs the named points leave at defaults).
fn extended_protocols() -> Vec<Protocol> {
    let mut protocols = Protocol::PAPER_SET.to_vec();
    protocols.push(Protocol::PureMigratory);
    protocols.push(Protocol::Custom(AdaptivePolicy::stenstrom()));
    protocols
}

/// A random trace over `nodes` nodes: a mix of hot contended blocks and
/// a wider cold range, spanning several pages, with a 2:1 read bias.
fn random_trace(seed: u64, refs: usize, nodes: u16) -> Trace {
    let mut rng = SplitMix64::new(seed);
    let mut t = Trace::new();
    for _ in 0..refs {
        let node = NodeId::new(rng.gen_range(0..u64::from(nodes)) as u16);
        // 1/4 of references hammer 8 hot blocks; the rest spread over
        // a 64 KB region (16 pages).
        let block = if rng.chance_ppm(250_000) {
            rng.gen_range(0..8)
        } else {
            rng.gen_range(0..4096)
        };
        let addr = Addr::new(block * 16 + rng.gen_range(0..2) * 8);
        if rng.chance_ppm(666_667) {
            t.push(MemRef::read(node, addr));
        } else {
            t.push(MemRef::write(node, addr));
        }
    }
    t
}

fn config(placement: PlacementPolicy) -> DirectorySimConfig {
    DirectorySimConfig {
        nodes: 8,
        placement,
        ..DirectorySimConfig::default()
    }
}

fn hash_result(r: &SimResult) -> u64 {
    let mut h = DefaultHasher::new();
    r.hash(&mut h);
    h.finish()
}

#[test]
fn random_traces_shard_bit_exactly_for_all_protocols() {
    for seed in [1u64, 2, 3] {
        let trace = random_trace(seed, 20_000, 8);
        for protocol in extended_protocols() {
            let sim = DirectorySim::new(protocol, &config(PlacementPolicy::Profiled));
            let sequential = sim.run(&trace);
            // The totals the issue calls out, asserted via the full
            // result: messages, misses, invalidations, classifications.
            for shards in SHARD_COUNTS {
                let sharded = sim.run_sharded(&trace, shards);
                assert_eq!(
                    sharded, sequential,
                    "seed {seed}, {protocol}, K={shards}: sharded != sequential"
                );
                assert_eq!(sharded.total_messages(), sequential.total_messages());
                assert_eq!(sharded.events.read_misses, sequential.events.read_misses);
                assert_eq!(sharded.events.write_misses, sequential.events.write_misses);
                assert_eq!(
                    sharded.events.invalidations,
                    sequential.events.invalidations
                );
                assert_eq!(
                    sharded.events.became_migratory,
                    sequential.events.became_migratory
                );
            }
        }
    }
}

#[test]
fn every_placement_policy_shards_bit_exactly() {
    // Profiled and first-touch placements are trace-derived; they must
    // be resolved from the full trace, not per shard, for parity.
    let trace = random_trace(7, 15_000, 8);
    for placement in [
        PlacementPolicy::RoundRobin,
        PlacementPolicy::FirstTouch,
        PlacementPolicy::Profiled,
    ] {
        let sim = DirectorySim::new(Protocol::Basic, &config(placement));
        let sequential = sim.run(&trace);
        for shards in SHARD_COUNTS {
            assert_eq!(
                sim.run_sharded(&trace, shards),
                sequential,
                "{placement:?}, K={shards}"
            );
        }
    }
}

#[test]
fn workload_traces_shard_bit_exactly() {
    let params = WorkloadParams::new(16).scale(0.01).seed(42);
    let trace = Workload::Mp3d.generate(&params);
    let cfg = DirectorySimConfig::default();
    for protocol in extended_protocols() {
        let sim = DirectorySim::new(protocol, &cfg);
        let sequential = sim.run(&trace);
        for shards in SHARD_COUNTS {
            assert_eq!(sim.run_sharded(&trace, shards), sequential, "{protocol}");
        }
    }
}

#[test]
fn try_run_sharded_matches_try_run_with_monitoring() {
    let trace = random_trace(11, 10_000, 8);
    let sim = DirectorySim::new(Protocol::Conservative, &config(PlacementPolicy::Profiled));
    assert_eq!(
        sim.runner(&trace).shards(4).run().expect("clean run"),
        sim.try_run(&trace).expect("clean run")
    );
}

#[test]
fn faulted_sharded_runs_deliver_the_sequential_protocol_traffic() {
    // Under faults with eventual delivery, the protocol work is
    // invariant: delivered traffic and every non-overhead event counter
    // must match the fault-free sequential run bit-exactly. Only the
    // nack/retry/backoff overhead counters depend on the fault streams.
    let trace = random_trace(13, 20_000, 8);
    let cfg = config(PlacementPolicy::Profiled);
    for protocol in Protocol::PAPER_SET {
        let sequential = DirectorySim::new(protocol, &cfg).run(&trace);
        for shards in SHARD_COUNTS {
            let faulted = DirectorySim::new(protocol, &cfg)
                .with_faults(FaultPlan::uniform(99, 20_000))
                .runner(&trace)
                .shards(shards)
                .run()
                .expect("2% fault rate stays within the retry budget");
            assert_eq!(
                faulted.messages.delivered(),
                sequential.messages.delivered(),
                "{protocol}, K={shards}: delivered traffic diverged under faults"
            );
            assert!(faulted.messages.overhead().total() > 0);
            let mut scrubbed = faulted;
            scrubbed.events.nacks = 0;
            scrubbed.events.retries = 0;
            scrubbed.events.backoff_units = 0;
            assert_eq!(
                scrubbed.events, sequential.events,
                "{protocol}, K={shards}: protocol events diverged under faults"
            );
        }
    }
}

#[test]
fn sharded_determinism_stress_ten_runs_identical_hashes() {
    // Ten racing 8-thread runs must produce one identical SimResult
    // hash: the merge (and everything under it) may not observe thread
    // scheduling.
    let trace = random_trace(17, 20_000, 8);
    let sim = DirectorySim::new(Protocol::Aggressive, &config(PlacementPolicy::Profiled));
    let reference = hash_result(&sim.run_sharded(&trace, 8));
    for run in 1..10 {
        assert_eq!(
            hash_result(&sim.run_sharded(&trace, 8)),
            reference,
            "run {run} hashed differently"
        );
    }
}

#[test]
fn faulted_sharded_determinism_stress() {
    // The faulty-interconnect arm: per-shard fault streams are derived
    // from (seed, shard_id), so even the overhead counters must be
    // bit-identical across racing runs.
    let trace = random_trace(19, 15_000, 8);
    let sim = DirectorySim::new(Protocol::Basic, &config(PlacementPolicy::Profiled))
        .with_faults(FaultPlan::uniform(5, 30_000));
    let first = sim.runner(&trace).shards(8).run().expect("clean run");
    assert!(first.messages.overhead().total() > 0, "faults must fire");
    let reference = hash_result(&first);
    for run in 1..10 {
        let result = sim.runner(&trace).shards(8).run().expect("clean run");
        assert_eq!(
            hash_result(&result),
            reference,
            "faulted run {run} hashed differently"
        );
    }
}

#[test]
fn finite_caches_are_rejected_with_a_typed_error() {
    use mcc::cache::{CacheConfig, CacheGeometry};
    let cfg = DirectorySimConfig {
        cache: CacheConfig::Finite(
            CacheGeometry::paper_default(16 * 1024, mcc::trace::BlockSize::B16).unwrap(),
        ),
        ..DirectorySimConfig::default()
    };
    let trace = random_trace(23, 1_000, 8);
    match DirectorySim::new(Protocol::Basic, &cfg)
        .runner(&trace)
        .shards(4)
        .run()
    {
        Err(SimError::ShardingUnsupported { .. }) => {}
        other => panic!("expected ShardingUnsupported, got {other:?}"),
    }
}

#[test]
fn degenerate_traces_shard_cleanly() {
    let sim = DirectorySim::new(Protocol::Basic, &config(PlacementPolicy::Profiled));
    // Empty trace: all shards empty, zero result.
    let empty = sim.run_sharded(&Trace::new(), 8);
    assert_eq!(empty, SimResult::empty(Protocol::Basic));
    // Single record: one shard does all the work, others are empty.
    let mut single = Trace::new();
    single.push(MemRef::write(NodeId::new(0), Addr::new(0x40)));
    for shards in SHARD_COUNTS {
        assert_eq!(sim.run_sharded(&single, shards), sim.run(&single));
    }
    // More shards than distinct blocks.
    let narrow = random_trace(29, 500, 4);
    assert_eq!(sim.run_sharded(&narrow, 64), sim.run(&narrow));
}
