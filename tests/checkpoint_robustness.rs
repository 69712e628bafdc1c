//! Corrupt-input robustness for the MCCK/MCCX checkpoint formats.
//!
//! Checkpoints are read back by a process that just crashed — possibly
//! *because* the machine is failing — so the reader must treat the file
//! as untrusted: every truncated, bit-flipped, wrong-version, or
//! wrong-magic stream produces a typed [`CheckpointError`], never a
//! panic, and never an allocation sized by corrupt data. A snapshot
//! that parses but belongs to a different run is rejected with a typed
//! [`SimError::BadCheckpoint`] before any state is rebuilt from it.
//! Every on-disk format opens with its own magic, so a file of one kind
//! handed to another kind's loader fails at the header.

use mcc::core::checkpoint::CHECKPOINT_MAGIC;
use mcc::core::{
    AnyEngine, Checkpoint, CheckpointError, DirectorySim, DirectorySimConfig, Engine, EngineKind,
    EngineSnapshot, FaultPlan, Protocol, RealStorage, SimError, StreamCheckpoint,
};
use mcc::execsim::{ExecCheckpoint, ExecSim, ExecSimConfig, EXEC_CHECKPOINT_MAGIC};
use mcc::placement::PagePlacement;
use mcc::trace::{Addr, MemRef, NodeId, Trace, TRACE_MAGIC, TRACE_MAGIC_V1};
use mcc_live::wal::{save_snapshot, SHARD_SNAPSHOT_MAGIC, WAL_MAGIC};
use mcc_prng::SplitMix64;

fn sample_trace(nodes: u16) -> Trace {
    let mut t = Trace::new();
    for round in 0..5u64 {
        for obj in 0..6u64 {
            let n = NodeId::new(((round + obj) % u64::from(nodes)) as u16);
            t.push(MemRef::read(n, Addr::new(obj * 64)));
            t.push(MemRef::write(n, Addr::new(obj * 64)));
        }
    }
    t
}

/// A representative mid-run checkpoint, serialized.
fn sample_bytes() -> Vec<u8> {
    let trace = sample_trace(4);
    let cfg = DirectorySimConfig {
        nodes: 4,
        ..DirectorySimConfig::default()
    };
    let ck = DirectorySim::new(Protocol::Aggressive, &cfg)
        .with_faults(FaultPlan::uniform(7, 30_000))
        .checkpoint_after(&trace, 2, 20)
        .expect("prefix replays cleanly");
    let mut bytes = Vec::new();
    ck.write_to(&mut bytes).expect("vec write");
    bytes
}

#[test]
fn every_truncation_is_a_typed_error() {
    let bytes = sample_bytes();
    assert!(bytes.len() > 24, "sample must be non-trivial");
    for len in 0..bytes.len() {
        match Checkpoint::read_from(&mut &bytes[..len]) {
            Err(_) => {}
            Ok(_) => panic!("truncation to {len} bytes parsed as a whole checkpoint"),
        }
    }
}

#[test]
fn every_single_bit_flip_is_rejected() {
    // Unlike a trace, a checkpoint carries a whole-payload checksum, so
    // corruption anywhere — header, length, checksum, payload — must be
    // *detected*, not merely decoded differently.
    let bytes = sample_bytes();
    let mut rng = SplitMix64::new(0xC0FFEE);
    let mut positions: Vec<usize> = (0..32.min(bytes.len())).collect();
    for _ in 0..256 {
        positions.push(rng.gen_range(0..bytes.len() as u64) as usize);
    }
    for pos in positions {
        for bit in 0..8 {
            let mut corrupt = bytes.clone();
            corrupt[pos] ^= 1 << bit;
            assert!(
                Checkpoint::read_from(&mut &corrupt[..]).is_err(),
                "flipping bit {bit} of byte {pos} was silently absorbed"
            );
        }
    }
}

#[test]
fn wrong_version_and_wrong_magic_are_distinct_errors() {
    let bytes = sample_bytes();

    let mut wrong_version = bytes.clone();
    wrong_version[4] = 9; // the version byte of the MCCK magic
    let err = Checkpoint::read_from(&mut &wrong_version[..]).unwrap_err();
    assert!(
        matches!(err, CheckpointError::UnsupportedVersion(9)),
        "got {err}"
    );

    let mut wrong_magic = bytes.clone();
    wrong_magic[..4].copy_from_slice(b"MCCT"); // a trace, not a checkpoint
    let err = Checkpoint::read_from(&mut &wrong_magic[..]).unwrap_err();
    assert!(matches!(err, CheckpointError::BadMagic), "got {err}");

    // Checksum damage reports as exactly that.
    let mut bad_sum = bytes.clone();
    let n = bad_sum.len();
    bad_sum[n - 1] ^= 0xFF; // last payload byte
    let err = Checkpoint::read_from(&mut &bad_sum[..]).unwrap_err();
    assert!(
        matches!(err, CheckpointError::ChecksumMismatch { .. }),
        "got {err}"
    );
}

#[test]
fn trailing_bytes_after_the_envelope_are_rejected() {
    let mut bytes = sample_bytes();
    bytes.extend_from_slice(&[0xAB, 0xCD]);
    let err = Checkpoint::read_from(&mut &bytes[..]).unwrap_err();
    assert!(matches!(err, CheckpointError::Corrupt(_)), "got {err}");
}

#[test]
fn random_garbage_never_panics() {
    let mut rng = SplitMix64::new(0xDEC0DE);
    for _ in 0..512 {
        let len = rng.gen_range(0..512) as usize;
        let garbage: Vec<u8> = (0..len).map(|_| rng.gen_range(0..256) as u8).collect();
        let _ = Checkpoint::read_from(&mut &garbage[..]);
        let _ = ExecCheckpoint::read_from(&mut &garbage[..]);
    }
    // Garbage wearing a valid magic must still fail cleanly on the body.
    for magic_garbage in 0..128 {
        let mut bytes = Vec::from(CHECKPOINT_MAGIC);
        let len = rng.gen_range(0..256) as usize;
        bytes.extend((0..len).map(|_| rng.gen_range(0..256) as u8));
        let _ = Checkpoint::read_from(&mut &bytes[..]);
        let _ = magic_garbage;
    }
}

#[test]
fn hostile_counts_inside_the_payload_do_not_allocate() {
    // A 16 MB "length" on an 80-byte stream must fail on the evidence
    // of the stream, not trust the prefix with an allocation.
    let mut bytes = Vec::from(CHECKPOINT_MAGIC);
    bytes.extend_from_slice(&u64::MAX.to_le_bytes()); // absurd payload length
    bytes.extend_from_slice(&0u64.to_le_bytes()); // checksum
    bytes.extend_from_slice(&[0u8; 64]); // far less than promised
    let err = Checkpoint::read_from(&mut &bytes[..]).unwrap_err();
    assert!(matches!(err, CheckpointError::Truncated), "got {err}");
}

#[test]
fn loading_a_missing_file_is_an_io_error() {
    let path = std::env::temp_dir().join(format!(
        "mcc-checkpoint-does-not-exist-{}",
        std::process::id()
    ));
    let err = Checkpoint::load(&path).unwrap_err();
    assert!(matches!(err, CheckpointError::Io(_)), "got {err}");
    let err = ExecCheckpoint::load(&path).unwrap_err();
    assert!(matches!(err, CheckpointError::Io(_)), "got {err}");
}

#[test]
fn mismatched_checkpoints_are_rejected_before_any_replay() {
    let trace = sample_trace(4);
    let cfg = DirectorySimConfig {
        nodes: 4,
        ..DirectorySimConfig::default()
    };
    let sim = DirectorySim::new(Protocol::Basic, &cfg);
    let ck = sim.checkpoint_after(&trace, 1, 10).expect("prefix");

    // Different protocol.
    let other = DirectorySim::new(Protocol::Conventional, &cfg);
    let err = other.runner(&trace).resume(&ck).run().unwrap_err();
    assert!(matches!(err, SimError::BadCheckpoint { .. }), "{err}");

    // Different trace (the fingerprint in the snapshot disagrees).
    let mut reordered = sample_trace(4);
    reordered.push(MemRef::read(NodeId::new(0), Addr::new(0x9999)));
    let err = sim.runner(&reordered).resume(&ck).run().unwrap_err();
    assert!(matches!(err, SimError::BadCheckpoint { .. }), "{err}");

    // Different fault plan (reliable vs faulted).
    let faulted = DirectorySim::new(Protocol::Basic, &cfg).with_faults(FaultPlan::uniform(1, 1000));
    let err = faulted.runner(&trace).resume(&ck).run().unwrap_err();
    assert!(matches!(err, SimError::BadCheckpoint { .. }), "{err}");
}

/// Corrupt the newest snapshot every way the truncation/bit-flip
/// matrix knows, with a healthy rotated `.prev` generation beside it:
/// the fallback loader must recover the previous generation every
/// single time, report which generation it settled on, carry the
/// typed error that disqualified the primary, and resume from it to
/// the uninterrupted result. Two generation pairs: two programmatic
/// snapshots of a materialized K=2 run, and the last two files a K=2
/// generator-stream run wrote.
#[test]
fn every_corruption_of_the_primary_falls_back_to_the_previous_generation() {
    use mcc::core::checkpoint::prev_path;
    use mcc::core::{
        ChaosStorage, CheckpointPolicy, SnapshotGeneration, Storage, StorageFaultPlan,
    };
    use mcc::trace::TraceStream;
    use std::path::Path;

    let trace = sample_trace(4);
    let cfg = DirectorySimConfig {
        nodes: 4,
        ..DirectorySimConfig::default()
    };
    let sim =
        DirectorySim::new(Protocol::Aggressive, &cfg).with_faults(FaultPlan::uniform(7, 30_000));

    // Materialized: the rotated previous generation is an earlier
    // snapshot of the same run (fewer records covered), byte-exactly
    // distinguishable.
    let mut prev_bytes = Vec::new();
    sim.checkpoint_after(&trace, 2, 10)
        .expect("prefix replays cleanly")
        .write_to(&mut prev_bytes)
        .expect("vec write");
    let materialized = (sample_bytes(), prev_bytes);

    // Streamed: whatever a checkpointed K=2 run left behind.
    let records: Vec<MemRef> = (0..40u64)
        .flat_map(|_| sample_trace(4).iter().copied().collect::<Vec<_>>())
        .collect();
    let stream_len = records.len() as u64;
    let stream = TraceStream::from_generator(stream_len, move |i| records[i as usize]);
    let dir = std::env::temp_dir().join(format!("mcc-fallback-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let written = dir.join("stream.ckpt");
    let stream_result = sim
        .run_stream_resumable(&stream, 2, &CheckpointPolicy::new(100, &written))
        .expect("streamed run");
    let streamed = (
        std::fs::read(&written).expect("final generation"),
        std::fs::read(prev_path(&written)).expect("previous generation"),
    );
    std::fs::remove_dir_all(&dir).ok();

    let path = Path::new("run.ckpt");
    let prev_p = prev_path(path);
    for (case, (newest, prev_bytes)) in [("materialized", materialized), ("streamed", streamed)] {
        assert_ne!(prev_bytes, newest, "{case}");
        let mut corruptions: Vec<Vec<u8>> =
            (0..newest.len()).map(|n| newest[..n].to_vec()).collect();
        let mut rng = SplitMix64::new(0xFA11BACC);
        for _ in 0..128 {
            let pos = rng.gen_range(0..newest.len() as u64) as usize;
            let bit = rng.gen_range(0..8);
            let mut corrupt = newest.clone();
            corrupt[pos] ^= 1 << bit;
            corruptions.push(corrupt);
        }

        for (i, corrupt) in corruptions.iter().enumerate() {
            let fs = ChaosStorage::new(StorageFaultPlan::reliable(1));
            fs.write_file(path, corrupt).unwrap();
            fs.write_file(&prev_p, &prev_bytes).unwrap();
            let recovered = Checkpoint::load_with_fallback_from(&fs, path)
                .unwrap_or_else(|e| panic!("{case} corruption {i}: fallback loader failed: {e}"));
            assert_eq!(
                recovered.generation,
                SnapshotGeneration::Previous,
                "{case} corruption {i} did not fall back"
            );
            let primary_error = recovered
                .primary_error
                .as_ref()
                .unwrap_or_else(|| panic!("{case} corruption {i}: no primary error recorded"));
            assert!(!primary_error.class().is_empty());
            let mut round_trip = Vec::new();
            recovered.checkpoint.write_to(&mut round_trip).unwrap();
            assert_eq!(
                round_trip, prev_bytes,
                "{case} corruption {i} recovered something other than the previous generation"
            );
        }

        // The recovered generation resumes to the uninterrupted result.
        let previous = Checkpoint::read_from(&mut &prev_bytes[..]).expect("previous generation");
        let (resumed, straight) = match case {
            "materialized" => (
                sim.runner(&trace).resume(&previous).run(),
                sim.runner(&trace).shards(2).run(),
            ),
            _ => (
                sim.resume_stream_from(&stream, &previous, None),
                Ok(stream_result),
            ),
        };
        assert_eq!(
            resumed.expect("resume from the previous generation"),
            straight.expect("uninterrupted run"),
            "{case}: resuming the recovered generation diverged"
        );
    }
}

/// Both generations unusable: the loader reports the *primary*'s typed
/// error (the newest evidence), not the fallback's.
#[test]
fn both_generations_corrupt_reports_the_primary_error() {
    use mcc::core::checkpoint::prev_path;
    use mcc::core::{ChaosStorage, Storage, StorageFaultPlan};
    use std::path::Path;

    let newest = sample_bytes();
    let path = Path::new("run.ckpt");
    let fs = ChaosStorage::new(StorageFaultPlan::reliable(1));

    // Primary: checksum damage. Previous: truncated.
    let mut bad_sum = newest.clone();
    let n = bad_sum.len();
    bad_sum[n - 1] ^= 0xFF;
    fs.write_file(path, &bad_sum).unwrap();
    fs.write_file(&prev_path(path), &newest[..n / 2]).unwrap();

    let err = Checkpoint::load_with_fallback_from(&fs, path).unwrap_err();
    assert!(
        matches!(err, CheckpointError::ChecksumMismatch { .. }),
        "expected the primary's checksum error, got {err}"
    );

    // No previous generation at all: still the primary's error.
    let fs = ChaosStorage::new(StorageFaultPlan::reliable(1));
    fs.write_file(path, &bad_sum).unwrap();
    let err = Checkpoint::load_with_fallback_from(&fs, path).unwrap_err();
    assert!(
        matches!(err, CheckpointError::ChecksumMismatch { .. }),
        "expected the primary's checksum error, got {err}"
    );
}

/// A healthy primary never consults the previous generation.
#[test]
fn healthy_primary_loads_as_the_current_generation() {
    use mcc::core::checkpoint::prev_path;
    use mcc::core::{ChaosStorage, SnapshotGeneration, Storage, StorageFaultPlan};
    use std::path::Path;

    let newest = sample_bytes();
    let path = Path::new("run.ckpt");
    let fs = ChaosStorage::new(StorageFaultPlan::reliable(1));
    fs.write_file(path, &newest).unwrap();
    // A garbage .prev must not matter when the primary is healthy.
    fs.write_file(&prev_path(path), b"garbage").unwrap();

    let recovered = Checkpoint::load_with_fallback_from(&fs, path).expect("healthy primary");
    assert_eq!(recovered.generation, SnapshotGeneration::Current);
    assert!(recovered.primary_error.is_none());
}

#[test]
fn exec_checkpoints_survive_the_same_corruption_sweep() {
    let trace = sample_trace(4);
    let cfg = ExecSimConfig {
        nodes: 4,
        ..ExecSimConfig::default()
    };
    let ck = ExecSim::new(Protocol::Basic, &cfg)
        .checkpoint_after(&trace, 15)
        .expect("prefix");
    let mut bytes = Vec::new();
    ck.write_to(&mut bytes).expect("vec write");

    for len in 0..bytes.len() {
        assert!(
            ExecCheckpoint::read_from(&mut &bytes[..len]).is_err(),
            "truncation to {len} bytes parsed"
        );
    }
    let mut rng = SplitMix64::new(0xEC5);
    for _ in 0..256 {
        let pos = rng.gen_range(0..bytes.len() as u64) as usize;
        let bit = rng.gen_range(0..8) as u8;
        let mut corrupt = bytes.clone();
        corrupt[pos] ^= 1 << bit;
        assert!(
            ExecCheckpoint::read_from(&mut &corrupt[..]).is_err(),
            "flipping bit {bit} of byte {pos} was silently absorbed"
        );
    }
    // An MCCK checkpoint is not an MCCX checkpoint, and vice versa.
    let err = ExecCheckpoint::read_from(&mut &sample_bytes()[..]).unwrap_err();
    assert!(matches!(err, CheckpointError::BadMagic), "got {err}");
}

#[test]
fn every_on_disk_magic_is_distinct() {
    let magics = [
        ("TRACE_MAGIC", TRACE_MAGIC),
        ("TRACE_MAGIC_V1", TRACE_MAGIC_V1),
        ("CHECKPOINT_MAGIC", CHECKPOINT_MAGIC),
        ("EXEC_CHECKPOINT_MAGIC", EXEC_CHECKPOINT_MAGIC),
        ("WAL_MAGIC", WAL_MAGIC),
        ("SHARD_SNAPSHOT_MAGIC", SHARD_SNAPSHOT_MAGIC),
    ];
    for (i, (a, ma)) in magics.iter().enumerate() {
        for (b, mb) in &magics[i + 1..] {
            assert_ne!(ma, mb, "{a} and {b} share a magic");
        }
    }
}

#[test]
fn a_live_shard_snapshot_is_not_a_stream_checkpoint() {
    let config = DirectorySimConfig::default();
    let mut engine = AnyEngine::new(
        EngineKind::Fast,
        Protocol::Aggressive,
        &config,
        PagePlacement::round_robin(config.nodes),
    );
    engine.step(MemRef::write(NodeId::new(1), Addr::new(0)));
    let dir = std::env::temp_dir().join(format!("mcc-magic-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("shard0.snap");
    save_snapshot(&RealStorage, &path, &EngineSnapshot::capture(&engine), 1).unwrap();
    let err = StreamCheckpoint::load(&path).unwrap_err();
    assert!(
        matches!(err, CheckpointError::BadMagic),
        "a shard snapshot must fail as bad magic, got {err:?}"
    );
    std::fs::remove_dir_all(&dir).ok();
}
