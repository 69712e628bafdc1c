//! Golden regression numbers: exact message totals at a pinned
//! configuration (16 nodes, 16 B blocks, infinite caches, profiled
//! placement, scale 0.1, seed 42), plus a finite-cache slice of Table 2
//! (4 KB and 64 KB 4-way LRU caches, scale 0.05, seed 42) pinned as
//! full per-cause message breakdowns.
//!
//! Everything in the pipeline is deterministic, so any drift here means
//! the workload generators or a protocol changed behaviour. After an
//! *intentional* change, regenerate with
//! `cargo run --release -p mcc-bench --bin golden_dump` and update the
//! table.

use mcc::cache::{CacheConfig, CacheGeometry};
use mcc::core::{
    DirectoryRepr, DirectorySim, DirectorySimConfig, EngineKind, MessageBreakdown, Protocol,
};
use mcc::trace::BlockSize;
use mcc::workloads::{Workload, WorkloadParams};

/// Directory representation the goldens run under: `MCC_TEST_REPR`
/// when set to a slug with a pinned table below (the CI matrix runs
/// `full-map`, `dir4b`, and `cv4`), the full map otherwise.
fn test_repr() -> DirectoryRepr {
    match std::env::var("MCC_TEST_REPR") {
        Ok(raw) => {
            mcc_check::parse_directory_repr(&raw).unwrap_or_else(|e| panic!("MCC_TEST_REPR: {e}"))
        }
        Err(_) => DirectoryRepr::FullMap,
    }
}

/// Shard count for the parallel-path assertions: `MCC_TEST_SHARDS` when
/// set (the CI matrix runs 1 and 4), 4 otherwise.
fn test_shards() -> usize {
    match std::env::var("MCC_TEST_SHARDS") {
        Ok(raw) => {
            raw.parse().ok().filter(|&k| k > 0).unwrap_or_else(|| {
                panic!("MCC_TEST_SHARDS must be a positive integer, got {raw:?}")
            })
        }
        Err(_) => 4,
    }
}

/// Engine the goldens run under: the fast hot path when
/// `MCC_TEST_FAST_ENGINE` is set to a truthy value (the CI matrix runs
/// both), the reference engine otherwise. The pinned totals must hold
/// bit-exactly under either.
fn test_engine() -> EngineKind {
    match std::env::var("MCC_TEST_FAST_ENGINE") {
        Ok(raw) if raw == "1" || raw.eq_ignore_ascii_case("true") => EngineKind::Fast,
        Ok(raw) if raw == "0" || raw.is_empty() || raw.eq_ignore_ascii_case("false") => {
            EngineKind::Reference
        }
        Ok(raw) => panic!("MCC_TEST_FAST_ENGINE must be 0 or 1, got {raw:?}"),
        Err(_) => EngineKind::Reference,
    }
}

/// Ring-sink capacity for the observability-is-inert assertion:
/// `MCC_TEST_EVENTS_RING` when set (CI re-runs the goldens with a ring
/// attached), otherwise `None` and the instrumented re-run is skipped.
fn test_events_ring() -> Option<usize> {
    match std::env::var("MCC_TEST_EVENTS_RING") {
        Ok(raw) => Some(raw.parse().ok().filter(|&k| k > 0).unwrap_or_else(|| {
            panic!("MCC_TEST_EVENTS_RING must be a positive integer, got {raw:?}")
        })),
        Err(_) => None,
    }
}

/// Whether to re-run the goldens with a full live-telemetry plane
/// attached (`MCC_TEST_TELEMETRY` set to a truthy value): the batched
/// `TelemetrySink` must be as inert as the ring — bit-exact totals
/// with the plane's counters visibly advancing.
fn test_telemetry() -> bool {
    match std::env::var("MCC_TEST_TELEMETRY") {
        Ok(raw) if raw == "1" || raw.eq_ignore_ascii_case("true") => true,
        Ok(raw) if raw == "0" || raw.is_empty() || raw.eq_ignore_ascii_case("false") => false,
        Ok(raw) => panic!("MCC_TEST_TELEMETRY must be 0 or 1, got {raw:?}"),
        Err(_) => false,
    }
}

/// The pinned totals for one directory representation.
/// `(workload, trace refs, conventional, conservative, basic, aggressive)`
type GoldenRow = (Workload, usize, u64, u64, u64, u64);

/// Golden table for `repr`, regenerated with
/// `golden_dump --directory <slug>`. The precise full map is the
/// baseline; `Dir4B` drifts only where a copy set overflows four
/// pointers (LocusRoute, Pthor), and `CV4` charges whole 4-node
/// regions so every workload's control traffic grows.
fn golden_table(repr: DirectoryRepr) -> &'static [GoldenRow] {
    match repr {
        DirectoryRepr::FullMap => &[
            (
                Workload::Cholesky,
                1_815_680,
                3_089_550,
                1_794_314,
                1_695_922,
                1_549_900,
            ),
            (
                Workload::LocusRoute,
                383_616,
                536_960,
                463_802,
                457_710,
                442_830,
            ),
            (
                Workload::Mp3d,
                2_067_716,
                4_252_912,
                2_444_256,
                2_317_814,
                2_128_116,
            ),
            (
                Workload::Pthor,
                891_840,
                2_876_060,
                2_471_034,
                2_413_880,
                2_369_136,
            ),
            (
                Workload::Water,
                1_331_840,
                2_346_136,
                1_426_746,
                1_344_348,
                1_296_398,
            ),
        ],
        DirectoryRepr::LimitedPointer { pointers: 4 } => &[
            (
                Workload::Cholesky,
                1_815_680,
                3_089_550,
                1_794_314,
                1_695_922,
                1_549_900,
            ),
            (
                Workload::LocusRoute,
                383_616,
                549_380,
                476_222,
                470_090,
                453_004,
            ),
            (
                Workload::Mp3d,
                2_067_716,
                4_252_912,
                2_444_256,
                2_317_814,
                2_128_116,
            ),
            (
                Workload::Pthor,
                891_840,
                3_067_284,
                2_630_380,
                2_508_150,
                2_462_450,
            ),
            (
                Workload::Water,
                1_331_840,
                2_346_136,
                1_426_746,
                1_344_348,
                1_296_398,
            ),
        ],
        DirectoryRepr::CoarseVector { region_size: 4 } => &[
            (
                Workload::Cholesky,
                1_815_680,
                7_235_184,
                2_349_232,
                1_977_374,
                1_552_520,
            ),
            (
                Workload::LocusRoute,
                383_616,
                1_008_646,
                741_368,
                719_216,
                674_392,
            ),
            (
                Workload::Mp3d,
                2_067_716,
                9_671_840,
                3_106_136,
                2_649_330,
                2_128_900,
            ),
            (
                Workload::Pthor,
                891_840,
                5_709_702,
                4_157_082,
                3_980_118,
                3_846_816,
            ),
            (
                Workload::Water,
                1_331_840,
                5_351_898,
                2_012_154,
                1_712_596,
                1_590_362,
            ),
        ],
        other => panic!(
            "no golden table pinned for {other}; add one via \
             `golden_dump --directory {other}` or run a pinned slug"
        ),
    }
}

#[test]
fn pinned_message_totals() {
    let repr = test_repr();
    let golden = golden_table(repr);

    let cfg = DirectorySimConfig {
        directory: repr,
        ..DirectorySimConfig::default()
    };
    let params = WorkloadParams::new(16).scale(0.1).seed(42);
    let shards = test_shards();
    for &(app, refs, conv, cons, basic, aggr) in golden {
        let trace = app.generate(&params);
        assert_eq!(trace.len(), refs, "{app}: trace length drifted");
        let expected = [conv, cons, basic, aggr];
        for (protocol, want) in Protocol::PAPER_SET.into_iter().zip(expected) {
            let sim = DirectorySim::new(protocol, &cfg).with_engine(test_engine());
            let got = sim.run(&trace).total_messages();
            assert_eq!(
                got, want,
                "{app}/{protocol}: total messages drifted (update via golden_dump \
                 if the change was intentional)"
            );
            // The sharded merge path is pinned to the same goldens: a
            // regression in partitioning or merging fails tier-1.
            let sharded = sim.run_sharded(&trace, shards).total_messages();
            assert_eq!(
                sharded, want,
                "{app}/{protocol}: K={shards} sharded total diverged from the golden count"
            );
            // With MCC_TEST_EVENTS_RING set, re-run with a bounded ring
            // sink attached: observability must be inert, so the golden
            // count must hold bit-exactly with events flowing.
            if let Some(capacity) = test_events_ring() {
                let (ring, handle) = mcc::obs::shared(mcc::obs::RingSink::new(capacity));
                let observed = sim
                    .try_run_with_sink(&trace, handle)
                    .expect("instrumented golden run")
                    .total_messages();
                assert_eq!(
                    observed, want,
                    "{app}/{protocol}: a ring sink perturbed the golden count"
                );
                assert!(
                    mcc::obs::lock_sink(&ring).total_seen() > 0,
                    "{app}/{protocol}: the attached ring observed nothing"
                );
            }
            // With MCC_TEST_TELEMETRY set, re-run with the live
            // telemetry plane's batched sink attached: the goldens
            // must hold bit-exactly while the plane's shared counters
            // advance.
            if test_telemetry() {
                use mcc::obs::{metrics::names, shared, Telemetry, TelemetrySink};
                let plane = Telemetry::new();
                let sink = shared(TelemetrySink::new(&plane, mcc::obs::DEFAULT_PUBLISH_EVERY)).1;
                let observed = sim
                    .try_run_with_sink(&trace, sink)
                    .expect("telemetry-instrumented golden run")
                    .total_messages();
                assert_eq!(
                    observed, want,
                    "{app}/{protocol}: a telemetry sink perturbed the golden count"
                );
                let snapshot = plane.snapshot();
                assert_eq!(
                    snapshot.counter(names::RECORDS),
                    refs as u64,
                    "{app}/{protocol}: the telemetry plane missed records"
                );
                assert_eq!(
                    snapshot.counter(names::CONTROL) + snapshot.counter(names::DATA),
                    want,
                    "{app}/{protocol}: the telemetry plane's message totals drifted \
                     from the golden count"
                );
            }
        }
    }
}

/// One finite-cache golden row: `(cache KB, workload, breakdowns)`,
/// one breakdown per [`Protocol::PAPER_SET`] column, each as
/// `[read-miss control, read-miss data, write-miss control, write-miss
/// data, write-hit control, write-hit data, eviction control, eviction
/// data]`.
type FiniteRow = (u64, Workload, [[u64; 8]; 4]);

/// Table 2's 4 KB and 64 KB sections at a small scale, regenerated with
/// `golden_dump` (no arguments). Evictions, write-backs and the
/// copy-dropped reclassification all feed these numbers, so they pin
/// the finite-cache path of whichever engine runs them.
const FINITE_GOLDEN: &[FiniteRow] = &[
    (
        4,
        Workload::Cholesky,
        [
            [406665, 406665, 393711, 393047, 10762, 0, 398569, 393081],
            [406665, 406665, 393711, 393047, 3850, 0, 398569, 393081],
            [406665, 406665, 393711, 393047, 3714, 0, 398512, 393081],
            [406666, 406666, 393709, 393045, 32, 0, 396661, 393080],
        ],
    ),
    (
        4,
        Workload::LocusRoute,
        [
            [155748, 155748, 22190, 17822, 75156, 0, 115867, 28241],
            [155981, 155981, 20510, 17420, 30248, 0, 110989, 27686],
            [156003, 156003, 20377, 17385, 25664, 0, 110321, 27637],
            [156007, 156007, 20301, 17373, 2944, 0, 109723, 27616],
        ],
    ),
    (
        4,
        Workload::Mp3d,
        [
            [634997, 634997, 76707, 73391, 1072696, 0, 96991, 461281],
            [636267, 636267, 73249, 72127, 195068, 0, 83038, 459927],
            [636579, 636579, 72303, 71849, 122622, 0, 78289, 459609],
            [636836, 636836, 71688, 71662, 0, 0, 73220, 459352],
        ],
    ),
    (
        4,
        Workload::Pthor,
        [
            [554412, 554412, 754395, 154787, 394366, 0, 55434, 128500],
            [555460, 555460, 744025, 155053, 187792, 0, 55322, 128499],
            [557508, 557508, 722496, 155592, 162654, 0, 55153, 128498],
            [557520, 557520, 722417, 155593, 130032, 0, 54892, 128489],
        ],
    ),
    (
        4,
        Workload::Water,
        [
            [339907, 339907, 102233, 101437, 416870, 0, 130872, 298563],
            [340048, 340048, 101551, 101437, 66114, 0, 127989, 298400],
            [340064, 340064, 101499, 101437, 41488, 0, 127779, 298384],
            [340067, 340067, 101461, 101437, 448, 0, 127584, 298375],
        ],
    ),
    (
        64,
        Workload::Cholesky,
        [
            [576171, 576171, 244489, 212419, 445008, 0, 334662, 208045],
            [584895, 584895, 212991, 202765, 143738, 0, 237621, 199024],
            [587067, 587067, 206779, 200861, 83312, 0, 218802, 196849],
            [588993, 588993, 199591, 198891, 54, 0, 201085, 194921],
        ],
    ),
    (
        64,
        Workload::LocusRoute,
        [
            [158655, 158655, 51437, 13373, 121650, 0, 45702, 12036],
            [158655, 158655, 51441, 13373, 48698, 0, 45270, 11995],
            [158660, 158660, 51479, 13373, 42394, 0, 44995, 11986],
            [158678, 158678, 51350, 13374, 27574, 0, 43917, 11945],
        ],
    ),
    (
        64,
        Workload::Mp3d,
        [
            [1026743, 1026743, 8876, 5038, 2026830, 0, 11318, 44419],
            [1028113, 1028113, 7188, 4896, 298028, 0, 8959, 41609],
            [1028499, 1028499, 6319, 4863, 178476, 0, 7745, 41219],
            [1028931, 1028931, 5047, 4811, 10, 0, 6108, 40786],
        ],
    ),
    (
        64,
        Workload::Pthor,
        [
            [595573, 595573, 767206, 154764, 481280, 0, 12328, 79412],
            [596630, 596630, 756737, 155029, 203808, 0, 12324, 79407],
            [598709, 598709, 735002, 155578, 173010, 0, 12291, 79400],
            [599122, 599122, 734869, 155579, 136416, 0, 10943, 79151],
        ],
    ),
    (
        64,
        Workload::Water,
        [
            [586440, 586440, 224, 196, 1167562, 0, 924, 1398],
            [587640, 587640, 193, 191, 248906, 0, 264, 1166],
            [587696, 587696, 193, 191, 166662, 0, 212, 1153],
            [587727, 587727, 193, 191, 118578, 0, 207, 1157],
        ],
    ),
];

fn breakdown_cells(m: &MessageBreakdown) -> [u64; 8] {
    [
        m.read_miss.control,
        m.read_miss.data,
        m.write_miss.control,
        m.write_miss.data,
        m.write_hit.control,
        m.write_hit.data,
        m.eviction.control,
        m.eviction.data,
    ]
}

#[test]
fn pinned_finite_cache_breakdowns() {
    let params = WorkloadParams::new(16).scale(0.05).seed(42);
    let engine = test_engine();
    let mut traces = std::collections::HashMap::new();
    for &(kb, app, expected) in FINITE_GOLDEN {
        let geometry = CacheGeometry::paper_default(kb * 1024, BlockSize::B16)
            .expect("paper cache sizes are valid");
        let cfg = DirectorySimConfig {
            cache: CacheConfig::Finite(geometry),
            ..DirectorySimConfig::default()
        };
        let trace = traces.entry(app).or_insert_with(|| app.generate(&params));
        for (protocol, want) in Protocol::PAPER_SET.into_iter().zip(expected) {
            let result = DirectorySim::new(protocol, &cfg)
                .with_engine(engine)
                .run(trace);
            assert_eq!(
                breakdown_cells(&result.messages),
                want,
                "{kb} KB {app}/{protocol} ({engine:?}): message breakdown drifted \
                 (update via golden_dump if the change was intentional)"
            );
            assert_eq!(
                result.messages.overhead().total(),
                0,
                "{kb} KB {app}/{protocol}: a reliable fabric charged fault overhead"
            );
        }
    }
}
