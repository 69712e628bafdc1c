//! Prints the golden regression numbers used by `tests/golden_counts.rs`
//! (exact message totals at a pinned configuration and seed). Run after
//! any intentional workload or protocol change and update the test.
//!
//! Usage: `golden_dump [--directory R]` — `R` is a representation slug
//! (`full-map`, `dirNb`, `cvR`, `dirNcvR`); the default sweeps every
//! representation the golden test pins, then prints the finite-cache
//! Table 2 slice (per-cause message breakdowns at 4 KB and 64 KB).

use std::process::exit;

use mcc_cache::{CacheConfig, CacheGeometry};
use mcc_check::parse_directory_repr;
use mcc_core::{DirectoryRepr, DirectorySim, DirectorySimConfig, Protocol};
use mcc_trace::BlockSize;
use mcc_workloads::{Workload, WorkloadParams};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (reprs, finite): (Vec<DirectoryRepr>, bool) = match args.as_slice() {
        [] => (
            vec![
                DirectoryRepr::FullMap,
                DirectoryRepr::LimitedPointer { pointers: 4 },
                DirectoryRepr::CoarseVector { region_size: 4 },
            ],
            true,
        ),
        [flag, value] if flag == "--directory" => (
            vec![parse_directory_repr(value).unwrap_or_else(|e| {
                eprintln!("golden_dump: {e}");
                exit(2);
            })],
            false,
        ),
        _ => {
            eprintln!("usage: golden_dump [--directory R]");
            exit(2);
        }
    };
    let params = WorkloadParams::new(16).scale(0.1).seed(42);
    for directory in reprs {
        println!("    // {directory}");
        let cfg = DirectorySimConfig {
            directory,
            ..DirectorySimConfig::default()
        };
        for app in Workload::ALL {
            let trace = app.generate(&params);
            print!("        (Workload::{:?}, {}", app, trace.len());
            for p in Protocol::PAPER_SET {
                let r = DirectorySim::new(p, &cfg).run(&trace);
                print!(", {}", r.total_messages());
            }
            println!("),");
        }
    }
    if finite {
        print_finite_slice();
    }
}

/// The finite-cache goldens: Table 2's 4 KB and 64 KB sections at 16
/// nodes, scale 0.05, seed 42, one row of per-cause `(control, data)`
/// pairs (read miss, write miss, write hit, eviction) per protocol.
fn print_finite_slice() {
    let params = WorkloadParams::new(16).scale(0.05).seed(42);
    println!("    // finite caches");
    for kb in [4u64, 64] {
        let geometry = CacheGeometry::paper_default(kb * 1024, BlockSize::B16)
            .expect("paper cache sizes are valid");
        let cfg = DirectorySimConfig {
            cache: CacheConfig::Finite(geometry),
            ..DirectorySimConfig::default()
        };
        for app in Workload::ALL {
            let trace = app.generate(&params);
            println!("        ({kb}, Workload::{app:?}, [");
            for p in Protocol::PAPER_SET {
                let m = DirectorySim::new(p, &cfg).run(&trace).messages;
                println!(
                    "            [{}, {}, {}, {}, {}, {}, {}, {}],",
                    m.read_miss.control,
                    m.read_miss.data,
                    m.write_miss.control,
                    m.write_miss.data,
                    m.write_hit.control,
                    m.write_hit.data,
                    m.eviction.control,
                    m.eviction.data
                );
            }
            println!("        ]),");
        }
    }
}
