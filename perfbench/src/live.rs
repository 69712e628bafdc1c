//! `live-closed`: `run_live` with two node clients in a closed loop
//! (each blocks on its reply), one shard, MP3D, aggressive protocol, a
//! reliable wire, no WAL, and a fixed number of references per client.
//! The only request-serving path: the `mcc-live` wire and shard loop
//! serve, and the `mcc-check` journal replay verifies after the run.
//!
//! The serving window is observed from outside the library: a watcher
//! thread polls the process's task list for the service's client
//! threads, and the window runs from the first poll that sees one to
//! the first poll that sees none left.

use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread;
use std::time::{Duration, Instant};

use mcc_core::{DirectorySim, DirectorySimConfig, PlacementPolicy, Protocol, SimResult};
use mcc_live::{run_live, verify_run, LiveConfig, LiveReport};
use mcc_trace::{BlockSize, Trace};
use mcc_workloads::{Workload, WorkloadParams};

use crate::host;
use crate::spans::Tracer;
use crate::{
    median, repeated, set_trace_summary, set_window, timed_passes, Report, RunArgs, Sample,
};

const NODES: u16 = 2;
const SCALE: f64 = 0.1;
const REFS_PER_CLIENT: usize = 2_000;
const SETUP_REPS: usize = 3;
/// `run_live` names its client threads `mcc-live-client-<node>`; the
/// kernel keeps the first 15 bytes.
const CLIENT_THREAD: &str = "mcc-live-client";
const POLL: Duration = Duration::from_micros(200);

fn config(seed: u64) -> LiveConfig {
    let mut cfg = LiveConfig::new(Protocol::Aggressive, NODES, 1);
    cfg.workload = Workload::Mp3d;
    cfg.scale = SCALE;
    cfg.seed = seed;
    cfg.max_refs_per_client = REFS_PER_CLIENT;
    cfg
}

fn client_thread_alive(tasks: &Path) -> bool {
    std::fs::read_dir(tasks).is_ok_and(|dir| {
        dir.flatten().any(|task| {
            std::fs::read_to_string(task.path().join("comm"))
                .is_ok_and(|comm| comm.trim_end() == CLIENT_THREAD)
        })
    })
}

/// What the watcher saw of one `run_live` call, in seconds from the
/// call's start: when a client thread was first seen, and when none
/// was left.
#[derive(Clone, Copy)]
struct Observed {
    clients_up: f64,
    clients_gone: f64,
}

impl Observed {
    fn serve(self) -> f64 {
        self.clients_gone - self.clients_up
    }
}

/// Runs `run_live` while a watcher thread polls for its client threads.
///
/// The call is pinned to one CPU, so the service threads it spawns
/// share that CPU and the watcher polls from another: a request/reply
/// round trip is then a context switch on one CPU, not a wake-up sent
/// across virtual CPUs, which on a shared 2-vCPU host stretched some
/// serving windows 2-5x; and the polling does not take CPU time from
/// the service. The call gets whichever CPU a probe finds fastest: the
/// two virtual CPUs of a shared host do not always run at one speed (in
/// one stream-wide run the two shard threads kept 1.1 CPUs busy on
/// average, against 1.6-1.8 in the others).
fn watched_run(cfg: &LiveConfig) -> (Result<LiveReport, String>, Option<Observed>) {
    let cpu = host::fastest_cpu();
    let done = AtomicBool::new(false);
    let tasks = Path::new("/proc/self/task");
    let started = Instant::now();
    thread::scope(|scope| {
        let watcher = scope.spawn(|| {
            host::pin_current_thread(cpu + 1);
            let mut clients_up = None;
            loop {
                // Read before polling, so the last poll comes after
                // `run_live` returned.
                let finished = done.load(Ordering::Relaxed);
                let alive = client_thread_alive(tasks);
                let now = started.elapsed().as_secs_f64();
                match (clients_up, alive) {
                    (None, true) => clients_up = Some(now),
                    (Some(up), false) => {
                        return Some(Observed {
                            clients_up: up,
                            clients_gone: now,
                        })
                    }
                    _ => {}
                }
                if finished {
                    return None;
                }
                thread::sleep(POLL);
            }
        });
        let unpinned = host::pin_current_thread(cpu);
        let report = run_live(cfg);
        host::restore_affinity(unpinned);
        done.store(true, Ordering::Relaxed);
        (report, watcher.join().expect("watcher thread panicked"))
    })
}

pub fn run(args: &RunArgs, tracer: &Tracer, report: &mut Report) {
    let cfg = config(args.seed);
    let params = WorkloadParams::new(NODES).scale(SCALE).seed(args.seed);

    // --- Set-up: the synthesis `run_live` repeats internally, timed on
    // its own. ---
    let (setup_s, trace) = repeated(SETUP_REPS, || {
        tracer.span("mcc-workloads", "generate", || {
            Workload::Mp3d.generate(&params)
        })
    });
    report.set("setup_s", setup_s);
    report.set("workloads.generate_s", setup_s);
    report.set("live.synth_s", setup_s);

    // --- Timed window: whole live runs, up to their verdicts. ---
    let passes = timed_passes(args.seconds, || {
        let (r, observed) = watched_run(&cfg);
        (report.ok("run_live", r), observed)
    });
    let (samples, passes): (Vec<_>, Vec<_>) = passes.into_iter().unzip();
    let expected_ops = expected_ops(&trace);
    let mut per_pass = Vec::new();
    let mut last = None;
    for (r, observed) in &passes {
        report.check(observed.is_some(), || {
            "client threads were never seen".into()
        });
        let Some(r) = r else { continue };
        // `ok()` includes a clean post-run verification.
        report.check(r.ok(), || {
            format!(
                "live run not ok: {:?} {:?}",
                r.client_errors(),
                r.verify.violations
            )
        });
        report.check(
            r.ops() == expected_ops && r.applied() == expected_ops,
            || {
                format!(
                    "acked {} / applied {} of {expected_ops} requested",
                    r.ops(),
                    r.applied()
                )
            },
        );
        let aggressive = merged_result(r);
        report.check_result("live", &aggressive);
        let conventional =
            DirectorySim::new(Protocol::Conventional, &live_geometry()).try_run(&journal(r));
        let Some(conv) = report.ok("conventional journal replay", conventional) else {
            continue;
        };
        let Some(o) = observed else { continue };
        eprintln!("perfbench: serving window {:.4} s", o.serve());
        per_pass.push([
            o.serve(),
            r.ops() as f64 / o.serve(),
            aggressive.total_messages() as f64 / r.ops() as f64,
            aggressive.percent_reduction_vs(&conv),
        ]);
        last = Some((r, aggressive));
    }
    let Some((last, aggressive)) = last else {
        return;
    };
    let column = |i: usize| median(&per_pass.iter().map(|p| p[i]).collect::<Vec<_>>());
    set_window(report, &samples, last.ops(), aggressive.total_messages());
    report.set("live.serve_s", column(0));
    // The median serving rate: with the service pinned to one CPU, the
    // ~30 ms windows of a run agree within a few percent.
    report.set("ops_per_s", column(1));
    // The model metrics depend on the order the shard linearized the
    // two clients' requests in, so they are per-pass medians.
    report.set("msgs_per_ref", column(2));
    report.set("msg_reduction_pct", column(3));
    report.set_sim(&aggressive);

    let latency = last.latency_us();
    report.set(
        "live.latency_p50_us",
        latency.quantile_upper_bound(0.5).unwrap_or(0) as f64,
    );
    report.set(
        "live.latency_p99_us",
        latency.quantile_upper_bound(0.99).unwrap_or(0) as f64,
    );
    report.set("live.retries", last.retries() as f64);
    report.set("live.timeouts", last.timeouts() as f64);

    if tracer.is_on() {
        traced(tracer, &cfg, &samples, report);
    }
}

/// The live run's tally, summed over shards.
fn merged_result(r: &LiveReport) -> SimResult {
    let mut merged = SimResult::empty(r.protocol);
    for shard in &r.shards {
        if let Ok(result) = &shard.result {
            merged += *result;
        }
    }
    merged
}

/// The references in the order the shards applied them.
fn journal(r: &LiveReport) -> Trace {
    r.shards
        .iter()
        .flat_map(|s| s.journal.iter().map(|e| e.mref))
        .collect()
}

/// The requests a closed-loop run issues: each client's references,
/// capped per client.
fn expected_ops(trace: &Trace) -> u64 {
    trace
        .split_by_node()
        .iter()
        .map(|t| t.len().min(REFS_PER_CLIENT) as u64)
        .sum()
}

/// The live service's fixed engine geometry.
fn live_geometry() -> DirectorySimConfig {
    DirectorySimConfig {
        nodes: NODES,
        block_size: BlockSize::B16,
        placement: PlacementPolicy::RoundRobin,
        ..DirectorySimConfig::default()
    }
}

/// The traced run: one more `run_live` call, split into the intervals
/// the watcher saw — synthesis before the clients start, serving while
/// they run, and the post-run verification after — then `verify_run`
/// on the returned report, timed on its own.
fn traced(tracer: &Tracer, cfg: &LiveConfig, samples: &[Sample], report: &mut Report) {
    let ((r, observed), pass) =
        tracer.pass(|| tracer.span("mcc-live", "run_live", || watched_run(cfg)));
    let (Some(r), Some(o)) = (report.ok("traced run_live", r), observed) else {
        return;
    };
    if let Some(call) = tracer
        .spans()
        .into_iter()
        .rev()
        .find(|s| s.name == "run_live")
    {
        let at = |secs: f64| call.start + (secs * 1e9) as u64;
        let (up, gone) = (at(o.clients_up), at(o.clients_gone));
        tracer.record_child(
            &call,
            "mcc-workloads",
            "synthesis (observed)",
            call.start,
            up,
        );
        tracer.record_child(&call, "mcc-live", "serving (observed)", up, gone);
        tracer.record_child(
            &call,
            "mcc-check",
            "verification (observed)",
            gone,
            call.end,
        );
    }

    let outcome = tracer.span("mcc-check", "verify_run", || {
        verify_run(r.protocol, r.nodes, &r.shards, &r.clients)
    });
    report.check(outcome.ok(), || {
        format!("verify_run: {:?}", outcome.violations)
    });
    let verify_s = tracer.total_secs("verify_run");
    report.set("live.verify_s", verify_s);
    report.set(
        "live.verify_ns_per_step",
        verify_s * 1e9 / outcome.steps_replayed.max(1) as f64,
    );
    set_trace_summary(report, tracer, pass, samples);
}
