//! The repository's benchmark: one command, three workloads.
//!
//! * `table2-finite` — the 64 KB section of the paper's Table 2 through
//!   the production harness;
//! * `stream-wide` — a generator-backed 256-node stream, K=2 shards,
//!   full-map and Dir4B cells with checkpoint saves;
//! * `live-closed` — the live service with two closed-loop clients.
//!
//! Usage: `mcc-perfbench --workload W --seed N --seconds S --trace 0|1
//! [--out DIR]`, or `mcc-perfbench --write-expect FILE SEED...` to
//! regenerate the Table 2 expectations from the library.
//!
//! With `--trace 0` the last stdout line is a JSON object holding every
//! end-to-end metric; with `--trace 1` it holds every per-layer metric,
//! and the spans go to `DIR/<workload>-seed<N>.spans.jsonl`. The line
//! before it records the host. Seconds bound the timed window: passes
//! repeat while one more fits, and timings are per-pass medians.

mod host;
mod live;
mod spans;
mod stream;
mod table2;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::exit;
use std::time::Instant;

use mcc_core::SimResult;

use crate::host::Host;
use crate::spans::{Tracer, Window};

/// End-to-end metrics, printed by every untraced run: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("ns_per_ref", "ns"),
    ("ns_per_msg", "ns"),
    ("peak_rss_mib", "MiB"),
    ("ok_frac", "frac"),
    ("ops_per_s", "1/s"),
    ("msgs_per_ref", "msg/ref"),
    ("msg_reduction_pct", "%"),
];

/// Per-layer metrics, printed by every traced run: `(name, unit)`. A
/// layer the workload does not run reads 0.
pub const PER_LAYER: [(&str, &str); 42] = [
    ("workloads.generate_s", "s"),
    ("placement.profiled_s", "s"),
    ("cache.access_ns_per_ref", "ns"),
    ("engine.ns_per_ref.reference-64k", "ns"),
    ("engine.ns_per_msg.reference-64k", "ns"),
    ("engine.ns_per_ref.reference-inf16", "ns"),
    ("engine.ns_per_ref.fast-inf16", "ns"),
    ("engine.ns_per_ref.fast-wide", "ns"),
    ("trace.ns_per_ref.unfiltered", "ns"),
    ("trace.ns_per_ref.filtered", "ns"),
    ("trace.scan_ratio", "ratio"),
    ("shard.imbalance", "ratio"),
    ("shard.speedup_k2", "ratio"),
    ("repr.broadcast_invalidations", "count"),
    ("repr.msgs_per_ref.full-map", "msg/ref"),
    ("repr.msgs_per_ref.dir4b", "msg/ref"),
    ("checkpoint.save_ms", "ms"),
    ("checkpoint.bytes", "bytes"),
    ("live.synth_s", "s"),
    ("live.serve_s", "s"),
    ("live.verify_s", "s"),
    ("live.verify_ns_per_step", "ns"),
    ("live.latency_p50_us", "us"),
    ("live.latency_p99_us", "us"),
    ("live.retries", "count"),
    ("live.timeouts", "count"),
    ("sim.migrations", "count"),
    ("sim.invalidations", "count"),
    ("sim.became_migratory", "count"),
    ("sim.became_other", "count"),
    ("self_s.mcc-workloads", "s"),
    ("self_s.mcc-placement", "s"),
    ("self_s.mcc-trace", "s"),
    ("self_s.mcc-cache", "s"),
    ("self_s.mcc-core", "s"),
    ("self_s.mcc-live", "s"),
    ("self_s.mcc-check", "s"),
    ("spans.coverage_pct", "%"),
    ("spans.overhead_pct", "%"),
    ("host.calibration_mops", "Mop/s"),
    ("host.nproc", "count"),
    ("passes", "count"),
];

/// Metrics and output checks gathered by one run.
#[derive(Default)]
pub struct Report {
    values: BTreeMap<&'static str, f64>,
    attempted: u64,
    failed: u64,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Counts one output check; a failed one is described on stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: CHECK FAILED: {}", what());
        }
    }

    /// Counts one run that must succeed and returns its value.
    pub fn ok<T, E: std::fmt::Display>(&mut self, what: &str, r: Result<T, E>) -> Option<T> {
        match r {
            Ok(v) => {
                self.check(true, String::new);
                Some(v)
            }
            Err(e) => {
                self.check(false, || format!("{what}: {e}"));
                None
            }
        }
    }

    /// Counts the model checks every simulation result must pass.
    pub fn check_result(&mut self, what: &str, r: &SimResult) {
        self.check(r.check_consistency().is_ok(), || {
            format!("{what}: inconsistent tally")
        });
    }

    /// Sets the model-derived counters shared by every workload.
    pub fn set_sim(&mut self, r: &SimResult) {
        self.set("sim.migrations", r.events.migrations as f64);
        self.set("sim.invalidations", r.events.invalidations as f64);
        self.set("sim.became_migratory", r.events.became_migratory as f64);
        self.set("sim.became_other", r.events.became_other as f64);
    }

    /// The last output line: the requested metric set, in table order.
    fn result_line(&self, traced: bool) -> String {
        let table: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
        let metrics: Vec<String> = table
            .iter()
            .map(|&(name, unit)| {
                let value = match self.values.get(name) {
                    Some(v) if v.is_finite() => *v,
                    Some(_) => panic!("metric {name} is not finite"),
                    // A layer the workload does not run, or a metric a
                    // failed run could not measure.
                    None if traced || self.failed > 0 => 0.0,
                    None => panic!("end-to-end metric {name} was not measured"),
                };
                format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(",")
        )
    }
}

/// One timed pass: wall and whole-process CPU seconds.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    pub wall: f64,
    pub cpu: f64,
}

/// Runs `pass` at least once, and again while one more pass of the
/// last one's length still fits in `seconds`.
pub fn timed_passes<T>(seconds: f64, mut pass: impl FnMut() -> T) -> Vec<(Sample, T)> {
    let window = Instant::now();
    let mut out = Vec::new();
    loop {
        let (cpu0, started) = (host::cpu_secs(), Instant::now());
        let value = pass();
        let sample = Sample {
            wall: started.elapsed().as_secs_f64(),
            cpu: host::cpu_secs() - cpu0,
        };
        eprintln!(
            "perfbench: pass {} wall {:.3} s cpu {:.2} s",
            out.len(),
            sample.wall,
            sample.cpu
        );
        out.push((sample, value));
        if window.elapsed().as_secs_f64() + sample.wall > seconds {
            return out;
        }
    }
}

/// Runs `f` `reps` times, returning the median seconds and the last value.
pub fn repeated<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut secs = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        let started = Instant::now();
        last = Some(f());
        secs.push(started.elapsed().as_secs_f64());
    }
    (median(&secs), last.expect("at least one repetition"))
}

pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Sets the end-to-end metrics every workload derives the same way.
/// `refs` and `msgs` are simulated per pass; `ops_per_s` is references
/// per second of a pass, which live-closed replaces with its serving
/// rate.
pub fn set_window(report: &mut Report, samples: &[Sample], refs: u64, msgs: u64) {
    let wall = median(&samples.iter().map(|s| s.wall).collect::<Vec<_>>());
    let cpu = median(&samples.iter().map(|s| s.cpu).collect::<Vec<_>>());
    report.set("wall_s", wall);
    report.set("cpu_s", cpu);
    report.set("ns_per_ref", wall * 1e9 / refs.max(1) as f64);
    report.set("ns_per_msg", wall * 1e9 / msgs.max(1) as f64);
    report.set("ops_per_s", refs as f64 / wall);
    report.set("passes", samples.len() as f64);
}

/// Sets the traced run's summary: the share of the traced pass its
/// spans cover, the pass's overhead against the untraced median, and
/// each layer's self time over every span of the run.
pub fn set_trace_summary(report: &mut Report, tracer: &Tracer, pass: Window, untraced: &[Sample]) {
    let spans_all = tracer.spans();
    report.set(
        "spans.coverage_pct",
        100.0 * spans::coverage(&spans_all, pass),
    );
    let untraced_wall = median(&untraced.iter().map(|s| s.wall).collect::<Vec<_>>());
    report.set(
        "spans.overhead_pct",
        (pass.secs() / untraced_wall - 1.0) * 100.0,
    );
    eprintln!("perfbench: self time by layer over the traced run");
    for (layer, secs) in spans::self_secs(&spans_all) {
        eprintln!("perfbench:   {layer:<14} {secs:>10.4} s");
        let name = PER_LAYER
            .iter()
            .map(|(name, _)| *name)
            .find(|name| name.strip_prefix("self_s.") == Some(layer))
            .expect("every span layer has a self-time metric");
        report.set(name, secs);
    }
}

/// Everything a workload needs from the command line.
pub struct RunArgs {
    pub seed: u64,
    pub seconds: f64,
    /// Scratch directory for checkpoints and span files.
    pub out: PathBuf,
}

fn usage(msg: &str) -> ! {
    eprintln!(
        "perfbench: {msg}\nusage: mcc-perfbench --workload table2-finite|stream-wide|live-closed \
         --seed N --seconds S --trace 0|1 [--out DIR]\n       \
         mcc-perfbench --write-expect FILE SEED..."
    );
    exit(2);
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--write-expect") {
        let Some(path) = argv.get(1) else {
            usage("--write-expect needs a file");
        };
        let seeds: Vec<u64> = argv[2..]
            .iter()
            .map(|s| s.parse().unwrap_or_else(|_| usage("seeds are integers")))
            .collect();
        if let Err(e) = table2::write_expectations(path.as_ref(), &seeds) {
            eprintln!("perfbench: writing {path}: {e}");
            exit(1);
        }
        return;
    }

    let (mut workload, mut seed, mut seconds, mut traced) = (None, None, None, None);
    let mut out = PathBuf::from("perfbench/out");
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => traced = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            "--out" => out = PathBuf::from(value),
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(traced)) =
        (workload, seed, seconds, traced)
    else {
        usage("--workload, --seed, --seconds (> 0) and --trace (0 or 1) are required");
    };
    if let Err(e) = std::fs::create_dir_all(&out) {
        eprintln!("perfbench: cannot create {}: {e}", out.display());
        exit(1);
    }

    let host = Host::identify();
    let args = RunArgs { seed, seconds, out };
    let tracer = Tracer::new(traced);
    let mut report = Report::default();
    match workload.as_str() {
        "table2-finite" => table2::run(&args, &tracer, &mut report),
        "stream-wide" => stream::run(&args, &tracer, &mut report),
        "live-closed" => live::run(&args, &tracer, &mut report),
        other => usage(&format!("unknown workload {other}")),
    }
    report.set("peak_rss_mib", host::peak_rss_mib());
    report.set(
        "ok_frac",
        (report.attempted - report.failed) as f64 / report.attempted.max(1) as f64,
    );
    report.set("host.calibration_mops", host.calibration_mops);
    report.set("host.nproc", host.nproc as f64);
    if traced {
        let path = args.out.join(format!("{workload}-seed{seed}.spans.jsonl"));
        if let Err(e) = tracer.write_jsonl(&path) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
            exit(1);
        }
        eprintln!("perfbench: spans written to {}", path.display());
    }
    println!(
        "{{\"host\":{},\"workload\":\"{workload}\",\"seed\":{seed},\"trace\":{}}}",
        host.to_json(),
        u8::from(traced)
    );
    println!("{}", report.result_line(traced));
}
