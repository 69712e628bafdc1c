//! Host identity and process resource readings.
//!
//! A result is comparable with another only when both came from the
//! same kind of machine in the same state: same CPU model, same core
//! count, and a fixed calibration loop scoring about the same. The
//! hostname says none of this, so it is not recorded.

use std::hint::black_box;
use std::time::Instant;

/// What a result records about the machine it ran on.
#[derive(Clone, Debug)]
pub struct Host {
    pub cpu_model: String,
    pub nproc: usize,
    /// Millions of iterations per second of [`calibration_loop`], best
    /// of five.
    pub calibration_mops: f64,
}

impl Host {
    pub fn identify() -> Host {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let calibration_mops = (0..5)
            .map(|_| {
                let started = Instant::now();
                black_box(calibration_loop(CALIBRATION_ITERS));
                CALIBRATION_ITERS as f64 / started.elapsed().as_secs_f64() / 1e6
            })
            .fold(0.0, f64::max);
        Host {
            cpu_model,
            nproc,
            calibration_mops,
        }
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"cpu_model\":\"{}\",\"nproc\":{},\"calibration_mops\":{}}}",
            self.cpu_model.replace(['"', '\\'], "_"),
            self.nproc,
            self.calibration_mops
        )
    }
}

const CALIBRATION_ITERS: u64 = 20_000_000;

/// A fixed, dependency-chained integer loop (SplitMix64 steps): its
/// speed depends on the core's clock and integer pipeline only.
fn calibration_loop(iters: u64) -> u64 {
    let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
    let mut acc = 0u64;
    for _ in 0..iters {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        acc ^= z ^ (z >> 31);
    }
    acc
}

/// User plus system CPU seconds of the whole process (all threads,
/// live or exited), from `/proc/self/stat` in clock ticks of 1/100 s.
pub fn cpu_secs() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields overall.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (ticks(11) + ticks(12)) as f64 / 100.0
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// A thread's CPU affinity mask (up to 1024 CPUs).
pub type CpuMask = [u64; 16];

/// Pins the calling thread to the `n`-th CPU it may run on (counting
/// round), and returns its previous mask. Threads it spawns afterwards
/// inherit the pin. A failed call leaves the thread unpinned: pinning
/// steadies timings, it does not change results.
pub fn pin_current_thread(n: usize) -> CpuMask {
    let mut saved: CpuMask = [0; 16];
    // SAFETY: the kernel writes at most `size_of_val(&saved)` bytes.
    let got = unsafe { sched_getaffinity(0, std::mem::size_of_val(&saved), saved.as_mut_ptr()) };
    let allowed: Vec<usize> = (0..saved.len() * 64)
        .filter(|&cpu| saved[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect();
    if got == 0 && !allowed.is_empty() {
        let cpu = allowed[n % allowed.len()];
        let mut only: CpuMask = [0; 16];
        only[cpu / 64] = 1 << (cpu % 64);
        restore_affinity(only);
    }
    saved
}

/// The index, as [`pin_current_thread`] takes it, of the CPU the
/// calling thread may run on that runs a short fixed loop fastest right
/// now. The thread's mask is left as it was.
pub fn fastest_cpu() -> usize {
    let unpinned = pin_current_thread(0);
    let allowed: u32 = unpinned.iter().map(|w| w.count_ones()).sum();
    let mut fastest = (0, f64::INFINITY);
    for n in 0..allowed.max(1) as usize {
        pin_current_thread(n);
        let secs = (0..3)
            .map(|_| {
                let started = Instant::now();
                black_box(calibration_loop(PROBE_ITERS));
                started.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min);
        if secs < fastest.1 {
            fastest = (n, secs);
        }
    }
    restore_affinity(unpinned);
    fastest.0
}

/// Iterations of one [`fastest_cpu`] probe: about 2 ms.
const PROBE_ITERS: u64 = 1_000_000;

/// Sets the calling thread's affinity mask back to `mask`.
pub fn restore_affinity(mask: CpuMask) {
    // SAFETY: the kernel reads `size_of_val(&mask)` bytes.
    unsafe {
        sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr());
    }
}
