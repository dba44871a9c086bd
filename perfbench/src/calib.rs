//! Host-speed calibration. The host's speed drifts by tens of percent over
//! tens of seconds (other tenants), so the end-to-end timings are scaled
//! to a reference speed by a fixed kernel that shares no code with the
//! workspace: a change to the workspace cannot move it.

use std::time::Instant;

/// Kernel time on the reference host (2-CPU Intel Xeon, 2.1 GHz) in a
/// quiet period.
pub const REFERENCE_S: f64 = 0.013;

/// Runs the kernel on `workers` threads at once, as the workload loads
/// them, and returns the mean kernel time in seconds (allocation and
/// thread start excluded).
pub fn calibrate(workers: usize) -> f64 {
    let times: Vec<f64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|w| s.spawn(move || kernel(w as u64 + 1)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("calibration thread"))
            .collect()
    });
    times.iter().sum::<f64>() / times.len() as f64
}

/// Random read-modify-writes over a 512 KiB table: integer work plus
/// cache misses, like the simulator's arena walks, with little memory (the
/// run's `peak_rss_mb` includes it).
fn kernel(seed: u64) -> f64 {
    let mut table: Vec<u64> = (0..1u64 << 16).collect();
    let mask = table.len() - 1;
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut acc = 0u64;
    let t0 = Instant::now();
    for _ in 0..4_000_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let i = x as usize & mask;
        table[i] = table[i].wrapping_add(x);
        acc ^= table[(i * 7 + 3) & mask];
    }
    std::hint::black_box(acc);
    t0.elapsed().as_secs_f64()
}
