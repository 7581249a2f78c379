//! Host-speed calibration.
//!
//! A shared host slows a process by up to 1.9x for stretches that last
//! as long as a whole run, and a fresh process may land in a slow or a
//! fast stretch, so a host time taken alone measures the host as much
//! as the program. Before every operation the timed loop times a fixed
//! piece of work that does not depend on the simulator, and scales the
//! operation's host time by `REFERENCE_NS` over the work's time around
//! it. The work is interpreter-like: a state machine with
//! data-dependent branches over a table in the L1 cache and then over
//! one in the L2 cache, so host load slows it too, though by less than
//! it slows the simulator (see `perfbench/README.md`). A change to the
//! simulator cannot move it: it lives in the benchmark.

use std::hint::black_box;
use std::time::Instant;

/// Steps of the state machine over each table.
const STEPS: u32 = 6_000;
/// Table words: 16 KiB, resident in the L1 data cache, and 256 KiB,
/// resident in L2.
const L1_WORDS: usize = 1 << 12;
const L2_WORDS: usize = 1 << 16;
/// About one calibration sample on the 2-vCPU Xeon VM the benchmark was
/// tuned on, ns: scaled times read as times on a host where a sample
/// takes this long.
pub const REFERENCE_NS: f64 = 150_000.0;
/// Samples on each side of an operation that scale it: their median
/// rides over a sample that was itself preempted.
pub const SPAN: usize = 4;

/// `STEPS` steps of the state machine over `table`.
fn walk(table: &mut [u32]) -> u32 {
    let mut x: u64 = black_box(0x9E37_79B9_7F4A_7C15);
    let mut acc = 0u32;
    for i in 0..STEPS {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let k = (x >> 40) as usize % table.len();
        let v = table[k];
        acc = match (x >> 36) & 3 {
            0 => acc.wrapping_add(v),
            1 => acc ^ v.rotate_left(7),
            2 => acc.wrapping_sub(v >> 3),
            _ => acc.wrapping_mul(v | 1),
        };
        table[k] = v.wrapping_add(i ^ acc);
    }
    acc
}

/// Runs the calibration work once and returns its host time, ns.
fn sample() -> f64 {
    let mut small = [1u32; L1_WORDS];
    // Written before the clock starts, so no page fault is timed.
    let mut large = vec![1u32; L2_WORDS];
    let t0 = Instant::now();
    black_box(walk(&mut small) ^ walk(&mut large));
    t0.elapsed().as_nanos() as f64
}

/// One calibration sample on each of `threads` threads at once, ns:
/// their mean, since a farm batch spreads its runs over all of them.
pub fn measure(threads: usize) -> f64 {
    if threads <= 1 {
        return sample();
    }
    let times: Vec<f64> = std::thread::scope(|s| {
        let hs: Vec<_> = (0..threads).map(|_| s.spawn(sample)).collect();
        hs.into_iter()
            .map(|h| h.join().expect("calibration does not panic"))
            .collect()
    });
    times.iter().sum::<f64>() / times.len() as f64
}
