//! Host-speed calibration.
//!
//! On a shared host, such as a cloud VM with busy neighbours, the speed a
//! process gets can swing by 1.5× or more over minutes, for every workload
//! at once. A run therefore also times this fixed kernel between its
//! repeats and scales its host times by `REFERENCE_S / median(kernel time)`:
//! the scaled figures are host seconds at the kernel's reference speed, so
//! two runs made minutes apart compare. The kernel is benchmark code, so a
//! change to the program moves the scaled figures exactly as the raw ones.
//!
//! The kernel mixes what the simulator does: random reads and writes over
//! a buffer larger than the caches (flow and event tables), a binary heap
//! and a hash map under churn (event queues, flow maps), and a streaming
//! floating-point pass (solver loops).

use std::collections::{BinaryHeap, HashMap};
use std::time::Instant;

/// Kernel time, seconds, that scaled figures are expressed at.
pub const REFERENCE_S: f64 = 0.05;

/// Words in the random-access buffer (64 MiB).
const BIG_WORDS: usize = 1 << 23;
/// Values in the streaming buffer (8 MiB).
const SMALL_VALUES: usize = 1 << 20;

/// Bytes the kernel keeps resident for the whole run; peak RSS figures
/// subtract them.
pub const RESIDENT_BYTES: usize = BIG_WORDS * 8 + SMALL_VALUES * 8;

/// The kernel and its buffers, touched once at creation.
#[derive(Debug)]
pub struct Calib {
    big: Vec<u64>,
    small: Vec<f64>,
}

impl Default for Calib {
    fn default() -> Self {
        Calib::new()
    }
}

impl Calib {
    /// Allocates and fills the buffers.
    pub fn new() -> Calib {
        Calib {
            big: (0..BIG_WORDS as u64).map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15)).collect(),
            small: vec![1.0; SMALL_VALUES],
        }
    }

    /// Runs the kernel once and returns its host seconds.
    pub fn sample(&mut self) -> f64 {
        let t0 = Instant::now();
        let lcg = |x: u64| x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let (mut x, mut acc) = (1u64, 0u64);
        for _ in 0..1_000_000 {
            x = lcg(x);
            let i = (x >> 40) as usize & (BIG_WORDS - 1);
            acc = acc.wrapping_add(self.big[i]);
            self.big[i] ^= acc;
        }
        let mut heap = BinaryHeap::new();
        let mut map: HashMap<u64, u64> = HashMap::new();
        for i in 0..150_000u64 {
            x = lcg(x);
            heap.push(std::cmp::Reverse(x >> 20));
            if heap.len() > 20_000 {
                acc = acc.wrapping_add(heap.pop().map_or(0, |r| r.0));
            }
            map.insert(x & 0xffff, i);
            if let Some(y) = map.remove(&((x >> 9) & 0xffff)) {
                acc = acc.wrapping_add(y);
            }
        }
        for r in 0..10usize {
            for (j, v) in self.small.iter_mut().enumerate() {
                *v = *v * 0.999 + (j ^ r) as f64 * 1e-9;
            }
        }
        std::hint::black_box((acc, self.small[SMALL_VALUES / 2]));
        t0.elapsed().as_secs_f64()
    }
}
