//! Host-speed correction: a fixed reference kernel, timed between passes,
//! scales every end-to-end time to one nominal host speed.
//!
//! On a shared virtual machine the host's speed drifts by ±20 % over tens
//! of seconds, and a slow phase can cover a whole run. The drift comes
//! through the memory system the tenants share, not the clock rate: a
//! pure arithmetic loop hardly moves while the simulator slows. The
//! kernel therefore does to memory what the simulator's hot path does: a
//! binary-heap event loop over per-node state, and random
//! read-modify-writes over a fresh table four times the size of the
//! core's L2. Its code is the benchmark's own and its input is fixed, so
//! a change to the simulator cannot move it.
//!
//! A time measured between two readings of the kernel is multiplied by
//! `NOMINAL_S` ÷ the mean of the two: it becomes the time the work would
//! have taken while the kernel took `NOMINAL_S`. Between two commits on
//! one host, the corrected times compare as the raw ones would on a host
//! that held still.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

/// The kernel's median time on the host the benchmark was tuned on
/// (2-vCPU virtual machine, Intel Xeon family 6 model 207, 2.1 GHz).
pub const NOMINAL_S: f64 = 0.048;

/// Rounds of the kernel per reading.
const ROUNDS: u64 = 4;
const TABLE_WORDS: usize = 1 << 21;
const TABLE_UPDATES: u64 = 200_000;
const NODES: u64 = 4096;
const STATE_WORDS: usize = 1 << 16;
const EVENTS: u64 = 100_000;

fn lcg(x: u64) -> u64 {
    x.wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407)
}

/// One reading: host seconds for `ROUNDS` rounds of the kernel.
pub fn reference_s() -> f64 {
    let t0 = Instant::now();
    for _ in 0..ROUNDS {
        let mut table: Vec<u64> = (0..TABLE_WORDS as u64).collect();
        let mut x = 12_345u64;
        for _ in 0..TABLE_UPDATES {
            x = lcg(x);
            let j = (x >> 43) as usize & (TABLE_WORDS - 1);
            table[j] = table[j].wrapping_add(x);
        }
        black_box(&table);

        let mut heap: BinaryHeap<Reverse<(u64, u64)>> =
            (0..NODES).map(|n| Reverse((n, n))).collect();
        let mut state = vec![0u64; STATE_WORDS];
        let mut x = 777u64;
        for _ in 0..EVENTS {
            let Reverse((at, node)) = heap.pop().expect("the heap never empties");
            x = lcg(x);
            let k = (node as usize * 16 + (x >> 60) as usize) & (STATE_WORDS - 1);
            state[k] = state[k].wrapping_add(at);
            heap.push(Reverse((at + 1 + (x >> 50), (x >> 20) % NODES)));
        }
        black_box(&state);
    }
    t0.elapsed().as_secs_f64()
}

/// Readings of the kernel around a sequence of timed pieces of work.
pub struct HostSpeed {
    last: f64,
    /// Every reading, for the printed summary.
    pub readings: Vec<f64>,
}

impl HostSpeed {
    /// Takes the reading that precedes the first piece of work.
    pub fn start() -> HostSpeed {
        let last = reference_s();
        HostSpeed {
            last,
            readings: vec![last],
        }
    }

    /// Takes the reading that follows a piece of work, and returns the
    /// factor that corrects its times: `NOMINAL_S` ÷ the mean of the
    /// readings before and after it.
    pub fn factor(&mut self) -> f64 {
        let now = reference_s();
        self.readings.push(now);
        let f = NOMINAL_S / ((self.last + now) / 2.0);
        self.last = now;
        f
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_scales_by_the_mean_of_the_readings_around_the_work() {
        let mut speed = HostSpeed::start();
        let f = speed.factor();
        let r = &speed.readings;
        assert_eq!(r.len(), 2);
        assert_eq!(f, NOMINAL_S / ((r[0] + r[1]) / 2.0));
    }
}
