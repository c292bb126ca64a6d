//! Machine-speed calibration. On a small shared host the same call's wall
//! time switches between levels about 1.5x apart, in phases that last
//! seconds, with no steal time to show for it. A run's median then follows
//! its share of slow phases, not the code. So every timed interval is
//! bracketed by a fixed calibration kernel, and its wall time is scaled to
//! a reference machine on which that kernel takes [`REFERENCE_S`]. The
//! kernel has a cache-resident part and a part that misses the core's
//! caches, because the interference slows both kinds of work.

use std::hint::black_box;
use std::time::Instant;

use crate::workload::mix;

/// The calibration kernel's time on the reference machine.
pub const REFERENCE_S: f64 = 1e-3;
/// Keys the calibration kernel sorts (512 KiB, resident in a core's L2).
const KEYS: u64 = 65_536;
/// Words of the table the kernel loads from at random (16 MiB, beyond
/// any core's private caches).
const TABLE: u64 = 1 << 21;
/// Random loads per kernel run.
const LOADS: u64 = 65_536;
/// Seed of the calibration keys; fixed, so the kernel does the same work
/// in every run.
const KEY_SEED: u64 = 0xCA1;

/// The calibration kernel, timed: `sort_unstable` of a fixed set of
/// pseudo-random `u64` keys, then a fixed sequence of independent random
/// loads from a table.
pub struct Calibration {
    keys: Vec<u64>,
    work: Vec<u64>,
    table: Vec<u64>,
    /// Every sample taken, in seconds.
    samples: Vec<f64>,
}

impl Calibration {
    pub fn new() -> Self {
        let keys: Vec<u64> = (0..KEYS).map(|i| mix(KEY_SEED, i)).collect();
        let mut cal = Self {
            work: keys.clone(),
            keys,
            table: (0..TABLE).collect(),
            samples: Vec::new(),
        };
        cal.sample();
        cal
    }

    /// Seconds the kernel takes now.
    fn sample(&mut self) -> f64 {
        self.work.copy_from_slice(&self.keys);
        let t = Instant::now();
        black_box(&mut self.work).sort_unstable();
        let mut sum = 0u64;
        for &key in &self.keys[..LOADS as usize] {
            sum = sum.wrapping_add(self.table[(key % TABLE) as usize]);
        }
        black_box(sum);
        let secs = t.elapsed().as_secs_f64();
        self.samples.push(secs);
        secs
    }

    /// Runs `f` between two kernel samples. Returns its output and the
    /// factor that turns a wall time measured inside `f` into time at
    /// reference speed.
    pub fn around<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64) {
        let before = self.sample();
        let out = f();
        let after = self.sample();
        (out, 2.0 * REFERENCE_S / (before + after))
    }

    /// Memory the kernel holds for the whole run, MiB.
    pub fn resident_mb(&self) -> f64 {
        ((self.keys.len() + self.work.len() + self.table.len()) * 8) as f64 / (1 << 20) as f64
    }

    /// Median kernel time of the run so far, in milliseconds.
    pub fn median_ms(&self) -> f64 {
        crate::median(&mut self.samples.clone()) * 1e3
    }
}
