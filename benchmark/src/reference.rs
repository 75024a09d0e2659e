//! The reference kernel: how fast is the host right now?
//!
//! The reference host shares its cores' caches and its memory with
//! other tenants, and everything with instruction-level parallelism or
//! a working set beyond L1 runs up to twice as slow for seconds or
//! minutes at a time (README, "Load shape"). No statistic of raw times
//! survives that, so every host-time sample is taken together with a
//! measurement of this kernel and reported scaled to the kernel's
//! nominal speed — the in-process ratio ROADMAP item 1 asks the gate to
//! rest on. Raw times are reported beside the scaled ones, unbounded.
//!
//! The kernel is eight independent multiply-add chains, each reading
//! (and now and then writing) a table at an index that depends on its
//! own state: issue-width-bound like the code under test, with a table
//! sized to miss the cache level the workload misses.

use std::time::Instant;

/// Multiply-adds per step.
const OPS_PER_STEP: usize = 128;
const CHAINS: usize = 8;

pub struct Reference {
    table: Vec<u64>,
    chains: [u64; CHAINS],
    nominal_ns: f64,
}

impl Reference {
    /// A kernel over a table of `table_bytes` (a power of two), whose
    /// step takes `nominal_ns` on the reference host at its calmest.
    pub fn new(table_bytes: usize, nominal_ns: f64) -> Self {
        assert!(table_bytes.is_power_of_two() && table_bytes >= 8);
        let table = (0..table_bytes as u64 / 8)
            .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .collect();
        let mut r = Reference {
            table,
            chains: [1, 2, 3, 4, 5, 6, 7, 8],
            nominal_ns,
        };
        // Fault the table in and fill the caches it fits.
        r.step_ns(4096);
        r
    }

    /// Host ns per step over `steps` steps.
    fn step_ns(&mut self, steps: usize) -> f64 {
        let mask = self.table.len() - 1;
        let mut c = self.chains;
        let t0 = Instant::now();
        for round in 0..steps * OPS_PER_STEP / CHAINS {
            for (k, c) in c.iter_mut().enumerate() {
                let at = ((*c >> 20) as usize + round + 37 * k) & mask;
                *c = c
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(self.table[at]);
                if *c & 63 == 0 {
                    self.table[at] ^= *c;
                }
            }
        }
        let ns = t0.elapsed().as_nanos() as f64;
        self.chains = c;
        ns / steps as f64
    }

    /// The host's speed right now, as a share of nominal (1 = the
    /// reference host at its calmest, 0.5 = half as fast), from `steps`
    /// steps of the kernel.
    pub fn speed(&mut self, steps: usize) -> f64 {
        self.nominal_ns / self.step_ns(steps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speed_is_positive_and_state_advances() {
        let mut r = Reference::new(1 << 16, 100.0);
        let before = r.chains;
        assert!(r.speed(64) > 0.0);
        assert_ne!(before, r.chains);
    }
}
