//! Performance counter bank.
//!
//! Counters deliberately include *transient* activity where the hardware
//! does: divide instructions executed in a squashed window still occupy the
//! divider, which is the whole basis of the paper's speculation probe
//! (§6.1, after Bölük).

use crate::isa::Pmc;

/// A bank of free-running performance counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PmcBank {
    counts: [u64; 6],
}

impl PmcBank {
    /// Creates a zeroed bank.
    pub fn new() -> PmcBank {
        PmcBank::default()
    }

    /// Reads a counter.
    #[inline]
    pub fn read(&self, pmc: Pmc) -> u64 {
        self.counts[pmc.index()]
    }

    /// Adds to a counter.
    #[inline]
    pub fn add(&mut self, pmc: Pmc, n: u64) {
        self.counts[pmc.index()] += n;
    }

    /// Increments a counter by one.
    #[inline]
    pub fn incr(&mut self, pmc: Pmc) {
        self.add(pmc, 1);
    }

    /// Resets every counter to zero.
    pub fn reset(&mut self) {
        self.counts = [0; 6];
    }
}

/// Process-wide interpreter throughput counters.
///
/// Every [`crate::machine::Machine`] publishes its committed-instruction
/// and transient-window deltas here when a run or slice ends (and on
/// drop). The per-step dispatch loop never touches these atomics — the
/// flush is batched — so the counters are free on the hot path but still
/// monotonic and accurate at every observation point that matters
/// (between experiment runs). The `serve` crate exports them as
/// `regen_uarch_*` metrics.
pub mod global {
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Committed instructions across all machines in this process.
    pub static INSTRUCTIONS: AtomicU64 = AtomicU64::new(0);
    /// Transient (squashed) instructions across all machines.
    pub static TRANSIENT_INSTRUCTIONS: AtomicU64 = AtomicU64::new(0);
    /// Transient windows opened across all machines.
    pub static TRANSIENT_WINDOWS: AtomicU64 = AtomicU64::new(0);

    /// Publishes one machine's counter deltas.
    pub fn flush(insts: u64, transient_insts: u64, transient_windows: u64) {
        if insts != 0 {
            INSTRUCTIONS.fetch_add(insts, Ordering::Relaxed);
        }
        if transient_insts != 0 {
            TRANSIENT_INSTRUCTIONS.fetch_add(transient_insts, Ordering::Relaxed);
        }
        if transient_windows != 0 {
            TRANSIENT_WINDOWS.fetch_add(transient_windows, Ordering::Relaxed);
        }
    }

    /// A consistent-enough snapshot of the three totals, in the order
    /// (instructions, transient instructions, transient windows).
    pub fn snapshot() -> (u64, u64, u64) {
        (
            INSTRUCTIONS.load(Ordering::Relaxed),
            TRANSIENT_INSTRUCTIONS.load(Ordering::Relaxed),
            TRANSIENT_WINDOWS.load(Ordering::Relaxed),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_independent() {
        let mut b = PmcBank::new();
        b.add(Pmc::DividerActive, 20);
        b.incr(Pmc::IndirectMispredict);
        assert_eq!(b.read(Pmc::DividerActive), 20);
        assert_eq!(b.read(Pmc::IndirectMispredict), 1);
        assert_eq!(b.read(Pmc::Cycles), 0);
    }

    #[test]
    fn reset_zeroes_everything() {
        let mut b = PmcBank::new();
        for p in Pmc::ALL {
            b.add(p, 5);
        }
        b.reset();
        for p in Pmc::ALL {
            assert_eq!(b.read(p), 0);
        }
    }
}
