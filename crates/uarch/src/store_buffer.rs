//! Store buffer with store-to-load forwarding.
//!
//! Committed stores sit in the store buffer until they "drain" (a fixed
//! cycle window in this model). A younger load from the same address
//! normally *forwards* from the buffered store — fast. Two consequences
//! matter here:
//!
//! * **Speculative Store Bypass** (§3.2, §5.5): while an older store's
//!   address is still unresolved, the memory-disambiguation predictor may
//!   let a younger load run ahead and read the *stale* value from memory.
//!   The transient path consults [`StoreBuffer::bypass_value`] for this.
//! * **SSBD**: disabling the bypass means every load that could alias an
//!   in-flight store must wait for it to resolve; the model charges
//!   `ssbd_forward_stall` cycles per forwarding opportunity, which is what
//!   makes store-heavy PARSEC kernels slow down (Figure 5).

use std::collections::VecDeque;

use crate::isa::Width;

/// How many cycles a store remains "in flight" (address unresolved /
/// undrained) after it executes.
pub const DRAIN_WINDOW: u64 = 60;

/// Maximum buffered stores (x86 store buffers are ~42-56 entries).
pub const CAPACITY: usize = 48;

/// A buffered store.
#[derive(Debug, Clone, Copy)]
pub struct BufferedStore {
    /// Virtual address of the store.
    pub vaddr: u64,
    /// Access width.
    pub width: Width,
    /// The value being stored.
    pub value: u64,
    /// The memory value this store overwrote — what a bypassing load
    /// transiently observes under Speculative Store Bypass.
    pub stale: u64,
    /// Cycle at which the store executed.
    pub cycle: u64,
}

impl BufferedStore {
    /// Whether this store's bytes overlap a load of `width` at `vaddr`.
    fn overlaps(&self, vaddr: u64, width: Width) -> bool {
        let a0 = self.vaddr;
        let a1 = self.vaddr + self.width.bytes();
        let b0 = vaddr;
        let b1 = vaddr + width.bytes();
        a0 < b1 && b0 < a1
    }
}

/// What the store buffer says about a load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ForwardOutcome {
    /// No in-flight store overlaps the load.
    NoConflict,
    /// An in-flight store fully covers the load; forwarding supplies
    /// `value`.
    Forwarded {
        /// The forwarded value, already truncated to the load width.
        value: u64,
    },
    /// An in-flight store partially overlaps the load; the load must wait
    /// for the store to drain (no fast-forward possible).
    PartialOverlap,
}

/// The store buffer.
#[derive(Debug, Default)]
pub struct StoreBuffer {
    entries: VecDeque<BufferedStore>,
    /// Number of loads that used store-to-load forwarding (diagnostics and
    /// the SSBD cost model).
    pub forwards: u64,
    /// Conservative address-range superset of every buffered store:
    /// `[lo, hi)` contains all entries' bytes. It only grows while the
    /// buffer is non-empty (draining does not shrink it) and resets when
    /// the buffer empties. A load disjoint from the superset provably
    /// overlaps nothing, so the per-load reverse scan — the hot cost of
    /// every committed load — is skipped without changing any outcome.
    lo: u64,
    hi: u64,
}

impl StoreBuffer {
    /// Creates an empty store buffer.
    pub fn new() -> StoreBuffer {
        StoreBuffer::default()
    }

    /// Records a committed store at the given cycle. `stale` is the memory
    /// value being overwritten (the SSB leak payload).
    pub fn push(&mut self, vaddr: u64, width: Width, value: u64, stale: u64, cycle: u64) {
        if self.entries.is_empty() {
            self.lo = vaddr;
            self.hi = vaddr + width.bytes();
        } else {
            self.lo = self.lo.min(vaddr);
            self.hi = self.hi.max(vaddr + width.bytes());
        }
        if self.entries.len() >= CAPACITY {
            self.entries.pop_front();
        }
        self.entries.push_back(BufferedStore {
            vaddr,
            width,
            value: width.truncate(value),
            stale: width.truncate(stale),
            cycle,
        });
    }

    /// Drops stores older than the drain window relative to `now`.
    pub fn drain(&mut self, now: u64) {
        while let Some(front) = self.entries.front() {
            if now.saturating_sub(front.cycle) > DRAIN_WINDOW {
                self.entries.pop_front();
            } else {
                break;
            }
        }
        if self.entries.is_empty() {
            self.lo = 0;
            self.hi = 0;
        }
    }

    /// Empties the buffer (mfence/sfence, serializing events).
    pub fn flush(&mut self) {
        self.entries.clear();
        self.lo = 0;
        self.hi = 0;
    }

    /// Whether a load of `width` at `vaddr` is disjoint from the range
    /// superset (and therefore from every buffered store).
    #[inline]
    fn disjoint(&self, vaddr: u64, width: Width) -> bool {
        self.entries.is_empty() || vaddr + width.bytes() <= self.lo || vaddr >= self.hi
    }

    /// Checks whether a load at `vaddr` of `width` at cycle `now` hits an
    /// in-flight store, and with what outcome.
    ///
    /// The youngest overlapping store wins, as on hardware.
    pub fn check_load(&mut self, vaddr: u64, width: Width, now: u64) -> ForwardOutcome {
        self.drain(now);
        if self.disjoint(vaddr, width) {
            return ForwardOutcome::NoConflict;
        }
        for st in self.entries.iter().rev() {
            if !st.overlaps(vaddr, width) {
                continue;
            }
            // Full containment: st covers [vaddr, vaddr+width).
            if st.vaddr <= vaddr && vaddr + width.bytes() <= st.vaddr + st.width.bytes() {
                let shift = (vaddr - st.vaddr) * 8;
                let value = width.truncate(st.value >> shift);
                self.forwards += 1;
                return ForwardOutcome::Forwarded { value };
            }
            return ForwardOutcome::PartialOverlap;
        }
        ForwardOutcome::NoConflict
    }

    /// The Speculative Store Bypass lever: the stale value a bypassing
    /// load observes, meaning a vulnerable CPU without SSBD may
    /// transiently read it instead of the store's value. It is the
    /// pre-store memory contents recorded by the youngest in-flight store
    /// fully covering the load; `None` if no bypass is possible.
    pub fn bypass_value(&self, vaddr: u64, width: Width, now: u64) -> Option<u64> {
        if self.disjoint(vaddr, width) {
            return None;
        }
        for st in self.entries.iter().rev() {
            if now.saturating_sub(st.cycle) > DRAIN_WINDOW || !st.overlaps(vaddr, width) {
                continue;
            }
            if st.vaddr <= vaddr && vaddr + width.bytes() <= st.vaddr + st.width.bytes() {
                let shift = (vaddr - st.vaddr) * 8;
                return Some(width.truncate(st.stale >> shift));
            }
            return None;
        }
        None
    }

    /// The seed's [`StoreBuffer::check_load`], kept verbatim (the
    /// reverse scan runs on every load, no range-superset filter) so the
    /// reference interpreter's timing reflects the pre-refactor
    /// implementation. Observable-identical to `check_load`.
    pub(crate) fn check_load_reference(&mut self, vaddr: u64, width: Width, now: u64) -> ForwardOutcome {
        self.drain(now);
        for st in self.entries.iter().rev() {
            if !st.overlaps(vaddr, width) {
                continue;
            }
            if st.vaddr <= vaddr && vaddr + width.bytes() <= st.vaddr + st.width.bytes() {
                let shift = (vaddr - st.vaddr) * 8;
                let value = width.truncate(st.value >> shift);
                self.forwards += 1;
                return ForwardOutcome::Forwarded { value };
            }
            return ForwardOutcome::PartialOverlap;
        }
        ForwardOutcome::NoConflict
    }

    /// The seed's [`StoreBuffer::bypass_value`], without the
    /// range-superset filter; see `check_load_reference`.
    pub(crate) fn bypass_value_reference(&self, vaddr: u64, width: Width, now: u64) -> Option<u64> {
        for st in self.entries.iter().rev() {
            if now.saturating_sub(st.cycle) > DRAIN_WINDOW || !st.overlaps(vaddr, width) {
                continue;
            }
            if st.vaddr <= vaddr && vaddr + width.bytes() <= st.vaddr + st.width.bytes() {
                let shift = (vaddr - st.vaddr) * 8;
                return Some(width.truncate(st.stale >> shift));
            }
            return None;
        }
        None
    }

    /// Whether any store issued within the last `window` cycles (its
    /// address may still be unresolved). With SSBD, a load executing in
    /// this window must wait instead of speculatively assuming no alias —
    /// that wait is the whole cost of the mitigation.
    pub fn has_unresolved_store(&self, now: u64, window: u64) -> bool {
        self.entries
            .iter()
            .rev()
            .take(4)
            .any(|st| now.saturating_sub(st.cycle) <= window)
    }

    /// Number of in-flight stores.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forwarding_supplies_latest_value() {
        let mut sb = StoreBuffer::new();
        sb.push(0x100, Width::B8, 1, 0xee, 0);
        sb.push(0x100, Width::B8, 2, 0xee, 5);
        match sb.check_load(0x100, Width::B8, 10) {
            ForwardOutcome::Forwarded { value } => assert_eq!(value, 2),
            other => panic!("expected forward, got {other:?}"),
        }
        assert_eq!(sb.forwards, 1);
    }

    #[test]
    fn no_conflict_when_disjoint() {
        let mut sb = StoreBuffer::new();
        sb.push(0x100, Width::B8, 1, 0xee, 0);
        assert_eq!(sb.check_load(0x200, Width::B8, 1), ForwardOutcome::NoConflict);
    }

    #[test]
    fn subword_forwarding_extracts_bytes() {
        let mut sb = StoreBuffer::new();
        sb.push(0x100, Width::B8, 0x1122_3344_5566_7788, 0, 0);
        match sb.check_load(0x101, Width::B1, 1) {
            ForwardOutcome::Forwarded { value } => assert_eq!(value, 0x77),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn partial_overlap_detected() {
        let mut sb = StoreBuffer::new();
        sb.push(0x100, Width::B2, 0xaaaa, 0, 0);
        // 8-byte load over a 2-byte store: not fully covered.
        assert_eq!(sb.check_load(0x100, Width::B8, 1), ForwardOutcome::PartialOverlap);
    }

    #[test]
    fn stores_drain_after_window() {
        let mut sb = StoreBuffer::new();
        sb.push(0x100, Width::B8, 1, 0xee, 0);
        assert_eq!(sb.check_load(0x100, Width::B8, DRAIN_WINDOW + 100), ForwardOutcome::NoConflict);
        assert!(sb.is_empty());
    }

    #[test]
    fn bypass_window_tracks_in_flight_stores() {
        let mut sb = StoreBuffer::new();
        sb.push(0x100, Width::B8, 1, 0xee, 100);
        assert_eq!(sb.bypass_value(0x100, Width::B8, 110), Some(0xee));
        assert_eq!(sb.bypass_value(0x100, Width::B8, 100 + DRAIN_WINDOW + 1), None);
        assert_eq!(sb.bypass_value(0x900, Width::B8, 110), None);
    }

    #[test]
    fn capacity_is_bounded() {
        let mut sb = StoreBuffer::new();
        for i in 0..(CAPACITY as u64 + 20) {
            sb.push(i * 8, Width::B8, i, 0, i);
        }
        assert!(sb.len() <= CAPACITY);
    }

    #[test]
    fn flush_empties() {
        let mut sb = StoreBuffer::new();
        sb.push(0x100, Width::B8, 1, 0xee, 0);
        sb.flush();
        assert!(sb.is_empty());
    }
}
