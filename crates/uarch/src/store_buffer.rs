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
//!   [`StoreBuffer::check_load`] reports the youngest overlapping store
//!   with the load's outcome, and [`StoreBuffer::bypass_after_check`]
//!   turns it into the stale value without a second scan.
//! * **SSBD**: disabling the bypass means every load that could alias an
//!   in-flight store must wait for it to resolve; the model charges
//!   `ssbd_forward_stall` cycles per forwarding opportunity, which is what
//!   makes store-heavy PARSEC kernels slow down (Figure 5).

use std::fmt;
use std::iter::Chain;
use std::slice::Iter;

use crate::fill_buffer::wrap;
use crate::isa::Width;

/// How many cycles a store remains "in flight" (address unresolved /
/// undrained) after it executes.
pub const DRAIN_WINDOW: u64 = 60;

/// Maximum buffered stores (x86 store buffers are ~42-56 entries).
pub const CAPACITY: usize = 48;

/// A buffered store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
    /// What a ring slot holds before any store reaches it.
    const EMPTY: BufferedStore =
        BufferedStore { vaddr: 0, width: Width::B1, value: 0, stale: 0, cycle: 0 };

    /// Where a load of `width` at `vaddr` sits against this store's bytes.
    #[inline]
    fn overlap(&self, vaddr: u64, width: Width) -> Overlap {
        overlap(self.vaddr, last_byte(self.vaddr, self.width), vaddr, last_byte(vaddr, width))
    }

    /// Whether this store's bytes overlap a load of `width` at `vaddr`.
    fn overlaps(&self, vaddr: u64, width: Width) -> bool {
        self.overlap(vaddr, width) != Overlap::Disjoint
    }
}

/// How a load's bytes sit against a store's (see [`overlap`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Overlap {
    /// No byte in common.
    Disjoint,
    /// The store holds every byte of the load, starting `offset` bytes
    /// into the store.
    Covered {
        /// Distance from the store's first byte to the load's.
        offset: u64,
    },
    /// Some bytes in common, but not all of the load's.
    Partial,
}

/// The last byte of a `width` access at `addr`, modulo 2^64.
#[inline(always)]
pub(crate) fn last_byte(addr: u64, width: Width) -> u64 {
    addr.wrapping_add(width.bytes() - 1)
}

/// Where the load bytes `load..=load_last` sit against the store bytes
/// `store..=store_last`. Both ranges are taken modulo 2^64, so either may
/// wrap past the top of the address space; every forwarding, bypass and
/// range-filter decision, the reference twins' included, goes through
/// here. Two ranges on a circle share a byte exactly when one of them
/// holds the other's first byte.
#[inline(always)]
pub(crate) fn overlap(store: u64, store_last: u64, load: u64, load_last: u64) -> Overlap {
    let store_span = store_last.wrapping_sub(store);
    let load_span = load_last.wrapping_sub(load);
    let offset = load.wrapping_sub(store);
    if offset <= store_span {
        // Past the store's last byte the load can only come back into it
        // by wrapping all the way round, which a whole-space range allows.
        if load_span <= store_span - offset || store_span == u64::MAX {
            Overlap::Covered { offset }
        } else {
            Overlap::Partial
        }
    } else if store.wrapping_sub(load) <= load_span {
        Overlap::Partial
    } else {
        Overlap::Disjoint
    }
}

/// The youngest in-flight store that overlaps a committed load, as
/// [`StoreBuffer::check_load`] found it: what the Speculative Store
/// Bypass decision needs, so it does not scan the buffer again.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Youngest {
    /// Cycle at which the store executed.
    pub cycle: u64,
    /// The stale bytes a load bypassing this store observes, truncated
    /// to the load width; `None` when the store covers the load only
    /// partly (no bypass is possible then).
    pub stale: Option<u64>,
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

/// The store buffer: a fixed ring of the last [`CAPACITY`] stores,
/// oldest first from `head`. Two buffers are equal when their live
/// entries, in order, and their other fields are; the ring offset and
/// the dead slots do not count.
pub struct StoreBuffer {
    ring: [BufferedStore; CAPACITY],
    /// Slot of the oldest live entry.
    head: usize,
    /// Number of live entries.
    len: usize,
    /// Number of loads that used store-to-load forwarding (diagnostics and
    /// the SSBD cost model).
    pub forwards: u64,
    /// Conservative address-range superset of every buffered store:
    /// bytes `lo..=hi` (modulo 2^64) contain all entries' bytes. It only
    /// grows while the buffer is non-empty (draining does not shrink it)
    /// and is reset by the first push into an empty buffer; a store that
    /// wraps past the top of the address space widens it to everything.
    /// A load disjoint from the superset provably overlaps nothing, so
    /// the per-load reverse scan — the hot cost of every committed load —
    /// is skipped without changing any outcome.
    lo: u64,
    hi: u64,
}

impl Default for StoreBuffer {
    fn default() -> StoreBuffer {
        StoreBuffer {
            ring: [BufferedStore::EMPTY; CAPACITY],
            head: 0,
            len: 0,
            forwards: 0,
            lo: 0,
            hi: 0,
        }
    }
}

impl PartialEq for StoreBuffer {
    fn eq(&self, other: &StoreBuffer) -> bool {
        (self.forwards, self.lo, self.hi) == (other.forwards, other.lo, other.hi)
            && self.live().eq(other.live())
    }
}

impl Eq for StoreBuffer {}

impl fmt::Debug for StoreBuffer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StoreBuffer")
            .field("entries", &self.live().collect::<Vec<_>>())
            .field("forwards", &self.forwards)
            .field("lo", &self.lo)
            .field("hi", &self.hi)
            .finish()
    }
}

impl StoreBuffer {
    /// Creates an empty store buffer.
    pub fn new() -> StoreBuffer {
        StoreBuffer::default()
    }

    /// The live entries, oldest first.
    #[inline(always)]
    fn live(&self) -> Chain<Iter<'_, BufferedStore>, Iter<'_, BufferedStore>> {
        let (front, back) = self.ring.split_at(self.head);
        let wrapped = (self.head + self.len).saturating_sub(CAPACITY);
        back[..self.len - wrapped].iter().chain(&front[..wrapped])
    }

    /// Records a committed store at the given cycle. `stale` is the memory
    /// value being overwritten (the SSB leak payload).
    #[inline]
    pub fn push(&mut self, vaddr: u64, width: Width, value: u64, stale: u64, cycle: u64) {
        self.widen(vaddr, last_byte(vaddr, width));
        self.push_entry(BufferedStore {
            vaddr,
            width,
            value: width.truncate(value),
            stale: width.truncate(stale),
            cycle,
        });
    }

    /// Records the committed stores of one run of words over bytes
    /// `first..=last`, none of which wraps past the top of the address
    /// space, as one [`StoreBuffer::push`] per word would, given only
    /// the stores that survive: `stores` are the run's last
    /// `min(words, CAPACITY)`, oldest first, with their values and stale
    /// values already truncated to their widths. Each dropped push only
    /// widened the range superset, so it covers the whole run, and it is
    /// reset only if the buffer was empty before the run's first push.
    pub(crate) fn push_run(
        &mut self,
        first: u64,
        last: u64,
        stores: impl IntoIterator<Item = BufferedStore>,
    ) {
        self.widen(first, last);
        for store in stores {
            self.push_entry(store);
        }
    }

    /// Widens the range superset to take in bytes `first..=last` of a
    /// store about to be pushed; a push into an empty buffer resets it.
    #[inline(always)]
    fn widen(&mut self, first: u64, last: u64) {
        (self.lo, self.hi) = if self.is_empty() {
            (first, last)
        } else if last < first || self.hi < self.lo {
            // A range that wraps has no hull short of the whole space.
            (0, u64::MAX)
        } else {
            (self.lo.min(first), self.hi.max(last))
        };
    }

    /// Appends `store`; a full ring overwrites its oldest entry.
    #[inline(always)]
    fn push_entry(&mut self, store: BufferedStore) {
        if self.len == CAPACITY {
            self.ring[self.head] = store;
            self.head = wrap(self.head + 1, CAPACITY);
        } else {
            self.ring[wrap(self.head + self.len, CAPACITY)] = store;
            self.len += 1;
        }
    }

    /// Drops stores older than the drain window relative to `now`.
    #[inline]
    pub fn drain(&mut self, now: u64) {
        while self.len > 0 && now.saturating_sub(self.ring[self.head].cycle) > DRAIN_WINDOW {
            self.head = wrap(self.head + 1, CAPACITY);
            self.len -= 1;
        }
    }

    /// Empties the buffer (mfence/sfence, serializing events).
    pub fn flush(&mut self) {
        self.len = 0;
    }

    /// Whether a load of `width` at `vaddr` is disjoint from the range
    /// superset (and therefore from every buffered store).
    #[inline(always)]
    fn disjoint(&self, vaddr: u64, width: Width) -> bool {
        self.bytes_disjoint(vaddr, last_byte(vaddr, width))
    }

    /// Whether bytes `first..=last` are disjoint from the range superset.
    #[inline(always)]
    fn bytes_disjoint(&self, first: u64, last: u64) -> bool {
        self.is_empty() || overlap(self.lo, self.hi, first, last) == Overlap::Disjoint
    }

    /// Drains at `now`, then whether every load inside bytes
    /// `first..=last` finds no conflict, at `now` or at any later cycle
    /// with nothing pushed in between: the buffer is empty, or its range
    /// superset misses those bytes. Later drains only pop, and the
    /// superset does not shrink while entries remain.
    pub(crate) fn drain_clear_of(&mut self, first: u64, last: u64, now: u64) -> bool {
        self.drain(now);
        self.bytes_disjoint(first, last)
    }

    /// Checks whether a load at `vaddr` of `width` at cycle `now` hits an
    /// in-flight store, and with what outcome; also returns the youngest
    /// overlapping store for [`StoreBuffer::bypass_after_check`].
    ///
    /// The youngest overlapping store wins, as on hardware.
    #[inline]
    pub fn check_load(
        &mut self,
        vaddr: u64,
        width: Width,
        now: u64,
    ) -> (ForwardOutcome, Option<Youngest>) {
        self.drain(now);
        if self.disjoint(vaddr, width) {
            return (ForwardOutcome::NoConflict, None);
        }
        self.scan_load(vaddr, width)
    }

    /// The reverse scan behind [`StoreBuffer::check_load`], out of line
    /// so the range-filter exit stays small.
    #[inline(never)]
    fn scan_load(&mut self, vaddr: u64, width: Width) -> (ForwardOutcome, Option<Youngest>) {
        let found = self.live().rev().find_map(|st| match st.overlap(vaddr, width) {
            Overlap::Disjoint => None,
            overlap => Some((overlap, *st)),
        });
        match found {
            None => (ForwardOutcome::NoConflict, None),
            Some((Overlap::Covered { offset }, st)) => {
                let shift = offset * 8;
                self.forwards += 1;
                let youngest =
                    Youngest { cycle: st.cycle, stale: Some(width.truncate(st.stale >> shift)) };
                let value = width.truncate(st.value >> shift);
                (ForwardOutcome::Forwarded { value }, Some(youngest))
            }
            Some((_, st)) => {
                let youngest = Youngest { cycle: st.cycle, stale: None };
                (ForwardOutcome::PartialOverlap, Some(youngest))
            }
        }
    }

    /// The Speculative Store Bypass lever: the stale value a bypassing
    /// load observes, meaning a vulnerable CPU without SSBD may
    /// transiently read it instead of the store's value. It is the
    /// pre-store memory contents recorded by the youngest in-flight store
    /// overlapping the load, if that store covers it; `None` if no
    /// bypass is possible.
    pub fn bypass_value(&self, vaddr: u64, width: Width, now: u64) -> Option<u64> {
        if self.disjoint(vaddr, width) {
            return None;
        }
        for st in self.live().rev() {
            if now.saturating_sub(st.cycle) > DRAIN_WINDOW {
                continue;
            }
            match st.overlap(vaddr, width) {
                Overlap::Disjoint => continue,
                Overlap::Covered { offset } => {
                    return Some(width.truncate(st.stale >> (offset * 8)));
                }
                Overlap::Partial => return None,
            }
        }
        None
    }

    /// [`StoreBuffer::bypass_value`] at `now` for a load that
    /// [`StoreBuffer::check_load`] just checked, with nothing pushed or
    /// drained in between. While the youngest overlapping store it found
    /// is still in flight at `now`, the bypass scan would stop at that
    /// same store, so its result is reused. Once it has expired the scan
    /// runs after all: cycles are not monotonic across the buffer
    /// (`Machine::refund` can move the clock back between two stores),
    /// so an older overlapping store may still be in flight.
    #[inline]
    pub fn bypass_after_check(
        &self,
        vaddr: u64,
        width: Width,
        youngest: Option<Youngest>,
        now: u64,
    ) -> Option<u64> {
        match youngest {
            None => None,
            Some(y) if now.saturating_sub(y.cycle) <= DRAIN_WINDOW => y.stale,
            Some(_) => self.bypass_value(vaddr, width, now),
        }
    }

    /// The seed's [`StoreBuffer::check_load`], its logic kept as it was
    /// (the reverse scan runs on every load, no range-superset filter) so
    /// the reference interpreter's timing reflects the pre-refactor
    /// implementation; only the walk over the ring is new.
    /// Observable-identical to `check_load`.
    pub(crate) fn check_load_reference(&mut self, vaddr: u64, width: Width, now: u64) -> ForwardOutcome {
        self.drain(now);
        let Some(st) = self.live().rev().find(|st| st.overlaps(vaddr, width)) else {
            return ForwardOutcome::NoConflict;
        };
        if let Overlap::Covered { offset } = st.overlap(vaddr, width) {
            let shift = offset * 8;
            let value = width.truncate(st.value >> shift);
            self.forwards += 1;
            return ForwardOutcome::Forwarded { value };
        }
        ForwardOutcome::PartialOverlap
    }

    /// The seed's [`StoreBuffer::bypass_value`], without the
    /// range-superset filter; see `check_load_reference`.
    pub(crate) fn bypass_value_reference(&self, vaddr: u64, width: Width, now: u64) -> Option<u64> {
        for st in self.live().rev() {
            if now.saturating_sub(st.cycle) > DRAIN_WINDOW || !st.overlaps(vaddr, width) {
                continue;
            }
            if let Overlap::Covered { offset } = st.overlap(vaddr, width) {
                let shift = offset * 8;
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
        self.live().rev().take(4).any(|st| now.saturating_sub(st.cycle) <= window)
    }

    /// Number of in-flight stores.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
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
        match sb.check_load(0x100, Width::B8, 10).0 {
            ForwardOutcome::Forwarded { value } => assert_eq!(value, 2),
            other => panic!("expected forward, got {other:?}"),
        }
        assert_eq!(sb.forwards, 1);
    }

    #[test]
    fn no_conflict_when_disjoint() {
        let mut sb = StoreBuffer::new();
        sb.push(0x100, Width::B8, 1, 0xee, 0);
        assert_eq!(sb.check_load(0x200, Width::B8, 1), (ForwardOutcome::NoConflict, None));
    }

    #[test]
    fn subword_forwarding_extracts_bytes() {
        let mut sb = StoreBuffer::new();
        sb.push(0x100, Width::B8, 0x1122_3344_5566_7788, 0, 0);
        match sb.check_load(0x101, Width::B1, 1).0 {
            ForwardOutcome::Forwarded { value } => assert_eq!(value, 0x77),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn partial_overlap_detected() {
        let mut sb = StoreBuffer::new();
        sb.push(0x100, Width::B2, 0xaaaa, 0, 0);
        // 8-byte load over a 2-byte store: not fully covered.
        let youngest = Youngest { cycle: 0, stale: None };
        let partial = (ForwardOutcome::PartialOverlap, Some(youngest));
        assert_eq!(sb.check_load(0x100, Width::B8, 1), partial);
    }

    #[test]
    fn stores_drain_after_window() {
        let mut sb = StoreBuffer::new();
        sb.push(0x100, Width::B8, 1, 0xee, 0);
        let late = DRAIN_WINDOW + 100;
        assert_eq!(sb.check_load(0x100, Width::B8, late).0, ForwardOutcome::NoConflict);
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

    /// The queue the ring replaced: the live stores in a `VecDeque`,
    /// scanned in full on every load, with no range superset.
    #[derive(Default)]
    struct Queue {
        entries: std::collections::VecDeque<BufferedStore>,
        forwards: u64,
    }

    impl Queue {
        fn push(&mut self, store: BufferedStore) {
            if self.entries.len() == CAPACITY {
                self.entries.pop_front();
            }
            self.entries.push_back(store);
        }

        fn drain(&mut self, now: u64) {
            while self.entries.front().is_some_and(|st| now.saturating_sub(st.cycle) > DRAIN_WINDOW)
            {
                self.entries.pop_front();
            }
        }

        fn check_load(
            &mut self,
            vaddr: u64,
            width: Width,
            now: u64,
        ) -> (ForwardOutcome, Option<Youngest>) {
            self.drain(now);
            for st in self.entries.iter().rev() {
                match st.overlap(vaddr, width) {
                    Overlap::Disjoint => continue,
                    Overlap::Covered { offset } => {
                        self.forwards += 1;
                        let stale = Some(width.truncate(st.stale >> (offset * 8)));
                        let value = width.truncate(st.value >> (offset * 8));
                        let youngest = Youngest { cycle: st.cycle, stale };
                        return (ForwardOutcome::Forwarded { value }, Some(youngest));
                    }
                    Overlap::Partial => {
                        let youngest = Youngest { cycle: st.cycle, stale: None };
                        return (ForwardOutcome::PartialOverlap, Some(youngest));
                    }
                }
            }
            (ForwardOutcome::NoConflict, None)
        }

        fn bypass_value(&self, vaddr: u64, width: Width, now: u64) -> Option<u64> {
            let live = |st: &&BufferedStore| now.saturating_sub(st.cycle) <= DRAIN_WINDOW;
            let st = self.entries.iter().rev().filter(live).find(|st| st.overlaps(vaddr, width))?;
            match st.overlap(vaddr, width) {
                Overlap::Covered { offset } => Some(width.truncate(st.stale >> (offset * 8))),
                _ => None,
            }
        }

        fn has_unresolved_store(&self, now: u64, window: u64) -> bool {
            self.entries.iter().rev().take(4).any(|st| now.saturating_sub(st.cycle) <= window)
        }
    }

    /// A seeded run of pushes (well past `CAPACITY`, with the clock
    /// sometimes stepping back as `Machine::refund` can move it), drains,
    /// flushes, load checks, bypass scans and unresolved-store checks,
    /// over stores packed into a few lines and some that wrap the top of
    /// the address space: after every operation the ring answers, and
    /// holds, what the queue it replaced does.
    #[test]
    fn ring_matches_the_queue_it_replaced() {
        let mut seed = 0x2545_f491_4f6c_dd1du64;
        let mut below = |n: u64| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed % n
        };
        let (mut ring, mut queue) = (StoreBuffer::new(), Queue::default());
        let mut now = 1_000;
        let mut outcomes = [0; 3];
        for step in 0..20_000 {
            let vaddr = match below(16) {
                0 => u64::MAX - below(12),
                _ => 0x1000 + below(192),
            };
            let width = Width::ALL[below(4) as usize];
            now = match below(8) {
                0 => now - below(20),
                _ => now + below(12),
            };
            match below(16) {
                0..=7 => {
                    let (value, stale) = (below(u64::MAX), below(u64::MAX));
                    ring.push(vaddr, width, value, stale, now);
                    let (value, stale) = (width.truncate(value), width.truncate(stale));
                    queue.push(BufferedStore { vaddr, width, value, stale, cycle: now });
                }
                8 => {
                    ring.drain(now);
                    queue.drain(now);
                }
                9 if below(8) == 0 => {
                    ring.flush();
                    queue.entries.clear();
                }
                10..=12 => {
                    let seen = ring.check_load(vaddr, width, now);
                    assert_eq!(seen, queue.check_load(vaddr, width, now), "step {step}");
                    outcomes[match seen.0 {
                        ForwardOutcome::NoConflict => 0,
                        ForwardOutcome::Forwarded { .. } => 1,
                        ForwardOutcome::PartialOverlap => 2,
                    }] += 1;
                }
                13 | 14 => {
                    let seen = ring.bypass_value(vaddr, width, now);
                    assert_eq!(seen, queue.bypass_value(vaddr, width, now), "step {step}");
                }
                _ => {
                    let window = below(10);
                    let seen = ring.has_unresolved_store(now, window);
                    assert_eq!(seen, queue.has_unresolved_store(now, window), "step {step}");
                }
            }
            assert_eq!(ring.len(), queue.entries.len(), "step {step}");
            assert!(ring.live().eq(queue.entries.iter()), "step {step}");
            assert_eq!(ring.forwards, queue.forwards, "step {step}");
        }
        assert!(outcomes.iter().all(|&n| n > 100), "load outcomes {outcomes:?}");
    }

    /// Equality compares the live entries in order, wherever the ring
    /// holds them: a buffer that wrapped past `CAPACITY` equals one that
    /// drained its way to another offset before taking the same stores.
    #[test]
    fn equal_entries_at_different_ring_offsets_compare_equal() {
        // Stores 48..53 land on the addresses of 0..5, so the hull of
        // the last 48 is the hull of all 53.
        let store = |i: u64| (0x100 + 8 * (i % CAPACITY as u64), i);
        let mut wrapped = StoreBuffer::new();
        for i in 0..CAPACITY as u64 + 5 {
            let (vaddr, cycle) = store(i);
            wrapped.push(vaddr, Width::B8, i, !i, 1_000 + cycle);
        }
        let mut drained = StoreBuffer::new();
        for i in 0..7 {
            drained.push(0x900, Width::B4, i, 0, 0);
        }
        drained.drain(1_000);
        for i in 5..CAPACITY as u64 + 5 {
            let (vaddr, cycle) = store(i);
            drained.push(vaddr, Width::B8, i, !i, 1_000 + cycle);
        }
        assert_ne!(wrapped.head, drained.head);
        assert_eq!(wrapped, drained);
        drained.push(0x100, Width::B8, 1, 1, 2_000);
        wrapped.push(0x100, Width::B8, 2, 1, 2_000);
        assert_ne!(wrapped, drained);
    }

    #[test]
    fn flush_empties() {
        let mut sb = StoreBuffer::new();
        sb.push(0x100, Width::B8, 1, 0xee, 0);
        sb.flush();
        assert!(sb.is_empty());
    }

    /// `overlap` against a byte-by-byte model in `u128`: every store and
    /// load start within 12 bytes of 0 or of 2^64, every width, and
    /// store spans from one byte up to the whole address space (the
    /// range filter's hull).
    #[test]
    fn overlap_matches_a_byte_model_at_both_ends_of_the_address_space() {
        const SPACE: u128 = 1 << 64;
        let starts: Vec<u64> = (0..12).chain((1..=12).map(|k| u64::MAX - (k - 1))).collect();
        let holds = |start: u64, span: u64, byte: u128| {
            (byte + SPACE - start as u128) % SPACE <= span as u128
        };
        let spans = [0, 1, 3, 7, 15, u64::MAX / 2, u64::MAX - 1, u64::MAX];
        for &store in &starts {
            for span in spans {
                for &load in &starts {
                    for width in Width::ALL {
                        let bytes: Vec<u128> = (0..width.bytes() as u128)
                            .map(|i| (load as u128 + i) % SPACE)
                            .collect();
                        let inside = bytes.iter().filter(|&&b| holds(store, span, b)).count();
                        let expected = if inside == bytes.len() {
                            let offset = ((load as u128 + SPACE - store as u128) % SPACE) as u64;
                            Overlap::Covered { offset }
                        } else if inside > 0 {
                            Overlap::Partial
                        } else {
                            Overlap::Disjoint
                        };
                        let last = last_byte(load, width);
                        let got = overlap(store, store.wrapping_add(span), load, last);
                        let what = format!("store {store:#x}+{span:#x}, {width:?} load {load:#x}");
                        assert_eq!(got, expected, "{what}");
                    }
                }
            }
        }
    }

    /// A store that wraps past the top of the address space forwards to
    /// the loads it covers on both sides of the wrap, widens the range
    /// filter to everything, and answers like the reference scan.
    #[test]
    fn stores_that_wrap_the_address_space_forward_like_the_reference() {
        let top = 0xffff_ffff_ffff_fffc;
        let value = 0x8877_6655_4433_2211;
        let loads = [
            (top, Width::B8),
            (0, Width::B2),
            (u64::MAX, Width::B2),
            (2, Width::B4),
            (0x100, Width::B1),
        ];
        let mut fast = StoreBuffer::new();
        let mut slow = StoreBuffer::new();
        for sb in [&mut fast, &mut slow] {
            sb.push(0x100, Width::B1, 0x5a, 0, 1);
            sb.push(top, Width::B8, value, !value, 2);
        }
        for (vaddr, width) in loads {
            let what = format!("{width:?} at {vaddr:#x}");
            let (outcome, _) = fast.check_load(vaddr, width, 3);
            assert_eq!(outcome, slow.check_load_reference(vaddr, width, 3), "{what}");
            let bypass = fast.bypass_value(vaddr, width, 3);
            assert_eq!(bypass, slow.bypass_value_reference(vaddr, width, 3), "{what}");
        }
        // Bytes 0..2 of the wrapped store are its value's bytes 4..6.
        let (outcome, youngest) = fast.check_load(0, Width::B2, 3);
        assert_eq!(outcome, ForwardOutcome::Forwarded { value: 0x6655 });
        assert_eq!(youngest, Some(Youngest { cycle: 2, stale: Some(!value >> 32 & 0xffff) }));
        // A load straddling the wrap's end is partial; the byte store
        // far below the wrap is still found through the widened filter.
        assert_eq!(fast.check_load(2, Width::B4, 3).0, ForwardOutcome::PartialOverlap);
        let byte = fast.check_load(0x100, Width::B1, 3).0;
        assert_eq!(byte, ForwardOutcome::Forwarded { value: 0x5a });
    }

    /// The single-scan bypass decision when the clock went backwards
    /// between two stores (as `Machine::refund` can make it): the
    /// youngest overlapping store may expire before an older one. At
    /// every decision cycle from the check onwards, reusing the check's
    /// scan must answer exactly as the reference bypass scan.
    #[test]
    fn the_reused_bypass_decision_matches_the_reference_when_cycles_go_backwards() {
        // (older store: vaddr, width, cycle), (youngest: vaddr, width,
        // cycle), the load, and the cycle of the check.
        let cases = [
            // The youngest covers the load fully but expires first.
            ((0x100, Width::B8, 100), (0x100, Width::B8, 30), (0x100, Width::B8), 85),
            // The youngest covers the load only partly and expires first.
            ((0x100, Width::B8, 100), (0x104, Width::B2, 30), (0x100, Width::B8), 85),
            // Partial youngest, expiring last (the order a monotonic
            // clock gives).
            ((0x100, Width::B8, 30), (0x102, Width::B2, 100), (0x100, Width::B4), 85),
            // Full youngest over a disjoint older store.
            ((0x200, Width::B8, 100), (0x100, Width::B4, 30), (0x102, Width::B2), 85),
        ];
        let mut fallbacks = 0;
        for (i, (older, youngest, (vaddr, width), check)) in cases.into_iter().enumerate() {
            let mut fast = StoreBuffer::new();
            let mut slow = StoreBuffer::new();
            for sb in [&mut fast, &mut slow] {
                for (k, (addr, w, cycle)) in [older, youngest].into_iter().enumerate() {
                    let k = k as u64;
                    sb.push(addr, w, 0x1111 * (k + 1), 0xa0a0_a0a0_a0a0_a0a0 + k, cycle);
                }
            }
            let (_, found) = fast.check_load(vaddr, width, check);
            slow.check_load_reference(vaddr, width, check);
            assert_eq!(found.map(|y| y.cycle), Some(youngest.2), "case {i}: the youngest is found");
            for now in check..check + 2 * DRAIN_WINDOW {
                let reused = fast.bypass_after_check(vaddr, width, found, now);
                let reference = slow.bypass_value_reference(vaddr, width, now);
                assert_eq!(reused, reference, "case {i}, cycle {now}");
                let expired = now.saturating_sub(youngest.2) > DRAIN_WINDOW;
                fallbacks += usize::from(expired && reused.is_some());
            }
        }
        // Cases 0 and 1 answer from the older store once the youngest
        // has expired: the fallback scan ran and found something.
        assert!(fallbacks > 0, "no decision fell back to the older store");
    }
}
