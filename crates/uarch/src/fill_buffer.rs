//! Fill buffers: the microarchitectural buffers MDS attacks sample.
//!
//! Real MDS variants (RIDL, ZombieLoad, Fallout) leak from line fill
//! buffers, load ports, and store buffers. The model collapses them into
//! one small queue of recently transferred data values. A transient
//! *faulting* load on an MDS-vulnerable part receives a stale value from
//! this queue instead of architectural data — untargeted, exactly like the
//! real attacks (§3.3: "MDS attacks cannot be targeted to specific victim
//! addresses").
//!
//! The `verw` instruction with the MD_CLEAR microcode update clears the
//! queue; that clearing is what costs ~500 cycles on every kernel→user
//! transition of a vulnerable CPU (Table 4).

/// Number of fill-buffer entries (real parts have 10–12 LFBs).
pub const CAPACITY: usize = 12;

/// `slot`, below `2 * capacity`, reduced into a ring of `capacity`
/// slots by compare-and-reset rather than a division.
#[inline(always)]
pub(crate) fn wrap(slot: usize, capacity: usize) -> usize {
    if slot >= capacity {
        slot - capacity
    } else {
        slot
    }
}

/// The collapsed fill-buffer / load-port / store-buffer leak source: a
/// fixed ring of the last [`CAPACITY`] values, oldest first from `head`.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct FillBuffers {
    ring: [u64; CAPACITY],
    /// Slot of the oldest live entry.
    head: usize,
    /// Number of live entries.
    len: usize,
    /// Rotation cursor for [`FillBuffers::sample_rotating`]: an index
    /// into the live entries, oldest first.
    cursor: usize,
}

impl FillBuffers {
    /// Creates empty fill buffers.
    pub fn new() -> FillBuffers {
        FillBuffers::default()
    }

    /// Records data movement through the core (every committed load/store
    /// value passes through here). A full ring overwrites its oldest
    /// entry.
    #[inline(always)]
    pub fn record(&mut self, value: u64) {
        if self.len == CAPACITY {
            self.ring[self.head] = value;
            self.head = wrap(self.head + 1, CAPACITY);
        } else {
            self.ring[wrap(self.head + self.len, CAPACITY)] = value;
            self.len += 1;
        }
    }

    /// Records `count` values exactly as `count` calls of
    /// [`FillBuffers::record`] would, given only the ones that survive:
    /// `last` holds the final `min(count, CAPACITY)` values, oldest
    /// first. Whether the ring is full or not, the `k`-th record lands in
    /// slot `head + len + k` (modulo [`CAPACITY`]), and every record past
    /// a full ring advances `head`.
    pub(crate) fn record_batch(&mut self, count: u64, last: &[u64]) {
        debug_assert_eq!(last.len() as u64, count.min(CAPACITY as u64));
        let cap = CAPACITY as u64;
        let skipped = count - last.len() as u64;
        let first = (self.head + self.len) as u64 + skipped % cap;
        for (k, &value) in (0..).zip(last) {
            self.ring[((first + k) % cap) as usize] = value;
        }
        let total = self.len as u64 + count;
        self.head = ((self.head as u64 + total.saturating_sub(cap) % cap) % cap) as usize;
        self.len = total.min(cap) as usize;
    }

    /// Samples a stale value, as a transient faulting load does on an
    /// MDS-vulnerable part; `None` when the buffers are clear (mitigated,
    /// or nothing in flight). Which buffer entry leaks is effectively
    /// arbitrary, so successive samples rotate through the live entries.
    /// Real MDS exploitation repeats the attack and histograms the
    /// results (§3.3: the attacks "cannot be targeted"); this rotation is
    /// what makes that repetition meaningful in simulation.
    pub fn sample_rotating(&mut self) -> Option<u64> {
        if self.len == 0 {
            return None;
        }
        self.cursor = (self.cursor + 1) % self.len;
        Some(self.ring[(self.head + self.cursor) % CAPACITY])
    }

    /// Clears all buffers (the MD_CLEAR `verw` behaviour).
    pub fn clear(&mut self) {
        self.len = 0;
    }

    /// Number of live entries (diagnostics).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the buffers are empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_rotate_through_the_live_entries() {
        let mut fb = FillBuffers::new();
        assert_eq!(fb.sample_rotating(), None);
        fb.record(0xaa);
        fb.record(0xbb);
        assert_eq!(fb.len(), 2);
        assert_eq!(fb.sample_rotating(), Some(0xbb));
        assert_eq!(fb.sample_rotating(), Some(0xaa));
        assert_eq!(fb.sample_rotating(), Some(0xbb));
    }

    #[test]
    fn clear_removes_everything() {
        let mut fb = FillBuffers::new();
        fb.record(0x11);
        fb.clear();
        assert!(fb.is_empty());
        assert_eq!(fb.len(), 0);
        assert_eq!(fb.sample_rotating(), None);
    }

    #[test]
    fn capacity_is_bounded() {
        let mut fb = FillBuffers::new();
        for i in 0..100 {
            fb.record(i);
        }
        assert_eq!(fb.len(), CAPACITY);
        // The oldest entries were dropped: one full rotation sees exactly
        // the last CAPACITY values.
        let mut seen: Vec<u64> = (0..CAPACITY).filter_map(|_| fb.sample_rotating()).collect();
        seen.sort_unstable();
        assert_eq!(seen, (100 - CAPACITY as u64..100).collect::<Vec<_>>());
    }

    /// The ring samples exactly what a queue of the last `CAPACITY`
    /// values does, through wraps, clears, partial refills and batch
    /// records.
    #[test]
    fn ring_matches_a_bounded_queue() {
        let mut fb = FillBuffers::new();
        let mut queue = std::collections::VecDeque::new();
        let mut cursor = 0;
        for i in 0..800u64 {
            match i % 37 {
                0 => {
                    fb.clear();
                    queue.clear();
                }
                n if n % 3 == 0 => {
                    let expected = (!queue.is_empty()).then(|| {
                        cursor = (cursor + 1) % queue.len();
                        queue[cursor]
                    });
                    assert_eq!(fb.sample_rotating(), expected, "step {i}");
                }
                n if n % 5 == 0 => {
                    let values: Vec<u64> = (0..i % 41).map(|k| i << 8 | k).collect();
                    for &value in &values {
                        if queue.len() == CAPACITY {
                            queue.pop_front();
                        }
                        queue.push_back(value);
                    }
                    let last = &values[values.len().saturating_sub(CAPACITY)..];
                    fb.record_batch(values.len() as u64, last);
                }
                _ => {
                    if queue.len() == CAPACITY {
                        queue.pop_front();
                    }
                    queue.push_back(i);
                    fb.record(i);
                }
            }
            assert_eq!(fb.len(), queue.len());
        }
    }

    /// A batch record of 0 to 40 values, from every start state (head,
    /// length and cursor, with every slot holding a distinct value),
    /// leaves the struct field for field as one record per value does.
    #[test]
    fn a_batch_record_leaves_what_single_records_leave() {
        for head in 0..CAPACITY {
            for len in 0..=CAPACITY {
                for count in 0..=40u64 {
                    let start = || {
                        let mut fb = FillBuffers::new();
                        fb.ring = std::array::from_fn(|slot| 0xf000 + slot as u64);
                        (fb.head, fb.len, fb.cursor) = (head, len, len / 2);
                        fb
                    };
                    let values: Vec<u64> = (1..=count).collect();
                    let mut single = start();
                    for &value in &values {
                        single.record(value);
                    }
                    let mut batch = start();
                    batch.record_batch(count, &values[values.len().saturating_sub(CAPACITY)..]);
                    assert_eq!(batch, single, "head {head}, len {len}, {count} values");
                }
            }
        }
    }
}
