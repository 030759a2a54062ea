//! Kernel copies of guest buffers (`copy_from_user`, `copy_to_user`) in
//! one memory-model step per cache line.
//!
//! A copy's effect on the machine is *defined* as the kernel's per-word
//! loop: from the first byte, each step moves the widest of 8, 4, 2 or 1
//! bytes that fits both the bytes left and the room to the next 8-byte
//! boundary, through [`Machine::read_virt`] or [`Machine::write_virt`].
//! No word straddles an 8-byte boundary, so none straddles a cache line
//! or a page. The tests below keep that loop and hold every piece of
//! machine state the two leave to be equal.
//!
//! [`Machine::read_virt_bytes`] and [`Machine::write_virt_bytes`] reach
//! the same state with one translation, one L1D set scan (plus one L2
//! scan for stores) and one frame lookup per line, where that provably
//! matches the loop:
//!
//! - The words of a line share a page. After the first translates, the
//!   translation cache answers the rest with no state change, so a fault
//!   can only hit a line's first word.
//! - After the first access, the line's other words hit in L1D (and in
//!   L2, for stores) and only advance the LRU stamp
//!   ([`crate::cache::L1Cache::access_n`]).
//! - A load line takes one step when at least two words fall in it, no
//!   SSBD stall can fire, and no word can meet a buffered store. No stall
//!   can fire when SSBD is off or no store is unresolved at the line's
//!   first cycle: with nothing pushed, none becomes so later. No word can
//!   meet a store when the buffer, drained to that cycle, is empty or its
//!   address hull misses the line's bytes: a drain only pops, and the
//!   hull never shrinks while entries remain. The last word's drain runs
//!   at the cycle before its own charge. Any other line runs word by word.
//! - A store line always takes one step: its bytes land with one slice
//!   copy, after the bytes they overwrite are saved.
//!
//! Neither ring is touched line by line. Of a copy's words, only the last
//! [`store_buffer::CAPACITY`] store-buffer entries and the last
//! [`fill_buffer::CAPACITY`] fill-buffer values can survive it, so the
//! copy settles both once, building only those:
//!
//! - A write settles after its last line, or after the last line before
//!   a fault. Its last [`TAIL_LINES`] lines hold every surviving store:
//!   word `k` of a line is stamped with the line's first cycle plus `k +
//!   1` L1D hits, and its stale value comes from the line's saved bytes.
//!   Every dropped push only widened the store buffer's address hull, so
//!   the hull covers the whole stored range, and it is reset only if the
//!   buffer was empty before the copy.
//! - A read owes the records of a run of one-step lines, whose values
//!   are the bytes it appended, and settles them before a word-by-word
//!   line (which records as it goes) and before it returns, fault or
//!   not. Nothing between two one-step lines reads the fill buffers.
//!
//! Both stop at the top of the address space, where the loop's end
//! address would wrap.

use crate::cache::CacheOutcome;
use crate::fault::Fault;
use crate::fill_buffer::{self, FillBuffers};
use crate::isa::Width;
use crate::machine::Machine;
use crate::mem::{page_number, page_offset, LINE_SIZE, PAGE_SIZE};
use crate::mmu::Access;
use crate::predictor::PrivMode;
use crate::store_buffer::{self, BufferedStore};

/// How many of a write's last lines keep what its surviving stores
/// need. A write of more lines holds at least 57 words in its last
/// eight (seven whole lines and one word), more than the store buffer
/// keeps.
const TAIL_LINES: usize = 8;

const _: () = assert!((TAIL_LINES - 1) * 8 + 1 >= store_buffer::CAPACITY);

/// A line a write stored, as its settle needs it.
struct StoredLine {
    /// The line's first stored byte.
    addr: u64,
    /// The cycle before the line's first store issued.
    cycle: u64,
    /// The bytes the line's stores overwrote, from `addr`.
    old: [u8; LINE_SIZE as usize],
}

impl StoredLine {
    const EMPTY: StoredLine = StoredLine { addr: 0, cycle: 0, old: [0; LINE_SIZE as usize] };
}

/// The first address of a read's run of one-step lines whose
/// fill-buffer records are owed, and where its bytes start in `out`.
type OwedRun = Option<(u64, usize)>;

#[cfg(test)]
thread_local! {
    /// How many owed runs a word-by-word line has settled: the tests'
    /// count of reads that take both kinds of line.
    static RUNS_SETTLED_MID_READ: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// How many of `len` bytes at `vaddr` lie below the top of the address
/// space.
fn below_top(vaddr: u64, len: u64) -> u64 {
    match vaddr {
        0 => len,
        _ => len.min(vaddr.wrapping_neg()),
    }
}

/// The copy loop's words over `left` bytes from `addr`, as `(vaddr,
/// width)`.
struct Words {
    addr: u64,
    left: u64,
}

impl Iterator for Words {
    type Item = (u64, Width);

    #[inline]
    fn next(&mut self) -> Option<(u64, Width)> {
        let width = match self.left.min(8 - (self.addr & 7)) {
            0 => return None,
            1 => Width::B1,
            2..=3 => Width::B2,
            4..=7 => Width::B4,
            _ => Width::B8,
        };
        let word = (self.addr, width);
        self.addr = self.addr.wrapping_add(width.bytes());
        self.left -= width.bytes();
        Some(word)
    }
}

/// How many words [`Words`] yields over `span` bytes from `addr`. Inside
/// each 8-byte block the loop takes the binary decomposition of the bytes
/// it covers there, widest first, so a block contributes the popcount of
/// that byte count.
fn word_count(addr: u64, span: u64) -> u64 {
    let room = 8 - (addr & 7);
    if span <= room {
        return u64::from(span.count_ones());
    }
    let rest = span - room;
    u64::from(room.count_ones()) + rest / 8 + u64::from((rest % 8).count_ones())
}

/// The bytes of a copy at `addr`, with `left` to go, that lie in
/// `addr`'s cache line.
fn line_span(addr: u64, left: u64) -> u64 {
    left.min(LINE_SIZE - (addr & (LINE_SIZE - 1)))
}

/// `bytes` (at most 8) as a little-endian word.
fn le_word(bytes: &[u8]) -> u64 {
    let mut word = [0u8; 8];
    word[..bytes.len()].copy_from_slice(bytes);
    u64::from_le_bytes(word)
}

/// Records the value of every copy-loop word over `bytes` at `addr`, as
/// one [`FillBuffers::record`] per word would, building only the last
/// [`fill_buffer::CAPACITY`].
fn record_words(fill: &mut FillBuffers, addr: u64, bytes: &[u8]) {
    const KEEP: usize = fill_buffer::CAPACITY;
    let len = bytes.len() as u64;
    // The loop's words start afresh at every 8-byte boundary, and each
    // 8-byte block holds at least one, so the last KEEP words lie at or
    // past the boundary at least KEEP blocks before the end.
    let from = match len.checked_sub(8 * KEEP as u64) {
        Some(back) => back.saturating_sub(addr.wrapping_add(back) & 7),
        None => 0,
    };
    let start = addr.wrapping_add(from);
    let words = word_count(start, len - from);
    let kept = words.min(KEEP as u64);
    let mut last = [0; KEEP];
    let tail = Words { addr: start, left: len - from }.skip((words - kept) as usize);
    for (value, (a, width)) in last.iter_mut().zip(tail) {
        let at = a.wrapping_sub(addr) as usize;
        *value = le_word(&bytes[at..at + width.bytes() as usize]);
    }
    fill.record_batch(word_count(addr, len), &last[..kept as usize]);
}

impl Machine {
    /// Loads `len` bytes at `vaddr`, appending them to `out`, exactly as
    /// the kernel copy loop's committed loads do (see the module docs),
    /// in one step per cache line where it can. The copy stops at the top
    /// of the address space. On a fault, `out` holds the bytes before the
    /// faulting word and the fault names that word's address, so a caller
    /// that maps the page resumes there.
    pub fn read_virt_bytes(
        &mut self,
        vaddr: u64,
        len: u64,
        out: &mut Vec<u8>,
    ) -> Result<(), Fault> {
        let mut owed = None;
        let result = self.read_lines(vaddr, len, out, &mut owed);
        self.settle_loads(&mut owed, out);
        result
    }

    /// [`Machine::read_virt_bytes`] line by line, leaving the records of
    /// the last run of one-step lines owed.
    fn read_lines(
        &mut self,
        vaddr: u64,
        len: u64,
        out: &mut Vec<u8>,
        owed: &mut OwedRun,
    ) -> Result<(), Fault> {
        let mut addr = vaddr;
        let mut left = below_top(vaddr, len);
        while left > 0 {
            let span = line_span(addr, left);
            let paddr = self.translate_line(addr, Access::Read)?;
            if out.capacity() - out.len() < span as usize {
                // The rest of the page copies without a fault: grow by
                // exactly that much, never by bytes a fault may leave out.
                out.reserve_exact(left.min(PAGE_SIZE - page_offset(addr)) as usize);
            }
            self.read_line(addr, span, paddr, out, owed)?;
            addr = addr.wrapping_add(span);
            left -= span;
        }
        Ok(())
    }

    /// Records the fill-buffer values a run of one-step lines owes: the
    /// bytes it appended to `out`, word by word.
    fn settle_loads(&mut self, owed: &mut OwedRun, out: &[u8]) {
        if let Some((addr, at)) = owed.take() {
            record_words(&mut self.fill_buffers, addr, &out[at..]);
        }
    }

    /// Translates the first word of a line at `addr` as the copy loop
    /// does, charging a TLB miss; the line's other words would hit the
    /// translation cache with no further effect.
    fn translate_line(&mut self, addr: u64, access: Access) -> Result<u64, Fault> {
        let tr = self.mmu.translate(addr, access, self.mode == PrivMode::User)?;
        if !tr.tlb_hit {
            self.charge(self.model.lat.tlb_miss);
        }
        Ok(tr.paddr)
    }

    /// Loads the `span` bytes at `addr`, all in one cache line, whose
    /// first word has translated to `paddr`. A one-step line joins the
    /// owed run; a word-by-word line settles it first.
    fn read_line(
        &mut self,
        addr: u64,
        span: u64,
        paddr: u64,
        out: &mut Vec<u8>,
        owed: &mut OwedRun,
    ) -> Result<(), Fault> {
        let words = word_count(addr, span);
        let now = self.cycles;
        let no_stall = !self.ssbd_active() || !self.store_buffer.has_unresolved_store(now, 6);
        let last = addr + (span - 1);
        if words >= 2 && no_stall && self.store_buffer.drain_clear_of(addr, last, now) {
            let hit = self.model.lat.l1_hit;
            let first = match self.l1d.access_n(paddr, words) {
                CacheOutcome::Hit => hit,
                CacheOutcome::Miss => self.l1d_miss_cost(paddr),
            };
            let total = first + (words - 1) * hit;
            self.store_buffer.drain(now + total - hit);
            self.charge(total);
            owed.get_or_insert((addr, out.len()));
            let off = page_offset(paddr) as usize;
            match self.mem.frame(page_number(paddr)) {
                Some(frame) => out.extend_from_slice(&frame[off..off + span as usize]),
                None => out.resize(out.len() + span as usize, 0),
            }
            self.last_load_cycle = self.cycles;
            return Ok(());
        }
        #[cfg(test)]
        RUNS_SETTLED_MID_READ.with(|n| n.set(n.get() + u64::from(owed.is_some())));
        self.settle_loads(owed, out);
        // Word by word: the first word's translation (and drain) repeat
        // with no further effect.
        for (a, width) in (Words { addr, left: span }) {
            let value = self.read_virt(a, width)?;
            out.extend_from_slice(&value.to_le_bytes()[..width.bytes() as usize]);
        }
        Ok(())
    }

    /// Stores `data` at `vaddr` exactly as the kernel copy loop's committed
    /// stores do (see the module docs), in one step per cache line.
    /// Returns how many bytes it stored, and the fault that stopped it
    /// at the next word's address. The copy stops at the top of the
    /// address space.
    pub fn write_virt_bytes(&mut self, vaddr: u64, data: &[u8]) -> (usize, Result<(), Fault>) {
        let len = below_top(vaddr, data.len() as u64) as usize;
        let mut tail = [StoredLine::EMPTY; TAIL_LINES];
        let (mut done, mut lines) = (0, 0);
        let mut result = Ok(());
        while done < len {
            let addr = vaddr.wrapping_add(done as u64);
            let span = line_span(addr, (len - done) as u64) as usize;
            let saved = &mut tail[lines % TAIL_LINES];
            if let Err(fault) = self.write_line(addr, &data[done..done + span], saved) {
                result = Err(fault);
                break;
            }
            done += span;
            lines += 1;
        }
        self.settle_stores(vaddr, &data[..done], &tail, lines);
        (done, result)
    }

    /// Stores `bytes` at `addr`, all in one cache line, saving in `saved`
    /// what the line's stores need at the settle.
    fn write_line(
        &mut self,
        addr: u64,
        bytes: &[u8],
        saved: &mut StoredLine,
    ) -> Result<(), Fault> {
        let paddr = self.translate_line(addr, Access::Write)?;
        let span = bytes.len();
        let words = word_count(addr, span as u64);
        self.l1d.access_n(paddr, words);
        self.l2.access_n(paddr, words);
        let off = page_offset(paddr) as usize;
        let frame = self.mem.frame_mut(page_number(paddr));
        // The overwritten bytes are what a bypassing load would see.
        saved.old[..span].copy_from_slice(&frame[off..off + span]);
        frame[off..off + span].copy_from_slice(bytes);
        (saved.addr, saved.cycle) = (addr, self.cycles);
        self.charge(words * self.model.lat.l1_hit);
        Ok(())
    }

    /// Pushes the store-buffer entries and records the fill-buffer
    /// values of the `stored` bytes a write moved from `vaddr`, over
    /// `lines` lines whose last [`TAIL_LINES`] are in `tail` (line `i` in
    /// slot `i % TAIL_LINES`), as the loop's per-word pushes and records
    /// would: only the surviving words are built (see the module docs).
    fn settle_stores(
        &mut self,
        vaddr: u64,
        stored: &[u8],
        tail: &[StoredLine; TAIL_LINES],
        lines: usize,
    ) {
        let Some(last) = (stored.len() as u64).checked_sub(1) else { return };
        let hit = self.model.lat.l1_hit;
        let first_line = lines.saturating_sub(TAIL_LINES);
        let from = tail[first_line % TAIL_LINES].addr;
        let tail_words = word_count(from, stored.len() as u64 - from.wrapping_sub(vaddr));
        let dropped = tail_words.saturating_sub(store_buffer::CAPACITY as u64);
        let stores = (first_line..lines).flat_map(|i| {
            let line = &tail[i % TAIL_LINES];
            let off = line.addr.wrapping_sub(vaddr) as usize;
            let span = line_span(line.addr, (stored.len() - off) as u64);
            (Words { addr: line.addr, left: span }).zip(1..).map(move |((a, width), k)| {
                let at = (a - line.addr) as usize;
                let bytes = at..at + width.bytes() as usize;
                BufferedStore {
                    vaddr: a,
                    width,
                    value: le_word(&stored[off..][bytes.clone()]),
                    stale: le_word(&line.old[bytes]),
                    cycle: line.cycle + hit * k,
                }
            })
        });
        self.store_buffer.push_run(vaddr, vaddr + last, stores.skip(dropped as usize));
        record_words(&mut self.fill_buffers, vaddr, stored);
    }
}

#[cfg(test)]
mod tests {
    //! The differential test: each primitive against the per-word loop
    //! that defines it, on two machines built and driven alike.

    use super::*;
    use crate::isa::{msr_index, spec_ctrl};
    use crate::mmu::{make_cr3, PageTable, Pte};
    use crate::model::CpuModel;
    use crate::Pmc;

    /// The kernel copy loop's word width for a chunk of `bytes` (the
    /// bytes left, capped at the room to the next 8-byte boundary).
    fn width_for(bytes: u64) -> Width {
        match bytes {
            1 => Width::B1,
            2..=3 => Width::B2,
            4..=7 => Width::B4,
            _ => Width::B8,
        }
    }

    /// The definition of [`Machine::read_virt_bytes`]: one committed
    /// load per word.
    fn read_words(
        m: &mut Machine,
        vaddr: u64,
        len: u64,
        out: &mut Vec<u8>,
    ) -> Result<(), Fault> {
        let mut addr = vaddr;
        let mut left = below_top(vaddr, len);
        while left > 0 {
            let width = width_for(left.min(8 - (addr & 7)));
            let value = m.read_virt(addr, width)?;
            out.extend_from_slice(&value.to_le_bytes()[..width.bytes() as usize]);
            addr = addr.wrapping_add(width.bytes());
            left -= width.bytes();
        }
        Ok(())
    }

    /// The definition of [`Machine::write_virt_bytes`]: one committed
    /// store per word.
    fn write_words(m: &mut Machine, vaddr: u64, data: &[u8]) -> (usize, Result<(), Fault>) {
        let len = below_top(vaddr, data.len() as u64) as usize;
        let mut done = 0;
        while done < len {
            let addr = vaddr.wrapping_add(done as u64);
            let width = width_for(((len - done) as u64).min(8 - (addr & 7)));
            let n = width.bytes() as usize;
            if let Err(fault) = m.write_virt(addr, le_word(&data[done..done + n]), width) {
                return (done, Err(fault));
            }
            done += n;
        }
        (done, Ok(()))
    }

    /// The test's address space: `PAGES` pages from `BASE`, on frames 16
    /// apart so that a line offset maps every page to one L1D set and one
    /// L2 set (both fill and evict), with a few pages left unmapped.
    const BASE: u64 = 0x40_0000;
    const PAGES: u64 = 80;
    const HOLES: [u64; 3] = [9, 10, 47];

    fn pfn(page: u64) -> u64 {
        0x1000 + 16 * page
    }

    fn machine() -> Machine {
        let mut m = Machine::new(CpuModel::test_model());
        let mut pt = PageTable::new();
        for page in (0..PAGES).filter(|p| !HOLES.contains(p)) {
            pt.map(BASE + page * PAGE_SIZE, Pte::kernel(pfn(page)));
        }
        let table = m.mmu.register_table(pt);
        assert!(m.mmu.load_cr3(make_cr3(table, 0, false)));
        // Every other page starts out written; the rest read as zeros.
        for page in (0..PAGES).step_by(2) {
            let bytes: Vec<u8> = (0..PAGE_SIZE).map(|i| (i * 7 + page * 13) as u8).collect();
            m.mem.write_bytes(pfn(page) << 12, &bytes);
        }
        m
    }

    /// Every piece of state a copy can touch is equal on both machines.
    fn assert_same(a: &Machine, b: &Machine, what: &str) {
        assert_eq!(a.cycles, b.cycles, "cycles, {what}");
        for pmc in Pmc::ALL {
            assert_eq!(a.pmc.read(pmc), b.pmc.read(pmc), "{pmc:?}, {what}");
        }
        assert!(a.l1d == b.l1d, "L1D lines or LRU stamps, {what}");
        assert!(a.l2 == b.l2, "L2 lines or LRU stamps, {what}");
        assert!(a.mmu == b.mmu, "TLB or translation cache, {what}");
        assert_eq!(a.store_buffer, b.store_buffer, "store buffer, {what}");
        assert_eq!(a.fill_buffers, b.fill_buffers, "fill buffers, {what}");
        assert_eq!(a.last_load_cycle, b.last_load_cycle, "last load cycle, {what}");
        assert_eq!(a.last_ssbd_stall, b.last_ssbd_stall, "last SSBD stall, {what}");
        assert_eq!(a.mem.resident_frames(), b.mem.resident_frames(), "resident frames, {what}");
        for page in 0..PAGES {
            assert!(a.mem.frame(pfn(page)) == b.mem.frame(pfn(page)), "page {page}, {what}");
        }
    }

    /// A seeded xorshift generator.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0 % n
        }
    }

    /// Random copies both ways, with the machine state around them
    /// varied between copies: every alignment of start and end, lengths
    /// 1 to 300 and 256 KiB, page-straddling buffers and unmapped pages,
    /// fresh stores that overlap a copy fully, partly or not at all, SSBD
    /// on and off, cold and warm TLBs and L1D, and L1D and L2 sets
    /// filled past their ways. The floors also cover what the settles
    /// add: writes into an empty store buffer, reads that settle an owed
    /// run before a word-by-word line, and faults past more words than
    /// either ring keeps.
    #[test]
    fn copies_leave_the_state_the_per_word_loop_leaves() {
        let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
        let mut a = machine();
        let mut b = machine();
        let ends = BASE + PAGES * PAGE_SIZE;
        let (mut faults, mut straddles, mut ssbd_copies, mut huge) = (0, 0, 0, 0);
        let (mut long_write_faults, mut into_empty, mut mixed_reads, mut long_read_faults) =
            (0, 0, 0, 0);
        for step in 0..6000u64 {
            if rng.below(6) == 0 {
                let ssbd = if rng.below(2) == 0 { spec_ctrl::SSBD } else { 0 };
                for m in [&mut a, &mut b] {
                    m.msrs.write(msr_index::IA32_SPEC_CTRL, ssbd).expect("spec_ctrl write");
                }
            }
            if rng.below(8) == 0 {
                a.mmu.flush_tlb_all();
                b.mmu.flush_tlb_all();
            }
            if rng.below(8) == 0 {
                a.l1d.flush_all();
                b.l1d.flush_all();
            }
            let len = match rng.below(40) {
                0 => 256 << 10,
                1..=4 => 301 + rng.below(5000),
                _ => 1 + rng.below(300),
            };
            let start = match rng.below(4) {
                // Near a page boundary, so most such copies straddle it.
                0 => BASE + (1 + rng.below(PAGES - 1)) * PAGE_SIZE - rng.below(320),
                _ => BASE + rng.below(PAGES * PAGE_SIZE),
            };
            let start = start.min(ends - len.min(ends - BASE));
            // Fresh stores in and around the copy's bytes, or clustered
            // elsewhere, so that the store buffer's hull misses them.
            let around = match rng.below(2) {
                0 => start,
                _ => BASE + rng.below(PAGES * PAGE_SIZE),
            };
            for _ in 0..rng.below(5) {
                let vaddr = around + rng.below(len.min(512) + 16) - 8;
                let width = Width::ALL[rng.below(4) as usize];
                let value = rng.below(u64::MAX);
                let fa = a.write_virt(vaddr, value, width);
                let fb = b.write_virt(vaddr, value, width);
                assert_eq!(fa, fb);
                let tick = rng.below(8);
                a.charge(tick);
                b.charge(tick);
            }
            // Loads that warm lines the copy may need, or evict them.
            for _ in 0..rng.below(3) {
                let vaddr = BASE + rng.below(PAGES * PAGE_SIZE);
                assert_eq!(a.read_virt(vaddr, Width::B8), b.read_virt(vaddr, Width::B8));
            }
            // Stores that expire before, during or after the copy.
            let tick = [0, 1, 5, 20, 50, 58, 61, 70][rng.below(8) as usize];
            a.charge(tick);
            b.charge(tick);
            ssbd_copies += usize::from(a.ssbd_active());
            straddles += usize::from(page_number(start) != page_number(start + len - 1));
            huge += usize::from(len == 256 << 10);
            let what = format!("step {step}: {len} bytes at {start:#x}");
            if rng.below(2) == 0 {
                let (mut got, mut want) = (Vec::new(), Vec::new());
                let settled = RUNS_SETTLED_MID_READ.with(|n| n.get());
                let fa = a.read_virt_bytes(start, len, &mut got);
                let fb = read_words(&mut b, start, len, &mut want);
                assert_eq!(fa, fb, "read fault, {what}");
                assert!(got == want, "bytes read, {what}");
                faults += usize::from(fa.is_err());
                let words = word_count(start, got.len() as u64);
                long_read_faults += usize::from(fa.is_err() && words > 12);
                mixed_reads += usize::from(RUNS_SETTLED_MID_READ.with(|n| n.get()) > settled);
            } else {
                let data: Vec<u8> = (0..len).map(|i| (i as u8) ^ (step as u8)).collect();
                into_empty += usize::from(a.store_buffer.is_empty());
                let fa = a.write_virt_bytes(start, &data);
                assert_eq!(fa, write_words(&mut b, start, &data), "write result, {what}");
                faults += usize::from(fa.1.is_err());
                let words = word_count(start, fa.0 as u64);
                long_write_faults += usize::from(fa.1.is_err() && words > 48);
            }
            assert_same(&a, &b, &what);
        }
        let coverage = [
            ("faults", faults, 200),
            ("straddles", straddles, 600),
            ("copies under SSBD", ssbd_copies, 1500),
            ("huge copies", huge, 80),
            ("writes of more than 48 words stopped by a fault", long_write_faults, 40),
            ("writes into an empty store buffer", into_empty, 500),
            ("reads of one-step and word-by-word lines", mixed_reads, 80),
            ("reads of more than 12 words stopped by a fault", long_read_faults, 40),
        ];
        for (what, seen, floor) in coverage {
            assert!(seen > floor, "only {seen} {what}");
        }
    }

    #[test]
    fn word_count_counts_the_loops_words() {
        for addr in 0..16 {
            for span in 0..=80 {
                assert_eq!(word_count(addr, span), Words { addr, left: span }.count() as u64);
            }
        }
    }

    /// Every start alignment in a line against every length up to two
    /// lines and a word, both ways, across a page boundary and within one
    /// page, with the stores each write leaves in flight for the next copy.
    #[test]
    fn every_start_and_end_alignment_matches_the_per_word_loop() {
        let (mut a, mut b) = (machine(), machine());
        for base in [BASE + 3 * PAGE_SIZE - 64, BASE + 5 * PAGE_SIZE + 512] {
            for off in 0..64 {
                for len in 1..=136 {
                    let start = base + off;
                    let what = format!("{len} bytes at {start:#x}");
                    let (mut got, mut want) = (Vec::new(), Vec::new());
                    let fa = a.read_virt_bytes(start, len, &mut got);
                    assert_eq!(fa, read_words(&mut b, start, len, &mut want), "{what}");
                    assert_eq!(got, want, "{what}");
                    let data: Vec<u8> = (0..len).map(|i| (i + off) as u8).collect();
                    let fa = a.write_virt_bytes(start, &data);
                    assert_eq!(fa, write_words(&mut b, start, &data), "{what}");
                    assert_eq!((a.cycles, &a.store_buffer), (b.cycles, &b.store_buffer), "{what}");
                }
                assert_same(&a, &b, &format!("start offset {off} from {base:#x}"));
            }
        }
    }

    /// A read whose bytes miss a buffered store, with that store expiring
    /// at every cycle from before the copy to after it: the buffer drains
    /// exactly when the loop's words drain it, on warm and cold lines.
    #[test]
    fn a_store_expiring_at_any_cycle_of_a_read_drains_as_the_loop_drains_it() {
        for cold in [false, true] {
            for (start, len) in [(0, 8), (0, 16), (3, 61), (0, 64), (60, 12), (8, 200)] {
                for age in 0..=120 {
                    let mut machines = [machine(), machine()];
                    for m in &mut machines {
                        if !cold {
                            m.read_virt_bytes(BASE, 256, &mut Vec::new()).expect("mapped");
                        }
                        m.write_virt(BASE + 2 * PAGE_SIZE, 1, Width::B8).expect("mapped");
                        m.charge(age);
                    }
                    let [a, b] = &mut machines;
                    let (mut got, mut want) = (Vec::new(), Vec::new());
                    a.read_virt_bytes(BASE + start, len, &mut got).expect("mapped");
                    read_words(b, BASE + start, len, &mut want).expect("mapped");
                    assert_eq!(got, want);
                    assert_same(a, b, &format!("{len} bytes at +{start}, age {age}, cold {cold}"));
                }
            }
        }
    }

    /// Copies at the top of the address space stop there, and one past
    /// an unmapped page reports it at the first word it could not move.
    #[test]
    fn copies_stop_at_the_top_of_the_address_space_and_at_a_fault() {
        let mut m = machine();
        let mut out = Vec::new();
        let top = u64::MAX - 7;
        let fault = m.read_virt_bytes(top, 64, &mut out).expect_err("the top page is not mapped");
        assert!(matches!(fault, Fault::Page { vaddr, .. } if vaddr == top));
        assert!(out.is_empty());
        assert!(matches!(m.write_virt_bytes(top, &[1; 64]), (0, Err(Fault::Page { .. }))));
        assert_eq!(m.write_virt_bytes(top + 1, &[]), (0, Ok(())));
        // Three bytes short of the first hole, a write stops at its edge.
        let hole = BASE + HOLES[0] * PAGE_SIZE;
        let (n, result) = m.write_virt_bytes(hole - 3, &[7; 10]);
        assert_eq!(n, 3);
        assert!(matches!(result, Err(Fault::Page { vaddr, .. }) if vaddr == hole));
        m.read_virt_bytes(hole - 3, 10, &mut out).expect_err("the hole faults");
        assert_eq!(out, [7; 3]);
    }
}
