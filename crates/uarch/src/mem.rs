//! Sparse physical memory.
//!
//! Physical memory is a sparse map of 4 KiB frames, allocated on first
//! touch. All accesses are by *physical* address; virtual-to-physical
//! translation happens in [`crate::mmu`].

use std::cell::Cell;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::isa::Width;

/// Size of a physical frame / virtual page in bytes.
pub const PAGE_SIZE: u64 = 4096;
/// Log2 of [`PAGE_SIZE`].
pub const PAGE_SHIFT: u32 = 12;
/// Size of a cache line in bytes.
pub const LINE_SIZE: u64 = 64;
/// Log2 of [`LINE_SIZE`].
pub const LINE_SHIFT: u32 = 6;

/// Returns the frame (or page) number containing `addr`.
#[inline]
pub fn page_number(addr: u64) -> u64 {
    addr >> PAGE_SHIFT
}

/// Returns the byte offset of `addr` within its page.
#[inline]
pub fn page_offset(addr: u64) -> u64 {
    addr & (PAGE_SIZE - 1)
}

/// Returns the cache-line number containing `addr`.
#[inline]
pub fn line_number(addr: u64) -> u64 {
    addr >> LINE_SHIFT
}

/// Cache-slot sentinel: no frame number is ever `u64::MAX` in practice
/// (it would imply a physical address above 2^76).
const NO_FRAME: u64 = u64::MAX;

/// Frame-cache tag bit of a frame known to be absent. A frame number
/// comes from a 64-bit physical address shifted right by
/// [`PAGE_SHIFT`], so no real one has bit 63 set, and an absent tag never
/// matches the hit test in [`PhysMemory::read`] and
/// [`PhysMemory::write`].
const ABSENT: u64 = 1 << 63;

/// Entries in [`PhysMemory`]'s frame cache.
const FRAME_CACHE: usize = 64;

/// One 4 KiB frame.
pub(crate) type Frame = [u8; PAGE_SIZE as usize];

/// A `HashMap` keyed by an integer (a frame, page or table number),
/// hashed with [`IntHasher`] instead of SipHash.
pub(crate) type IntMap<K, V> = HashMap<K, V, BuildHasherDefault<IntHasher>>;

/// A multiplicative hasher for the simulator's integer-keyed maps. Their
/// keys come from the simulation, not from an adversary choosing
/// collisions, so SipHash's DoS resistance buys nothing; one multiply
/// per word does. The final rotation brings the well-mixed high bits of
/// the product down to the low bits the table indexes by, so keys that
/// differ only in high bits (frame numbers a power of two apart) do not
/// share buckets.
#[derive(Default)]
pub(crate) struct IntHasher(u64);

impl Hasher for IntHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0xf135_7aea_2e62_a9c5);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// Sparse byte-addressable physical memory.
///
/// Reads of untouched memory return zero, mirroring zero-fill-on-demand.
/// Frames live in a stable slab (`slabs`) indexed by a `pfn -> slot` hash
/// map. A 64-entry direct-mapped frame cache in front of the map keeps
/// the simulator's hot loop off the hash: a program's working set is a
/// handful of frames, and a cache line never spans two. The cache also
/// remembers frames it found absent, so reading a never-written buffer
/// (a kernel copy out of an untouched user arena) hashes once per frame,
/// not once per word.
#[derive(Debug)]
pub struct PhysMemory {
    slabs: Vec<Box<Frame>>,
    index: IntMap<u64, u32>,
    /// `(pfn, slab slot)` pairs, each at index `pfn % FRAME_CACHE`;
    /// `(NO_FRAME, _)` when empty, and `(pfn | ABSENT, _)` for a frame the
    /// read path found absent. Frames are never freed and a frame never
    /// moves to another slot, so a present entry, once filled, stays true.
    /// An absent entry stays true until the frame materializes, which only
    /// [`PhysMemory::frame_mut`] does, and it overwrites the entry. Only
    /// the cold lookup ([`PhysMemory::frame`]) reads absent entries; the
    /// inlined hit test sees them as misses. `Cell`s so the read path can
    /// fill it through `&self`.
    recent: [Cell<(u64, u32)>; FRAME_CACHE],
}

impl Default for PhysMemory {
    fn default() -> PhysMemory {
        PhysMemory::new()
    }
}

impl PhysMemory {
    /// Creates empty physical memory.
    pub fn new() -> PhysMemory {
        PhysMemory {
            slabs: Vec::new(),
            index: IntMap::default(),
            recent: [const { Cell::new((NO_FRAME, 0)) }; FRAME_CACHE],
        }
    }

    /// Number of frames that have been touched.
    pub fn resident_frames(&self) -> usize {
        self.slabs.len()
    }

    /// Resolves a frame for reading, filling the frame cache with the
    /// frame or with the fact that it is absent.
    #[inline]
    pub(crate) fn frame(&self, pfn: u64) -> Option<&Frame> {
        let entry = &self.recent[pfn as usize % FRAME_CACHE];
        let (cached_pfn, slot) = entry.get();
        if cached_pfn == pfn {
            return Some(&self.slabs[slot as usize]);
        }
        if cached_pfn == pfn | ABSENT {
            return None;
        }
        match self.index.get(&pfn) {
            Some(&slot) => {
                entry.set((pfn, slot));
                Some(&self.slabs[slot as usize])
            }
            None => {
                entry.set((pfn | ABSENT, 0));
                None
            }
        }
    }

    /// Resolves a frame without the cache: one hash lookup per call, the
    /// seed's cost model. Used only by the `*_reference` entry points.
    #[inline]
    fn frame_uncached(&self, pfn: u64) -> Option<&[u8; PAGE_SIZE as usize]> {
        let slot = *self.index.get(&pfn)?;
        Some(&self.slabs[slot as usize])
    }

    /// Resolves a frame for writing, materializing it (zeroed) on first
    /// touch; the frame cache then holds it, replacing any absent entry.
    pub(crate) fn frame_mut(&mut self, pfn: u64) -> &mut Frame {
        let entry = &self.recent[pfn as usize % FRAME_CACHE];
        let (cached_pfn, slot) = entry.get();
        if cached_pfn == pfn {
            return &mut self.slabs[slot as usize];
        }
        let slot = match self.index.get(&pfn) {
            Some(&s) => s,
            None => {
                let s = self.slabs.len() as u32;
                self.slabs.push(Box::new([0u8; PAGE_SIZE as usize]));
                self.index.insert(pfn, s);
                s
            }
        };
        entry.set((pfn, slot));
        &mut self.slabs[slot as usize]
    }

    /// Copies frame `src` over frame `dst` (frame numbers, not addresses).
    ///
    /// A resident source is copied as one 4 KiB array. A never-written
    /// source reads as zeros, so copying it leaves an untouched
    /// destination untouched (no frame is materialized) and zeroes a
    /// resident one.
    pub fn copy_frame(&mut self, src: u64, dst: u64) {
        match self.index.get(&src) {
            Some(&s) => {
                let frame = *self.slabs[s as usize];
                *self.frame_mut(dst) = frame;
            }
            None => {
                if let Some(&d) = self.index.get(&dst) {
                    self.slabs[d as usize].fill(0);
                }
            }
        }
    }

    /// Overwrites frame `pfn` (a frame number, not an address) with
    /// `bytes`, materializing it if it was never written.
    pub fn write_frame(&mut self, pfn: u64, bytes: &Frame) {
        *self.frame_mut(pfn) = *bytes;
    }

    /// Reads one byte at a physical address.
    #[inline]
    pub fn read_u8(&self, paddr: u64) -> u8 {
        match self.frame(page_number(paddr)) {
            Some(f) => f[page_offset(paddr) as usize],
            None => 0,
        }
    }

    /// Writes one byte at a physical address.
    #[inline]
    pub fn write_u8(&mut self, paddr: u64, v: u8) {
        let off = page_offset(paddr) as usize;
        self.frame_mut(page_number(paddr))[off] = v;
    }

    /// The cached slab slot of frame `pfn` when a `width` access at page
    /// offset `off` stays inside it: the inlined hit path of
    /// [`PhysMemory::read`] and [`PhysMemory::write`].
    #[inline(always)]
    fn cached_slot(&self, pfn: u64, off: usize, width: Width) -> Option<usize> {
        let (cached_pfn, slot) = self.recent[pfn as usize % FRAME_CACHE].get();
        let inside = off + width.bytes() as usize <= PAGE_SIZE as usize;
        (cached_pfn == pfn && inside).then_some(slot as usize)
    }

    /// Reads `width` bytes (little-endian, zero-extended).
    ///
    /// An access that stays inside one frame — the overwhelmingly common
    /// case — costs at most a single frame lookup (usually none, via the
    /// frame cache) and moves the bytes as one little-endian word; only
    /// accesses that straddle a page boundary fall back to the bytewise
    /// path.
    #[inline(always)]
    pub fn read(&self, paddr: u64, width: Width) -> u64 {
        let off = page_offset(paddr) as usize;
        match self.cached_slot(page_number(paddr), off, width) {
            Some(slot) => load_width(&self.slabs[slot], off, width),
            None => self.read_uncached(paddr, width),
        }
    }

    /// [`PhysMemory::read`] past a frame-cache miss or across a page
    /// boundary.
    #[cold]
    fn read_uncached(&self, paddr: u64, width: Width) -> u64 {
        let n = width.bytes();
        let off = page_offset(paddr) as usize;
        if off as u64 + n <= PAGE_SIZE {
            return match self.frame(page_number(paddr)) {
                Some(f) => load_width(f, off, width),
                None => 0,
            };
        }
        let mut v = 0u64;
        for i in 0..n {
            v |= (self.read_u8(paddr.wrapping_add(i)) as u64) << (8 * i);
        }
        v
    }

    /// Writes the low `width` bytes of `v` (little-endian).
    #[inline(always)]
    pub fn write(&mut self, paddr: u64, v: u64, width: Width) {
        let off = page_offset(paddr) as usize;
        match self.cached_slot(page_number(paddr), off, width) {
            Some(slot) => store_width(&mut self.slabs[slot], off, v, width),
            None => self.write_uncached(paddr, v, width),
        }
    }

    /// [`PhysMemory::write`] past a frame-cache miss or across a page
    /// boundary.
    #[cold]
    fn write_uncached(&mut self, paddr: u64, v: u64, width: Width) {
        let n = width.bytes();
        let off = page_offset(paddr) as usize;
        if off as u64 + n <= PAGE_SIZE {
            store_width(self.frame_mut(page_number(paddr)), off, v, width);
            return;
        }
        for i in 0..n {
            self.write_u8(paddr.wrapping_add(i), (v >> (8 * i)) as u8);
        }
    }

    /// The seed's bytewise read, kept verbatim (one uncached frame lookup
    /// per byte) so the reference interpreter's timing reflects the
    /// pre-refactor implementation. Observable-identical to
    /// [`PhysMemory::read`].
    pub(crate) fn read_reference(&self, paddr: u64, width: Width) -> u64 {
        let mut v = 0u64;
        for i in 0..width.bytes() {
            let a = paddr.wrapping_add(i);
            let byte = match self.frame_uncached(page_number(a)) {
                Some(f) => f[page_offset(a) as usize],
                None => 0,
            };
            v |= (byte as u64) << (8 * i);
        }
        v
    }

    /// The seed's bytewise write; see [`PhysMemory::read_reference`].
    /// Allocation still goes through [`PhysMemory::frame_mut`] (the seed
    /// allocated on first touch too); the per-byte hash lookup is the
    /// preserved cost.
    pub(crate) fn write_reference(&mut self, paddr: u64, v: u64, width: Width) {
        for i in 0..width.bytes() {
            let a = paddr.wrapping_add(i);
            let pfn = page_number(a);
            let off = page_offset(a) as usize;
            match self.index.get(&pfn) {
                Some(&slot) => self.slabs[slot as usize][off] = (v >> (8 * i)) as u8,
                None => self.frame_mut(pfn)[off] = (v >> (8 * i)) as u8,
            }
        }
    }

    /// Reads a u64.
    pub fn read_u64(&self, paddr: u64) -> u64 {
        self.read(paddr, Width::B8)
    }

    /// Writes a u64.
    pub fn write_u64(&mut self, paddr: u64, v: u64) {
        self.write(paddr, v, Width::B8)
    }

    /// Reads an f64 (bitcast of the u64 at `paddr`).
    pub fn read_f64(&self, paddr: u64) -> f64 {
        f64::from_bits(self.read_u64(paddr))
    }

    /// Writes an f64 (bitcast).
    pub fn write_f64(&mut self, paddr: u64, v: f64) {
        self.write_u64(paddr, v.to_bits())
    }

    /// Copies a byte slice into physical memory.
    pub fn write_bytes(&mut self, paddr: u64, bytes: &[u8]) {
        for (i, b) in bytes.iter().enumerate() {
            self.write_u8(paddr + i as u64, *b);
        }
    }

    /// Reads `len` bytes starting at `paddr`.
    pub fn read_bytes(&self, paddr: u64, len: usize) -> Vec<u8> {
        (0..len as u64).map(|i| self.read_u8(paddr + i)).collect()
    }
}

/// The `width` bytes at `off` of `f` as a little-endian word,
/// zero-extended.
#[inline(always)]
pub(crate) fn load_width(f: &Frame, off: usize, width: Width) -> u64 {
    match width {
        Width::B1 => f[off] as u64,
        Width::B2 => load::<2>(f, off),
        Width::B4 => load::<4>(f, off),
        Width::B8 => load::<8>(f, off),
    }
}

/// Stores the low `width` bytes of `v` at `off` of `f`, little-endian.
#[inline(always)]
pub(crate) fn store_width(f: &mut Frame, off: usize, v: u64, width: Width) {
    match width {
        Width::B1 => f[off] = v as u8,
        Width::B2 => store::<2>(f, off, v),
        Width::B4 => store::<4>(f, off, v),
        Width::B8 => store::<8>(f, off, v),
    }
}

/// The `N` bytes at `off` of `f` as a little-endian word, zero-extended.
/// `N` is a constant so each copy compiles to one load (and in [`store`]
/// one store); a length known only at run time compiles to a `memcpy`
/// call.
#[inline(always)]
fn load<const N: usize>(f: &Frame, off: usize) -> u64 {
    let mut word = [0u8; 8];
    word[..N].copy_from_slice(&f[off..off + N]);
    u64::from_le_bytes(word)
}

/// Stores the low `N` bytes of `v` at `off` of `f`, little-endian.
#[inline(always)]
fn store<const N: usize>(f: &mut Frame, off: usize, v: u64) {
    f[off..off + N].copy_from_slice(&v.to_le_bytes()[..N]);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_fill_on_demand() {
        let m = PhysMemory::new();
        assert_eq!(m.read_u64(0x1234), 0);
        assert_eq!(m.read(0xdead_beef, Width::B4), 0);
    }

    #[test]
    fn read_write_roundtrip_all_widths() {
        let mut m = PhysMemory::new();
        for (w, val) in [
            (Width::B1, 0xabu64),
            (Width::B2, 0xabcd),
            (Width::B4, 0xdead_beef),
            (Width::B8, 0x0123_4567_89ab_cdef),
        ] {
            m.write(0x4000, val, w);
            assert_eq!(m.read(0x4000, w), val);
        }
    }

    #[test]
    fn cross_page_access() {
        let mut m = PhysMemory::new();
        let addr = PAGE_SIZE - 4; // straddles the first page boundary
        m.write(addr, 0x1122_3344_5566_7788, Width::B8);
        assert_eq!(m.read(addr, Width::B8), 0x1122_3344_5566_7788);
        assert_eq!(m.resident_frames(), 2);
    }

    #[test]
    fn little_endian_layout() {
        let mut m = PhysMemory::new();
        m.write(0, 0x0102_0304, Width::B4);
        assert_eq!(m.read_u8(0), 0x04);
        assert_eq!(m.read_u8(3), 0x01);
    }

    #[test]
    fn f64_roundtrip() {
        let mut m = PhysMemory::new();
        m.write_f64(0x100, std::f64::consts::PI);
        assert_eq!(m.read_f64(0x100), std::f64::consts::PI);
    }

    #[test]
    fn bytes_roundtrip() {
        let mut m = PhysMemory::new();
        m.write_bytes(0x55, b"hello world");
        assert_eq!(m.read_bytes(0x55, 11), b"hello world");
    }

    /// Fills frame `pfn` with a pattern keyed by `seed`.
    fn fill(m: &mut PhysMemory, pfn: u64, seed: u8) {
        let bytes: Vec<u8> = (0..PAGE_SIZE).map(|i| (i as u8).wrapping_mul(31) ^ seed).collect();
        m.write_bytes(pfn << PAGE_SHIFT, &bytes);
    }

    /// Reads frame `pfn` whole.
    fn frame(m: &PhysMemory, pfn: u64) -> Vec<u8> {
        m.read_bytes(pfn << PAGE_SHIFT, PAGE_SIZE as usize)
    }

    #[test]
    fn copy_frame_copies_a_written_source_whole() {
        let mut m = PhysMemory::new();
        fill(&mut m, 3, 0x5a);
        let src = frame(&m, 3);
        for dst in [9, 1] {
            m.copy_frame(3, dst);
            assert_eq!(frame(&m, dst), src, "dst {dst}");
            m.write_u8(dst << PAGE_SHIFT, !src[0]);
        }
        assert_eq!(frame(&m, 3), src, "source unchanged");
        // The frames around a destination are not touched.
        assert_eq!(m.read_u8((9 << PAGE_SHIFT) - 1), 0);
        assert_eq!(m.read_u8(10 << PAGE_SHIFT), 0);
        assert_eq!(m.resident_frames(), 3);
    }

    #[test]
    fn copy_frame_of_an_untouched_source_materializes_nothing() {
        let mut m = PhysMemory::new();
        fill(&mut m, 1, 0);
        m.copy_frame(4, 5);
        assert_eq!(m.resident_frames(), 1);
        assert_eq!(frame(&m, 5), [0; PAGE_SIZE as usize]);
    }

    #[test]
    fn copy_frame_of_an_untouched_source_zeroes_a_dirty_destination() {
        let mut m = PhysMemory::new();
        fill(&mut m, 7, 0xff);
        m.copy_frame(4, 7);
        assert_eq!(frame(&m, 7), [0; PAGE_SIZE as usize]);
        assert_eq!(m.resident_frames(), 1);
    }

    #[test]
    fn copy_frame_keeps_the_frame_cache_coherent() {
        let mut m = PhysMemory::new();
        fill(&mut m, 2, 0x11);
        fill(&mut m, 6, 0x22);
        // The source is in the frame cache when the copy runs: the
        // destination read right after must resolve to the destination,
        // and a write there must not reach the source.
        let src_word = m.read_u64(2 << PAGE_SHIFT);
        m.copy_frame(2, 6);
        assert_eq!(m.read_u64(6 << PAGE_SHIFT), src_word);
        m.write_u64(6 << PAGE_SHIFT, 0xd1ff);
        assert_eq!(m.read_u64(2 << PAGE_SHIFT), src_word);
        // The destination is in the cache: the copy lands where the
        // cached read looks, for a written and an untouched source.
        assert_eq!(m.read_u64(6 << PAGE_SHIFT), 0xd1ff);
        m.copy_frame(2, 6);
        assert_eq!(m.read_u64(6 << PAGE_SHIFT), src_word);
        m.copy_frame(8, 6);
        assert_eq!(m.read_u64(6 << PAGE_SHIFT), 0);
        // A fresh destination, with the source cached.
        assert_eq!(m.read_u64(2 << PAGE_SHIFT), src_word);
        m.copy_frame(2, 12);
        assert_eq!(m.read_u64(12 << PAGE_SHIFT), src_word);
        m.write_u64(12 << PAGE_SHIFT, 0xd1ff);
        assert_eq!(m.read_u64(2 << PAGE_SHIFT), src_word);
    }

    #[test]
    fn default_memory_reads_and_round_trips_frame_zero() {
        let mut m = PhysMemory::default();
        assert_eq!(m.read_u64(0x10), 0);
        m.write_u64(0x10, 0x0123_4567_89ab_cdef);
        assert_eq!(m.read_u64(0x10), 0x0123_4567_89ab_cdef);
        assert_eq!(m.resident_frames(), 1);
    }

    #[test]
    fn frames_sharing_a_cache_slot_stay_apart() {
        let mut m = PhysMemory::new();
        // Frames 5 and 5 + FRAME_CACHE evict each other from the cache.
        let (a, b) = (5 << PAGE_SHIFT, (5 + FRAME_CACHE as u64) << PAGE_SHIFT);
        m.write_u64(a, 1);
        m.write_u64(b, 2);
        for _ in 0..3 {
            assert_eq!((m.read_u64(a), m.read_u64(b)), (1, 2));
        }
        m.write_u64(a, 3);
        assert_eq!((m.read_u64(b), m.read_u64(a)), (2, 3));
    }

    #[test]
    fn word_accesses_match_the_bytewise_reference() {
        let mut m = PhysMemory::new();
        let offsets = [0, 1, 7, 0x7f9, PAGE_SIZE - 9, PAGE_SIZE - 8, PAGE_SIZE - 5, PAGE_SIZE - 1];
        for (i, off) in offsets.into_iter().enumerate() {
            for w in Width::ALL {
                let v = 0x8877_6655_4433_2211u64.rotate_left(8 * i as u32);
                let addr = (3 << PAGE_SHIFT) + off;
                m.write(addr, v, w);
                assert_eq!(m.read(addr, w), w.truncate(v), "{w:?} at {off:#x}");
                assert_eq!(m.read_reference(addr, w), w.truncate(v), "{w:?} at {off:#x}");
                m.write_reference(addr, !v, w);
                assert_eq!(m.read(addr, w), w.truncate(!v), "{w:?} at {off:#x}");
            }
        }
    }

    /// `PhysMemory` against a plain map of frames, on frame numbers that
    /// share frame-cache slots (`p`, `p + 64`, `p + 128`): random reads
    /// of every width (some straddling into the next frame), writes,
    /// whole-frame writes and `copy_frame`s. Reads of absent frames leave
    /// absent entries in the cache, so one that answered for a frame
    /// written or copied into since would fail a read here.
    #[test]
    fn memory_matches_a_plain_map_of_frames() {
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        let mut next = move |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % n
        };
        let pfns: Vec<u64> = [5, 40].into_iter().flat_map(|p| [p, p + 64, p + 128]).collect();
        let mut m = PhysMemory::new();
        let mut model: HashMap<u64, Frame> = HashMap::new();
        let model_byte = |model: &HashMap<u64, Frame>, a: u64| {
            model.get(&page_number(a)).map_or(0, |f| f[page_offset(a) as usize])
        };
        for step in 0..40_000 {
            let pfn = pfns[next(pfns.len() as u64) as usize];
            let off = if next(4) == 0 { PAGE_SIZE - 1 - next(8) } else { next(PAGE_SIZE) };
            let paddr = (pfn << PAGE_SHIFT) + off;
            let width = Width::ALL[next(4) as usize];
            match next(8) {
                0..=3 => {
                    let want = (0..width.bytes())
                        .map(|i| u64::from(model_byte(&model, paddr + i)) << (8 * i))
                        .fold(0, |v, b| v | b);
                    assert_eq!(m.read(paddr, width), want, "step {step}: {width:?} at {paddr:#x}");
                }
                4 | 5 => {
                    let v = next(u64::MAX);
                    m.write(paddr, v, width);
                    for i in 0..width.bytes() {
                        let a = paddr + i;
                        let frame = model.entry(page_number(a)).or_insert([0; PAGE_SIZE as usize]);
                        frame[page_offset(a) as usize] = (v >> (8 * i)) as u8;
                    }
                }
                6 => {
                    let mut bytes = [0; PAGE_SIZE as usize];
                    bytes.fill(next(256) as u8);
                    bytes[off as usize] = !bytes[0];
                    m.write_frame(pfn, &bytes);
                    model.insert(pfn, bytes);
                }
                _ => {
                    let src = pfns[next(pfns.len() as u64) as usize];
                    m.copy_frame(src, pfn);
                    match model.get(&src).copied() {
                        Some(frame) => {
                            model.insert(pfn, frame);
                        }
                        None => {
                            if let Some(frame) = model.get_mut(&pfn) {
                                frame.fill(0);
                            }
                        }
                    }
                }
            }
            assert_eq!(m.resident_frames(), model.len(), "step {step}");
        }
        assert!(model.len() > pfns.len(), "some writes straddled into the next frame");
    }

    #[test]
    fn line_and_page_math() {
        assert_eq!(page_number(0x1fff), 1);
        assert_eq!(page_offset(0x1fff), 0xfff);
        assert_eq!(line_number(0x7f), 1);
        assert_eq!(line_number(0x3f), 0);
    }
}
