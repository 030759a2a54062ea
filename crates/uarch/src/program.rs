//! Program construction and code memory.
//!
//! Code lives at 64-bit addresses, four address units per instruction (a
//! fixed-width encoding), so branch targets, BTB indices, and RSB entries
//! are real addresses. [`ProgramBuilder`] is a tiny assembler with labels;
//! [`CodeMem`] holds linked segments for the machine to fetch from.

use std::collections::HashMap;

use crate::decode::{DecodedInst, DecodedProgram};
use crate::isa::{Cond, Inst, Reg};

/// Bytes of address space per instruction.
pub const INST_SIZE: u64 = 4;

/// A forward-referenceable code label.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Label(usize);

#[derive(Debug, Clone, Copy)]
enum Fixup {
    Jcc(Cond),
    Jmp,
    Call,
    /// Materialize the label address into a register (`MovImm`).
    Lea(Reg),
}

/// A small assembler that resolves labels at link time.
///
/// # Examples
///
/// ```
/// use uarch::program::ProgramBuilder;
/// use uarch::isa::{Inst, Reg, Cond};
///
/// let mut b = ProgramBuilder::new();
/// let done = b.new_label();
/// b.mov_imm(Reg::R0, 10);
/// let top = b.here();
/// b.sub_imm(Reg::R0, 1);
/// b.cmp_imm(Reg::R0, 0);
/// b.jcc(Cond::Eq, done);
/// b.jmp(top);
/// b.bind(done);
/// b.push(Inst::Halt);
/// let prog = b.link(0x1000);
/// assert_eq!(prog.base(), 0x1000);
/// ```
#[derive(Debug, Default)]
pub struct ProgramBuilder {
    insts: Vec<Inst>,
    fixups: Vec<(usize, Label, Fixup)>,
    labels: Vec<Option<usize>>,
}

impl ProgramBuilder {
    /// Creates an empty builder.
    pub fn new() -> ProgramBuilder {
        ProgramBuilder::default()
    }

    /// Allocates an unbound label.
    pub fn new_label(&mut self) -> Label {
        self.labels.push(None);
        Label(self.labels.len() - 1)
    }

    /// Binds `label` to the current position.
    ///
    /// # Panics
    ///
    /// Panics if the label was already bound.
    pub fn bind(&mut self, label: Label) {
        assert!(self.labels[label.0].is_none(), "label bound twice");
        self.labels[label.0] = Some(self.insts.len());
    }

    /// Returns a label bound to the current position.
    pub fn here(&mut self) -> Label {
        let l = self.new_label();
        self.bind(l);
        l
    }

    /// Appends a raw instruction.
    pub fn push(&mut self, inst: Inst) -> &mut Self {
        self.insts.push(inst);
        self
    }

    /// Appends many raw instructions.
    pub fn extend(&mut self, insts: impl IntoIterator<Item = Inst>) -> &mut Self {
        self.insts.extend(insts);
        self
    }

    /// Number of instructions emitted so far.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// Whether the builder is empty.
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// Emits a conditional branch to `label`.
    pub fn jcc(&mut self, cond: Cond, label: Label) -> &mut Self {
        self.fixups.push((self.insts.len(), label, Fixup::Jcc(cond)));
        self.insts.push(Inst::Jcc(cond, 0));
        self
    }

    /// Emits an unconditional branch to `label`.
    pub fn jmp(&mut self, label: Label) -> &mut Self {
        self.fixups.push((self.insts.len(), label, Fixup::Jmp));
        self.insts.push(Inst::Jmp(0));
        self
    }

    /// Emits a direct call to `label`.
    pub fn call(&mut self, label: Label) -> &mut Self {
        self.fixups.push((self.insts.len(), label, Fixup::Call));
        self.insts.push(Inst::Call(0));
        self
    }

    /// Emits `MovImm(dst, addr_of(label))` — load a label's address.
    pub fn lea(&mut self, dst: Reg, label: Label) -> &mut Self {
        self.fixups.push((self.insts.len(), label, Fixup::Lea(dst)));
        self.insts.push(Inst::MovImm(dst, 0));
        self
    }

    /// Convenience: `dst = imm`.
    pub fn mov_imm(&mut self, dst: Reg, imm: u64) -> &mut Self {
        self.push(Inst::MovImm(dst, imm))
    }

    /// Convenience: `dst = dst - imm`.
    pub fn sub_imm(&mut self, dst: Reg, imm: u64) -> &mut Self {
        self.push(Inst::SubImm(dst, imm))
    }

    /// Convenience: `dst = dst + imm`.
    pub fn add_imm(&mut self, dst: Reg, imm: u64) -> &mut Self {
        self.push(Inst::AddImm(dst, imm))
    }

    /// Convenience: compare register with immediate.
    pub fn cmp_imm(&mut self, r: Reg, imm: u64) -> &mut Self {
        self.push(Inst::CmpImm(r, imm))
    }

    /// Resolves labels against `base` and produces a [`Program`].
    ///
    /// # Panics
    ///
    /// Panics if any referenced label is unbound.
    pub fn link(mut self, base: u64) -> Program {
        let resolve = |labels: &[Option<usize>], l: Label| -> u64 {
            let off = match labels[l.0] {
                Some(off) => off,
                None => panic!("unbound label referenced"),
            };
            base + off as u64 * INST_SIZE
        };
        for (idx, label, fixup) in std::mem::take(&mut self.fixups) {
            let addr = resolve(&self.labels, label);
            self.insts[idx] = match fixup {
                Fixup::Jcc(c) => Inst::Jcc(c, addr),
                Fixup::Jmp => Inst::Jmp(addr),
                Fixup::Call => Inst::Call(addr),
                Fixup::Lea(r) => Inst::MovImm(r, addr),
            };
        }
        let label_addrs = self
            .labels
            .iter()
            .enumerate()
            .filter_map(|(i, off)| off.map(|o| (Label(i), base + o as u64 * INST_SIZE)))
            .collect();
        // Decode-once: the machine dispatches over this stream and never
        // pattern-matches `Inst` again.
        let decoded = DecodedProgram::from_insts(base, &self.insts);
        Program { base, insts: self.insts, label_addrs, decoded }
    }
}

/// A linked program: instructions at consecutive addresses from `base`,
/// plus the pre-decoded stream built once at link time.
#[derive(Debug, Clone)]
pub struct Program {
    base: u64,
    insts: Vec<Inst>,
    label_addrs: HashMap<Label, u64>,
    decoded: DecodedProgram,
}

impl Program {
    /// The base code address.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// The address one past the last instruction.
    pub fn end(&self) -> u64 {
        self.base + self.insts.len() as u64 * INST_SIZE
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// Whether the program is empty.
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// The resolved address of a bound label.
    ///
    /// # Panics
    ///
    /// Panics if the label was never bound.
    pub fn addr(&self, label: Label) -> u64 {
        match self.label_addrs.get(&label) {
            Some(addr) => *addr,
            None => panic!("label not bound in this program"),
        }
    }

    /// The instructions.
    pub fn insts(&self) -> &[Inst] {
        &self.insts
    }

    /// The pre-decoded instruction stream.
    pub fn decoded(&self) -> &DecodedProgram {
        &self.decoded
    }
}

/// Code memory: a set of non-overlapping linked segments.
#[derive(Debug, Default)]
pub struct CodeMem {
    /// Segments sorted by base address.
    segments: Vec<Program>,
}

impl CodeMem {
    /// Creates empty code memory.
    pub fn new() -> CodeMem {
        CodeMem::default()
    }

    /// Loads a program.
    ///
    /// # Panics
    ///
    /// Panics if the segment overlaps an existing one.
    pub fn load(&mut self, program: Program) {
        let pos = self.segments.partition_point(|s| s.base() < program.base());
        if pos > 0 {
            assert!(self.segments[pos - 1].end() <= program.base(), "overlapping code segment");
        }
        if pos < self.segments.len() {
            assert!(program.end() <= self.segments[pos].base(), "overlapping code segment");
        }
        self.segments.insert(pos, program);
    }

    /// Fetches the instruction at `addr`, if any.
    #[inline]
    pub fn fetch(&self, addr: u64) -> Option<&Inst> {
        let pos = self.segments.partition_point(|s| s.base() <= addr);
        if pos == 0 {
            return None;
        }
        let seg = &self.segments[pos - 1];
        if addr >= seg.end() || !(addr - seg.base()).is_multiple_of(INST_SIZE) {
            return None;
        }
        seg.insts.get(((addr - seg.base()) / INST_SIZE) as usize)
    }

    /// Fetches the pre-decoded instruction at `addr`, if any.
    ///
    /// `hint` caches the index of the segment that satisfied the previous
    /// fetch: straight-line and loop execution stay inside one segment, so
    /// the common case is a single bounds check with no search. On a miss
    /// (cross-segment branch, syscall entry) the binary search runs and the
    /// hint is refreshed. A stale or garbage hint is never incorrect — only
    /// slow — so callers may carry it across `load` calls.
    #[inline(always)]
    pub fn fetch_decoded(&self, addr: u64, hint: &mut usize) -> Option<DecodedInst> {
        if let Some(d) = self.segment(*hint).fetch(addr) {
            return Some(d);
        }
        let (idx, seg) = self.find_segment(addr)?;
        let d = seg.fetch(addr)?;
        *hint = idx;
        Some(d)
    }

    /// The decoded stream of segment `idx`; an empty stream when there is
    /// no such segment.
    #[inline(always)]
    pub(crate) fn segment(&self, idx: usize) -> &DecodedProgram {
        static EMPTY: DecodedProgram = DecodedProgram::EMPTY;
        self.segments.get(idx).map_or(&EMPTY, |p| &p.decoded)
    }

    /// The index and decoded stream of the segment whose range starts at
    /// or below `addr` (the only one that can hold it), by binary search.
    /// Out of line so the hinted fast paths stay small.
    #[cold]
    pub(crate) fn find_segment(&self, addr: u64) -> Option<(usize, &DecodedProgram)> {
        let pos = self.segments.partition_point(|s| s.base() <= addr);
        let idx = pos.checked_sub(1)?;
        Some((idx, &self.segments[idx].decoded))
    }

    /// Total instruction count across segments.
    pub fn total_insts(&self) -> usize {
        self.segments.iter().map(Program::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::Cond;

    #[test]
    fn labels_resolve_forward_and_backward() {
        let mut b = ProgramBuilder::new();
        let fwd = b.new_label();
        let back = b.here(); // offset 0
        b.push(Inst::Nop); // offset 1... wait, here() emits nothing
        b.jmp(fwd); // offset 1
        b.bind(fwd); // offset 2
        b.jmp(back); // offset 2
        let p = b.link(0x1000);
        assert_eq!(p.insts()[1], Inst::Jmp(0x1000 + 2 * INST_SIZE));
        assert_eq!(p.insts()[2], Inst::Jmp(0x1000));
        assert_eq!(p.addr(back), 0x1000);
    }

    #[test]
    fn lea_materializes_label_address() {
        let mut b = ProgramBuilder::new();
        let target = b.new_label();
        b.lea(Reg::R3, target);
        b.push(Inst::Nop);
        b.bind(target);
        b.push(Inst::Halt);
        let p = b.link(0x2000);
        assert_eq!(p.insts()[0], Inst::MovImm(Reg::R3, 0x2000 + 2 * INST_SIZE));
    }

    #[test]
    #[should_panic(expected = "unbound label")]
    fn unbound_label_panics_at_link() {
        let mut b = ProgramBuilder::new();
        let l = b.new_label();
        b.jmp(l);
        let _ = b.link(0);
    }

    #[test]
    #[should_panic(expected = "label bound twice")]
    fn double_bind_panics() {
        let mut b = ProgramBuilder::new();
        let l = b.new_label();
        b.bind(l);
        b.bind(l);
    }

    #[test]
    fn code_mem_fetch() {
        let mut b = ProgramBuilder::new();
        b.push(Inst::Nop).push(Inst::Halt);
        let p = b.link(0x1000);
        let mut cm = CodeMem::new();
        cm.load(p);
        assert_eq!(cm.fetch(0x1000), Some(&Inst::Nop));
        assert_eq!(cm.fetch(0x1004), Some(&Inst::Halt));
        assert_eq!(cm.fetch(0x1008), None);
        assert_eq!(cm.fetch(0x0fff), None);
        assert_eq!(cm.fetch(0x1002), None, "misaligned");
    }

    #[test]
    fn code_mem_multiple_segments() {
        let mut cm = CodeMem::new();
        let mut b = ProgramBuilder::new();
        b.push(Inst::Nop);
        cm.load(b.link(0x9000));
        let mut b = ProgramBuilder::new();
        b.push(Inst::Halt);
        cm.load(b.link(0x1000));
        assert_eq!(cm.fetch(0x1000), Some(&Inst::Halt));
        assert_eq!(cm.fetch(0x9000), Some(&Inst::Nop));
        assert_eq!(cm.total_insts(), 2);
    }

    #[test]
    #[should_panic(expected = "overlapping")]
    fn overlapping_segments_panic() {
        let mut cm = CodeMem::new();
        let mut b = ProgramBuilder::new();
        b.push(Inst::Nop).push(Inst::Nop);
        cm.load(b.link(0x1000));
        let mut b = ProgramBuilder::new();
        b.push(Inst::Nop);
        cm.load(b.link(0x1004));
    }

    #[test]
    fn builder_example_loop_links() {
        let mut b = ProgramBuilder::new();
        let done = b.new_label();
        b.mov_imm(Reg::R0, 10);
        let top = b.here();
        b.sub_imm(Reg::R0, 1);
        b.cmp_imm(Reg::R0, 0);
        b.jcc(Cond::Eq, done);
        b.jmp(top);
        b.bind(done);
        b.push(Inst::Halt);
        let p = b.link(0);
        assert_eq!(p.len(), 6);
        assert_eq!(p.addr(top), INST_SIZE);
    }
}
