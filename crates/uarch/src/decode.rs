//! Pre-decoded instruction stream.
//!
//! [`crate::isa::Inst`] is the *assembly* representation: ergonomic to
//! build, pattern-match, and print, but expensive to execute — every step
//! would otherwise re-discriminate a 59-variant enum with embedded structs.
//! This module flattens each instruction **once**, at
//! [`crate::program::ProgramBuilder::link`] time, into a fixed 16-byte
//! [`DecodedInst`]: a dense [`Op`] tag, three byte-sized operand fields, a
//! metadata byte with precomputed attribute bits (privilege), and one
//! 64-bit immediate. The machine's dispatch loop then switches on the
//! dense tag — a jump table — and never touches the `Inst` enum again.
//!
//! [`DecodedProgram`] stores the stream as one array of [`DecodedInst`],
//! so a fetch is one alignment check, one bounds check and one 16-byte
//! load, and straight-line execution walks the array sequentially.
//!
//! Decoding is lossless: [`DecodedInst::to_inst`] reconstructs the exact
//! original `Inst` (bit-exact even for `f64` immediates), which the
//! round-trip property tests pin.

use crate::isa::{Cond, FReg, Inst, Pmc, Reg, Width};
use crate::program::INST_SIZE;

/// Dense opcode tag, one per [`Inst`] variant.
///
/// The discriminants are contiguous from zero so a `match` compiles to a
/// jump table and the tag packs into one byte of the decoded stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
#[allow(missing_docs)] // one-to-one with the documented `Inst` variants
pub enum Op {
    Nop = 0,
    Pause,
    Halt,
    MovImm,
    Mov,
    Add,
    AddImm,
    Sub,
    SubImm,
    Mul,
    Div,
    And,
    AndImm,
    Or,
    Xor,
    XorImm,
    Shl,
    Shr,
    Not,
    Load,
    Store,
    Cmp,
    CmpImm,
    Test,
    Jcc,
    Jmp,
    JmpInd,
    Call,
    CallInd,
    Ret,
    Cmov,
    CmovImm,
    Lfence,
    Mfence,
    Sfence,
    Clflush,
    Rdtsc,
    Rdpmc,
    Wrmsr,
    Rdmsr,
    Syscall,
    Sysret,
    Swapgs,
    Iret,
    MovCr3,
    Verw,
    Invlpg,
    Fadd,
    Fsub,
    Fmul,
    Fdiv,
    FmovImm,
    Fload,
    Fstore,
    FtoG,
    Xsave,
    Xrstor,
    Host,
    Vmcall,
}

/// Attribute bit in [`DecodedInst::meta`]: faults with `#GP` in user mode.
pub const META_PRIVILEGED: u8 = 1 << 0;

/// One pre-decoded instruction: 16 bytes, `Copy`, no embedded enums with
/// payloads. Operand meaning depends on [`Op`]; see [`decode`] for the
/// field assignment per variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodedInst {
    /// Dense opcode tag.
    pub op: Op,
    /// First operand: destination/source GPR or FReg index, depending on op.
    pub a: u8,
    /// Second operand: source/base register index, shift amount, or PMC index.
    pub b: u8,
    /// Third operand: width index or condition-code index.
    pub c: u8,
    /// Precomputed attribute bits ([`META_PRIVILEGED`]).
    pub meta: u8,
    /// Immediate: value, branch target, displacement (as two's-complement
    /// `u64`), MSR number, host-hook id, or `f64` bits.
    pub imm: u64,
}

impl DecodedInst {
    /// Whether the instruction faults with `#GP` in user mode (precomputed
    /// from [`Inst::is_privileged`] at decode time).
    #[inline]
    pub fn is_privileged(self) -> bool {
        self.meta & META_PRIVILEGED != 0
    }

    /// Reconstructs the original [`Inst`]. Lossless for every constructible
    /// instruction, including bit-exact `f64` immediates.
    pub fn to_inst(self) -> Inst {
        let ra = || Reg::from_index((self.a & 15) as usize);
        let rb = || Reg::from_index((self.b & 15) as usize);
        let fa = || FReg::from_index((self.a & 7) as usize);
        let fb = || FReg::from_index((self.b & 7) as usize);
        let width = || Width::from_index((self.c & 3) as usize);
        let cond = || Cond::from_index(self.c as usize);
        match self.op {
            Op::Nop => Inst::Nop,
            Op::Pause => Inst::Pause,
            Op::Halt => Inst::Halt,
            Op::MovImm => Inst::MovImm(ra(), self.imm),
            Op::Mov => Inst::Mov(ra(), rb()),
            Op::Add => Inst::Add(ra(), rb()),
            Op::AddImm => Inst::AddImm(ra(), self.imm),
            Op::Sub => Inst::Sub(ra(), rb()),
            Op::SubImm => Inst::SubImm(ra(), self.imm),
            Op::Mul => Inst::Mul(ra(), rb()),
            Op::Div => Inst::Div(ra(), rb()),
            Op::And => Inst::And(ra(), rb()),
            Op::AndImm => Inst::AndImm(ra(), self.imm),
            Op::Or => Inst::Or(ra(), rb()),
            Op::Xor => Inst::Xor(ra(), rb()),
            Op::XorImm => Inst::XorImm(ra(), self.imm),
            Op::Shl => Inst::Shl(ra(), self.b),
            Op::Shr => Inst::Shr(ra(), self.b),
            Op::Not => Inst::Not(ra()),
            Op::Load => Inst::Load {
                dst: ra(),
                base: rb(),
                offset: self.imm as i64,
                width: width(),
            },
            Op::Store => Inst::Store {
                src: ra(),
                base: rb(),
                offset: self.imm as i64,
                width: width(),
            },
            Op::Cmp => Inst::Cmp(ra(), rb()),
            Op::CmpImm => Inst::CmpImm(ra(), self.imm),
            Op::Test => Inst::Test(ra(), rb()),
            Op::Jcc => Inst::Jcc(cond(), self.imm),
            Op::Jmp => Inst::Jmp(self.imm),
            Op::JmpInd => Inst::JmpInd(ra()),
            Op::Call => Inst::Call(self.imm),
            Op::CallInd => Inst::CallInd(ra()),
            Op::Ret => Inst::Ret,
            Op::Cmov => Inst::Cmov(cond(), ra(), rb()),
            Op::CmovImm => Inst::CmovImm(cond(), ra(), self.imm),
            Op::Lfence => Inst::Lfence,
            Op::Mfence => Inst::Mfence,
            Op::Sfence => Inst::Sfence,
            Op::Clflush => Inst::Clflush(ra()),
            Op::Rdtsc => Inst::Rdtsc(ra()),
            Op::Rdpmc => Inst::Rdpmc { pmc: Pmc::from_index((self.b & 7) as usize), dst: ra() },
            Op::Wrmsr => Inst::Wrmsr { msr: self.imm as u32, src: ra() },
            Op::Rdmsr => Inst::Rdmsr { msr: self.imm as u32, dst: ra() },
            Op::Syscall => Inst::Syscall,
            Op::Sysret => Inst::Sysret,
            Op::Swapgs => Inst::Swapgs,
            Op::Iret => Inst::Iret,
            Op::MovCr3 => Inst::MovCr3(ra()),
            Op::Verw => Inst::Verw,
            Op::Invlpg => Inst::Invlpg(ra()),
            Op::Fadd => Inst::Fadd(fa(), fb()),
            Op::Fsub => Inst::Fsub(fa(), fb()),
            Op::Fmul => Inst::Fmul(fa(), fb()),
            Op::Fdiv => Inst::Fdiv(fa(), fb()),
            Op::FmovImm => Inst::FmovImm(fa(), f64::from_bits(self.imm)),
            Op::Fload => Inst::Fload { dst: fa(), base: rb(), offset: self.imm as i64 },
            Op::Fstore => Inst::Fstore { src: fa(), base: rb(), offset: self.imm as i64 },
            Op::FtoG => Inst::FtoG(ra(), fb()),
            Op::Xsave => Inst::Xsave,
            Op::Xrstor => Inst::Xrstor,
            Op::Host => Inst::Host(self.imm as u16),
            Op::Vmcall => Inst::Vmcall,
        }
    }
}

/// Flattens one [`Inst`] into its decoded form. This runs exactly once per
/// instruction, at link time.
pub fn decode(inst: &Inst) -> DecodedInst {
    let mut d = DecodedInst { op: Op::Nop, a: 0, b: 0, c: 0, meta: 0, imm: 0 };
    if inst.is_privileged() {
        d.meta |= META_PRIVILEGED;
    }
    match *inst {
        Inst::Nop => d.op = Op::Nop,
        Inst::Pause => d.op = Op::Pause,
        Inst::Halt => d.op = Op::Halt,
        Inst::MovImm(r, v) => {
            d.op = Op::MovImm;
            d.a = r.index() as u8;
            d.imm = v;
        }
        Inst::Mov(a, b) => {
            d.op = Op::Mov;
            d.a = a.index() as u8;
            d.b = b.index() as u8;
        }
        Inst::Add(a, b) => {
            d.op = Op::Add;
            d.a = a.index() as u8;
            d.b = b.index() as u8;
        }
        Inst::AddImm(r, v) => {
            d.op = Op::AddImm;
            d.a = r.index() as u8;
            d.imm = v;
        }
        Inst::Sub(a, b) => {
            d.op = Op::Sub;
            d.a = a.index() as u8;
            d.b = b.index() as u8;
        }
        Inst::SubImm(r, v) => {
            d.op = Op::SubImm;
            d.a = r.index() as u8;
            d.imm = v;
        }
        Inst::Mul(a, b) => {
            d.op = Op::Mul;
            d.a = a.index() as u8;
            d.b = b.index() as u8;
        }
        Inst::Div(a, b) => {
            d.op = Op::Div;
            d.a = a.index() as u8;
            d.b = b.index() as u8;
        }
        Inst::And(a, b) => {
            d.op = Op::And;
            d.a = a.index() as u8;
            d.b = b.index() as u8;
        }
        Inst::AndImm(r, v) => {
            d.op = Op::AndImm;
            d.a = r.index() as u8;
            d.imm = v;
        }
        Inst::Or(a, b) => {
            d.op = Op::Or;
            d.a = a.index() as u8;
            d.b = b.index() as u8;
        }
        Inst::Xor(a, b) => {
            d.op = Op::Xor;
            d.a = a.index() as u8;
            d.b = b.index() as u8;
        }
        Inst::XorImm(r, v) => {
            d.op = Op::XorImm;
            d.a = r.index() as u8;
            d.imm = v;
        }
        Inst::Shl(r, n) => {
            d.op = Op::Shl;
            d.a = r.index() as u8;
            d.b = n;
        }
        Inst::Shr(r, n) => {
            d.op = Op::Shr;
            d.a = r.index() as u8;
            d.b = n;
        }
        Inst::Not(r) => {
            d.op = Op::Not;
            d.a = r.index() as u8;
        }
        Inst::Load { dst, base, offset, width } => {
            d.op = Op::Load;
            d.a = dst.index() as u8;
            d.b = base.index() as u8;
            d.c = width.index() as u8;
            d.imm = offset as u64;
        }
        Inst::Store { src, base, offset, width } => {
            d.op = Op::Store;
            d.a = src.index() as u8;
            d.b = base.index() as u8;
            d.c = width.index() as u8;
            d.imm = offset as u64;
        }
        Inst::Cmp(a, b) => {
            d.op = Op::Cmp;
            d.a = a.index() as u8;
            d.b = b.index() as u8;
        }
        Inst::CmpImm(r, v) => {
            d.op = Op::CmpImm;
            d.a = r.index() as u8;
            d.imm = v;
        }
        Inst::Test(a, b) => {
            d.op = Op::Test;
            d.a = a.index() as u8;
            d.b = b.index() as u8;
        }
        Inst::Jcc(cond, target) => {
            d.op = Op::Jcc;
            d.c = cond.index() as u8;
            d.imm = target;
        }
        Inst::Jmp(target) => {
            d.op = Op::Jmp;
            d.imm = target;
        }
        Inst::JmpInd(r) => {
            d.op = Op::JmpInd;
            d.a = r.index() as u8;
        }
        Inst::Call(target) => {
            d.op = Op::Call;
            d.imm = target;
        }
        Inst::CallInd(r) => {
            d.op = Op::CallInd;
            d.a = r.index() as u8;
        }
        Inst::Ret => d.op = Op::Ret,
        Inst::Cmov(cond, a, b) => {
            d.op = Op::Cmov;
            d.a = a.index() as u8;
            d.b = b.index() as u8;
            d.c = cond.index() as u8;
        }
        Inst::CmovImm(cond, r, v) => {
            d.op = Op::CmovImm;
            d.a = r.index() as u8;
            d.c = cond.index() as u8;
            d.imm = v;
        }
        Inst::Lfence => d.op = Op::Lfence,
        Inst::Mfence => d.op = Op::Mfence,
        Inst::Sfence => d.op = Op::Sfence,
        Inst::Clflush(r) => {
            d.op = Op::Clflush;
            d.a = r.index() as u8;
        }
        Inst::Rdtsc(r) => {
            d.op = Op::Rdtsc;
            d.a = r.index() as u8;
        }
        Inst::Rdpmc { pmc, dst } => {
            d.op = Op::Rdpmc;
            d.a = dst.index() as u8;
            d.b = pmc.index() as u8;
        }
        Inst::Wrmsr { msr, src } => {
            d.op = Op::Wrmsr;
            d.a = src.index() as u8;
            d.imm = msr as u64;
        }
        Inst::Rdmsr { msr, dst } => {
            d.op = Op::Rdmsr;
            d.a = dst.index() as u8;
            d.imm = msr as u64;
        }
        Inst::Syscall => d.op = Op::Syscall,
        Inst::Sysret => d.op = Op::Sysret,
        Inst::Swapgs => d.op = Op::Swapgs,
        Inst::Iret => d.op = Op::Iret,
        Inst::MovCr3(r) => {
            d.op = Op::MovCr3;
            d.a = r.index() as u8;
        }
        Inst::Verw => d.op = Op::Verw,
        Inst::Invlpg(r) => {
            d.op = Op::Invlpg;
            d.a = r.index() as u8;
        }
        Inst::Fadd(a, b) => {
            d.op = Op::Fadd;
            d.a = a.index() as u8;
            d.b = b.index() as u8;
        }
        Inst::Fsub(a, b) => {
            d.op = Op::Fsub;
            d.a = a.index() as u8;
            d.b = b.index() as u8;
        }
        Inst::Fmul(a, b) => {
            d.op = Op::Fmul;
            d.a = a.index() as u8;
            d.b = b.index() as u8;
        }
        Inst::Fdiv(a, b) => {
            d.op = Op::Fdiv;
            d.a = a.index() as u8;
            d.b = b.index() as u8;
        }
        Inst::FmovImm(r, v) => {
            d.op = Op::FmovImm;
            d.a = r.index() as u8;
            d.imm = v.to_bits();
        }
        Inst::Fload { dst, base, offset } => {
            d.op = Op::Fload;
            d.a = dst.index() as u8;
            d.b = base.index() as u8;
            d.imm = offset as u64;
        }
        Inst::Fstore { src, base, offset } => {
            d.op = Op::Fstore;
            d.a = src.index() as u8;
            d.b = base.index() as u8;
            d.imm = offset as u64;
        }
        Inst::FtoG(a, b) => {
            d.op = Op::FtoG;
            d.a = a.index() as u8;
            d.b = b.index() as u8;
        }
        Inst::Xsave => d.op = Op::Xsave,
        Inst::Xrstor => d.op = Op::Xrstor,
        Inst::Host(id) => {
            d.op = Op::Host;
            d.imm = id as u64;
        }
        Inst::Vmcall => d.op = Op::Vmcall,
    }
    d
}

/// A pre-decoded instruction stream for one linked segment: one
/// [`DecodedInst`] per instruction, indexed by `(addr - base) / INST_SIZE`.
#[derive(Debug, Clone, Default)]
pub struct DecodedProgram {
    base: u64,
    insts: Vec<DecodedInst>,
}

impl DecodedProgram {
    /// An empty stream, which every fetch misses.
    pub(crate) const EMPTY: DecodedProgram = DecodedProgram { base: 0, insts: Vec::new() };

    /// Decodes a linked instruction slice based at `base`.
    pub fn from_insts(base: u64, insts: &[Inst]) -> DecodedProgram {
        DecodedProgram { base, insts: insts.iter().map(decode).collect() }
    }

    /// The base code address of the stream.
    #[inline]
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Number of instructions in the stream.
    #[inline]
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// Whether the stream is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// Fetches the decoded instruction at `addr`: an alignment check and
    /// one bounds check, no search and no enum walk.
    #[inline(always)]
    pub fn fetch(&self, addr: u64) -> Option<DecodedInst> {
        let off = addr.wrapping_sub(self.base);
        // A wrapped (addr < base) offset fails the bounds check below.
        if off & (INST_SIZE - 1) != 0 {
            return None;
        }
        self.insts.get((off / INST_SIZE) as usize).copied()
    }

    /// Fetches by instruction index, for callers that walk the whole
    /// stream (`spec-taint`'s branch analysis).
    ///
    /// # Panics
    /// Panics if `idx` is out of bounds.
    #[inline]
    pub fn get(&self, idx: usize) -> DecodedInst {
        self.insts[idx]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decoded_inst_is_16_bytes() {
        assert_eq!(std::mem::size_of::<DecodedInst>(), 16);
    }

    #[test]
    fn privilege_bit_precomputed() {
        let d = decode(&Inst::Wrmsr { msr: 0x48, src: Reg::R3 });
        assert!(d.is_privileged());
        let d = decode(&Inst::Rdtsc(Reg::R0));
        assert!(!d.is_privileged());
    }

    #[test]
    fn fetch_bounds_and_alignment() {
        let insts = vec![Inst::Nop, Inst::Halt];
        let dp = DecodedProgram::from_insts(0x1000, &insts);
        assert_eq!(dp.fetch(0x1000).map(|d| d.op), Some(Op::Nop));
        assert_eq!(dp.fetch(0x1004).map(|d| d.op), Some(Op::Halt));
        assert!(dp.fetch(0x1008).is_none());
        assert!(dp.fetch(0x0ffc).is_none());
        assert!(dp.fetch(0x1002).is_none(), "misaligned");
        assert!(dp.fetch(0).is_none());
    }
}
