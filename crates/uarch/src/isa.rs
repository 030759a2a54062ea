//! Instruction set of the simulated machine.
//!
//! The ISA is a compact, x86-flavoured register machine: sixteen 64-bit
//! general-purpose registers, eight floating-point registers, a flags
//! register, and the handful of privileged/serializing instructions that the
//! paper's mitigations are built from (`syscall`/`sysret`, `mov %cr3`,
//! `verw`, `lfence`, `wrmsr`/`rdmsr`, `rdtsc`/`rdpmc`, `clflush`).
//!
//! Programs are sequences of [`Inst`] values placed at 64-bit code
//! addresses. Code addresses matter: the branch target buffer and the
//! return stack buffer are indexed by them, exactly as on hardware, which
//! is what makes cross-context BTB poisoning (Spectre V2) expressible.

use std::fmt;

/// A general-purpose 64-bit register.
///
/// `R0`–`R15` mirror x86-64's sixteen GPRs. By convention in this codebase
/// `R15` is used as the stack pointer by [`crate::program::ProgramBuilder`]
/// helpers, but nothing in the machine enforces that.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Reg {
    R0,
    R1,
    R2,
    R3,
    R4,
    R5,
    R6,
    R7,
    R8,
    R9,
    R10,
    R11,
    R12,
    R13,
    R14,
    /// Conventionally the stack pointer (`%rsp` analogue).
    R15,
}

impl Reg {
    /// All sixteen registers in index order.
    pub const ALL: [Reg; 16] = [
        Reg::R0,
        Reg::R1,
        Reg::R2,
        Reg::R3,
        Reg::R4,
        Reg::R5,
        Reg::R6,
        Reg::R7,
        Reg::R8,
        Reg::R9,
        Reg::R10,
        Reg::R11,
        Reg::R12,
        Reg::R13,
        Reg::R14,
        Reg::R15,
    ];

    /// Returns the register's index in the register file (0–15).
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Returns the register with the given index.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= 16`.
    #[inline]
    pub fn from_index(idx: usize) -> Reg {
        Reg::ALL[idx]
    }

    /// The stack-pointer register used by builder conventions.
    pub const SP: Reg = Reg::R15;
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.index())
    }
}

/// A floating-point register (`%xmm` analogue, scalar f64 only).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FReg {
    F0,
    F1,
    F2,
    F3,
    F4,
    F5,
    F6,
    F7,
}

impl FReg {
    /// All eight floating point registers in index order.
    pub const ALL: [FReg; 8] = [
        FReg::F0,
        FReg::F1,
        FReg::F2,
        FReg::F3,
        FReg::F4,
        FReg::F5,
        FReg::F6,
        FReg::F7,
    ];

    /// Returns the register's index in the FP register file (0–7).
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Returns the FP register with the given index.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= 8`.
    #[inline]
    pub fn from_index(idx: usize) -> FReg {
        FReg::ALL[idx]
    }
}

impl fmt::Display for FReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}", self.index())
    }
}

/// Access width for loads and stores, in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Width {
    /// One byte.
    B1,
    /// Two bytes.
    B2,
    /// Four bytes.
    B4,
    /// Eight bytes.
    B8,
}

impl Width {
    /// All widths in index order.
    pub const ALL: [Width; 4] = [Width::B1, Width::B2, Width::B4, Width::B8];

    /// Returns the width's index in [`Width::ALL`] (0–3).
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Returns the width with the given index.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= 4`.
    #[inline]
    pub fn from_index(idx: usize) -> Width {
        Width::ALL[idx]
    }

    /// Number of bytes this width covers.
    #[inline]
    pub fn bytes(self) -> u64 {
        match self {
            Width::B1 => 1,
            Width::B2 => 2,
            Width::B4 => 4,
            Width::B8 => 8,
        }
    }

    /// Truncates `v` to this width.
    #[inline]
    pub fn truncate(self, v: u64) -> u64 {
        match self {
            Width::B1 => v & 0xff,
            Width::B2 => v & 0xffff,
            Width::B4 => v & 0xffff_ffff,
            Width::B8 => v,
        }
    }
}

/// Condition codes for conditional branches and conditional moves.
///
/// Conditions are evaluated against the flags set by the most recent
/// `Cmp`/`CmpImm`/`Test` instruction. Unsigned comparisons (`Above`,
/// `Below`, …) are what array bounds checks use; the Spectre V1 gadgets and
/// the JIT's index-masking mitigation both rely on them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cond {
    /// Equal (ZF set).
    Eq,
    /// Not equal (ZF clear).
    Ne,
    /// Unsigned below (CF set).
    Below,
    /// Unsigned above-or-equal (CF clear).
    AboveEq,
    /// Unsigned above (CF clear and ZF clear).
    Above,
    /// Unsigned below-or-equal (CF set or ZF set).
    BelowEq,
    /// Signed less-than.
    Lt,
    /// Signed greater-or-equal.
    Ge,
    /// Signed greater-than.
    Gt,
    /// Signed less-or-equal.
    Le,
}

impl Cond {
    /// All condition codes in index order.
    pub const ALL: [Cond; 10] = [
        Cond::Eq,
        Cond::Ne,
        Cond::Below,
        Cond::AboveEq,
        Cond::Above,
        Cond::BelowEq,
        Cond::Lt,
        Cond::Ge,
        Cond::Gt,
        Cond::Le,
    ];

    /// Returns the condition's index in [`Cond::ALL`] (0–9).
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Returns the condition with the given index.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= 10`.
    #[inline]
    pub fn from_index(idx: usize) -> Cond {
        Cond::ALL[idx]
    }

    /// Returns the negation of this condition.
    pub fn negate(self) -> Cond {
        match self {
            Cond::Eq => Cond::Ne,
            Cond::Ne => Cond::Eq,
            Cond::Below => Cond::AboveEq,
            Cond::AboveEq => Cond::Below,
            Cond::Above => Cond::BelowEq,
            Cond::BelowEq => Cond::Above,
            Cond::Lt => Cond::Ge,
            Cond::Ge => Cond::Lt,
            Cond::Gt => Cond::Le,
            Cond::Le => Cond::Gt,
        }
    }
}

/// Flags register state produced by compare instructions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Flags {
    /// Zero flag: operands were equal.
    pub zero: bool,
    /// Carry flag: unsigned below.
    pub carry: bool,
    /// Sign flag: signed result was negative.
    pub sign: bool,
    /// Overflow flag.
    pub overflow: bool,
}

impl Flags {
    /// Computes flags for `a` compared against `b` (i.e. `a - b`).
    #[inline]
    pub fn compare(a: u64, b: u64) -> Flags {
        let (res, borrow) = a.overflowing_sub(b);
        let sa = a as i64;
        let sb = b as i64;
        let (sres, soverflow) = sa.overflowing_sub(sb);
        Flags {
            zero: res == 0,
            carry: borrow,
            sign: sres < 0,
            overflow: soverflow,
        }
    }

    /// Evaluates a condition code against these flags.
    #[inline]
    pub fn eval(&self, cond: Cond) -> bool {
        match cond {
            Cond::Eq => self.zero,
            Cond::Ne => !self.zero,
            Cond::Below => self.carry,
            Cond::AboveEq => !self.carry,
            Cond::Above => !self.carry && !self.zero,
            Cond::BelowEq => self.carry || self.zero,
            Cond::Lt => self.sign != self.overflow,
            Cond::Ge => self.sign == self.overflow,
            Cond::Gt => !self.zero && (self.sign == self.overflow),
            Cond::Le => self.zero || (self.sign != self.overflow),
        }
    }
}

/// Model-specific register numbers understood by `wrmsr`/`rdmsr`.
///
/// The numbers match the real x86 MSR encodings so that kernel code in
/// `sim-kernel` reads like the Linux assembly it mirrors.
pub mod msr_index {
    /// `IA32_SPEC_CTRL`: bit 0 = IBRS, bit 1 = STIBP, bit 2 = SSBD.
    pub const IA32_SPEC_CTRL: u32 = 0x48;
    /// `IA32_PRED_CMD`: write-only; bit 0 = IBPB (flush indirect predictors).
    pub const IA32_PRED_CMD: u32 = 0x49;
    /// `IA32_ARCH_CAPABILITIES`: read-only enumeration of hardware fixes.
    pub const IA32_ARCH_CAPABILITIES: u32 = 0x10a;
    /// `IA32_FLUSH_CMD`: write-only; bit 0 = L1D flush.
    pub const IA32_FLUSH_CMD: u32 = 0x10b;
}

/// Bit positions within `IA32_SPEC_CTRL`.
pub mod spec_ctrl {
    /// Indirect Branch Restricted Speculation.
    pub const IBRS: u64 = 1 << 0;
    /// Single Thread Indirect Branch Predictors.
    pub const STIBP: u64 = 1 << 1;
    /// Speculative Store Bypass Disable.
    pub const SSBD: u64 = 1 << 2;
}

/// Bit positions within `IA32_ARCH_CAPABILITIES`.
pub mod arch_caps {
    /// `RDCL_NO`: not vulnerable to Meltdown (rogue data cache load).
    pub const RDCL_NO: u64 = 1 << 0;
    /// `IBRS_ALL`: enhanced IBRS is supported.
    pub const IBRS_ALL: u64 = 1 << 1;
    /// `SKIP_L1DFL_VMENTRY`: no L1D flush needed on VM entry.
    pub const SKIP_L1DFL_VMENTRY: u64 = 1 << 3;
    /// `SSB_NO`: not vulnerable to Speculative Store Bypass.
    ///
    /// The paper notes that no shipping CPU from either vendor sets this
    /// bit, even models released years after the attack (§4.3).
    pub const SSB_NO: u64 = 1 << 4;
    /// `MDS_NO`: not vulnerable to Microarchitectural Data Sampling.
    pub const MDS_NO: u64 = 1 << 5;
}

/// Hardware performance counters exposed through `rdpmc`.
///
/// The speculation probe (paper §6.1, Figure 6) relies on
/// [`Pmc::DividerActive`]: divide instructions executed *transiently* still
/// occupy the divider, so the counter reveals whether a poisoned branch
/// target was speculatively executed even though no architectural state
/// changed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Pmc {
    /// Cycles in which the divide unit was active (`ARITH.DIVIDER_ACTIVE`).
    DividerActive,
    /// Retired indirect branches that were mispredicted.
    IndirectMispredict,
    /// Committed (retired) instructions.
    Instructions,
    /// Core cycles.
    Cycles,
    /// L1D cache misses (committed and transient).
    L1dMiss,
    /// Transient (squashed) instructions executed.
    ///
    /// Not available on real hardware; exposed by the simulator for tests
    /// and diagnostics only.
    TransientInstructions,
}

impl Pmc {
    /// All counters, in encoding order.
    pub const ALL: [Pmc; 6] = [
        Pmc::DividerActive,
        Pmc::IndirectMispredict,
        Pmc::Instructions,
        Pmc::Cycles,
        Pmc::L1dMiss,
        Pmc::TransientInstructions,
    ];

    /// Returns the counter index used by `rdpmc`.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Returns the counter with the given index.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= 6`.
    #[inline]
    pub fn from_index(idx: usize) -> Pmc {
        Pmc::ALL[idx]
    }
}

/// A single instruction of the simulated machine.
///
/// Each variant notes its architectural semantics; timing comes from the
/// [`crate::model::LatencyProfile`] of the CPU being simulated, plus
/// dynamic costs (cache misses, TLB walks, mispredictions) charged by the
/// machine.
#[derive(Debug, Clone, PartialEq)]
pub enum Inst {
    /// No operation.
    Nop,
    /// Spin-loop hint; architecturally a no-op (used in retpoline pads).
    Pause,
    /// Stops the machine (normal program termination).
    Halt,

    /// `dst = imm`.
    MovImm(Reg, u64),
    /// `dst = src`.
    Mov(Reg, Reg),
    /// `dst = dst + src`.
    Add(Reg, Reg),
    /// `dst = dst + imm`.
    AddImm(Reg, u64),
    /// `dst = dst - src`.
    Sub(Reg, Reg),
    /// `dst = dst - imm`.
    SubImm(Reg, u64),
    /// `dst = dst * src` (low 64 bits).
    Mul(Reg, Reg),
    /// `dst = dst / src`; occupies the divider unit for the model's divide
    /// latency (visible via [`Pmc::DividerActive`]). Faults on division by
    /// zero.
    Div(Reg, Reg),
    /// `dst = dst & src`.
    And(Reg, Reg),
    /// `dst = dst & imm`.
    AndImm(Reg, u64),
    /// `dst = dst | src`.
    Or(Reg, Reg),
    /// `dst = dst ^ src`.
    Xor(Reg, Reg),
    /// `dst = dst ^ imm` (used by pointer-poisoning mitigations).
    XorImm(Reg, u64),
    /// `dst = dst << amount`.
    Shl(Reg, u8),
    /// `dst = dst >> amount` (logical).
    Shr(Reg, u8),
    /// `dst = !dst`.
    Not(Reg),

    /// Load `width` bytes from `[base + offset]` into `dst` (zero-extended).
    Load {
        /// Destination register.
        dst: Reg,
        /// Base address register.
        base: Reg,
        /// Signed displacement added to the base.
        offset: i64,
        /// Access width.
        width: Width,
    },
    /// Store the low `width` bytes of `src` to `[base + offset]`.
    Store {
        /// Source register.
        src: Reg,
        /// Base address register.
        base: Reg,
        /// Signed displacement added to the base.
        offset: i64,
        /// Access width.
        width: Width,
    },

    /// Compare two registers and set flags.
    Cmp(Reg, Reg),
    /// Compare a register against an immediate and set flags.
    CmpImm(Reg, u64),
    /// Set flags from `a & b` (only the zero flag is meaningful).
    Test(Reg, Reg),

    /// Conditional branch to an absolute code address.
    Jcc(Cond, u64),
    /// Unconditional branch to an absolute code address.
    Jmp(u64),
    /// Indirect branch to the address in a register. Predicted via the BTB;
    /// the canonical Spectre V2 victim instruction.
    JmpInd(Reg),
    /// Direct call: pushes the return address on the simulated stack and
    /// the return stack buffer, then branches.
    Call(u64),
    /// Indirect call through a register (BTB-predicted, RSB push).
    CallInd(Reg),
    /// Return: pops the return address from the stack; the RSB provides the
    /// prediction. A mismatch between the two is what generic retpolines
    /// exploit deliberately.
    Ret,

    /// `if cond { dst = src }` — data-dependent, never predicted, so it
    /// blocks Spectre V1 when used as an index mask.
    Cmov(Cond, Reg, Reg),
    /// `if cond { dst = imm }` — immediate form used by index masking
    /// (`cmov dst, 0`) and object-guard poisoning.
    CmovImm(Cond, Reg, u64),

    /// Load fence: waits for all prior loads to resolve and stops transient
    /// execution. On AMD models (with the serializing-lfence MSR bit set,
    /// as Linux requires) it is dispatch-serializing.
    Lfence,
    /// Full memory fence: drains the store buffer.
    Mfence,
    /// Store fence: drains the store buffer.
    Sfence,
    /// Flushes the cache line containing `[reg]` from the L1D (and, in this
    /// model, all levels). The probe uses it to force miss latency.
    Clflush(Reg),

    /// Reads the timestamp counter into `dst` (cycles).
    Rdtsc(Reg),
    /// Reads performance counter `pmc` into `dst`.
    Rdpmc {
        /// Which counter to read.
        pmc: Pmc,
        /// Destination register.
        dst: Reg,
    },
    /// Writes `src` to the MSR (privileged; faults in user mode).
    Wrmsr {
        /// MSR number (see [`msr_index`]).
        msr: u32,
        /// Source register.
        src: Reg,
    },
    /// Reads the MSR into `dst` (privileged; faults in user mode).
    Rdmsr {
        /// MSR number (see [`msr_index`]).
        msr: u32,
        /// Destination register.
        dst: Reg,
    },

    /// Enters the kernel at the registered syscall entry point.
    Syscall,
    /// Returns from the kernel to user mode at the address in `R11`
    /// (mirroring x86's `sysret` using `%rcx`). Privileged.
    Sysret,
    /// Swaps the user/kernel GS base (modelled as a flag flip; the paper's
    /// Spectre V1 `lfence after swapgs` mitigation guards this).
    Swapgs,
    /// Returns from a fault handler to the saved resume point (privileged).
    Iret,
    /// Loads a new root page table (and PCID) from `src`. Privileged.
    /// This is the PTI instruction whose cost Table 3 reports.
    MovCr3(Reg),
    /// `verw`: with the MD_CLEAR microcode update this flushes the
    /// microarchitectural buffers (MDS mitigation, Table 4); otherwise it
    /// retains only its legacy segmentation behaviour.
    Verw,
    /// Invalidates the TLB entry for the address in `reg` (privileged).
    Invlpg(Reg),

    /// Floating-point: `dst = dst + src`.
    Fadd(FReg, FReg),
    /// Floating-point: `dst = dst - src`.
    Fsub(FReg, FReg),
    /// Floating-point: `dst = dst * src`.
    Fmul(FReg, FReg),
    /// Floating-point: `dst = dst / src` (occupies the divider).
    Fdiv(FReg, FReg),
    /// Floating-point: `dst = imm`.
    FmovImm(FReg, f64),
    /// Load an `f64` from `[base + offset]` into an FP register.
    Fload {
        /// Destination FP register.
        dst: FReg,
        /// Base address register.
        base: Reg,
        /// Signed displacement.
        offset: i64,
    },
    /// Store an FP register to `[base + offset]`.
    Fstore {
        /// Source FP register.
        src: FReg,
        /// Base address register.
        base: Reg,
        /// Signed displacement.
        offset: i64,
    },
    /// Moves an FP register into a GPR (bitcast); faults if the FPU is
    /// disabled, which is the LazyFP trap point.
    FtoG(Reg, FReg),
    /// Saves the FPU state (privileged; `xsave`/`xsaveopt` analogue).
    Xsave,
    /// Restores the FPU state (privileged; `xrstor` analogue).
    Xrstor,

    /// Calls back into the host environment with an opaque hook id.
    /// `sim-kernel` uses this for syscall semantics whose instruction-level
    /// detail does not affect mitigation costs.
    Host(u16),
    /// Guest-to-hypervisor transition (`vmcall`): exits the VM.
    Vmcall,
}

impl Inst {
    /// Returns `true` for instructions that end a basic block (any control
    /// transfer or mode change).
    pub fn is_control_flow(&self) -> bool {
        matches!(
            self,
            Inst::Jcc(..)
                | Inst::Jmp(..)
                | Inst::JmpInd(..)
                | Inst::Call(..)
                | Inst::CallInd(..)
                | Inst::Ret
                | Inst::Syscall
                | Inst::Sysret
                | Inst::Iret
                | Inst::Halt
                | Inst::Vmcall
        )
    }

    /// Returns `true` for privileged instructions that fault in user mode.
    pub fn is_privileged(&self) -> bool {
        matches!(
            self,
            Inst::Wrmsr { .. }
                | Inst::Rdmsr { .. }
                | Inst::MovCr3(..)
                | Inst::Sysret
                | Inst::Iret
                | Inst::Xsave
                | Inst::Xrstor
                | Inst::Invlpg(..)
                | Inst::Swapgs
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reg_index_roundtrip() {
        for (i, r) in Reg::ALL.iter().enumerate() {
            assert_eq!(r.index(), i);
            assert_eq!(Reg::from_index(i), *r);
        }
    }

    #[test]
    fn width_truncation() {
        assert_eq!(Width::B1.truncate(0x1ff), 0xff);
        assert_eq!(Width::B2.truncate(0x1_ffff), 0xffff);
        assert_eq!(Width::B4.truncate(0x1_ffff_ffff), 0xffff_ffff);
        assert_eq!(Width::B8.truncate(u64::MAX), u64::MAX);
        assert_eq!(Width::B8.bytes(), 8);
    }

    #[test]
    fn flags_unsigned_compare() {
        let f = Flags::compare(1, 2);
        assert!(f.eval(Cond::Below));
        assert!(f.eval(Cond::Ne));
        assert!(!f.eval(Cond::AboveEq));

        let f = Flags::compare(2, 2);
        assert!(f.eval(Cond::Eq));
        assert!(f.eval(Cond::AboveEq));
        assert!(f.eval(Cond::BelowEq));
        assert!(!f.eval(Cond::Above));
    }

    #[test]
    fn flags_signed_compare() {
        let f = Flags::compare(-1i64 as u64, 1);
        assert!(f.eval(Cond::Lt));
        assert!(!f.eval(Cond::Ge));
        // Unsigned view: 0xffff.. is above 1.
        assert!(f.eval(Cond::Above));

        let f = Flags::compare(5, -3i64 as u64);
        assert!(f.eval(Cond::Gt));
        assert!(f.eval(Cond::Below)); // unsigned view
    }

    #[test]
    fn cond_negation_is_involutive() {
        for c in [
            Cond::Eq,
            Cond::Ne,
            Cond::Below,
            Cond::AboveEq,
            Cond::Above,
            Cond::BelowEq,
            Cond::Lt,
            Cond::Ge,
            Cond::Gt,
            Cond::Le,
        ] {
            assert_eq!(c.negate().negate(), c);
        }
    }

    #[test]
    fn negated_cond_evaluates_opposite() {
        for (a, b) in [(0u64, 0u64), (1, 2), (2, 1), (u64::MAX, 0), (0, u64::MAX)] {
            let f = Flags::compare(a, b);
            for c in [
                Cond::Eq,
                Cond::Ne,
                Cond::Below,
                Cond::AboveEq,
                Cond::Above,
                Cond::BelowEq,
                Cond::Lt,
                Cond::Ge,
                Cond::Gt,
                Cond::Le,
            ] {
                assert_eq!(f.eval(c), !f.eval(c.negate()), "{c:?} on {a} vs {b}");
            }
        }
    }

    #[test]
    fn control_flow_classification() {
        assert!(Inst::Ret.is_control_flow());
        assert!(Inst::Syscall.is_control_flow());
        assert!(!Inst::Nop.is_control_flow());
        assert!(!Inst::Lfence.is_control_flow());
    }

    #[test]
    fn privilege_classification() {
        assert!(Inst::MovCr3(Reg::R0).is_privileged());
        assert!(Inst::Wrmsr { msr: 0x48, src: Reg::R0 }.is_privileged());
        assert!(!Inst::Rdtsc(Reg::R0).is_privileged());
        assert!(!Inst::Verw.is_privileged());
    }
}
