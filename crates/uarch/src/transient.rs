//! The transient-execution window.
//!
//! When the committed path mispredicts a branch, takes a fault on a load,
//! or lets a load bypass an in-flight store, the machine opens a window
//! here: up to `spec.window` instructions execute on *shadow* register
//! state. Nothing architectural survives — no register writes, no memory
//! stores — but the microarchitectural side effects do:
//!
//! * loads fill L1D cache lines ([`crate::cache`]), the timing channel;
//! * data movement populates the fill buffers ([`crate::fill_buffer`]);
//! * divide instructions occupy the divider, bumping
//!   [`crate::isa::Pmc::DividerActive`] — the observable the paper's
//!   speculation probe is built on (§6.1).
//!
//! What a transient load *observes* is governed by the CPU model's
//! vulnerability profile: Meltdown parts see supervisor data, L1TF parts
//! see L1-resident data behind non-present PTEs, MDS parts sample stale
//! fill-buffer contents, and fixed parts see zeroes or stop the window.
//!
//! Every window, whatever opened it, runs through one executor:
//! [`run_window`] borrows the machine's code memory for the window's
//! length, fetches each wrong-path instruction from one segment of the
//! pre-decoded stream ([`crate::decode`]) with a single bounds check,
//! counts it, then hands it to `exec_transient`, just as
//! [`Machine::step`] is the one committed executor.

use crate::decode::{DecodedInst, Op};
use crate::fpu::FpuState;
use crate::isa::{Cond, Flags, Inst, Pmc, Width};
use crate::machine::Machine;
use crate::mem::PAGE_SHIFT;
use crate::mmu::Pte;
use crate::predictor::PrivMode;
use crate::program::{CodeMem, INST_SIZE};
use crate::store_buffer::{last_byte, overlap, Overlap};

/// How a transient window begins.
#[derive(Debug, Clone)]
pub enum TransientStart {
    /// A mispredicted branch: execution runs from the wrongly predicted
    /// target with otherwise-correct register state.
    WrongPath {
        /// First transient instruction.
        pc: u64,
    },
    /// A committed load faulted; its dependents run with whatever value
    /// the vulnerability profile lets through.
    FaultingLoad {
        /// Faulting virtual address.
        vaddr: u64,
        /// Load width.
        width: Width,
        /// Destination register (in shadow state).
        dst: crate::isa::Reg,
        /// Where the window continues.
        next_pc: u64,
    },
    /// A load bypassed an in-flight store (Speculative Store Bypass): its
    /// dependents transiently see the stale pre-store value.
    StoreBypass {
        /// The stale value observed.
        stale: u64,
        /// Destination register (in shadow state).
        dst: crate::isa::Reg,
        /// Where the window continues.
        next_pc: u64,
    },
    /// An FP instruction trapped on a disabled FPU but the part is LazyFP
    /// vulnerable: it and its dependents run on the stale FP registers.
    StaleFpu {
        /// The trapping FP instruction, pre-decoded.
        inst: DecodedInst,
        /// Where the window continues.
        next_pc: u64,
    },
}

/// Shadow architectural state for a window.
struct Shadow {
    regs: [u64; 16],
    flags: Flags,
    fregs: FpuState,
    /// The reference executor's shadow pc; [`run_window`] keeps its own
    /// in a local.
    pc: u64,
    /// Shadow return-address stack for calls made inside the window.
    ret_stack: Vec<u64>,
    /// Speculative stores: never reach memory, but *do* forward to
    /// younger loads inside the same window, exactly as an out-of-order
    /// core's store queue does. Without this, multi-instruction gadgets
    /// that pass the stolen value through memory (every stack-machine JIT
    /// gadget!) would not leak.
    stores: Vec<(u64, Width, u64)>,
}

/// Runs a transient window on `m`: up to `spec.window` wrong-path
/// instructions, each fetched, counted, then executed by
/// `exec_transient`. Architectural state is untouched;
/// microarchitectural state (cache, fill buffers, PMCs) is not.
///
/// The shadow's store queue and return stack are the machine's, cleared
/// and lent to the window, so windows stop allocating once those two
/// buffers have grown to fit them. The code memory is lent the same way,
/// so the window fetches from it while it mutates the rest of the
/// machine.
pub fn run_window(m: &mut Machine, start: TransientStart) {
    m.transient_windows += 1;
    let mut sh = Shadow {
        regs: m.regs,
        flags: m.flags,
        fregs: m.fpu.state,
        pc: 0,
        ret_stack: std::mem::take(&mut m.window_ret_stack),
        stores: std::mem::take(&mut m.window_stores),
    };
    sh.ret_stack.clear();
    sh.stores.clear();
    let code = std::mem::take(&mut m.code);
    run_shadow(m, &code, &mut sh, start);
    m.code = code;
    m.window_ret_stack = sh.ret_stack;
    m.window_stores = sh.stores;
}

/// The body of [`run_window`]: opens the window as `start` says, then
/// runs it on `sh`, fetching from `code`, until it ends.
fn run_shadow(m: &mut Machine, code: &CodeMem, sh: &mut Shadow, start: TransientStart) {
    let mut pc = match start {
        TransientStart::WrongPath { pc } => pc,
        TransientStart::FaultingLoad { vaddr, width, dst, next_pc } => {
            match transient_load(m, sh, vaddr, width) {
                Some(v) => sh.regs[dst.index()] = v,
                None => return,
            }
            next_pc
        }
        TransientStart::StoreBypass { stale, dst, next_pc } => {
            sh.regs[dst.index()] = stale;
            next_pc
        }
        TransientStart::StaleFpu { inst, next_pc } => {
            // Execute the trapping instruction itself on the stale state.
            // It is not a wrong-path fetch, so it is not counted.
            match exec_transient(m, sh, inst, next_pc - INST_SIZE, &mut 0) {
                Some(next) => next,
                None => return,
            }
        }
    };

    // The window fetches from one segment of `code` at a time, found
    // through the machine's segment hint first (windows start near the
    // committed pc), and searched for again only when the shadow pc
    // leaves it. Each fetched instruction counts, but the counters are
    // bumped once at the end; an in-window `rdpmc` flushes the pending
    // count first, so it reads a count that includes itself.
    let mut seg = code.segment(m.seg_hint);
    let mut pending = 0;
    for _ in 0..m.model.spec.window {
        let d = match seg.fetch(pc) {
            Some(d) => d,
            None => {
                let Some((_, next)) = code.find_segment(pc) else { break };
                seg = next;
                let Some(d) = seg.fetch(pc) else { break };
                d
            }
        };
        pending += 1;
        match exec_transient(m, sh, d, pc, &mut pending) {
            Some(next) => pc = next,
            None => break,
        }
    }
    count_transient(m, &mut pending);
}

/// Adds `pending` fetched window instructions to the machine's counters
/// and clears it.
#[inline(always)]
fn count_transient(m: &mut Machine, pending: &mut u64) {
    m.pmc.add(Pmc::TransientInstructions, *pending);
    m.transient_insts += *pending;
    *pending = 0;
}

/// Performs a transient load, applying vulnerability semantics: what a
/// load that architecturally faults (the Meltdown/L1TF/MDS carriers)
/// observes follows from its translation alone. Returns `None` when the
/// window must end (the access stalls unresolvable), `Some(value)`
/// otherwise. The permitted load through a cached translation is inlined;
/// the rest is [`faulting_transient_load`].
#[inline(always)]
fn transient_load(m: &mut Machine, sh: &Shadow, vaddr: u64, width: Width) -> Option<u64> {
    // Forwarding from the window's own (squashed) stores: youngest full
    // cover wins; partial overlap stalls the window.
    let last = last_byte(vaddr, width);
    for &(sv, sw, value) in sh.stores.iter().rev() {
        match overlap(sv, last_byte(sv, sw), vaddr, last) {
            Overlap::Disjoint => {}
            Overlap::Covered { offset } => return Some(width.truncate(value >> (offset * 8))),
            Overlap::Partial => return None,
        }
    }
    let pte = m.mmu.walk(vaddr).pte;
    match pte {
        // An ordinary, permitted transient load: this is the probe side
        // of every attack (e.g. `array2[x * 256]`), whose cache fill is
        // the side channel.
        Some(p) if p.present && (p.user || m.mode != PrivMode::User) => {
            let paddr = (p.pfn << PAGE_SHIFT) | (vaddr & ((1 << PAGE_SHIFT) - 1));
            let v = m.mem.read(paddr, width);
            m.l1d.access(paddr);
            m.fill_buffers.record(v);
            Some(v)
        }
        _ => faulting_transient_load(m, vaddr, width, pte),
    }
}

/// A transient load whose translation `pte` would fault a committed one:
/// what it observes is up to the part's vulnerabilities.
#[cold]
fn faulting_transient_load(
    m: &mut Machine,
    vaddr: u64,
    width: Width,
    pte: Option<Pte>,
) -> Option<u64> {
    let pte = match pte {
        None => {
            // No translation at all: an MDS part's load port hands over
            // stale fill-buffer data; fixed parts stall the window.
            if m.model.vuln.mds {
                // The sampled entry is wider than the load; the load only
                // observes the bytes it asked for.
                return Some(width.truncate(m.fill_buffers.sample_rotating().unwrap_or(0)));
            }
            return None;
        }
        Some(p) => p,
    };
    let paddr = (pte.pfn << PAGE_SHIFT) | (vaddr & ((1 << PAGE_SHIFT) - 1));
    if !pte.present {
        // L1 Terminal Fault: the stale frame number is forwarded to the
        // L1 lookup; only L1-resident data is observable.
        if m.model.vuln.l1tf {
            if m.l1d.probe(paddr) {
                let v = m.mem.read(paddr, width);
                m.l1d.access(paddr);
                m.fill_buffers.record(v);
                return Some(v);
            }
            return Some(0);
        }
        if m.model.vuln.mds {
            return Some(width.truncate(m.fill_buffers.sample_rotating().unwrap_or(0)));
        }
        return None;
    }
    // Meltdown: a user-mode load of a supervisor page. Vulnerable parts
    // forward the real supervisor data to dependents before the fault
    // aborts them; fixed parts (RDCL_NO) forward zero.
    if m.model.vuln.meltdown {
        let v = m.mem.read(paddr, width);
        m.l1d.access(paddr);
        m.fill_buffers.record(v);
        return Some(v);
    }
    Some(0)
}

/// Executes the instruction `d` at shadow pc `pc` transiently.
/// `Some(next_pc)` continues the window there, `None` ends it. `pending`
/// is the window's not yet counted instructions, flushed before an
/// `rdpmc` reads the counters. Inlined into [`run_window`]'s loop: out of
/// line, the call cost figure3 about 13% more CPU time (4 alternating
/// `regen --jobs 2 figure3` pairs on a 2-vCPU host).
#[inline(always)]
fn exec_transient(
    m: &mut Machine,
    sh: &mut Shadow,
    d: DecodedInst,
    pc: u64,
    pending: &mut u64,
) -> Option<u64> {
    let mut next = pc + INST_SIZE;
    let a = (d.a & 15) as usize;
    let b = (d.b & 15) as usize;
    match d.op {
        Op::Nop | Op::Pause => {}
        // Serializing / privileged / mode-changing: the window cannot
        // proceed past these.
        Op::Halt
        | Op::Vmcall
        | Op::Host
        | Op::Syscall
        | Op::Sysret
        | Op::Iret
        | Op::Swapgs
        | Op::Wrmsr
        | Op::Rdmsr
        | Op::MovCr3
        | Op::Verw
        | Op::Invlpg
        | Op::Xsave
        | Op::Xrstor => return None,
        // `lfence` waits for all loads: transient execution stops here.
        // This is exactly why `lfence` after a bounds check mitigates
        // Spectre V1.
        Op::Lfence => return None,
        Op::Mfence | Op::Sfence => {}
        Op::Clflush => {}
        Op::Rdtsc => sh.regs[a] = m.cycles(),
        Op::Rdpmc => {
            count_transient(m, pending);
            sh.regs[a] = m.pmc.read(Pmc::from_index((d.b & 7) as usize));
        }

        Op::MovImm => sh.regs[a] = d.imm,
        Op::Mov => sh.regs[a] = sh.regs[b],
        Op::Add => sh.regs[a] = sh.regs[a].wrapping_add(sh.regs[b]),
        Op::AddImm => sh.regs[a] = sh.regs[a].wrapping_add(d.imm),
        Op::Sub => sh.regs[a] = sh.regs[a].wrapping_sub(sh.regs[b]),
        Op::SubImm => sh.regs[a] = sh.regs[a].wrapping_sub(d.imm),
        Op::Mul => sh.regs[a] = sh.regs[a].wrapping_mul(sh.regs[b]),
        Op::Div => {
            let divisor = sh.regs[b];
            if divisor == 0 {
                return None;
            }
            // The divider is occupied even though the result is squashed:
            // the probe's observable.
            let lat = m.model.lat.div;
            m.pmc.add(Pmc::DividerActive, lat);
            sh.regs[a] /= divisor;
        }
        Op::And => sh.regs[a] &= sh.regs[b],
        Op::AndImm => sh.regs[a] &= d.imm,
        Op::Or => sh.regs[a] |= sh.regs[b],
        Op::Xor => sh.regs[a] ^= sh.regs[b],
        Op::XorImm => sh.regs[a] ^= d.imm,
        Op::Shl => sh.regs[a] <<= (d.b & 63) as u32,
        Op::Shr => sh.regs[a] >>= (d.b & 63) as u32,
        Op::Not => sh.regs[a] = !sh.regs[a],

        Op::Load => {
            let width = Width::from_index((d.c & 3) as usize);
            let vaddr = sh.regs[b].wrapping_add(d.imm);
            // Within the window, an in-flight store may also be bypassed
            // (nested SSB), but the simple model reads the current memory
            // image, which already reflects committed stores.
            let v = transient_load(m, sh, vaddr, width)?;
            sh.regs[a] = v;
        }
        Op::Store => {
            // Transient stores never reach cache or memory — but they do
            // forward to younger loads in the same window (see
            // `Shadow::stores`).
            let width = Width::from_index((d.c & 3) as usize);
            let vaddr = sh.regs[b].wrapping_add(d.imm);
            let value = width.truncate(sh.regs[a]);
            sh.stores.push((vaddr, width, value));
        }

        Op::Cmp => sh.flags = Flags::compare(sh.regs[a], sh.regs[b]),
        Op::CmpImm => sh.flags = Flags::compare(sh.regs[a], d.imm),
        Op::Test => {
            let v = sh.regs[a] & sh.regs[b];
            sh.flags = Flags { zero: v == 0, carry: false, sign: (v as i64) < 0, overflow: false };
        }
        Op::Cmov => {
            // Data-dependent: resolves with the (shadow) flags, which is
            // why index masking works — the mask is applied even on the
            // wrong path.
            if sh.flags.eval(Cond::from_index(d.c as usize)) {
                sh.regs[a] = sh.regs[b];
            }
        }
        Op::CmovImm => {
            if sh.flags.eval(Cond::from_index(d.c as usize)) {
                sh.regs[a] = d.imm;
            }
        }

        Op::Jcc => {
            if sh.flags.eval(Cond::from_index(d.c as usize)) {
                next = d.imm;
            }
        }
        Op::Jmp => next = d.imm,
        Op::JmpInd => next = sh.regs[a],
        Op::Call => {
            sh.ret_stack.push(pc + INST_SIZE);
            next = d.imm;
        }
        Op::CallInd => {
            sh.ret_stack.push(pc + INST_SIZE);
            next = sh.regs[a];
        }
        Op::Ret => match sh.ret_stack.pop() {
            Some(ra) => next = ra,
            // Returning past the window's start: prediction state for it
            // is unknowable here, so the window ends.
            None => return None,
        },

        Op::Fadd | Op::Fsub | Op::Fmul | Op::Fdiv => {
            if !m.fpu.enabled && !m.model.vuln.lazy_fp {
                return None;
            }
            // On LazyFP-vulnerable parts the stale registers are used.
            let fa = (d.a & 7) as usize;
            let sv = sh.fregs.regs[(d.b & 7) as usize];
            let dv = &mut sh.fregs.regs[fa];
            match d.op {
                Op::Fadd => *dv += sv,
                Op::Fsub => *dv -= sv,
                Op::Fmul => *dv *= sv,
                Op::Fdiv => {
                    let lat = m.model.lat.div;
                    m.pmc.add(Pmc::DividerActive, lat);
                    *dv /= sv;
                }
                _ => unreachable!(),
            }
        }
        Op::FmovImm => {
            if !m.fpu.enabled && !m.model.vuln.lazy_fp {
                return None;
            }
            sh.fregs.regs[(d.a & 7) as usize] = f64::from_bits(d.imm);
        }
        Op::Fload => {
            if !m.fpu.enabled && !m.model.vuln.lazy_fp {
                return None;
            }
            let vaddr = sh.regs[b].wrapping_add(d.imm);
            let bits = transient_load(m, sh, vaddr, Width::B8)?;
            sh.fregs.regs[(d.a & 7) as usize] = f64::from_bits(bits);
        }
        Op::Fstore => {}
        Op::FtoG => {
            if !m.fpu.enabled && !m.model.vuln.lazy_fp {
                return None;
            }
            sh.regs[a] = sh.fregs.regs[(d.b & 7) as usize].to_bits();
        }
    }
    Some(next)
}

// ---------------------------------------------------------------------------
// The seed's window machinery, frozen for the reference interpreter.
// ---------------------------------------------------------------------------

/// The pre-refactor window runner, kept verbatim for the reference
/// interpreter: per-instruction `Inst` fetch (binary search, no segment
/// hint) and a pattern-match executor, with the seed's bytewise memory
/// and uncached page walks underneath. Observable-identical to
/// [`run_window`]; the decode property tests pin the equivalence.
pub(crate) fn run_window_reference(m: &mut Machine, start: TransientStart) {
    m.transient_windows += 1;
    let mut sh = Shadow {
        regs: m.regs,
        flags: m.flags,
        fregs: m.fpu.state,
        pc: 0,
        ret_stack: Vec::new(),
        stores: Vec::new(),
    };

    match start {
        TransientStart::WrongPath { pc } => sh.pc = pc,
        TransientStart::FaultingLoad { vaddr, width, dst, next_pc } => {
            match transient_load_reference(m, &sh, vaddr, width, true) {
                Some(v) => sh.regs[dst.index()] = v,
                None => return,
            }
            sh.pc = next_pc;
        }
        TransientStart::StoreBypass { stale, dst, next_pc } => {
            sh.regs[dst.index()] = stale;
            sh.pc = next_pc;
        }
        TransientStart::StaleFpu { inst, next_pc } => {
            // Execute the trapping instruction itself on the stale state.
            if exec_transient_reference(m, &mut sh, &inst.to_inst()).is_none() {
                return;
            }
            sh.pc = next_pc;
        }
    }

    for _ in 0..m.model.spec.window {
        let inst = match m.code.fetch(sh.pc) {
            Some(i) => i.clone(),
            None => return,
        };
        m.pmc.incr(Pmc::TransientInstructions);
        m.transient_insts += 1;
        match exec_transient_reference(m, &mut sh, &inst) {
            Some(()) => {}
            None => return,
        }
    }
}

/// The seed's transient load: same vulnerability semantics as
/// [`transient_load`], on the pre-refactor walk and memory paths.
fn transient_load_reference(
    m: &mut Machine,
    sh: &Shadow,
    vaddr: u64,
    width: Width,
    faulting: bool,
) -> Option<u64> {
    let _ = faulting;
    for (sv, sw, value) in sh.stores.iter().rev() {
        let relation = overlap(*sv, last_byte(*sv, *sw), vaddr, last_byte(vaddr, width));
        if let Overlap::Covered { offset } = relation {
            let shift = offset * 8;
            return Some(width.truncate(value >> shift));
        }
        if relation == Overlap::Partial {
            return None;
        }
    }
    let user = m.mode == PrivMode::User;
    let walk = m.mmu.walk_reference(vaddr);
    let pte = match walk.pte {
        None => {
            if m.model.vuln.mds {
                return Some(width.truncate(m.fill_buffers.sample_rotating().unwrap_or(0)));
            }
            return None;
        }
        Some(p) => p,
    };
    let paddr = (pte.pfn << PAGE_SHIFT) | (vaddr & ((1 << PAGE_SHIFT) - 1));
    if !pte.present {
        if m.model.vuln.l1tf {
            if m.l1d.probe(paddr) {
                let v = m.mem.read_reference(paddr, width);
                m.l1d.access(paddr);
                m.fill_buffers.record(v);
                return Some(v);
            }
            return Some(0);
        }
        if m.model.vuln.mds {
            return Some(width.truncate(m.fill_buffers.sample_rotating().unwrap_or(0)));
        }
        return None;
    }
    if user && !pte.user {
        if m.model.vuln.meltdown {
            let v = m.mem.read_reference(paddr, width);
            m.l1d.access(paddr);
            m.fill_buffers.record(v);
            return Some(v);
        }
        return Some(0);
    }
    let v = m.mem.read_reference(paddr, width);
    m.l1d.access(paddr);
    m.fill_buffers.record(v);
    Some(v)
}

/// The seed's transient executor: one `Inst` pattern-match per shadow
/// instruction. `Some(())` continues the window, `None` ends it.
fn exec_transient_reference(m: &mut Machine, sh: &mut Shadow, inst: &Inst) -> Option<()> {
    use Inst::*;
    let pc = sh.pc;
    sh.pc = pc + INST_SIZE;
    match *inst {
        Nop | Pause => {}
        // Serializing / privileged / mode-changing: the window cannot
        // proceed past these.
        Halt | Vmcall | Host(_) | Syscall | Sysret | Iret | Swapgs | Wrmsr { .. }
        | Rdmsr { .. } | MovCr3(_) | Verw | Invlpg(_) | Xsave | Xrstor => return None,
        Lfence => return None,
        Mfence | Sfence => {}
        Clflush(_) => {}
        Rdtsc(d) => sh.regs[d.index()] = m.cycles(),
        Rdpmc { pmc, dst } => sh.regs[dst.index()] = m.pmc.read(pmc),

        MovImm(d, v) => sh.regs[d.index()] = v,
        Mov(d, s) => sh.regs[d.index()] = sh.regs[s.index()],
        Add(d, s) => sh.regs[d.index()] = sh.regs[d.index()].wrapping_add(sh.regs[s.index()]),
        AddImm(d, v) => sh.regs[d.index()] = sh.regs[d.index()].wrapping_add(v),
        Sub(d, s) => sh.regs[d.index()] = sh.regs[d.index()].wrapping_sub(sh.regs[s.index()]),
        SubImm(d, v) => sh.regs[d.index()] = sh.regs[d.index()].wrapping_sub(v),
        Mul(d, s) => sh.regs[d.index()] = sh.regs[d.index()].wrapping_mul(sh.regs[s.index()]),
        Div(d, s) => {
            let divisor = sh.regs[s.index()];
            if divisor == 0 {
                return None;
            }
            let lat = m.model.lat.div;
            m.pmc.add(Pmc::DividerActive, lat);
            sh.regs[d.index()] /= divisor;
        }
        And(d, s) => sh.regs[d.index()] &= sh.regs[s.index()],
        AndImm(d, v) => sh.regs[d.index()] &= v,
        Or(d, s) => sh.regs[d.index()] |= sh.regs[s.index()],
        Xor(d, s) => sh.regs[d.index()] ^= sh.regs[s.index()],
        XorImm(d, v) => sh.regs[d.index()] ^= v,
        Shl(d, n) => sh.regs[d.index()] <<= (n & 63) as u32,
        Shr(d, n) => sh.regs[d.index()] >>= (n & 63) as u32,
        Not(d) => sh.regs[d.index()] = !sh.regs[d.index()],

        Load { dst, base, offset, width } => {
            let vaddr = sh.regs[base.index()].wrapping_add(offset as u64);
            let v = transient_load_reference(m, sh, vaddr, width, false)?;
            sh.regs[dst.index()] = v;
        }
        Store { src, base, offset, width } => {
            let vaddr = sh.regs[base.index()].wrapping_add(offset as u64);
            let value = width.truncate(sh.regs[src.index()]);
            sh.stores.push((vaddr, width, value));
        }

        Cmp(a, b) => sh.flags = Flags::compare(sh.regs[a.index()], sh.regs[b.index()]),
        CmpImm(a, v) => sh.flags = Flags::compare(sh.regs[a.index()], v),
        Test(a, b) => {
            let v = sh.regs[a.index()] & sh.regs[b.index()];
            sh.flags = Flags { zero: v == 0, carry: false, sign: (v as i64) < 0, overflow: false };
        }
        Cmov(c, d, s) => {
            if sh.flags.eval(c) {
                sh.regs[d.index()] = sh.regs[s.index()];
            }
        }
        CmovImm(c, d, v) => {
            if sh.flags.eval(c) {
                sh.regs[d.index()] = v;
            }
        }

        Jcc(c, target) => {
            if sh.flags.eval(c) {
                sh.pc = target;
            }
        }
        Jmp(target) => sh.pc = target,
        JmpInd(r) => sh.pc = sh.regs[r.index()],
        Call(target) => {
            sh.ret_stack.push(pc + INST_SIZE);
            sh.pc = target;
        }
        CallInd(r) => {
            sh.ret_stack.push(pc + INST_SIZE);
            sh.pc = sh.regs[r.index()];
        }
        Ret => match sh.ret_stack.pop() {
            Some(ra) => sh.pc = ra,
            None => return None,
        },

        Fadd(d, s) | Fsub(d, s) | Fmul(d, s) | Fdiv(d, s) => {
            if !m.fpu.enabled && !m.model.vuln.lazy_fp {
                return None;
            }
            let sv = sh.fregs.regs[s.index()];
            let dv = &mut sh.fregs.regs[d.index()];
            match inst {
                Fadd(..) => *dv += sv,
                Fsub(..) => *dv -= sv,
                Fmul(..) => *dv *= sv,
                Fdiv(..) => {
                    let lat = m.model.lat.div;
                    m.pmc.add(Pmc::DividerActive, lat);
                    *dv /= sv;
                }
                _ => return None,
            }
        }
        FmovImm(d, v) => {
            if !m.fpu.enabled && !m.model.vuln.lazy_fp {
                return None;
            }
            sh.fregs.regs[d.index()] = v;
        }
        Fload { dst, base, offset } => {
            if !m.fpu.enabled && !m.model.vuln.lazy_fp {
                return None;
            }
            let vaddr = sh.regs[base.index()].wrapping_add(offset as u64);
            let bits = transient_load_reference(m, sh, vaddr, Width::B8, false)?;
            sh.fregs.regs[dst.index()] = f64::from_bits(bits);
        }
        Fstore { .. } => {}
        FtoG(d, s) => {
            if !m.fpu.enabled && !m.model.vuln.lazy_fp {
                return None;
            }
            sh.regs[d.index()] = sh.fregs.regs[s.index()].to_bits();
        }
    }
    Some(())
}
