//! Rewrites a linked instruction stream, hardening only the branches
//! the analysis flagged.
//!
//! Insertion shifts every later instruction by one slot, so all
//! absolute branch targets *inside* the program are remapped through
//! the old→new address map; targets outside the program (other
//! segments, host hooks) are left alone. A branch that jumps directly
//! to a flagged branch's fall-through instruction lands *after* the
//! inserted barrier — only the speculated not-taken path pays it, which
//! is the whole point of targeting.
//!
//! Limitation (documented, pinned benign by the kernel-text test): code
//! addresses materialized through `MovImm`/`lea` are data, not branch
//! targets, and are not remapped. None of the in-tree program builders
//! take the address of an instruction after a hardened branch.

use uarch::program::INST_SIZE;
use uarch::Inst;

use crate::analysis::BranchReport;
use crate::counters;

/// A hardened instruction stream plus the old→new address map.
#[derive(Clone, Debug)]
pub struct Hardened {
    /// The rewritten stream, ready to relink at [`Hardened::base`].
    pub insts: Vec<Inst>,
    /// Base address (unchanged from the input program).
    pub base: u64,
    /// For old instruction index `i`, its new instruction index.
    new_index: Vec<usize>,
    /// Number of instructions in the original stream.
    old_len: usize,
}

impl Hardened {
    /// Maps an address in the original program to the rewritten one.
    /// Addresses outside the original code range pass through.
    pub fn remap(&self, old_addr: u64) -> u64 {
        let end = self.base + self.old_len as u64 * INST_SIZE;
        if old_addr < self.base
            || old_addr >= end
            || !(old_addr - self.base).is_multiple_of(INST_SIZE)
        {
            return old_addr;
        }
        let old_idx = ((old_addr - self.base) / INST_SIZE) as usize;
        self.base + self.new_index[old_idx] as u64 * INST_SIZE
    }

    /// Number of instructions inserted.
    pub fn inserted(&self) -> usize {
        self.insts.len() - self.old_len
    }
}

/// Inserts `lfence` immediately after each branch in `flagged`
/// (instruction indices of `jcc`s), remapping in-program branch
/// targets. The process-wide fence counter records the insertions.
pub fn harden_lfence(base: u64, insts: &[Inst], flagged: &[usize]) -> Hardened {
    harden(base, insts, &|idx| {
        if flagged.contains(&idx) { Some(Inst::Lfence) } else { None }
    })
}

/// Inserts a conditional-move index mask (`cmov<cc> guard, 0` on the
/// branch's own out-of-bounds condition) after each flagged branch that
/// has a recognizable guard register. Flagged branches without one fall
/// back to `lfence` — masking needs a register to clamp, serialization
/// does not.
pub fn harden_mask(base: u64, insts: &[Inst], report: &BranchReport, flagged: &[usize]) -> Hardened {
    harden(base, insts, &|idx| {
        if !flagged.contains(&idx) {
            return None;
        }
        match report.finding_at(idx) {
            Some(f) => match f.guard {
                Some(g) => Some(Inst::CmovImm(f.cond, g, 0)),
                None => Some(Inst::Lfence),
            },
            None => Some(Inst::Lfence),
        }
    })
}

/// Blanket variant used by the overhead experiment: hardens *every*
/// conditional branch, flagged or not, with `lfence` — the policy the
/// targeted analysis exists to beat.
pub fn harden_all_lfence(base: u64, insts: &[Inst]) -> Hardened {
    harden(base, insts, &|idx| {
        if matches!(insts[idx], Inst::Jcc(..)) { Some(Inst::Lfence) } else { None }
    })
}

/// Blanket conditional-move masking of every branch with a guard
/// register (the `spectre_v1=mask` world); branches without one are
/// serialized instead.
pub fn harden_all_mask(base: u64, insts: &[Inst], report: &BranchReport) -> Hardened {
    harden(base, insts, &|idx| {
        if !matches!(insts[idx], Inst::Jcc(..)) {
            return None;
        }
        match report.finding_at(idx).and_then(|f| f.guard.map(|g| (f.cond, g))) {
            Some((cond, g)) => Some(Inst::CmovImm(cond, g, 0)),
            None => Some(Inst::Lfence),
        }
    })
}

/// Core rewrite: `insert_after(i)` names the instruction to splice in
/// right after old index `i`.
fn harden(base: u64, insts: &[Inst], insert_after: &dyn Fn(usize) -> Option<Inst>) -> Hardened {
    // First pass: the index map.
    let mut new_index = Vec::with_capacity(insts.len());
    let mut shift = 0usize;
    let mut insertions: Vec<Option<Inst>> = Vec::with_capacity(insts.len());
    for i in 0..insts.len() {
        new_index.push(i + shift);
        let ins = insert_after(i);
        if ins.is_some() {
            shift += 1;
        }
        insertions.push(ins);
    }
    let end = base + insts.len() as u64 * INST_SIZE;
    let remap = |t: u64| -> u64 {
        if t >= base && t < end && (t - base).is_multiple_of(INST_SIZE) {
            let old = ((t - base) / INST_SIZE) as usize;
            base + new_index[old] as u64 * INST_SIZE
        } else {
            t
        }
    };

    // Second pass: emit, remapping absolute targets.
    let mut out = Vec::with_capacity(insts.len() + shift);
    let mut fences = 0u64;
    for (i, inst) in insts.iter().enumerate() {
        out.push(match inst {
            Inst::Jcc(c, t) => Inst::Jcc(*c, remap(*t)),
            Inst::Jmp(t) => Inst::Jmp(remap(*t)),
            Inst::Call(t) => Inst::Call(remap(*t)),
            other => other.clone(),
        });
        if let Some(ins) = insertions[i].take() {
            out.push(ins);
            fences += 1;
        }
    }
    counters::record_fences(fences);
    Hardened { insts: out, base, new_index, old_len: insts.len() }
}
