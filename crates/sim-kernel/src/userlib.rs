//! Helpers for building user programs against the kernel ABI.
//!
//! These emit the common syscall sequences so workload generators don't
//! repeat themselves. Registers: args go in `R1`–`R5`, the number in
//! `R0`; the return value comes back in `R0`; `R11` is clobbered.

use uarch::isa::{Cond, Inst, Reg};
use uarch::program::Label;
use uarch::ProgramBuilder;

use crate::abi::nr;
use crate::layout;

/// Emits `R0 = syscall(number)` with arguments already in place.
pub fn emit_syscall(b: &mut ProgramBuilder, number: u64) {
    b.mov_imm(Reg::R0, number);
    b.push(Inst::Syscall);
}

/// Emits `exit()`.
pub fn emit_exit(b: &mut ProgramBuilder) {
    emit_syscall(b, nr::EXIT);
}

/// Emits `getpid()`.
pub fn emit_getpid(b: &mut ProgramBuilder) {
    emit_syscall(b, nr::GETPID);
}

/// Starts a counted loop of `count` iterations using `counter` as the
/// induction register. Returns the label to pass to [`end_loop`].
pub fn begin_loop(b: &mut ProgramBuilder, counter: Reg, count: u64) -> Label {
    b.mov_imm(counter, count);
    b.here()
}

/// Ends a counted loop begun with [`begin_loop`].
pub fn end_loop(b: &mut ProgramBuilder, counter: Reg, top: Label) {
    b.sub_imm(counter, 1);
    b.cmp_imm(counter, 0);
    b.jcc(Cond::Ne, top);
}

/// The address of the process's eager data arena.
pub fn data_base() -> u64 {
    layout::USER_DATA_VADDR
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loop_emission_links() {
        let mut b = ProgramBuilder::new();
        let top = begin_loop(&mut b, Reg::R5, 10);
        b.push(Inst::Nop);
        end_loop(&mut b, Reg::R5, top);
        emit_exit(&mut b);
        let p = b.link(0x1000);
        assert!(p.len() >= 6);
    }
}
