//! Edge-case and failure-injection tests for the simulator: the error
//! paths well-formed programs never hit, boundary conditions of the
//! microarchitectural structures, and less-travelled instruction
//! behaviours.

use uarch::fault::SimError;
use uarch::isa::{msr_index, Cond, Inst, Pmc, Reg, Width};
use uarch::machine::{Machine, NoEnv, Stop};
use uarch::mmu::{make_cr3, PageTable, Pte};
use uarch::model::CpuModel;
use uarch::predictor::PrivMode;
use uarch::ProgramBuilder;

fn machine_with_pages() -> Machine {
    let mut m = Machine::new(CpuModel::test_model());
    let mut pt = PageTable::new();
    pt.map_range(0x10_0000, 0x100, 16, Pte::user(0));
    pt.map_range(0x20_0000 - 0x4000, 0x300, 4, Pte::user(0));
    let t = m.mmu.register_table(pt);
    assert!(m.mmu.load_cr3(make_cr3(t, 0, false)));
    m.set_reg(Reg::SP, 0x20_0000 - 64);
    m
}

fn load(m: &mut Machine, base: u64, f: impl FnOnce(&mut ProgramBuilder)) {
    let mut b = ProgramBuilder::new();
    f(&mut b);
    m.load_program(b.link(base));
    m.pc = base;
}

#[test]
fn fetch_from_unmapped_code_is_a_sim_error() {
    let mut m = machine_with_pages();
    m.pc = 0xdead_0000;
    assert!(matches!(
        m.run(&mut NoEnv, 10),
        Err(SimError::BadFetch { addr: 0xdead_0000 })
    ));
}

#[test]
fn instruction_budget_exhaustion_is_reported() {
    let mut m = machine_with_pages();
    load(&mut m, 0x1000, |b| {
        let top = b.here();
        b.jmp(top); // infinite loop
    });
    assert!(matches!(
        m.run(&mut NoEnv, 100),
        Err(SimError::InstructionBudgetExhausted)
    ));
    // The machine is still usable: redirect it to a halt.
    load(&mut m, 0x9000, |b| {
        b.push(Inst::Halt);
    });
    assert_eq!(m.run(&mut NoEnv, 10).unwrap(), Stop::Halted);
}

#[test]
fn host_instruction_without_env_errors() {
    let mut m = machine_with_pages();
    load(&mut m, 0x1000, |b| {
        b.push(Inst::Host(3));
    });
    assert!(matches!(m.run(&mut NoEnv, 10), Err(SimError::MissingHostHook { id: 3 })));
}

#[test]
fn unhandled_fault_reports_location() {
    let mut m = machine_with_pages();
    load(&mut m, 0x1000, |b| {
        b.mov_imm(Reg::R0, 0xbad_0000);
        b.push(Inst::Load { dst: Reg::R1, base: Reg::R0, offset: 0, width: Width::B8 });
    });
    match m.run(&mut NoEnv, 10) {
        Err(SimError::UnhandledFault { at, .. }) => assert_eq!(at, 0x1004),
        other => panic!("expected unhandled fault, got {other:?}"),
    }
}

#[test]
fn divide_by_zero_faults() {
    let mut m = machine_with_pages();
    load(&mut m, 0x1000, |b| {
        b.mov_imm(Reg::R0, 10);
        b.mov_imm(Reg::R1, 0);
        b.push(Inst::Div(Reg::R0, Reg::R1));
    });
    assert!(matches!(
        m.run(&mut NoEnv, 10),
        Err(SimError::UnhandledFault { fault: uarch::Fault::DivideError, .. })
    ));
}

#[test]
fn sysret_without_kernel_mode_faults() {
    let mut m = machine_with_pages();
    m.mode = PrivMode::User;
    load(&mut m, 0x1000, |b| {
        b.push(Inst::Sysret);
    });
    // Privileged instruction in user mode => GP fault; unhandled => error.
    assert!(matches!(
        m.run(&mut NoEnv, 10),
        Err(SimError::UnhandledFault { fault: uarch::Fault::GeneralProtection, .. })
    ));
}

#[test]
fn syscall_without_entry_point_is_a_mode_violation() {
    let mut m = machine_with_pages();
    m.mode = PrivMode::User;
    load(&mut m, 0x1000, |b| {
        b.push(Inst::Syscall);
    });
    assert!(matches!(m.run(&mut NoEnv, 10), Err(SimError::ModeViolation { .. })));
}

#[test]
fn iret_without_frame_is_a_mode_violation() {
    let mut m = machine_with_pages();
    load(&mut m, 0x1000, |b| {
        b.push(Inst::Iret);
    });
    assert!(matches!(m.run(&mut NoEnv, 10), Err(SimError::ModeViolation { .. })));
}

#[test]
fn mov_cr3_with_unregistered_table_errors() {
    let mut m = machine_with_pages();
    load(&mut m, 0x1000, |b| {
        b.mov_imm(Reg::R0, make_cr3(uarch::mmu::PageTableId(999), 0, false));
        b.push(Inst::MovCr3(Reg::R0));
    });
    assert!(matches!(m.run(&mut NoEnv, 10), Err(SimError::BadPageTable { .. })));
}

#[test]
fn wrmsr_unknown_msr_faults() {
    let mut m = machine_with_pages();
    load(&mut m, 0x1000, |b| {
        b.mov_imm(Reg::R0, 1);
        b.push(Inst::Wrmsr { msr: 0x1234, src: Reg::R0 });
    });
    assert!(matches!(
        m.run(&mut NoEnv, 10),
        Err(SimError::UnhandledFault { fault: uarch::Fault::GeneralProtection, .. })
    ));
}

#[test]
fn rdmsr_reads_arch_capabilities() {
    let mut m = machine_with_pages();
    let expect = m.model.arch_capabilities();
    load(&mut m, 0x1000, |b| {
        b.push(Inst::Rdmsr { msr: msr_index::IA32_ARCH_CAPABILITIES, dst: Reg::R3 });
        b.push(Inst::Halt);
    });
    m.run(&mut NoEnv, 10).unwrap();
    assert_eq!(m.reg(Reg::R3), expect);
}

#[test]
fn rsb_underflow_falls_back_to_btb_prediction() {
    // A `ret` with an empty RSB consults the BTB: a poisoned BTB entry at
    // the ret's address can then steer speculation (deep-call-chain
    // SpectreRSB variant).
    let mut m = machine_with_pages();
    // Victim gadget with a divide.
    load(&mut m, 0x5000, |b| {
        b.mov_imm(Reg::R6, 100);
        b.mov_imm(Reg::R7, 3);
        b.push(Inst::Div(Reg::R6, Reg::R7));
        b.push(Inst::Ret);
    });
    // The ret under test at a fixed address; its return address is pushed
    // manually so the RSB never saw a matching call.
    load(&mut m, 0x1000, |b| {
        let after = b.new_label();
        b.lea(Reg::R1, after);
        b.push(Inst::Store { src: Reg::R1, base: Reg::SP, offset: -8, width: Width::B8 });
        b.push(Inst::SubImm(Reg::SP, 8));
        b.push(Inst::Ret); // RSB empty -> BTB fallback
        b.bind(after);
        b.push(Inst::Halt);
    });
    // Poison the BTB at the ret's address (offset 3 insts = 0x100c).
    let ret_pc = 0x1000 + 3 * 4;
    m.rsb.clear();
    m.btb.train(ret_pc, 0x5000, PrivMode::Kernel, &m.bhb.clone());
    let before = m.pmc.read(Pmc::DividerActive);
    m.run(&mut NoEnv, 100).unwrap();
    assert!(
        m.pmc.read(Pmc::DividerActive) > before,
        "BTB fallback must speculate to the poisoned target"
    );
}

#[test]
fn transient_window_stops_at_code_edge() {
    // Mispredicted branch to the very last instruction: the window runs
    // off the end of loaded code and stops quietly.
    let mut m = machine_with_pages();
    load(&mut m, 0x1000, |b| {
        let target = b.new_label();
        b.mov_imm(Reg::R0, 1);
        b.cmp_imm(Reg::R0, 1);
        b.jcc(Cond::Ne, target); // never taken; predictor may guess taken
        b.push(Inst::Halt);
        b.bind(target);
        b.push(Inst::Nop); // last instruction; window would fall off here
    });
    // Train the predictor toward "taken" to force the wrong-path window.
    for _ in 0..4 {
        m.cond_pred.update(0x1008, &m.bhb.clone(), true);
    }
    assert_eq!(m.run(&mut NoEnv, 100).unwrap(), Stop::Halted);
}

#[test]
fn verw_in_user_mode_is_allowed() {
    // `verw` is not privileged (it is a legacy segmentation instruction).
    let mut m = machine_with_pages();
    m.mode = PrivMode::User;
    load(&mut m, 0x1000, |b| {
        b.push(Inst::Verw);
        b.push(Inst::Halt);
    });
    assert_eq!(m.run(&mut NoEnv, 10).unwrap(), Stop::Halted);
}

#[test]
fn clflush_of_unmapped_address_is_harmless() {
    let mut m = machine_with_pages();
    load(&mut m, 0x1000, |b| {
        b.mov_imm(Reg::R0, 0xdead_0000);
        b.push(Inst::Clflush(Reg::R0));
        b.push(Inst::Halt);
    });
    assert_eq!(m.run(&mut NoEnv, 10).unwrap(), Stop::Halted);
}

#[test]
fn byte_loads_are_zero_extended() {
    let mut m = machine_with_pages();
    m.mem.write_u64(0x100 << 12, 0xffff_ffff_ffff_ff80);
    load(&mut m, 0x1000, |b| {
        b.mov_imm(Reg::R0, 0x10_0000);
        b.push(Inst::Load { dst: Reg::R1, base: Reg::R0, offset: 0, width: Width::B1 });
        b.push(Inst::Load { dst: Reg::R2, base: Reg::R0, offset: 0, width: Width::B4 });
        b.push(Inst::Halt);
    });
    m.run(&mut NoEnv, 10).unwrap();
    assert_eq!(m.reg(Reg::R1), 0x80);
    assert_eq!(m.reg(Reg::R2), 0xffff_ff80);
}

#[test]
fn negative_offsets_address_below_base() {
    let mut m = machine_with_pages();
    m.mem.write_u64((0x100 << 12) + 0x100 - 8, 0x1234);
    load(&mut m, 0x1000, |b| {
        b.mov_imm(Reg::R0, 0x10_0100);
        b.push(Inst::Load { dst: Reg::R1, base: Reg::R0, offset: -8, width: Width::B8 });
        b.push(Inst::Halt);
    });
    m.run(&mut NoEnv, 10).unwrap();
    assert_eq!(m.reg(Reg::R1), 0x1234);
}

#[test]
fn shifts_mask_their_amount() {
    let mut m = machine_with_pages();
    load(&mut m, 0x1000, |b| {
        b.mov_imm(Reg::R0, 1);
        b.push(Inst::Shl(Reg::R0, 65)); // 65 & 63 == 1
        b.push(Inst::Halt);
    });
    m.run(&mut NoEnv, 10).unwrap();
    assert_eq!(m.reg(Reg::R0), 2);
}

#[test]
fn cycle_counter_is_monotonic_across_faults() {
    let mut m = machine_with_pages();
    // Install a trivial handler that skips the faulting instruction.
    struct Skip;
    impl uarch::Env for Skip {
        fn host_call(&mut self, m: &mut Machine, _id: u16) -> Result<(), SimError> {
            if let Some(f) = &mut m.fault_frame {
                f.resume_pc = f.faulting_pc + 4;
            }
            Ok(())
        }
    }
    let mut b = ProgramBuilder::new();
    b.push(Inst::Host(1));
    b.push(Inst::Iret);
    m.load_program(b.link(0x9000));
    m.fault_vectors.page_fault = Some(0x9000);

    load(&mut m, 0x1000, |b| {
        b.mov_imm(Reg::R0, 0xbad_0000);
        b.push(Inst::Load { dst: Reg::R1, base: Reg::R0, offset: 0, width: Width::B8 });
        b.push(Inst::Halt);
    });
    m.mode = PrivMode::User;
    let mut last = m.cycles();
    loop {
        match m.step(&mut Skip).unwrap() {
            Some(_) => break,
            None => {
                assert!(m.cycles() >= last, "clock must never go backwards");
                last = m.cycles();
            }
        }
    }
}

#[test]
fn eibrs_flush_interval_respects_msr_state() {
    // The bimodal behaviour only manifests while IBRS is actually set.
    let mut model = CpuModel::test_model();
    model.spec.eibrs = true;
    model.spec.eibrs_flush_interval = 4;
    model.lat.eibrs_periodic_flush = 500;
    let mut m = Machine::new(model);
    let mut pt = PageTable::new();
    pt.map_range(0x20_0000 - 0x4000, 0x300, 4, Pte::user(0));
    let t = m.mmu.register_table(pt);
    m.mmu.load_cr3(make_cr3(t, 0, false)).then_some(()).unwrap();
    m.set_reg(Reg::SP, 0x20_0000 - 64);
    let mut b = ProgramBuilder::new();
    b.push(Inst::Sysret);
    m.load_program(b.link(0x8000));
    m.syscall_entry = Some(0x8000);
    let mut b = ProgramBuilder::new();
    b.push(Inst::Syscall);
    b.push(Inst::Halt);
    m.load_program(b.link(0x1000));

    // IBRS clear: constant-time entries.
    let mut costs = Vec::new();
    for _ in 0..8 {
        m.mode = PrivMode::User;
        m.pc = 0x1000;
        let c0 = m.cycles();
        m.run(&mut NoEnv, 10).unwrap();
        costs.push(m.cycles() - c0);
    }
    assert!(costs.windows(2).all(|w| w[0] == w[1]), "{costs:?}");

    // IBRS set: every 4th entry is slow.
    m.msrs
        .write(msr_index::IA32_SPEC_CTRL, uarch::isa::spec_ctrl::IBRS)
        .unwrap();
    let mut costs = Vec::new();
    for _ in 0..8 {
        m.mode = PrivMode::User;
        m.pc = 0x1000;
        let c0 = m.cycles();
        m.run(&mut NoEnv, 10).unwrap();
        costs.push(m.cycles() - c0);
    }
    let slow = costs.iter().filter(|c| **c > costs[0]).count();
    assert_eq!(slow, 2, "{costs:?}");
}

#[test]
fn cycles_never_decrease_across_committed_instructions() {
    let mut m = machine_with_pages();
    load(&mut m, 0x1000, |b| {
        b.mov_imm(Reg::R0, 1);
        b.mov_imm(Reg::R1, 2);
        b.push(Inst::Add(Reg::R0, Reg::R1));
        b.push(Inst::Halt);
    });
    let mut cycles = vec![m.cycles()];
    while m.step(&mut NoEnv).unwrap().is_none() {
        cycles.push(m.cycles());
    }
    cycles.push(m.cycles());
    assert_eq!(cycles.len(), 5, "four instructions committed");
    assert!(cycles.windows(2).all(|w| w[0] <= w[1]), "{cycles:?}");
    assert_eq!(m.reg(Reg::R0), 3);
}

/// A wrong-path window that stores and loads at the top of the address
/// space, where a byte range wraps past 2^64. An 8-byte store at
/// `0xffff_ffff_ffff_fffc` covers its reload, and the forwarded value
/// picks the data line a dependent load fills; a 2-byte load at
/// `u64::MAX` after an 8-byte store at 0 shares only byte 0 with it, so
/// it stalls the window instead of forwarding a garbage shift into a
/// second line. Both engines must agree on every counter and on L1D,
/// and neither may overflow.
#[test]
fn window_stores_and_loads_that_wrap_the_address_space_match_the_reference() {
    let build = || {
        let mut m = machine_with_pages();
        load(&mut m, 0x1000, |b| {
            let done = b.new_label();
            b.mov_imm(Reg::R8, 0x10_0000);
            b.mov_imm(Reg::R0, 0);
            b.cmp_imm(Reg::R0, 0);
            b.jcc(Cond::Eq, done); // taken, predicted not taken: a window
            b.mov_imm(Reg::R1, 0xffff_ffff_ffff_fffc);
            b.mov_imm(Reg::R2, 0x740);
            b.push(Inst::Store { src: Reg::R2, base: Reg::R1, offset: 0, width: Width::B8 });
            b.push(Inst::Load { dst: Reg::R3, base: Reg::R1, offset: 0, width: Width::B8 });
            b.push(Inst::Add(Reg::R3, Reg::R8));
            b.push(Inst::Load { dst: Reg::R4, base: Reg::R3, offset: 0, width: Width::B8 });
            b.mov_imm(Reg::R5, 0);
            b.mov_imm(Reg::R2, 0x0180_0000_0000_0000);
            b.push(Inst::Store { src: Reg::R2, base: Reg::R5, offset: 0, width: Width::B8 });
            b.mov_imm(Reg::R6, u64::MAX);
            b.push(Inst::Load { dst: Reg::R7, base: Reg::R6, offset: 0, width: Width::B2 });
            b.push(Inst::Shl(Reg::R7, 4));
            b.push(Inst::Add(Reg::R7, Reg::R8));
            b.push(Inst::Load { dst: Reg::R4, base: Reg::R7, offset: 0, width: Width::B8 });
            b.bind(done);
            b.push(Inst::Halt);
        });
        m
    };
    let state = |m: &Machine| {
        let pmcs: Vec<u64> = Pmc::ALL.iter().map(|p| m.pmc.read(*p)).collect();
        let lines: Vec<u64> = (0..16 * 64).filter(|l| m.l1d.probe(0x100 * 4096 + l * 64)).collect();
        let windows = (m.transient_window_count(), m.transient_inst_count());
        format!("{:?} {} {pmcs:?} {windows:?} {lines:?}", m.regs, m.cycles())
    };
    let (mut fast, mut slow) = (build(), build());
    assert_eq!(fast.run(&mut NoEnv, 100).unwrap(), Stop::Halted);
    assert_eq!(slow.run_reference(&mut NoEnv, 100).unwrap(), Stop::Halted);
    assert_eq!(state(&fast), state(&slow));
    assert_eq!(fast.transient_window_count(), 1);
    // The wrapped store forwarded 0x740 to its reload: line 0x740 / 64
    // of the data pages is resident. The partial overlap ended the
    // window at the 2-byte load: its three dependents never ran.
    assert!(fast.l1d.probe(0x100 * 4096 + 0x740), "the covered reload forwarded its store");
    assert_eq!(fast.transient_inst_count(), 11);
}
