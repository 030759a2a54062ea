//! The reference stepper: the pre-refactor `Inst`-matching interpreter,
//! kept verbatim for one release.
//!
//! [`Machine::step`] now dispatches over the pre-decoded stream
//! ([`crate::decode`]). This module preserves the original semantics as
//! an executable oracle: the decode round-trip property tests run random
//! programs through both steppers and require identical architectural
//! state, cycle counts, and PMCs, and `tests/properties.rs` requires
//! identical retired work on four pinned loops (branch, load/store,
//! syscall, transient window).
//!
//! The snapshot is *whole-interpreter*: besides the `Inst`-match dispatch
//! loop, it pins the seed's subsystem implementations (linear-scan TLB
//! walk, unfiltered store-buffer scans, bytewise physical memory access,
//! `Inst`-fetching transient windows) via the `*_reference` entry points,
//! so later fast paths in the shared subsystems are checked against code
//! they did not change.
//!
//! Nothing here is called on any hot path; do not optimize this file.

use crate::fault::{Fault, SimError};
use crate::isa::{Flags, Inst, Pmc, Reg, Width};
use crate::machine::{Env, Machine, Stop};
use crate::model::Vendor;
use crate::msr::MsrEffect;
use crate::predictor::PrivMode;
use crate::program::INST_SIZE;
use crate::transient::{self, TransientStart};

impl Machine {
    /// Runs the reference stepper until `Halt`, `Vmcall`, an error, or the
    /// instruction budget is exhausted — the pre-refactor equivalent of
    /// [`Machine::run`].
    pub fn run_reference(&mut self, env: &mut dyn Env, budget: u64) -> Result<Stop, SimError> {
        let mut remaining = budget;
        loop {
            if remaining == 0 {
                return Err(SimError::InstructionBudgetExhausted);
            }
            remaining -= 1;
            match self.step_reference(env)? {
                Some(stop) => return Ok(stop),
                None => continue,
            }
        }
    }

    /// Executes one committed instruction with the original `Inst`-match
    /// interpreter. Semantically identical to [`Machine::step`], byte for
    /// byte on every counter; only the dispatch mechanism differs.
    pub fn step_reference(&mut self, env: &mut dyn Env) -> Result<Option<Stop>, SimError> {
        let pc = self.pc;
        let inst = match self.code.fetch(pc) {
            Some(i) => i.clone(),
            None => return Err(SimError::BadFetch { addr: pc }),
        };
        self.insts += 1;
        self.pmc.incr(Pmc::Instructions);

        // Privilege check first: privileged instructions fault in user mode.
        if self.mode == PrivMode::User && inst.is_privileged() {
            self.deliver_fault(Fault::GeneralProtection, pc)?;
            return Ok(None);
        }

        let lfence_shadow = std::mem::take(&mut self.lfence_shadow);

        match inst {
            Inst::Nop | Inst::Pause => {
                self.charge(self.model.lat.alu);
                self.pc += INST_SIZE;
            }
            Inst::Halt => {
                self.charge(self.model.lat.alu);
                // Advance past the halt so callers can resume execution
                // at the following instruction (checkpoint pattern).
                self.pc += INST_SIZE;
                return Ok(Some(Stop::Halted));
            }
            Inst::Vmcall => {
                // Guest-visible exit cost; host adds its handling time.
                self.charge(self.model.lat.vmexit);
                self.pc += INST_SIZE;
                return Ok(Some(Stop::Vmcall));
            }
            Inst::Host(id) => {
                self.charge(self.model.lat.alu);
                self.pc += INST_SIZE;
                env.host_call(self, id)?;
            }

            Inst::MovImm(d, v) => self.alu1(|_| v, d),
            Inst::Mov(d, s) => {
                let v = self.reg(s);
                self.alu1(|_| v, d)
            }
            Inst::Add(d, s) => {
                let v = self.reg(s);
                self.alu1(|x| x.wrapping_add(v), d)
            }
            Inst::AddImm(d, v) => self.alu1(|x| x.wrapping_add(v), d),
            Inst::Sub(d, s) => {
                let v = self.reg(s);
                self.alu1(|x| x.wrapping_sub(v), d)
            }
            Inst::SubImm(d, v) => self.alu1(|x| x.wrapping_sub(v), d),
            Inst::Mul(d, s) => {
                let v = self.reg(s);
                self.charge(2); // multiply is slightly slower than simple ALU
                self.alu1_free(|x| x.wrapping_mul(v), d)
            }
            Inst::Div(d, s) => {
                let divisor = self.reg(s);
                if divisor == 0 {
                    self.deliver_fault(Fault::DivideError, pc)?;
                    return Ok(None);
                }
                let div_lat = self.model.lat.div;
                self.charge(div_lat);
                self.pmc.add(Pmc::DividerActive, div_lat);
                let v = self.reg(d) / divisor;
                self.set_reg(d, v);
                self.pc += INST_SIZE;
            }
            Inst::And(d, s) => {
                let v = self.reg(s);
                self.alu1(|x| x & v, d)
            }
            Inst::AndImm(d, v) => self.alu1(|x| x & v, d),
            Inst::Or(d, s) => {
                let v = self.reg(s);
                self.alu1(|x| x | v, d)
            }
            Inst::Xor(d, s) => {
                let v = self.reg(s);
                self.alu1(|x| x ^ v, d)
            }
            Inst::XorImm(d, v) => self.alu1(|x| x ^ v, d),
            Inst::Shl(d, n) => self.alu1(|x| x << (n & 63), d),
            Inst::Shr(d, n) => self.alu1(|x| x >> (n & 63), d),
            Inst::Not(d) => self.alu1(|x| !x, d),

            Inst::Load { dst, base, offset, width } => {
                let vaddr = self.reg(base).wrapping_add(offset as u64);
                match self.read_virt_reference(vaddr, width) {
                    Ok(v) => {
                        self.set_reg(dst, v);
                        // Speculative Store Bypass: if the load *forwarded*
                        // from an in-flight store, a vulnerable part may
                        // first have run ahead with the stale value.
                        self.maybe_ssb_window_reference(vaddr, width, dst, pc + INST_SIZE);
                        self.pc += INST_SIZE;
                    }
                    Err(fault) => {
                        // The faulting load's dependents execute transiently
                        // with whatever the vulnerability lets through
                        // (Meltdown / L1TF / MDS).
                        transient::run_window_reference(
                            self,
                            TransientStart::FaultingLoad { vaddr, width, dst, next_pc: pc + INST_SIZE },
                        );
                        self.deliver_fault(fault, pc)?;
                    }
                }
            }
            Inst::Store { src, base, offset, width } => {
                let vaddr = self.reg(base).wrapping_add(offset as u64);
                let value = self.reg(src);
                match self.write_virt_reference(vaddr, value, width) {
                    Ok(()) => self.pc += INST_SIZE,
                    Err(fault) => self.deliver_fault(fault, pc)?,
                }
            }

            Inst::Cmp(a, b) => {
                self.flags = Flags::compare(self.reg(a), self.reg(b));
                self.charge(self.model.lat.alu);
                self.pc += INST_SIZE;
            }
            Inst::CmpImm(a, imm) => {
                self.flags = Flags::compare(self.reg(a), imm);
                self.charge(self.model.lat.alu);
                self.pc += INST_SIZE;
            }
            Inst::Test(a, b) => {
                let v = self.reg(a) & self.reg(b);
                self.flags = Flags { zero: v == 0, carry: false, sign: (v as i64) < 0, overflow: false };
                self.charge(self.model.lat.alu);
                self.pc += INST_SIZE;
            }

            Inst::Jcc(cond, target) => {
                self.charge(self.model.lat.alu);
                let taken = self.flags.eval(cond);
                let predicted_taken = self.cond_pred.predict(pc, &self.bhb);
                if predicted_taken != taken {
                    self.charge(self.model.lat.mispredict_penalty);
                    let wrong_path = if predicted_taken { target } else { pc + INST_SIZE };
                    transient::run_window_reference(self, TransientStart::WrongPath { pc: wrong_path });
                }
                self.cond_pred.update(pc, &self.bhb, taken);
                if taken {
                    self.bhb.record(pc, target);
                    self.pc = target;
                } else {
                    self.pc += INST_SIZE;
                }
            }
            Inst::Jmp(target) => {
                self.charge(self.model.lat.alu);
                self.bhb.record(pc, target);
                self.pc = target;
            }
            Inst::JmpInd(r) => {
                let target = self.reg(r);
                self.indirect_branch_reference(pc, target, lfence_shadow);
                self.pc = target;
            }
            Inst::Call(target) => {
                self.charge(self.model.lat.alu);
                self.push_stack_reference(pc + INST_SIZE)?;
                self.rsb.push(pc + INST_SIZE);
                self.bhb.record(pc, target);
                self.pc = target;
            }
            Inst::CallInd(r) => {
                let target = self.reg(r);
                self.indirect_branch_reference(pc, target, lfence_shadow);
                self.push_stack_reference(pc + INST_SIZE)?;
                self.rsb.push(pc + INST_SIZE);
                self.pc = target;
            }
            Inst::Ret => {
                self.charge(self.model.lat.alu);
                let actual = self.pop_stack_reference()?;
                let predicted = self.rsb.pop();
                match predicted {
                    Some(p) if p == actual => {}
                    Some(p) => {
                        // RSB mispredict: speculation goes to the stale RSB
                        // entry. This is both the retpoline capture (by
                        // design) and the SpectreRSB vector.
                        self.charge(self.model.lat.ret_mispredict);
                        transient::run_window_reference(self, TransientStart::WrongPath { pc: p });
                    }
                    None => {
                        // RSB underflow: newer parts fall back to the BTB.
                        self.charge(self.model.lat.ret_mispredict);
                        if let Some(p) = self.predict_indirect(pc) {
                            if p != actual {
                                transient::run_window_reference(self, TransientStart::WrongPath { pc: p });
                            }
                        }
                    }
                }
                self.bhb.record(pc, actual);
                self.pc = actual;
            }

            Inst::Cmov(cond, d, s) => {
                // Conditional moves are cheap to execute but sit on the
                // dependency chain of whatever consumes the result — for
                // index masking, the following load cannot begin until the
                // flags and both inputs resolve. The extra cycles model
                // that serialization (the real cost of the mitigation,
                // §5.4).
                let v = self.reg(s);
                let take = self.flags.eval(cond);
                self.charge(self.model.lat.alu + 3);
                if take {
                    self.set_reg(d, v);
                }
                self.pc += INST_SIZE;
            }
            Inst::CmovImm(cond, d, imm) => {
                let take = self.flags.eval(cond);
                self.charge(self.model.lat.alu + 3);
                if take {
                    self.set_reg(d, imm);
                }
                self.pc += INST_SIZE;
            }

            Inst::Lfence => {
                // On Intel, `lfence` only waits for in-flight loads: with
                // nothing outstanding (e.g. right after `swapgs` on kernel
                // entry) it is nearly free — which is why the paper found
                // no measurable LEBench impact from the Spectre V1 kernel
                // mitigation (§4.6). On AMD it is dispatch-serializing (as
                // Linux configures it), so the full cost always applies.
                let loads_in_flight = self.cycles.saturating_sub(self.last_load_cycle) < 20;
                let cost = if self.model.vendor == Vendor::Amd || loads_in_flight {
                    self.model.lat.lfence
                } else {
                    2
                };
                self.charge(cost);
                if self.model.vendor == Vendor::Amd {
                    // The next indirect branch will not speculate.
                    self.lfence_shadow = true;
                }
                self.pc += INST_SIZE;
            }
            Inst::Mfence | Inst::Sfence => {
                self.charge(self.model.lat.lfence + 10);
                self.store_buffer.flush();
                self.pc += INST_SIZE;
            }
            Inst::Clflush(r) => {
                let vaddr = self.reg(r);
                self.charge(self.model.lat.l1_hit + 8);
                let user = self.mode == PrivMode::User;
                if let Ok(tr) = self.mmu.translate_reference(vaddr, crate::mmu::Access::Read, user) {
                    self.l1d.flush_line(tr.paddr);
                }
                self.pc += INST_SIZE;
            }

            Inst::Rdtsc(d) => {
                self.charge(15);
                let c = self.cycles;
                self.set_reg(d, c);
                self.pc += INST_SIZE;
            }
            Inst::Rdpmc { pmc, dst } => {
                self.charge(20);
                let v = self.pmc.read(pmc);
                self.set_reg(dst, v);
                self.pc += INST_SIZE;
            }
            Inst::Wrmsr { msr, src } => {
                let value = self.reg(src);
                let cost = if msr == crate::isa::msr_index::IA32_SPEC_CTRL {
                    self.model.lat.wrmsr_spec_ctrl
                } else if msr == crate::isa::msr_index::IA32_PRED_CMD {
                    self.model.lat.ibpb
                } else if msr == crate::isa::msr_index::IA32_FLUSH_CMD {
                    self.model.lat.l1d_flush
                } else {
                    100
                };
                match self.msrs.write(msr, value) {
                    Ok(effect) => {
                        self.charge(cost);
                        match effect {
                            MsrEffect::None => {}
                            MsrEffect::Ibpb => self.btb.ibpb(),
                            MsrEffect::L1dFlush => self.l1d.flush_all(),
                        }
                        self.pc += INST_SIZE;
                    }
                    Err(fault) => self.deliver_fault(fault, pc)?,
                }
            }
            Inst::Rdmsr { msr, dst } => match self.msrs.read(msr) {
                Ok(v) => {
                    self.charge(60);
                    self.set_reg(dst, v);
                    self.pc += INST_SIZE;
                }
                Err(fault) => self.deliver_fault(fault, pc)?,
            },

            Inst::Syscall => {
                if self.mode == PrivMode::Kernel {
                    return Err(SimError::ModeViolation { what: "syscall from kernel mode" });
                }
                let entry = match self.syscall_entry {
                    Some(e) => e,
                    None => return Err(SimError::ModeViolation { what: "syscall with no entry" }),
                };
                self.charge(self.model.lat.syscall);
                // Return address convention: syscall leaves it in R11.
                self.set_reg(Reg::R11, pc + INST_SIZE);
                self.mode = PrivMode::Kernel;
                self.kernel_entry_side_effects();
                self.pc = entry;
            }
            Inst::Sysret => {
                self.charge(self.model.lat.sysret);
                self.mode = PrivMode::User;
                self.pc = self.reg(Reg::R11);
            }
            Inst::Swapgs => {
                self.charge(self.model.lat.alu + 2);
                self.swapgs_user = !self.swapgs_user;
                self.pc += INST_SIZE;
            }
            Inst::Iret => {
                let frame = match self.fault_frame.take() {
                    Some(f) => f,
                    None => return Err(SimError::ModeViolation { what: "iret with no frame" }),
                };
                self.charge(self.model.lat.sysret + 20);
                self.mode = frame.prior_mode;
                self.pc = frame.resume_pc;
            }
            Inst::MovCr3(r) => {
                let value = self.reg(r);
                self.charge(self.model.lat.swap_cr3);
                if !self.mmu.load_cr3(value) {
                    return Err(SimError::BadPageTable { cr3: value });
                }
                self.pc += INST_SIZE;
            }
            Inst::Verw => {
                if self.model.spec.md_clear {
                    self.charge(self.model.lat.verw_clear);
                    self.fill_buffers.clear();
                } else {
                    self.charge(self.model.lat.verw_legacy);
                }
                self.pc += INST_SIZE;
            }
            Inst::Invlpg(r) => {
                let vaddr = self.reg(r);
                self.charge(120);
                self.mmu.flush_tlb_page(vaddr);
                self.pc += INST_SIZE;
            }

            Inst::Fadd(..)
            | Inst::Fsub(..)
            | Inst::Fmul(..)
            | Inst::Fdiv(..)
            | Inst::FmovImm(..)
            | Inst::Fload { .. }
            | Inst::Fstore { .. }
            | Inst::FtoG(..) => {
                if !self.fpu.enabled {
                    // LazyFP trap point: architecturally this faults. On a
                    // vulnerable part the *transient* dependents still see
                    // the stale registers.
                    if self.model.vuln.lazy_fp {
                        transient::run_window_reference(
                            self,
                            TransientStart::StaleFpu {
                                inst: crate::decode::decode(&inst),
                                next_pc: pc + INST_SIZE,
                            },
                        );
                    }
                    self.deliver_fault(Fault::DeviceNotAvailable, pc)?;
                    return Ok(None);
                }
                if let Err(fault) = self.exec_fp(&inst) {
                    self.deliver_fault(fault, pc)?;
                    return Ok(None);
                }
                self.pc += INST_SIZE;
            }
            Inst::Xsave => {
                let cost = if self.model.spec.xsaveopt {
                    self.model.lat.xsave
                } else {
                    self.model.lat.xsave * 2
                };
                self.charge(cost);
                self.pc += INST_SIZE;
            }
            Inst::Xrstor => {
                self.charge(self.model.lat.xrstor);
                self.pc += INST_SIZE;
            }
        }
        Ok(None)
    }

    /// Executes an enabled-FPU floating point instruction.
    fn exec_fp(&mut self, inst: &Inst) -> Result<(), Fault> {
        match *inst {
            Inst::Fadd(d, s) => {
                self.charge(3);
                self.fpu.state.regs[d.index()] += self.fpu.state.regs[s.index()];
            }
            Inst::Fsub(d, s) => {
                self.charge(3);
                self.fpu.state.regs[d.index()] -= self.fpu.state.regs[s.index()];
            }
            Inst::Fmul(d, s) => {
                self.charge(4);
                self.fpu.state.regs[d.index()] *= self.fpu.state.regs[s.index()];
            }
            Inst::Fdiv(d, s) => {
                let lat = self.model.lat.div;
                self.charge(lat);
                self.pmc.add(Pmc::DividerActive, lat);
                self.fpu.state.regs[d.index()] /= self.fpu.state.regs[s.index()];
            }
            Inst::FmovImm(d, v) => {
                self.charge(self.model.lat.alu);
                self.fpu.state.regs[d.index()] = v;
            }
            Inst::Fload { dst, base, offset } => {
                let vaddr = self.reg(base).wrapping_add(offset as u64);
                let bits = self.read_virt_reference(vaddr, Width::B8)?;
                self.fpu.state.regs[dst.index()] = f64::from_bits(bits);
            }
            Inst::Fstore { src, base, offset } => {
                let vaddr = self.reg(base).wrapping_add(offset as u64);
                let bits = self.fpu.state.regs[src.index()].to_bits();
                self.write_virt_reference(vaddr, bits, Width::B8)?;
            }
            Inst::FtoG(d, s) => {
                self.charge(self.model.lat.alu + 1);
                self.regs[d.index()] = self.fpu.state.regs[s.index()].to_bits();
            }
            // A non-FP instruction routed here is a decoder bug in the
            // caller; surface it as an architectural #UD instead of
            // aborting the whole process.
            _ => return Err(Fault::InvalidOpcode),
        }
        Ok(())
    }

    fn alu1(&mut self, f: impl FnOnce(u64) -> u64, d: Reg) {
        self.charge(self.model.lat.alu);
        self.alu1_free(f, d);
    }

    fn alu1_free(&mut self, f: impl FnOnce(u64) -> u64, d: Reg) {
        let v = f(self.reg(d));
        self.set_reg(d, v);
        self.pc += INST_SIZE;
    }
}

// ---------------------------------------------------------------------------
// Frozen seed helpers.
//
// The refactor also introduced fast paths inside shared subsystems (TLB
// micro-cache, store-buffer disjoint filter, single-frame physical memory
// access, decoded transient windows). The reference stepper must not
// benefit from any of them — it is the *seed* interpreter, frozen whole.
// These helpers are the seed's committed load/store/branch/stack paths
// verbatim, wired to the `_reference` subsystem entry points. They are
// observable-identical to the fast versions; the decode round-trip
// property tests pin that equivalence.
// ---------------------------------------------------------------------------

use crate::cache::CacheOutcome;
use crate::mmu::Access;
use crate::store_buffer::ForwardOutcome;

impl Machine {
    /// Seed committed load: translate, charge TLB/SSBD/cache costs,
    /// consult the store buffer, read physical memory bytewise.
    fn read_virt_reference(&mut self, vaddr: u64, width: Width) -> Result<u64, Fault> {
        let user = self.mode == PrivMode::User;
        let tr = self.mmu.translate_reference(vaddr, Access::Read, user)?;
        if !tr.tlb_hit {
            self.charge(self.model.lat.tlb_miss);
        }
        let now = self.cycles;
        if self.ssbd_active()
            && now.saturating_sub(self.last_ssbd_stall) > 12
            && self.store_buffer.has_unresolved_store(now, 6)
        {
            self.charge(self.model.lat.ssbd_forward_stall);
            self.last_ssbd_stall = self.cycles;
        }
        let value = match self.store_buffer.check_load_reference(vaddr, width, now) {
            ForwardOutcome::Forwarded { value } => {
                self.charge(self.model.lat.l1_hit);
                self.l1d.access(tr.paddr);
                value
            }
            ForwardOutcome::PartialOverlap => {
                self.charge(self.model.lat.l1_hit + 12);
                self.l1d.access(tr.paddr);
                self.mem.read_reference(tr.paddr, width)
            }
            ForwardOutcome::NoConflict => {
                let cost = match self.l1d.access(tr.paddr) {
                    CacheOutcome::Hit => self.model.lat.l1_hit,
                    CacheOutcome::Miss => {
                        self.pmc.incr(Pmc::L1dMiss);
                        match self.l2.access(tr.paddr) {
                            CacheOutcome::Hit => self.model.lat.l2_hit,
                            CacheOutcome::Miss => self.model.lat.l1_miss,
                        }
                    }
                };
                self.charge(cost);
                self.mem.read_reference(tr.paddr, width)
            }
        };
        self.fill_buffers.record(value);
        self.last_load_cycle = self.cycles;
        Ok(value)
    }

    /// Seed committed store; see [`Machine::read_virt_reference`].
    fn write_virt_reference(&mut self, vaddr: u64, value: u64, width: Width) -> Result<(), Fault> {
        let user = self.mode == PrivMode::User;
        let tr = self.mmu.translate_reference(vaddr, Access::Write, user)?;
        if !tr.tlb_hit {
            self.charge(self.model.lat.tlb_miss);
        }
        self.l1d.access(tr.paddr);
        self.l2.access(tr.paddr);
        self.charge(self.model.lat.l1_hit);
        let now = self.cycles;
        let stale = self.mem.read_reference(tr.paddr, width);
        self.store_buffer.push(vaddr, width, value, stale, now);
        self.mem.write_reference(tr.paddr, value, width);
        self.fill_buffers.record(width.truncate(value));
        Ok(())
    }

    /// Seed committed indirect branch: prediction check, transient window
    /// on mispredict, BTB training, BHB update.
    fn indirect_branch_reference(&mut self, pc: u64, actual: u64, lfence_shadow: bool) {
        if lfence_shadow {
            let overlap =
                self.model.lat.lfence.saturating_sub(self.model.lat.amd_retpoline_extra);
            self.refund(overlap);
        }
        self.charge(self.model.lat.indirect_branch);
        let predicted = self.predict_indirect(pc);
        match predicted {
            Some(p) if p == actual => {}
            Some(p) => {
                self.charge(self.model.lat.indirect_mispredict);
                self.pmc.incr(Pmc::IndirectMispredict);
                if !lfence_shadow {
                    transient::run_window_reference(self, TransientStart::WrongPath { pc: p });
                }
            }
            None => {
                self.charge(self.model.lat.indirect_mispredict);
                self.pmc.incr(Pmc::IndirectMispredict);
            }
        }
        self.btb.train(pc, actual, self.mode, &self.bhb);
        self.bhb.record(pc, actual);
    }

    /// Seed SSB window check on a committed load that may have forwarded.
    fn maybe_ssb_window_reference(&mut self, vaddr: u64, width: Width, dst: Reg, next_pc: u64) {
        if !self.model.vuln.ssb || self.ssbd_active() {
            return;
        }
        let now = self.cycles;
        let stale = match self.store_buffer.bypass_value_reference(vaddr, width, now) {
            Some(s) => s,
            None => return,
        };
        if stale == self.reg(dst) {
            return;
        }
        transient::run_window_reference(self, TransientStart::StoreBypass { stale, dst, next_pc });
    }

    /// Seed stack push (SP convention register).
    fn push_stack_reference(&mut self, value: u64) -> Result<(), SimError> {
        let sp = self.reg(Reg::SP).wrapping_sub(8);
        self.set_reg(Reg::SP, sp);
        match self.write_virt_reference(sp, value, Width::B8) {
            Ok(()) => Ok(()),
            Err(_) => Err(SimError::ModeViolation { what: "stack push faulted" }),
        }
    }

    /// Seed stack pop.
    fn pop_stack_reference(&mut self) -> Result<u64, SimError> {
        let sp = self.reg(Reg::SP);
        let v = match self.read_virt_reference(sp, Width::B8) {
            Ok(v) => v,
            Err(_) => return Err(SimError::ModeViolation { what: "stack pop faulted" }),
        };
        self.set_reg(Reg::SP, sp.wrapping_add(8));
        Ok(v)
    }
}
