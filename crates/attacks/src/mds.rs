//! Microarchitectural Data Sampling (RIDL/ZombieLoad-style) proof of
//! concept against the simulated kernel.
//!
//! The victim is the kernel itself: every syscall's kernel body loads
//! kernel data, leaving values in the fill buffers. After `sysret`, the
//! attacker issues a faulting load whose transient dependents receive a
//! *sampled* stale buffer entry (untargeted, §3.3). Repeating the attack
//! and histogramming the probe results recovers kernel bytes — unless
//! the exit path's `verw` cleared the buffers first.

use sim_kernel::{userlib, BootParams, Kernel};
use uarch::fault::SimError;
use uarch::isa::{Inst, Reg, Width};
use uarch::model::CpuModel;

use crate::channel::ProbeArray;

/// Number of sampling rounds (MDS is probabilistic; real PoCs hammer).
const ROUNDS: usize = 24;

/// Outcome of the sampling campaign.
#[derive(Debug, Clone)]
pub struct MdsOutcome {
    /// The distinctive kernel byte planted as the secret.
    pub secret: u8,
    /// Histogram of recovered bytes across rounds.
    pub observed: Vec<u8>,
}

impl MdsOutcome {
    /// Whether any round sampled the planted kernel byte.
    pub fn leaked(&self) -> bool {
        self.observed.contains(&self.secret)
    }
}

/// Runs the campaign. `cmdline` controls the kernel (pass `"mds=off"` to
/// drop the verw mitigation).
pub fn run(model: CpuModel, cmdline: &str) -> MdsOutcome {
    let secret: u8 = 0xC9;
    let mut k = Kernel::boot(model, &BootParams::parse(cmdline));
    // Plant the secret where the kernel body's second load reads it
    // (`kernel_fn` loads [kdata + 64]).
    k.machine.mem.write_u8(k.kernel_data_paddr() + 64, secret);

    let probe_base = userlib::data_base() + 0x8000;
    let unmapped = 0x6fff_0000u64;
    let pid = k.spawn(move |b| {
        let top = userlib::begin_loop(b, Reg::R7, ROUNDS as u64);
        // Provoke kernel loads: any syscall runs the kernel body.
        userlib::emit_getpid(b);
        // Sample: faulting load from an unmapped address; dependents use
        // whatever the fill buffers hand over.
        let recover = b.new_label();
        b.lea(Reg::R13, recover);
        b.mov_imm(Reg::R1, unmapped);
        b.mov_imm(Reg::R3, probe_base);
        b.push(Inst::Load { dst: Reg::R4, base: Reg::R1, offset: 0, width: Width::B1 });
        b.push(Inst::Shl(Reg::R4, 9));
        b.push(Inst::Add(Reg::R4, Reg::R3));
        b.push(Inst::Load { dst: Reg::R5, base: Reg::R4, offset: 0, width: Width::B1 });
        b.bind(recover);
        userlib::end_loop(b, Reg::R7, top);
        userlib::emit_exit(b);
    });
    k.start();

    // Run round by round, reading the probe between rounds. Driving from
    // outside lets us flush between samples like a real attacker would.
    let table = k.process(pid).expect("attacker").full_table;
    let probe = ProbeArray { base: probe_base, table };
    let mut observed = Vec::new();
    // Run to completion in slices of 400 instructions, checking hot slots
    // between slices so intermediate probe states are visible.
    loop {
        probe.flush(&mut k.machine);
        let done = match k.machine.run(&mut k.state, 400) {
            Ok(_) => true,
            Err(SimError::InstructionBudgetExhausted) => false,
            Err(e) => panic!("attack failed: {e}"),
        };
        observed.extend(probe.hot_slots(&k.machine));
        if done {
            break;
        }
    }
    observed.sort_unstable();
    observed.dedup();
    MdsOutcome { secret, observed }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpu_models::CpuId;

    #[test]
    fn mds_samples_kernel_data_without_verw() {
        for id in [CpuId::Broadwell, CpuId::SkylakeClient, CpuId::CascadeLake] {
            let out = run(id.model(), "mds=off");
            assert!(out.leaked(), "{id}: observed {:?}", out.observed);
        }
    }

    #[test]
    fn verw_blocks_the_sampling() {
        for id in [CpuId::Broadwell, CpuId::SkylakeClient, CpuId::CascadeLake] {
            let out = run(id.model(), "");
            assert!(!out.leaked(), "{id}: observed {:?}", out.observed);
        }
    }

    #[test]
    fn fixed_hardware_does_not_sample() {
        for id in [CpuId::IceLakeClient, CpuId::IceLakeServer, CpuId::Zen, CpuId::Zen3] {
            let out = run(id.model(), "mds=off");
            assert!(!out.leaked(), "{id}: observed {:?}", out.observed);
        }
    }
}
